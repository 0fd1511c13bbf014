"""``python -m repro.testing.fuzz`` -- budgeted differential fuzzing.

Round-robins case generation across the selected oracles, re-deriving
each case's RNG from ``(root seed, oracle name, case index)`` so any
failure is replayable from its printed seed line alone.  Every case of
an engine oracle runs on a deployment drawn from its own RNG path,
``(root seed, oracle name, case index, "deployment")``, or on the one
``--deployment SPEC`` pins.  Failures are minimized by the shrinker and
emitted as ready-to-paste pytest repro snippets (and, with
``--emit-dir``, written to files for CI artifact upload).

Examples (``--mutate`` is the harness's own mutation smoke, see
docs/testing.md)::

    python -m repro.testing.fuzz --budget-cases 200 --seed 0
    python -m repro.testing.fuzz --budget-seconds 300 --oracles cutty
    python -m repro.testing.fuzz --budget-cases 40 --mutate lazy
    python -m repro.testing.fuzz --budget-cases 60 --deployment \\
        multiprocess,workers=2,batch=64
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time
from collections import Counter, namedtuple
from typing import Dict, List, Optional

from repro.testing.deployment import Deployment, draw
from repro.testing.oracles import (
    DEFAULT_ORACLE_NAMES,
    CuttyStrategyOracle,
    Oracle,
    make_oracle,
)
from repro.testing.seeds import DEFAULT_ROOT_SEED, rng_for
from repro.testing.shrinker import failure_of, format_repro, shrink


FuzzFailure = namedtuple("FuzzFailure", "seed_line detail repro")


class FuzzReport:
    def __init__(self) -> None:
        self.cases_run = 0
        self.per_oracle: Counter = Counter()
        #: Per engine oracle, cases per backend and per batch size, and
        #: crashes drawn and fired.
        self.coverage: Dict[str, Counter] = {}
        self.failures: List[FuzzFailure] = []
        self.elapsed = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures


#: What the summary counts per engine oracle.
COVERAGE_AXES = ("cooperative", "multiprocess", "batch1", "batch16",
                 "batch64", "crash_drawn", "crash_fired")


def build_oracles(names: List[str],
                  mutate: Optional[str] = None) -> List[Oracle]:
    return [make_oracle(name, mutate=mutate)
            if mutate is not None and name == CuttyStrategyOracle.name
            else make_oracle(name) for name in names]


def run_fuzz(root_seed: int, oracles: List[Oracle],
             budget_cases: Optional[int] = None,
             budget_seconds: Optional[float] = None,
             shrink_checks: int = 300,
             max_failures: int = 5,
             deployment: Optional[Deployment] = None,
             log=lambda line: None) -> FuzzReport:
    """Round-robin the oracles until a budget runs out (or enough
    failures accumulated to stop being informative).  Engine oracles run
    each case on a drawn deployment, or on ``deployment`` if given."""
    if budget_cases is None and budget_seconds is None:
        budget_cases = 100
    report = FuzzReport()
    started = time.monotonic()
    index = 0
    while ((budget_cases is None or report.cases_run < budget_cases)
           and (budget_seconds is None
                or time.monotonic() - started < budget_seconds)):
        if len(report.failures) >= max_failures:
            log("stopping early: %d failures" % len(report.failures))
            break
        oracle = oracles[index % len(oracles)]
        rng = rng_for(root_seed, oracle.name, index)
        case = oracle.generate(rng, root_seed, index)
        if oracle.runs_engine:
            case = oracle.deploy(case, deployment or draw(rng_for(
                root_seed, oracle.name, index, "deployment")))
        detail = failure_of(oracle, case)
        report.cases_run += 1
        report.per_oracle[oracle.name] += 1
        if case.deployment is not None:
            ran = case.deployment
            report.coverage.setdefault(oracle.name, Counter()).update(
                [ran.backend, "batch%d" % ran.batch_size]
                + ["crash_drawn"] * (ran.crash is not None)
                + ["crash_fired"] * ran.crash_fired)
        if detail is not None:
            log("FAIL %s -- shrinking (|stream|=%d)"
                % (case.seed_line, len(case.stream)))
            shrunk = shrink(oracle, case, detail, max_checks=shrink_checks)
            report.failures.append(FuzzFailure(
                case.seed_line, shrunk.detail,
                format_repro(shrunk.case, shrunk.detail)))
        index += 1
    report.elapsed = time.monotonic() - started
    return report


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.testing.fuzz",
        description="Differential fuzzing of batch/stream/Cutty paths.")
    parser.add_argument("--seed", type=int, default=DEFAULT_ROOT_SEED,
                        help="root seed (default %(default)s)")
    parser.add_argument("--budget-cases", type=int, default=None,
                        help="stop after this many cases")
    parser.add_argument("--budget-seconds", type=float, default=None,
                        help="stop after this much wall time")
    parser.add_argument("--oracles", default=",".join(DEFAULT_ORACLE_NAMES),
                        help="comma-separated oracle names "
                             "(default: %(default)s)")
    parser.add_argument("--mutate", default=None, metavar="STRATEGY",
                        help="deliberately corrupt this Cutty strategy's "
                             "output (mutation smoke; expect failures)")
    parser.add_argument("--shrink-checks", type=int, default=300,
                        help="oracle re-checks allowed per shrink "
                             "(default %(default)s)")
    parser.add_argument("--emit-dir", default=None,
                        help="write shrunk repro snippets into this "
                             "directory (for CI artifacts)")
    parser.add_argument("--deployment", type=Deployment.parse,
                        default=None, metavar="SPEC",
                        help="run every engine oracle's cases on this "
                             "deployment, e.g. multiprocess,workers=2,"
                             "batch=64 (default: drawn per case)")
    args = parser.parse_args(argv)

    names = [name.strip() for name in args.oracles.split(",") if name.strip()]
    oracles = build_oracles(names, mutate=args.mutate)

    log = functools.partial(print, flush=True)
    log("fuzz: seed=%d oracles=%s budget_cases=%s budget_seconds=%s "
        "deployment=%s%s"
        % (args.seed, ",".join(names), args.budget_cases,
           args.budget_seconds, args.deployment or "drawn",
           " MUTATE=%s" % args.mutate if args.mutate else ""))
    report = run_fuzz(args.seed, oracles,
                      budget_cases=args.budget_cases,
                      budget_seconds=args.budget_seconds,
                      shrink_checks=args.shrink_checks,
                      deployment=args.deployment, log=log)

    per_oracle = " ".join("%s=%d" % item
                          for item in sorted(report.per_oracle.items()))
    log("fuzz: %d cases in %.1fs (%s)"
        % (report.cases_run, report.elapsed, per_oracle))
    for name, counts in sorted(report.coverage.items()):
        log("  %-13s %s" % (name, " ".join(
            "%s=%d" % (axis, counts[axis]) for axis in COVERAGE_AXES)))
    if report.ok:
        log("fuzz: OK")
        return 0

    for number, failure in enumerate(report.failures, start=1):
        log("\n=== failure %d/%d: %s\n%s\n"
            "--- shrunk repro (paste into tests/) ---\n%s"
            % (number, len(report.failures), failure.seed_line,
               failure.detail, failure.repro))
        if args.emit_dir:
            os.makedirs(args.emit_dir, exist_ok=True)
            path = os.path.join(args.emit_dir,
                                "repro_%02d.py" % number)
            with open(path, "w") as handle:
                handle.write("# %s\n%s" % (failure.seed_line, failure.repro))
            log("wrote %s" % path)
    log("fuzz: FAILED (%d failures)" % len(report.failures))
    return 1


if __name__ == "__main__":
    sys.exit(main())
