"""Minimize a failing differential case to a small repro.

Greedy delta debugging over the case's *stream* (the only unbounded part
of a case; params are already a handful of scalars):

1. chunk removal -- try dropping halves, then quarters, ... down to
   single elements (classic ddmin), keeping any reduction that still
   fails;
2. value simplification -- try replacing each element's payload value
   with 0 (timestamps and keys are left alone: they carry the window
   structure that usually *is* the bug);
3. deployment simplification -- move the case's deployment toward the
   default one axis at a time (no crash, batch 1, the cooperative
   backend, one worker, the shm exchange), keeping each move under
   which the case still fails, so a repro names the smallest
   deployment that fails.

Every candidate is judged by re-running the oracle, so a shrunk case
fails for the same oracle, if not with the same message.  The check
budget keeps shrinking (engine oracles re-run whole jobs) from eating
the fuzz time budget.

:func:`format_repro` renders a shrunk case as a ready-to-paste pytest
function: all inputs inlined as literals, rebuilt through the same
oracle, no RNG involved.
"""

from __future__ import annotations

import pprint
from collections import namedtuple
from typing import Optional

from repro.testing.deployment import Deployment
from repro.testing.oracles import Case, Oracle

#: The deployment axes in the order the shrinker resets them.
_SHRINK_ORDER = ("crash", "batch_size", "backend", "workers", "exchange")


#: The shrunk case, its mismatch message and the checks it took.
ShrinkResult = namedtuple("ShrinkResult", "case detail checks_used")


def failure_of(oracle: Oracle, case: Case) -> Optional[str]:
    """Mismatch detail, with oracle crashes counted as failures too (a
    shrink candidate that makes the harness blow up is still a repro)."""
    try:
        return oracle.check(case)
    except Exception as exc:  # noqa: BLE001 - deliberate: crashes repro too
        return "oracle raised %s: %s" % (type(exc).__name__, exc)


def shrink(oracle: Oracle, case: Case, detail: str,
           max_checks: int = 300) -> ShrinkResult:
    """Reduce ``case.stream``, then ``case.deployment``, while
    ``oracle.check`` keeps failing."""
    budget = {"left": max_checks, "used": 0}

    def still_fails(candidate: Case) -> Optional[str]:
        if budget["left"] <= 0:
            return None
        budget["left"] -= 1
        budget["used"] += 1
        return failure_of(oracle, candidate)

    best, best_detail = case, detail

    # Pass 1: ddmin-style chunk removal.
    chunk = max(1, len(best.stream) // 2)
    while chunk >= 1 and budget["left"] > 0:
        start, reduced = 0, False
        while start < len(best.stream) and budget["left"] > 0:
            candidate_stream = (best.stream[:start]
                                + best.stream[start + chunk:])
            if not candidate_stream:
                start += chunk
                continue
            candidate = best.with_stream(candidate_stream)
            candidate_detail = still_fails(candidate)
            if candidate_detail is not None:
                best, best_detail, reduced = candidate, candidate_detail, True
                # keep start: the next chunk slid into this position
            else:
                start += chunk
        if not reduced:
            chunk //= 2

    # Pass 2: zero out payload values (element position 1 for both
    # (value, ts) and (key, value, ts) shapes -- by construction of the
    # generators the payload always sits before the timestamp).
    value_index = 0 if best.stream and len(best.stream[0]) == 2 else 1
    for position in range(len(best.stream)):
        if budget["left"] <= 0:
            break
        element = best.stream[position]
        if element[value_index] == 0:
            continue
        simplified = (element[:value_index] + (0,)
                      + element[value_index + 1:])
        candidate = best.with_stream(best.stream[:position] + [simplified]
                                     + best.stream[position + 1:])
        candidate_detail = still_fails(candidate)
        if candidate_detail is not None:
            best, best_detail = candidate, candidate_detail

    # Pass 3: the deployment, a check per axis even from a spent budget
    # -- a repro naming more deployment than it needs misleads.
    budget["left"] = max(budget["left"], len(_SHRINK_ORDER))
    for axis in _SHRINK_ORDER:
        if best.deployment is None:
            break
        candidate = oracle.deploy(best, best.deployment.replace(
            **{axis: getattr(Deployment(), axis)}))
        if candidate.deployment == best.deployment:
            continue
        candidate_detail = still_fails(candidate)
        if candidate_detail is not None:
            best, best_detail = candidate, candidate_detail
    return ShrinkResult(best, best_detail, budget["used"])


def format_repro(case: Case, detail: str) -> str:
    """A self-contained pytest function reproducing ``case``, on its
    deployment."""
    test_name = ("test_shrunk_%s_seed%d_case%d"
                 % (case.oracle_name.replace("-", "_"),
                    max(case.root_seed, 0), max(case.index, 0)))
    params_literal = pprint.pformat(case.params, width=68)
    stream_literal = pprint.pformat(case.stream, width=68)
    first_line = detail.splitlines()[0] if detail else "mismatch"
    imports = "    from repro.testing.oracles import make_oracle\n"
    deployment = ""
    if case.deployment is not None:
        imports = ("    from repro.testing.deployment import Deployment\n"
                   + imports)
        deployment = ", deployment=%r" % case.deployment
    return """\
# Shrunk from: {seed_line}
# Failure: {first_line}
def {test_name}():
{imports}
    oracle = make_oracle({oracle_name!r})
    params = {params_literal}
    stream = {stream_literal}
    case = oracle.case_from(params, stream{deployment})
    mismatch = oracle.check(case)
    assert mismatch is None, mismatch
""".format(seed_line=case.seed_line, first_line=first_line,
           test_name=test_name, imports=imports,
           oracle_name=case.oracle_name, deployment=deployment,
           params_literal=_indent_literal(params_literal),
           stream_literal=_indent_literal(stream_literal))


def _indent_literal(literal: str) -> str:
    lines = literal.splitlines()
    return "\n".join([lines[0]] + ["    " + line for line in lines[1:]])
