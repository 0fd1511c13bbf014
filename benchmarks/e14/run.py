"""e14 -- the repo's benchmark: six workloads, seven end-to-end metrics,
per-layer metrics from a traced round.

    python benchmarks/e14/run.py                       # all six workloads
    python benchmarks/e14/run.py --workload keyed_window --seed 3
    python benchmarks/e14/run.py --workload keyed_window --traced
    python benchmarks/e14/run.py --quick               # sizes / 20, 1 round
    python benchmarks/e14/run.py --selfcheck           # two sets, compared

One workload runs per process (peak memory and GC state are then the
workload's own); without ``--workload`` this file runs each workload in
a child process and relays its output.  A workload run is: set-up
(generate the inputs from the seed, build the program, plan it, run a
warm-up round over a quarter of the inputs) five times over, the
reference computation, then timed rounds -- each a fresh ``Environment``
over the same inputs, timing ``env.execute()`` only -- until
``--seconds`` of measured time have passed.  Every round's output is
checked against the plain-Python reference.  Each metric is printed as
its best round with the median, quartiles and sample count beside it;
the last line printed is one JSON object -- ``correct``, ``attempted``,
``failed``, ``metrics`` -- whose values are the best rounds.

Names, units and bounds of the metrics live in ``BENCHMARK.json`` at the
repository root; ``README.md`` beside this file explains them.
"""

import argparse
import contextlib
import gc
import glob
import json
import multiprocessing
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT_DIR = os.path.join(HERE, "out")
for _path in (HERE, os.path.join(ROOT, "benchmarks"),
              os.path.join(ROOT, "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

#: A round that runs longer than this failed; its worker processes are
#: killed and reaped before the next round starts.
ROUND_TIMEOUT_S = 120
#: Share of the inputs the warm-up round of each set-up runs over.
WARMUP_FRACTION = 0.25
SETUPS = 5
QUICK_SCALE = 0.05


class RoundTimeout(Exception):
    """A round exceeded ROUND_TIMEOUT_S."""


def _on_alarm(signum, frame):
    raise RoundTimeout("round exceeded %d s" % ROUND_TIMEOUT_S)


def load_manifest():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


# -- one round --------------------------------------------------------------------


class Round:
    def __init__(self, started_s, ended_s, cpu_s, parent_cpu_s, result):
        self.started_s = started_s
        self.ended_s = ended_s
        self.wall_s = ended_s - started_s
        self.cpu_s = cpu_s
        self.parent_cpu_s = parent_cpu_s
        self.result = result


def _cpu_seconds(who):
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def reap_children():
    """Kill and wait for any worker process a round left behind."""
    for process in multiprocessing.active_children():
        process.kill()
        process.join()


def run_round(job):
    """``env.execute()`` under the round timeout, with its CPU cost
    (this process plus the worker processes it reaped)."""
    gc.collect()
    own = _cpu_seconds(resource.RUSAGE_SELF)
    children = _cpu_seconds(resource.RUSAGE_CHILDREN)
    signal.setitimer(signal.ITIMER_REAL, ROUND_TIMEOUT_S)
    try:
        started = time.perf_counter()
        result = job.env.execute()
        ended = time.perf_counter()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        reap_children()
    own = _cpu_seconds(resource.RUSAGE_SELF) - own
    children = _cpu_seconds(resource.RUSAGE_CHILDREN) - children
    return Round(started, ended, own + children, own, result)


@contextlib.contextmanager
def scratch_dir(path):
    """Where one round keeps its sink file and checkpoints; gone once
    the round has been read back."""
    os.makedirs(path, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def scored_round(workload, inputs, expected, scratch):
    """Build, run and score one round; a round that raises or times out
    fails every row it should have produced.  Returns
    ``(round or None, job, score)``."""
    from workloads import failed_round
    job = None
    with scratch_dir(scratch):
        try:
            job = workload.build(inputs, scratch)
            done = run_round(job)
            return done, job, workload.score(job, expected, done.started_s,
                                             done.ended_s)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            return None, job, failed_round(_expected_rows(expected))


def _expected_rows(expected):
    rows = expected["rows"]
    return rows if isinstance(rows, int) else sum(rows.values())


# -- set-up -----------------------------------------------------------------------


def set_up(workload, seed, scale, scratch):
    """Generate the inputs, build and plan the program, run the warm-up
    round.  Returns ``(inputs, setup_s, generate_s)``."""
    with scratch_dir(scratch):
        started = time.perf_counter()
        inputs = workload.generate(seed, scale)
        generated = time.perf_counter()
        job = workload.build(workload.prefix(inputs, WARMUP_FRACTION),
                             scratch)
        job.env.build_job_graph()
        run_round(job)
        return inputs, time.perf_counter() - started, generated - started


def plan_stats(workload, inputs, scratch):
    """Time the planner from outside and read the plan's shape."""
    with scratch_dir(scratch):
        env = workload.build(inputs, scratch).env
        started = time.perf_counter()
        graph = env.build_job_graph()
        optimize_s = time.perf_counter() - started
    vertices = list(graph.vertices.values())
    operators = sum(len(vertex.names) for vertex in vertices)
    return {"optimize_s": optimize_s,
            "tasks": sum(vertex.parallelism for vertex in vertices),
            "chained_share": (operators - len(vertices)) / operators}


# -- the traced round -------------------------------------------------------------


def traced_round(workload, inputs, expected, scratch, untraced_wall_s,
                 generate_s):
    """One more round at the same size with the wrappers of
    :mod:`trace` installed.  Returns ``(score, per-layer metrics, layer
    shares)`` and leaves the spans in ``out/trace-<workload>.jsonl``."""
    import layers
    import trace
    from workloads import PacedSource
    os.makedirs(OUT_DIR, exist_ok=True)
    for stale in glob.glob(os.path.join(
            OUT_DIR, "trace-%s.*" % workload.name)):
        os.remove(stale)
    plan = plan_stats(workload, inputs, scratch)
    tracer = trace.Tracer(workload.name, OUT_DIR)
    trace.calibrate(tracer)
    uninstall = trace.install(tracer, extra_sources=[PacedSource])
    try:
        done, job, score = scored_round(workload, inputs, expected, scratch)
        engine = job.env.last_engine if job is not None else None
        if hasattr(engine, "tasks"):
            trace.collect_engine_counts(tracer, engine)
    finally:
        uninstall()
    if done is None:
        return score, None, None
    span_path = os.path.join(OUT_DIR, "trace-%s.jsonl" % workload.name)
    tracer.dump(span_path)
    workers = []
    for summary_path in sorted(glob.glob(os.path.join(
            OUT_DIR, "trace-%s.w*.summary.json" % workload.name))):
        with open(summary_path, encoding="utf-8") as handle:
            workers.append(json.load(handle))
        os.remove(summary_path)
        worker_spans = summary_path[:-len(".summary.json")] + ".jsonl"
        with open(worker_spans, encoding="utf-8") as source, \
                open(span_path, "a", encoding="utf-8") as target:
            shutil.copyfileobj(source, target)
        os.remove(worker_spans)
    sources = job.handles.get("sources")
    lag_ms = 0.0
    if sources and sources[-1].lag_s:
        from harness import percentile
        lag_ms = percentile(sources[-1].lag_s, 0.99) * 1000.0
    main = tracer.summary()
    metrics = layers.layer_metrics(
        main, workers, done.result, job.env.job_report().as_dict(), plan,
        generate_s, lag_ms, done.parent_cpu_s, done.wall_s, untraced_wall_s)
    return score, metrics, layers.layer_shares(main, workers)


# -- one workload -----------------------------------------------------------------


def spread(values):
    """``(median, q1, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def best(samples, better):
    """The least disturbed sample.  Everything else that runs on the
    host only ever slows a round down, so the fastest round is the one
    closest to the program's own cost; on the shared box this was
    written on the median round moved by +-17 % between runs of the same
    code while the best round stayed within 1 % (see README.md)."""
    return min(samples) if better == "lower" else max(samples)


def peak_rss_mb():
    """``ru_maxrss`` of this process plus that of the largest worker
    process it reaped (kilobytes on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def measure(workload, seed, seconds, rounds, quick, trace_mode):
    """Run one workload; returns the report dict ``print_report`` and the
    final JSON line are made from."""
    scale = QUICK_SCALE if quick else 1.0
    setups = 1 if quick or trace_mode == "only" else SETUPS
    scratch = os.path.join(OUT_DIR, "run-%d" % os.getpid(), workload.name)
    setup_s, generate_s = [], []
    for _ in range(setups):
        inputs = None  # let the previous copy go before making the next
        inputs, total, generated = set_up(workload, seed, scale, scratch)
        setup_s.append(total)
        generate_s.append(generated)
    expected = workload.expect(inputs)
    # The inputs and the reference stay alive for the whole run; without
    # this every full collection the engine triggers would walk them.
    gc.collect()
    gc.freeze()

    if rounds is None and (quick or trace_mode == "only"):
        rounds = 1
    timed, scores = [], []
    measured = 0.0
    while (len(scores) < rounds if rounds is not None
           else measured < seconds):
        done, _, score = scored_round(workload, inputs, expected, scratch)
        scores.append(score)
        if done is None:
            measured += ROUND_TIMEOUT_S  # a failed round still uses time
            continue
        timed.append((done, score))
        measured += done.wall_s

    records = workload.records(inputs)
    report = {
        "workload": workload.name, "seed": seed,
        "digest": workload.digest(inputs), "records": records,
        "rounds": len(scores), "setups": setups,
        "samples": {
            "setup_s": setup_s,
            "throughput_rps": [records / done.wall_s for done, _ in timed],
            "cpu_s_per_mrec": [done.cpu_s / records * 1e6
                               for done, _ in timed],
            "result_latency_ms_p50": [s.p50_ms for _, s in timed if not s.failed],
            "result_latency_ms_p99": [s.p99_ms for _, s in timed if not s.failed],
            "within_limit_share": [s.within_share for s in scores],
        },
    }
    if trace_mode != "off":
        untraced = statistics.median([done.wall_s for done, _ in timed] or [0.0])
        score, layer_values, shares = traced_round(
            workload, inputs, expected, scratch, untraced,
            statistics.median(generate_s))
        scores.append(score)
        report["layers"] = layer_values
        report["layer_shares"] = shares
    report["samples"]["peak_rss_mb"] = [peak_rss_mb()]
    report["attempted"] = sum(score.attempted for score in scores)
    report["failed"] = sum(score.failed for score in scores)
    shutil.rmtree(os.path.dirname(scratch), ignore_errors=True)
    gc.unfreeze()
    return report


def result_line(report, manifest, trace_mode):
    """The JSON object the benchmark contract asks for."""
    if trace_mode == "only":
        units = {metric["name"]: metric["unit"]
                 for metric in manifest["per_layer"]}
        values = report.get("layers") or {}
        metrics = {name: {"value": values.get(name, 0), "unit": unit}
                   for name, unit in units.items()}
    else:
        metrics = {}
        for metric in manifest["end_to_end"]:
            samples = report["samples"][metric["name"]]
            metrics[metric["name"]] = {
                "value": best(samples, metric["better"]) if samples else 0.0,
                "unit": metric["unit"]}
    return {"correct": report["failed"] == 0 and report["attempted"] > 0,
            "attempted": max(1, report["attempted"]),
            "failed": report["failed"], "metrics": metrics}


def print_report(report, manifest):
    from harness import format_table
    print("%s  seed=%d  input digest=%s  %d input records/round  "
          "%d set-ups, %d rounds"
          % (report["workload"], report["seed"], report["digest"],
             report["records"], report["setups"], report["rounds"]))
    rows = []
    for metric in manifest["end_to_end"]:
        samples = report["samples"][metric["name"]]
        if not samples:
            rows.append([metric["name"], metric["unit"], "-", "-", "-", "-",
                         0, metric["bound"]])
            continue
        median, q1, q3 = spread(samples)
        rows.append([metric["name"], metric["unit"],
                     best(samples, metric["better"]), median, q1, q3,
                     len(samples), metric["bound"]])
    print(format_table(
        ["end-to-end metric", "unit", "best", "median", "q1", "q3", "n",
         "bound"], rows))
    print("ops_attempted=%d  ops_failed=%d"
          % (report["attempted"], report["failed"]))
    if report.get("layers"):
        units = {metric["name"]: metric["unit"]
                 for metric in manifest["per_layer"]}
        print(format_table(
            ["per-layer metric (traced round)", "unit", "value"],
            [[name, units[name], value]
             for name, value in report["layers"].items()]))
        print(format_table(
            ["layer", "self s", "share"],
            [[layer, seconds, share]
             for layer, seconds, share in report["layer_shares"]],
            title="self time per layer, all processes of the traced round"))


# -- every workload, and the self-check -------------------------------------------


def run_child(name, args):
    """Run one workload in its own process; relay its output and return
    its result line."""
    command = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.rounds is not None:
        command += ["--rounds", str(args.rounds)]
    if args.quick:
        command.append("--quick")
    if args.traced:
        command.append("--traced")
    completed = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                               timeout=900)
    sys.stdout.write(completed.stdout)
    sys.stdout.flush()
    if completed.returncode != 0:
        return None
    return json.loads(completed.stdout.strip().splitlines()[-1])


def selfcheck(names, args, manifest):
    """Two full sets back to back; fail when any end-to-end metric of any
    workload is worse in the second set by more than its bound."""
    from harness import format_table
    sets = [{name: run_child(name, args) for name in names}
            for _ in range(2)]
    rows = []
    worst_ok = True
    for name in names:
        first, second = sets[0][name], sets[1][name]
        if first is None or second is None or not (
                first["correct"] and second["correct"]):
            rows.append([name, "(run failed or incorrect)", "", "", "", "",
                         "FAIL"])
            worst_ok = False
            continue
        for metric in manifest["end_to_end"]:
            a = first["metrics"][metric["name"]]["value"]
            b = second["metrics"][metric["name"]]["value"]
            worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
            ok = worse <= metric["bound"]
            worst_ok = worst_ok and ok
            rows.append([name, metric["name"], a, b, worse, metric["bound"],
                         "ok" if ok else "FAIL"])
    print(format_table(["workload", "metric", "set 1", "set 2",
                        "worse by", "bound", ""], rows,
                       title="selfcheck: two sets of the same code"))
    return 0 if worst_ok else 1


def main(argv=None):
    manifest = load_manifest()
    names = [entry["name"] for entry in manifest["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=manifest["run_seconds"],
                        help="measured time per workload run")
    parser.add_argument("--rounds", type=int,
                        help="timed rounds, instead of --seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: one untraced and one traced round; the "
                             "result line carries the per-layer metrics")
    parser.add_argument("--traced", action="store_true",
                        help="a full run plus the traced round")
    parser.add_argument("--quick", action="store_true",
                        help="sizes / 20, one round, outputs still checked")
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args(argv)

    if args.selfcheck:
        return selfcheck([args.workload] if args.workload else names, args,
                         manifest)
    if args.workload is None:
        results = [run_child(name, args) for name in names]
        return 0 if all(r is not None and r["correct"] for r in results) else 1

    try:
        from workloads import WORKLOADS
    except ImportError as exc:
        print("e14 needs the repository's src/ and benchmarks/harness.py "
              "beside it: %s" % exc, file=sys.stderr)
        return 2
    workload = next(w for w in WORKLOADS if w.name == args.workload)
    trace_mode = "only" if args.trace else "also" if args.traced else "off"
    signal.signal(signal.SIGALRM, _on_alarm)
    try:
        report = measure(workload, args.seed, args.seconds, args.rounds,
                         args.quick, trace_mode)
    finally:
        reap_children()
    print_report(report, manifest)
    line = result_line(report, manifest, trace_mode)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
