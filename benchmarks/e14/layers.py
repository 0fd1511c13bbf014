"""Per-layer metrics of one traced round.

Takes the span summaries of every process of the round (the main
process and, on the multiprocess backend, each worker), the counts the
wrappers took at the layer boundaries, and what the engine reports about
itself through its public ``JobResult`` / ``job_report()``, and returns
one value per name in ``BENCHMARK.json``'s ``per_layer`` list.  A layer
the workload never entered reads 0.
"""

import statistics
from collections import Counter, defaultdict


def merge_summaries(summaries):
    """Sum self times and counts, keep the highest peaks."""
    merged = {"self_s": defaultdict(float), "inclusive_s": defaultdict(float),
              "counts": Counter(), "peaks": defaultdict(int),
              "snapshot_s": defaultdict(float), "hash_edges": {}}
    for summary in summaries:
        for layer, name, seconds in summary["self_s"]:
            merged["self_s"][(layer, name)] += seconds
        for key, seconds in summary["inclusive_s"].items():
            merged["inclusive_s"][key] += seconds
        merged["counts"].update(summary["counts"])
        for key, value in summary["peaks"].items():
            merged["peaks"][key] = max(merged["peaks"][key], value)
        for key, seconds in summary["snapshot_s"].items():
            merged["snapshot_s"][key] += seconds
        for key, pushed in summary["hash_edges"].items():
            seen = merged["hash_edges"].get(key)
            merged["hash_edges"][key] = (
                pushed if seen is None
                else [a + b for a, b in zip(seen, pushed)])
    return merged


def _share(part, whole):
    return part / whole if whole else 0.0


def layer_metrics(main, workers, result, report, plan, datagen_s,
                  source_lag_ms_p99, parent_cpu_s, traced_wall_s,
                  untraced_wall_s):
    merged = merge_summaries([main] + workers)
    self_s = merged["self_s"]
    counts = merged["counts"]
    peaks = merged["peaks"]
    counters = result.counters

    def busy(layer, *prefixes):
        return sum(seconds for (owner, name), seconds in self_s.items()
                   if owner == layer
                   and (not prefixes or name.startswith(prefixes)))

    exchange = report.get("exchange", {}).get("totals", {})
    watchdog = report.get("fleet", {}).get("watchdog", {})
    cutty = list(report.get("cutty", {}).values())
    cutty_ops = Counter()
    for stats in cutty:
        cutty_ops.update(stats["aggregate_ops"])
    snapshots = sorted(merged["snapshot_s"].values())
    skews = [max(edge) / (sum(edge) / len(edge))
             for edge in merged["hash_edges"].values() if sum(edge)]
    worker_cpu = [worker["counts"].get("worker.cpu_s", 0.0)
                  for worker in workers]
    total_self = sum(self_s.values())
    # With workers the main process is the supervisor; its root is then
    # one process among several, each with a root span of its own.
    engine_self = busy("runtime.engine")

    return {
        "datagen.generate_s": datagen_s,
        "plan.optimize_s": plan["optimize_s"],
        "plan.tasks": plan["tasks"],
        "plan.chained_share": plan["chained_share"],
        "connectors.source.records": counts["source.records"],
        "connectors.source.busy_s": busy("connectors.source"),
        "connectors.source.lag_ms_p99": source_lag_ms_p99,
        "connectors.sink.records": counts["sink.records"],
        "connectors.sink.write_s": busy("connectors.sink", "write"),
        "connectors.sink.commit_s": busy("connectors.sink", "pre_commit",
                                         "commit"),
        "connectors.sink.commits": counts["sink.commits"],
        "connectors.sink.rewrite_ratio": _share(
            counts["sink.bytes_rewritten"], peaks["sink.final_bytes"]),
        "time.watermarks.busy_s": busy("time.watermarks"),
        "time.watermarks.emitted": counts["watermarks.emitted"],
        "time.timers.registrations": counts["timers.registrations"],
        "time.timers.new_share": _share(counts["timers.new"],
                                        counts["timers.registrations"]),
        "time.timers.fired": counts["timers.fired"],
        "time.timers.busy_s": busy("time.timers"),
        "runtime.task.chain_busy_s": busy("runtime.task", "chain."),
        "runtime.task.self_s": busy("runtime.task", "step"),
        "runtime.task.records_in": counters.get("records_in", 0),
        "runtime.task.records_out": counters.get("records_out", 0),
        "runtime.task.steps": counts["task.steps"],
        "runtime.task.idle_step_share": _share(counts["task.idle_steps"],
                                               counts["task.steps"]),
        "runtime.task.columnar_fallbacks": counters.get(
            "columnar_fallbacks", 0),
        "runtime.partition.busy_s": busy("runtime.partition"),
        "runtime.partition.records": counts["partition.records"],
        "runtime.partition.skew": max(skews, default=0.0),
        "runtime.channels.busy_s": busy("runtime.channels"),
        "runtime.channels.elements": counts["channels.elements"],
        "runtime.channels.records_per_element": _share(
            counts["channels.records"], counts["channels.data_elements"]),
        "runtime.channels.backpressured_share": _share(
            counts["task.backpressured"], counts["task.visits"]),
        "runtime.channels.peak_occupancy": peaks["channels.occupancy"],
        "runtime.reorder.busy_s": busy("runtime.reorder"),
        "runtime.batch.group_s": busy("runtime.batch", "group."),
        "runtime.batch.join_s": busy("runtime.batch", "join."),
        "runtime.batch.buffered_records_peak": counts["batch.buffered"],
        "runtime.engine.rounds": result.rounds,
        "runtime.engine.self_s": engine_self,
        "runtime.columnar.encode_s": busy("runtime.columnar", "to_columnar",
                                          "from_lists", "encode"),
        "runtime.columnar.decode_s": busy("runtime.columnar", "decode"),
        "runtime.columnar.bytes": counts["columnar.bytes"],
        "runtime.columnar.row_fallback_share": _share(
            exchange.get("pickle_fallbacks", 0),
            exchange.get("pickle_fallbacks", 0)
            + exchange.get("shm_frames", 0)),
        "runtime.shm.frames": exchange.get("shm_frames", 0),
        "runtime.shm.bytes": exchange.get("shm_bytes", 0),
        "runtime.shm.records_share": _share(
            exchange.get("shm_records", 0),
            exchange.get("shm_records", 0) + exchange.get("pipe_records", 0)),
        "runtime.shm.ring_full_fallbacks": exchange.get(
            "fallback_ring_full", 0),
        "runtime.multiprocess.exchange_s": (busy("runtime.multiprocess")
                                            + busy("runtime.shm")),
        "runtime.multiprocess.pipe_frames": exchange.get("pipe_frames", 0),
        "runtime.multiprocess.pipe_bytes": exchange.get("pipe_bytes", 0),
        "runtime.multiprocess.spawn_s": max(
            (worker["root_start_s"] - main["root_start_s"]
             for worker in workers), default=0.0),
        "runtime.multiprocess.parent_cpu_s": parent_cpu_s if workers else 0.0,
        "runtime.multiprocess.worker_cpu_skew": _share(
            max(worker_cpu, default=0.0),
            statistics.fmean(worker_cpu) if worker_cpu else 0.0),
        "runtime.multiprocess.restarts": result.restarts,
        "runtime.multiprocess.watchdog_suspected": watchdog.get(
            "suspicions", 0),
        "state.reads": counts["state.reads"],
        "state.writes": counts["state.writes"],
        "state.busy_s": busy("state"),
        "state.entries_peak": peaks["state.entries"],
        "state.checkpoint.completed": result.checkpoints_completed,
        "state.checkpoint.aborted": result.checkpoints_aborted,
        "state.checkpoint.snapshot_s_p50": (
            statistics.median(snapshots) if snapshots else 0.0),
        "state.checkpoint.snapshot_s_max": max(snapshots, default=0.0),
        "state.checkpoint.durable_write_s": merged["inclusive_s"].get(
            "state.checkpoint/durable.add", 0.0),
        "state.checkpoint.bytes": counts["checkpoint.bytes"],
        "windowing.records_in": counts["windowing.records"],
        "windowing.results_out": counters.get("windows_fired", 0),
        "windowing.busy_s": busy("windowing"),
        "windowing.fire_s": merged["inclusive_s"].get("windowing/fire", 0.0),
        "windowing.late_dropped": counters.get("late_records_dropped", 0),
        "cutty.records_in": cutty_ops["records"],
        "cutty.results_out": cutty_ops["results"],
        "cutty.busy_s": busy("cutty"),
        "cutty.ops_per_record": _share(cutty_ops["total_ops"],
                                       cutty_ops["records"]),
        "cutty.live_slices_peak": max(
            peaks["cutty.live_slices"],
            sum(stats["live_slices"] for stats in cutty)),
        "trace.coverage_share": 1.0 - _share(engine_self, total_self),
        "trace.overhead_share": _share(traced_wall_s - untraced_wall_s,
                                       untraced_wall_s),
    }


def layer_shares(main, workers):
    """Self seconds and share per layer, largest first -- the table the
    README's explanations read from."""
    merged = merge_summaries([main] + workers)
    per_layer = defaultdict(float)
    for (layer, _), seconds in merged["self_s"].items():
        per_layer[layer] += seconds
    total = sum(per_layer.values())
    return [(layer, seconds, _share(seconds, total))
            for layer, seconds in sorted(per_layer.items(),
                                         key=lambda item: -item[1])]
