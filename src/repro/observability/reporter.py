"""Exposition: turning a run's metrics into something an operator reads.

:class:`JobReport` is the structured summary :meth:`Engine.job_report`
returns -- per-operator throughput, watermark lag and skew,
backpressure-stall time, checkpoint statistics, Cutty sharing counters,
restart/quarantine counts and the span digest.  It is a plain dict tree
underneath (``as_dict``), rendered three ways by
:class:`MetricsReporter`:

* ``text``       -- aligned human-readable tables,
* ``json``       -- the dict tree, verbatim,
* ``prometheus`` -- flat ``# TYPE``-annotated exposition lines, ready
  for a textfile collector / pushgateway.
"""

from __future__ import annotations

import json
import re
from typing import Any, Callable, Dict, Iterable, List, Optional

from repro.observability.registry import MetricsRegistry, sum_nested

FORMATS = ("text", "json", "prometheus")


def _rows_by(*sort_keys: str) -> Callable[[List[Any]], List[Any]]:
    """Rule: concatenate the parts' rows, ordered by ``sort_keys``."""
    def merge(parts: List[List[Dict[str, Any]]]) -> List[Dict[str, Any]]:
        return sorted((row for part in parts for row in part),
                      key=lambda row: [row[key] for key in sort_keys])
    return merge


def _max_per_field(parts: List[Dict[str, Any]]) -> Dict[str, Any]:
    return {name: max(part.get(name, 0) for part in parts)
            for name in sorted(set().union(*parts))}


#: How each section of ``job_report()`` combines across the workers of a
#: multiprocess job.  Sections without a rule (``fleet``, ``exchange``,
#: ``workers``) are the parent's own: one part carries each.
MERGE_RULES: Dict[str, Callable[[List[Any]], Any]] = {
    "operators": _rows_by("operator", "subtask"),
    "cutover": _rows_by("operator", "subtask"),
    "arrangements": _rows_by("operator", "subtask"),
    "channels": _rows_by("channel"),
    "cutty": sum_nested,
    "spans": sum_nested,
    "watermarks": _max_per_field,
    "metrics": MetricsRegistry.federate,
}


def merge_report_sections(parts: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Combine per-process section dicts under :data:`MERGE_RULES`; a
    section appears in the result when at least one part carries it; one
    without a rule is copied from the one part that carries it."""
    parts = list(parts)
    merged: Dict[str, Any] = {name: section for part in parts
                              for name, section in part.items()
                              if name not in MERGE_RULES}
    for name, rule in MERGE_RULES.items():
        present = [part[name] for part in parts if name in part]
        if present:
            merged[name] = rule(present)
    return merged


class JobReport:
    """Structured post-run summary of one engine execution."""

    def __init__(self, sections: Dict[str, Any]) -> None:
        self._sections = sections

    def as_dict(self) -> Dict[str, Any]:
        return self._sections

    def __getitem__(self, key: str) -> Any:
        return self._sections[key]

    def get(self, key: str, default: Any = None) -> Any:
        return self._sections.get(key, default)

    def render(self, fmt: str = "text") -> str:
        return MetricsReporter(self).render(fmt)

    def to_text(self) -> str:
        return MetricsReporter(self).to_text()

    def to_json(self, indent: Optional[int] = 2) -> str:
        return MetricsReporter(self).to_json(indent=indent)

    def to_prometheus(self) -> str:
        return MetricsReporter(self).to_prometheus()

    def __repr__(self) -> str:
        job = self._sections.get("job", {})
        return ("JobReport(operators=%d, sim_ms=%s)"
                % (len(self._sections.get("operators", [])),
                   job.get("simulated_time_ms")))


def _sanitize(label: str) -> str:
    """Prometheus metric-name charset: [a-zA-Z_:][a-zA-Z0-9_:]*."""
    cleaned = re.sub(r"[^a-zA-Z0-9_:]", "_", label)
    if not cleaned or cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return cleaned


def _format_table(headers: List[str], rows: List[List[Any]]) -> str:
    rendered = [[("%.2f" % cell) if isinstance(cell, float) else str(cell)
                 for cell in row] for row in rows]
    widths = [max(len(headers[i]), *(len(row[i]) for row in rendered))
              if rendered else len(headers[i]) for i in range(len(headers))]
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
             "  ".join("-" * widths[i] for i in range(len(headers)))]
    for row in rendered:
        lines.append("  ".join(cell.ljust(widths[i])
                               for i, cell in enumerate(row)))
    return "\n".join(lines)


class MetricsReporter:
    """Renders a :class:`JobReport` in every exposition format."""

    def __init__(self, report: JobReport) -> None:
        self.report = report

    def render(self, fmt: str = "text") -> str:
        if fmt == "text":
            return self.to_text()
        if fmt == "json":
            return self.to_json()
        if fmt in ("prometheus", "prom"):
            return self.to_prometheus()
        raise ValueError("unknown exposition format %r (choose from %r)"
                         % (fmt, FORMATS))

    # -- text ---------------------------------------------------------------

    def to_text(self) -> str:
        sections = self.report.as_dict()
        blocks: List[str] = []

        def key_values(name: str) -> None:
            if sections.get(name):
                blocks.append("== %s ==\n" % name + "\n".join(
                    "  %-28s %s" % item
                    for item in sorted(sections[name].items())))

        key_values("job")

        operators = sections.get("operators", [])
        if operators:
            rows = [[op["operator"], op["subtask"], op["records_in"],
                     op["records_out"],
                     op.get("throughput_rps", ""),
                     op.get("watermark_lag_ms", ""),
                     op.get("backpressure_stall_ms", ""),
                     op.get("dead_letters", 0)]
                    for op in operators]
            blocks.append("== operators ==\n" + _format_table(
                ["operator", "subtask", "in", "out", "rec/s(sim)",
                 "wm lag ms", "bp stall ms", "dead"], rows))

        key_values("checkpoints")
        key_values("watermarks")

        cutty = sections.get("cutty")
        if cutty:
            lines = []
            for name, stats in sorted(cutty.items()):
                lines.append("  %s: keys=%d elements=%d live_slices=%d"
                             % (name, stats["keys"], stats["elements"],
                                stats["live_slices"]))
                for metric, value in sorted(stats["aggregate_ops"].items()):
                    lines.append("    ops.%-24s %s" % (metric, value))
                for query_id, per_query in sorted(stats["queries"].items(),
                                                  key=lambda kv: repr(kv[0])):
                    lines.append("    query %-24s results=%d combines=%d"
                                 % (query_id, per_query["results"],
                                    per_query["combines"]))
            blocks.append("== cutty sharing ==\n" + "\n".join(lines))

        arrangements = sections.get("arrangements")
        if arrangements:
            rows = [[row["arrangement"], row["subtask"], row["readers"],
                     row["readers_peak"], row["versions"],
                     row["compaction_lag"], row["compactions"],
                     row["rows"], row["bytes"]]
                    for row in arrangements]
            blocks.append("== arrangements ==\n" + _format_table(
                ["arrangement", "subtask", "readers", "peak", "versions",
                 "lag", "compactions", "rows", "bytes"], rows))

        spans = sections.get("spans")
        if spans:
            lines = ["  %-28s %d" % (name, count)
                     for name, count in sorted(spans["by_name"].items())]
            lines.append("  %-28s %d" % ("(started)", spans["started"]))
            lines.append("  %-28s %d" % ("(dropped)", spans["dropped"]))
            blocks.append("== spans ==\n" + "\n".join(lines))

        channels = sections.get("channels")
        if channels:
            rows = [[ch["channel"], ch["pushed"], ch["polled"],
                     ch.get("occupancy_hwm", "")]
                    for ch in channels]
            blocks.append("== channels ==\n" + _format_table(
                ["channel", "pushed", "polled", "occupancy hwm"], rows))

        return "\n\n".join(blocks) + "\n"

    # -- json ----------------------------------------------------------------

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.report.as_dict(), indent=indent, sort_keys=True,
                          default=repr)

    # -- prometheus ----------------------------------------------------------

    def to_prometheus(self) -> str:
        sections = self.report.as_dict()
        lines: List[str] = []

        def emit(name: str, value: Any, labels: Optional[Dict[str, Any]] = None,
                 metric_type: str = "gauge") -> None:
            if value is None or isinstance(value, str):
                return
            if isinstance(value, dict):  # e.g. checkpoints.durable
                for key, nested in sorted(value.items()):
                    emit("%s_%s" % (name, key), nested, labels, metric_type)
                return
            if isinstance(value, bool):
                value = int(value)
            metric = "repro_" + _sanitize(name)
            declaration = "# TYPE %s %s" % (metric, metric_type)
            if declaration not in lines:
                lines.append(declaration)
            if labels:
                rendered = ",".join(
                    '%s="%s"' % (_sanitize(str(key)),
                                 str(val).replace('"', '\\"'))
                    for key, val in sorted(labels.items()))
                lines.append("%s{%s} %s" % (metric, rendered, value))
            else:
                lines.append("%s %s" % (metric, value))

        for key, value in sorted(sections.get("job", {}).items()):
            emit("job_%s" % key, value,
                 metric_type="counter" if key.endswith(
                     ("restarts", "recoveries", "dead_letters")) else "gauge")

        for op in sections.get("operators", []):
            labels = {"operator": op["operator"],
                      "subtask": op["subtask"]}
            emit("operator_records_in_total", op["records_in"], labels,
                 "counter")
            emit("operator_records_out_total", op["records_out"], labels,
                 "counter")
            emit("operator_throughput_rps", op.get("throughput_rps"), labels)
            emit("operator_watermark_lag_ms", op.get("watermark_lag_ms"),
                 labels)
            emit("operator_backpressure_stall_ms",
                 op.get("backpressure_stall_ms"), labels, "counter")
            emit("operator_dead_letters_total", op.get("dead_letters", 0),
                 labels, "counter")

        for key, value in sorted((sections.get("checkpoints") or {}).items()):
            emit("checkpoint_%s" % key, value,
                 metric_type="counter" if key in ("completed", "aborted")
                 else "gauge")

        for key, value in sorted((sections.get("watermarks") or {}).items()):
            emit("watermark_%s" % key, value)

        for name, stats in sorted((sections.get("cutty") or {}).items()):
            labels = {"operator": name}
            emit("cutty_keys", stats["keys"], labels)
            emit("cutty_elements_total", stats["elements"], labels, "counter")
            emit("cutty_live_slices", stats["live_slices"], labels)
            for metric, value in sorted(stats["aggregate_ops"].items()):
                emit("cutty_aggregate_%s" % metric, value, labels,
                     "counter" if metric != "max_live_partials" else "gauge")
            for query_id, per_query in stats["queries"].items():
                query_labels = dict(labels, query=query_id)
                emit("cutty_query_results_total", per_query["results"],
                     query_labels, "counter")
                emit("cutty_query_combines_total", per_query["combines"],
                     query_labels, "counter")

        for row in sections.get("arrangements", []):
            labels = {"arrangement": row["arrangement"],
                      "subtask": row["subtask"]}
            emit("arrangement_readers", row["readers"], labels)
            emit("arrangement_readers_peak", row["readers_peak"], labels)
            emit("arrangement_versions", row["versions"], labels)
            emit("arrangement_compaction_lag", row["compaction_lag"], labels)
            emit("arrangement_compactions_total", row["compactions"], labels,
                 "counter")
            emit("arrangement_rows", row["rows"], labels)
            emit("arrangement_index_bytes", row["bytes"], labels)

        spans = sections.get("spans")
        if spans:
            for name, count in sorted(spans["by_name"].items()):
                emit("spans_total", count, {"name": name}, "counter")
            emit("spans_dropped_total", spans["dropped"], None, "counter")

        for ch in sections.get("channels", []):
            labels = {"channel": ch["channel"]}
            emit("channel_pushed_total", ch["pushed"], labels, "counter")
            emit("channel_polled_total", ch["polled"], labels, "counter")
            emit("channel_occupancy_hwm", ch.get("occupancy_hwm"), labels)

        return "\n".join(lines) + "\n"
