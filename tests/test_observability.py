"""The observability layer: registry federation, span tracing, runtime
gauges, exposition formats, and the disabled-mode zero-overhead contract.
"""

import inspect
import json
import multiprocessing
import os
import re

import pytest

from repro.api import Environment
from repro.observability import (
    FORMATS,
    JobReport,
    MetricGroup,
    MetricsRegistry,
    TraceContext,
    sum_nested,
)
from repro.runtime.engine import EngineConfig
from repro.runtime.faults import CRASH, FaultEvent, FaultInjector
from repro.runtime.restart import FixedDelayRestart
from repro.windowing import CountAggregate, TumblingEventTimeWindows


# -- span tracing ----------------------------------------------------------


class TestTraceContext:
    def test_stack_nesting_assigns_parents(self):
        clock = [0]
        tracer = TraceContext(lambda: clock[0])
        with tracer.span("outer") as outer:
            clock[0] = 5
            with tracer.span("inner") as inner:
                clock[0] = 7
        spans = {span.name: span for span in tracer.finished_spans()}
        assert spans["inner"].parent_id == outer.span_id
        assert spans["outer"].parent_id is None
        # Completion order: inner closes first.
        assert [s.name for s in tracer.finished_spans()] == ["inner", "outer"]
        assert spans["inner"].duration_ms == 2
        assert spans["outer"].duration_ms == 7

    def test_background_span_does_not_adopt_children(self):
        tracer = TraceContext(lambda: 0)
        checkpoint = tracer.open_span("checkpoint", id=1)
        with tracer.span("window_fire"):
            pass
        tracer.close_span(checkpoint, outcome="completed")
        spans = {span.name: span for span in tracer.finished_spans()}
        # The fire ran while the checkpoint was in flight but is NOT its
        # child: background spans do not join the stack.
        assert spans["window_fire"].parent_id is None
        assert spans["checkpoint"].attrs["outcome"] == "completed"

    def test_ring_buffer_wraps_and_counts_drops(self):
        tracer = TraceContext(lambda: 0, capacity=4)
        for index in range(10):
            tracer.event("e%d" % index)
        retained = [span.name for span in tracer.finished_spans()]
        assert len(retained) == 4
        assert retained == ["e6", "e7", "e8", "e9"]  # newest win, in order
        assert tracer.dropped == 6
        assert tracer.started == 10

    def test_exception_is_recorded_on_span(self):
        tracer = TraceContext(lambda: 0)
        with pytest.raises(ValueError):
            with tracer.span("work"):
                raise ValueError("boom")
        (span,) = tracer.finished_spans()
        assert "boom" in span.attrs["error"]

    def test_export_json_round_trips(self):
        tracer = TraceContext(lambda: 3)
        tracer.event("restart", attempt=1)
        payload = json.loads(tracer.export_json())
        assert payload["started"] == 1
        assert payload["spans"][0]["name"] == "restart"
        assert payload["spans"][0]["attrs"] == {"attempt": 1}


# -- registry --------------------------------------------------------------


class TestMetricsRegistry:
    def test_providers_follow_live_groups(self):
        registry = MetricsRegistry()
        live = [MetricGroup("task.0")]
        live[0].counter("records_in").inc(5)
        registry.register_provider(lambda: live)
        assert registry.counters()["records_in"] == 5
        # A "restart" rebuilds the group; the registry must follow.
        live[0] = MetricGroup("task.0")
        live[0].counter("records_in").inc(2)
        assert registry.counters()["records_in"] == 2

    def test_counters_merge_across_groups(self):
        registry = MetricsRegistry()
        a, b = MetricGroup("a"), MetricGroup("b")
        a.counter("hits").inc(1)
        b.counter("hits").inc(2)
        registry.register_group(a)
        registry.register_group(b)
        assert registry.counters()["hits"] == 3
        assert registry.scoped_counters() == {"a": {"hits": 1},
                                              "b": {"hits": 2}}

    def test_probes_pull_at_snapshot_time(self):
        registry = MetricsRegistry()
        state = {"calls": 0}

        def probe():
            state["calls"] += 1
            return {"calls": state["calls"]}

        registry.register_probe("p", probe)
        assert state["calls"] == 0  # registration does not evaluate
        assert registry.probe_results() == {"p": {"calls": 1}}
        assert registry.snapshot()["probes"] == {"p": {"calls": 2}}

    def test_federate_sums_probe_results_across_workers(self):
        """Every worker reports a ``cutty`` probe: federation sums the
        collision leaf by leaf instead of keeping the last worker's."""
        merged = MetricsRegistry.federate([
            {"probes": {"cutty": {"q": {"results": 3}}}},
            {"probes": {"cutty": {"q": {"results": 5}}}}])
        assert merged["probes"] == {"cutty": {"q": {"results": 8}}}


# -- config ----------------------------------------------------------------


class TestObservabilityConfig:
    """The ``EngineConfig(observability=...)`` option."""

    def test_normalize_semantics(self, monkeypatch):
        monkeypatch.delenv("REPRO_OBSERVABILITY", raising=False)
        assert EngineConfig().observability is False
        assert EngineConfig(observability=False).observability is False
        assert EngineConfig(observability=True).observability is True
        with pytest.raises(TypeError):
            EngineConfig(observability="yes")

    def test_env_var_enables_by_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_OBSERVABILITY", "1")
        assert EngineConfig().observability is True
        # Explicit False still wins over the environment.
        assert EngineConfig(observability=False).observability is False
        monkeypatch.setenv("REPRO_OBSERVABILITY", "0")
        assert EngineConfig().observability is False


class TestEngineConfigSurface:
    def test_unknown_kwarg_suggests_closest(self):
        with pytest.raises(TypeError) as exc:
            EngineConfig(chanel_capacity=4)
        assert "chanel_capacity" in str(exc.value)
        assert "channel_capacity" in str(exc.value)

    def test_options_are_keyword_only(self):
        with pytest.raises(TypeError):
            EngineConfig(128)

    def test_configuration_doc_has_one_row_per_option(self):
        """The option table under ``## EngineConfig`` in
        ``docs/configuration.md`` names exactly the keyword parameters
        of ``EngineConfig.__init__``: a knob added or removed without
        its row fails here."""
        path = os.path.join(os.path.dirname(__file__), os.pardir, "docs",
                            "configuration.md")
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        section = text.split("\n## EngineConfig\n", 1)[1]
        section = re.split(r"\n#{2,3} ", section, maxsplit=1)[0]
        documented = re.findall(r"^\| `(\w+)` \|", section, re.MULTILINE)
        parameters = [
            name for name, parameter
            in inspect.signature(EngineConfig.__init__).parameters.items()
            if parameter.kind is inspect.Parameter.KEYWORD_ONLY]
        assert documented == parameters


# -- engine integration ----------------------------------------------------


def _windowed_env(observability, **engine_opts):
    events = [(k, ts) for ts in range(0, 2000, 10) for k in ("a", "b")]
    env = Environment(config=EngineConfig(observability=observability,
                                          **engine_opts))
    out = (env.from_collection(events, timestamped=True)
           .key_by(lambda v: v[0])
           .window(TumblingEventTimeWindows.of(500))
           .aggregate(CountAggregate())
           .collect())
    return env, out


class TestEngineIntegration:
    def test_disabled_mode_attaches_nothing(self):
        env, out = _windowed_env(observability=False)
        env.execute()
        engine = env.last_engine
        assert engine.observability is None
        for task in engine.tasks:
            assert task._tracer is None
            for chained in task.chain:
                assert chained.ctx.tracer is None
        assert out.get()  # the pipeline itself ran

    def test_disabled_report_still_has_counters(self):
        env, _ = _windowed_env(observability=False)
        env.execute()
        report = env.job_report()
        assert report["job"]["observability"] is False
        assert sum(op["records_in"] for op in report["operators"]) > 0
        assert "watermarks" not in report.as_dict()
        assert "spans" not in report.as_dict()

    def test_window_fire_spans_and_watermark_gauges(self):
        env, out = _windowed_env(observability=True)
        env.execute()
        engine = env.last_engine
        tracer = engine.observability.tracer
        fires = tracer.spans_by_name().get("window_fire", 0)
        assert fires == len(out.get())
        lag = engine.observability.registry.gauge("watermark_lag_ms")
        assert lag.max_value >= 0

    def test_fused_batch_spans_in_batched_mode(self):
        env = Environment(config=EngineConfig(observability=True,
                                              batch_size=64))
        out = (env.from_collection(range(1000))
               .rebalance()
               .map(lambda x: x + 1)
               .filter(lambda x: x % 2 == 0)
               .collect())
        env.execute()
        tracer = env.last_engine.observability.tracer
        assert tracer.spans_by_name().get("fused_batch", 0) > 0
        assert len(out.get()) == 500

    def test_backpressure_stall_accrues(self):
        # Two upstream subtasks funnel into one sink whose per-round
        # budget is half the inflow: the channels to it must fill and
        # the upstreams must be observed stalled.
        env = Environment(parallelism=2,
                          config=EngineConfig(observability=True,
                                              channel_capacity=4,
                                              elements_per_step=4))
        out = (env.from_collection(range(1000))
               .map(lambda x: x)
               .global_()
               .collect())
        env.execute()
        assert out.get()
        stalls = env.last_engine.observability.stall_ms
        assert sum(stalls.values()) > 0
        report = env.job_report()
        assert sum(op["backpressure_stall_ms"]
                   for op in report["operators"]) > 0

    def test_checkpoint_spans_carry_duration_and_size(self):
        env, out = _windowed_env(observability=True,
                                 checkpoint_interval_ms=5,
                                 elements_per_step=4)
        env.execute()
        engine = env.last_engine
        assert engine.coordinator.completed > 0
        checkpoint_spans = [
            span for span in engine.observability.tracer.finished_spans()
            if span.name == "checkpoint"
            and span.attrs.get("outcome") == "completed"]
        assert len(checkpoint_spans) == engine.coordinator.completed
        for span in checkpoint_spans:
            assert span.attrs["state_entries"] >= 0
            assert span.duration_ms >= 0

    def test_counters_survive_supervised_restart(self):
        """After a restart-from-scratch the registry must read the
        *rebuilt* tasks' groups (providers), and the restart must be
        visible as an event and a coordinator counter."""
        faults = FaultInjector([FaultEvent(
            CRASH, when=lambda view: view.rounds >= 5)])
        env = Environment(config=EngineConfig(
            observability=True, faults=faults,
            restart_strategy=FixedDelayRestart(max_restarts=3, delay_ms=5)))
        env.from_collection(range(500)).rebalance() \
           .map(lambda x: x * 2).collect()
        env.execute()
        engine = env.last_engine
        assert engine.restarts == 1
        registry = engine.observability.registry
        # The registry reads the live (rebuilt) task groups: the merged
        # records_in equals what the post-restart tasks actually counted.
        expected = sum_nested(
            [task.metrics.counters() for task in engine.tasks]
            + [engine.metrics.counters()])
        assert registry.counters()["records_in"] == expected["records_in"]
        assert registry.counters()["restarts"] == 1
        events = engine.observability.tracer.spans_by_name()
        assert events.get("restart") == 1

    def test_cutty_sharing_stats_in_report(self):
        from repro.cutty import PeriodicWindows
        from repro.windowing import SumAggregate
        events = [(1, ts) for ts in range(3000)]
        env = Environment(config=EngineConfig(observability=True))
        keyed = (env.from_collection(events, timestamped=True)
                 .key_by(lambda v: 0))
        out = keyed.shared_windows(
            SumAggregate,
            {"q1": lambda: PeriodicWindows(1000),
             "q2": lambda: PeriodicWindows(500)}).collect()
        env.execute()
        report = env.job_report()
        cutty = report["cutty"]["cutty-window"]
        assert cutty["keys"] == 1
        assert cutty["elements"] == len(events)
        per_query = cutty["queries"]
        emitted = {r.query_id for r in out.get()}
        assert emitted == {"q1", "q2"}
        assert per_query["q1"]["results"] > 0
        assert per_query["q2"]["results"] > per_query["q1"]["results"]
        assert per_query["q2"]["combines"] >= 0
        assert (per_query["q1"]["results"] + per_query["q2"]["results"]
                == len(out.get()))

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="multiprocess backend requires the fork start method")
    def test_federated_cutty_probe_equals_the_cutty_section(self):
        """Two workers each run a Cutty subtask: the federated registry's
        ``cutty`` probe carries both workers' counts, as the report's
        ``cutty`` section does."""
        from repro.cutty import PeriodicWindows
        from repro.windowing import SumAggregate
        events = [(index, index) for index in range(3000)]
        env = Environment(parallelism=2, config=EngineConfig(
            backend="multiprocess", num_workers=2, observability=True))
        (env.from_collection(events, timestamped=True)
            .key_by(lambda value: value % 4)
            .shared_windows(
                SumAggregate,
                {"q1": lambda: PeriodicWindows(1000),
                 "q2": lambda: PeriodicWindows(500)})
            .collect())
        env.execute()
        report = env.job_report()
        assert report["cutty"]["cutty-window"]["elements"] == len(events)
        assert report["metrics"]["probes"]["cutty"] == report["cutty"]

    @pytest.mark.parametrize("backend", [
        "cooperative",
        pytest.param("multiprocess", marks=pytest.mark.skipif(
            "fork" not in multiprocessing.get_all_start_methods(),
            reason="multiprocess backend requires the fork start method"))])
    def test_vertices_sharing_a_name_count_apart(self, backend):
        """Four group-by queries plan four ``group-agg`` and four
        ``collect`` vertices: each subtask reports its own records, the
        job counters count every record once, and every channel has a
        name of its own."""
        env = Environment(parallelism=2, config=EngineConfig(
            backend=backend, share_arrangements=False, observability=True))
        table = env.table([{"k": i % 8, "v": i} for i in range(1500)])
        results = [table.group_by("k").agg(total=("sum", "v")).collect()
                   for _ in range(4)]
        job = env.execute()
        assert [len(result.get()) for result in results] == [8] * 4
        report = env.job_report()
        records_in = {}
        for row in report["operators"]:
            records_in.setdefault(row["operator"], []).append(
                row["records_in"])
        assert sum(records_in["group-agg"]) == 4 * 1500
        assert sum(records_in["collect"]) == 4 * 8
        assert job.counters["records_in"] == 4 * 1500 + 4 * 8
        channels = [row["channel"] for row in report["channels"]]
        assert len(set(channels)) == len(channels)


# -- reporter --------------------------------------------------------------


def _full_report(**engine_opts):
    """An e5-shaped job (windows + checkpoints) with observability on."""
    env, _ = _windowed_env(observability=True, checkpoint_interval_ms=5,
                           elements_per_step=4, **engine_opts)
    env.execute()
    return env.job_report()


class TestReporter:
    def test_all_three_formats_render(self):
        report = _full_report()
        for fmt in FORMATS:
            rendered = report.render(fmt)
            assert rendered.strip()

    def test_text_sections(self):
        text = _full_report().to_text()
        for heading in ("== job ==", "== operators ==", "== checkpoints ==",
                        "== watermarks ==", "== spans ==", "== channels =="):
            assert heading in text
        assert "wm lag ms" in text
        assert "bp stall ms" in text

    def test_json_is_loadable_and_complete(self):
        payload = json.loads(_full_report().to_json())
        assert payload["job"]["observability"] is True
        assert payload["checkpoints"]["completed"] > 0
        ops = {op["operator"]: op for op in payload["operators"]}
        assert any("throughput_rps" in op for op in ops.values())

    def test_prometheus_exposition_shape(self, tmp_path):
        # checkpoint_dir adds the nested ``checkpoints.durable`` block,
        # which must flatten into numeric samples too.
        report = _full_report(checkpoint_dir=str(tmp_path))
        lines = report.to_prometheus().splitlines()
        body = [line for line in lines if not line.startswith("#")]
        for line in body:
            name = line.split("{")[0].split(" ")[0]
            assert name.startswith("repro_")
            # Values must be numeric (no raw Python bools/strings).
            value = line.rsplit(" ", 1)[1]
            float(value)
        joined = "\n".join(lines)
        assert "repro_operator_records_in_total" in joined
        assert "repro_checkpoint_completed" in joined
        assert "repro_checkpoint_durable_persisted" in joined
        assert "# TYPE repro_operator_records_in_total counter" in joined

    def test_unknown_format_rejected(self):
        report = JobReport({"job": {}})
        with pytest.raises(ValueError):
            report.render("xml")

    def test_report_requires_execution(self):
        env = Environment()
        env.from_collection([1]).collect()
        with pytest.raises(RuntimeError):
            env.job_report()
