"""Tests for the streaming M4 operator and the interactive session."""

import math
import random

import pytest

from repro.api import Environment
from repro.i2 import (
    InteractiveSession,
    StreamingM4Operator,
    naive_transfer_cost,
    pixel_error,
    render_line_chart,
)
from repro.time.watermarks import WatermarkStrategy


def series(n, t_max=1000, seed=4):
    rng = random.Random(seed)
    return [(t_max * i / max(n - 1, 1),
             50 * math.sin(i / 9.0) + rng.uniform(-5, 5))
            for i in range(n)]


class TestStreamingM4Operator:
    def _run(self, points, width=20, parallelism=1):
        env = Environment(parallelism=parallelism)
        data = [(("sensor", value), int(ts)) for ts, value in points]
        keyed = (env.from_collection(data, timestamped=True)
                 .key_by(lambda kv: kv[0]))
        node = keyed._connect_keyed(
            "m4", lambda: StreamingM4Operator(0, 1000, width,
                                              value_fn=lambda v: v[1]))
        from repro.api.stream import DataStream
        result = DataStream(env, node).collect()
        env.execute()
        return result.get(), env

    def test_emits_bounded_updates(self):
        updates, _ = self._run(series(5000), width=20)
        total_tuples = sum(len(update.points) for update in updates)
        assert total_tuples <= 4 * 20
        assert all(update.series == "sensor" for update in updates)

    def test_client_render_matches_raw(self):
        points = series(2000)
        updates, _ = self._run(points, width=25)
        received = [p for update in updates for p in update.points]
        reference = render_line_chart(points, 25, 20, 0, 1000, -60, 60)
        rendered = render_line_chart(received, 25, 20, 0, 1000, -60, 60)
        assert pixel_error(rendered, reference) == 0

    def test_columns_emitted_once_each(self):
        updates, _ = self._run(series(3000), width=30)
        columns = [update.column for update in updates]
        assert len(columns) == len(set(columns))

    def test_watermarks_drive_incremental_emission(self):
        """With progressing watermarks, most columns are emitted before
        end-of-stream (live-chart behaviour)."""
        points = series(1000)
        env = Environment()
        data = [("sensor", value, int(ts)) for ts, value in points]
        strategy = WatermarkStrategy.for_monotonic_timestamps(
            lambda v: v[2])
        keyed = (env.from_collection(data)
                 .assign_timestamps_and_watermarks(strategy)
                 .key_by(lambda v: v[0]))
        node = keyed._connect_keyed(
            "m4", lambda: StreamingM4Operator(0, 1000, 20,
                                              value_fn=lambda v: v[1]))
        from repro.api.stream import DataStream
        collected = DataStream(env, node).collect(with_timestamps=True)
        env.execute()
        emit_timestamps = [ts for _, ts in collected.get()]
        # Emissions are spread across event time, not all at the end.
        assert min(emit_timestamps) < 500

    def test_requires_timestamps(self):
        env = Environment()
        keyed = env.from_collection([("s", 1.0)]).key_by(lambda v: v[0])
        node = keyed._connect_keyed(
            "m4", lambda: StreamingM4Operator(0, 1000, 20,
                                              value_fn=lambda v: v[1]))
        from repro.api.stream import DataStream
        DataStream(env, node).collect()
        with pytest.raises(ValueError):
            env.execute()

    def test_snapshot_restore_roundtrip(self):
        operator = StreamingM4Operator(0, 100, 10)

        class _Ctx:
            class metrics:
                @staticmethod
                def counter(name):
                    from repro.metrics import Counter
                    return Counter(name)
        operator.open(_Ctx())
        from repro.runtime.elements import Record
        operator.process(Record(5.0, 3, key="s"))
        operator.process(Record(9.0, 55, key="s"))
        snapshot = operator.snapshot_state()

        restored = StreamingM4Operator(0, 100, 10)
        restored.open(_Ctx())
        restored.restore_state(snapshot)
        assert restored._aggregators["s"].inserted == 2
        assert restored._aggregators["s"].column(0) is not None


class TestInteractiveSession:
    def _source(self, n=20000):
        data = series(n, seed=11)
        return lambda: iter(data)

    def test_deploy_transfers_bounded_tuples(self):
        session = InteractiveSession(self._source(), width=50, height=30,
                                     v_min=-60, v_max=60)
        interaction = session.deploy(0, 1000)
        assert interaction.tuples_transferred <= 4 * 50
        assert interaction.raw_tuples_in_range == 20000

    def test_zoom_redeploys_at_higher_resolution(self):
        session = InteractiveSession(self._source(), width=50, height=30,
                                     v_min=-60, v_max=60)
        session.deploy(0, 1000)
        zoomed = session.zoom(100, 200)
        assert zoomed.kind == "zoom"
        assert zoomed.tuples_transferred <= 4 * 50
        # Zooming in re-aggregates: ~1/10th of the raw data in range.
        assert zoomed.raw_tuples_in_range < 20000 / 5

    def test_pan_and_resize(self):
        session = InteractiveSession(self._source(), width=50, height=30,
                                     v_min=-60, v_max=60)
        session.deploy(0, 500)
        panned = session.pan(100)
        assert (panned.t_min, panned.t_max) == (100, 600)
        resized = session.resize(25)
        assert resized.width == 25
        assert resized.tuples_transferred <= 4 * 25

    def test_savings_factor_vs_naive_client(self):
        source = self._source()
        session = InteractiveSession(source, width=50, height=30,
                                     v_min=-60, v_max=60)
        session.deploy(0, 1000)
        session.zoom(0, 100)
        session.pan(50)
        naive_total = (naive_transfer_cost(source, 0, 1000)
                       + naive_transfer_cost(source, 0, 100)
                       + naive_transfer_cost(source, 50, 150))
        assert session.total_raw == naive_total
        assert session.savings_factor() > 10

    def test_rendered_chart_matches_raw_rendering(self):
        source = self._source(5000)
        session = InteractiveSession(source, width=40, height=30,
                                     v_min=-60, v_max=60)
        session.deploy(0, 1000)
        reference = render_line_chart([p for p in source()], 40, 30,
                                      0, 1000, -60, 60)
        assert pixel_error(session.chart.render(), reference) == 0

    def test_interaction_before_deploy_rejected(self):
        session = InteractiveSession(self._source(), width=10, height=10,
                                     v_min=0, v_max=1)
        with pytest.raises(RuntimeError):
            session.pan(10)
        with pytest.raises(RuntimeError):
            session.zoom(0, 10)
