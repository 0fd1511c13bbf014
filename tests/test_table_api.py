"""Tests for the Table layer: semantics, optimizer rules, equivalence."""

import random

import pytest

from repro.api import Environment
from repro.table import Tumble, Slide, Session
from repro.table.plan import Scan, Select, Where
from repro.table.optimizer import optimize

ORDERS = [
    {"user": "alice", "amount": 30.0, "country": "de", "ts": 10},
    {"user": "bob", "amount": 5.0, "country": "fr", "ts": 20},
    {"user": "alice", "amount": 20.0, "country": "de", "ts": 1050},
    {"user": "carol", "amount": 50.0, "country": "de", "ts": 1100},
    {"user": "bob", "amount": 15.0, "country": "fr", "ts": 2200},
]


def rows_of(result):
    return sorted(result.get(), key=repr)


class TestBoundedTables:
    def test_select_and_where(self):
        env = Environment()
        result = (env.table(ORDERS)
                  .where(lambda r: r["amount"] >= 20, reads=("amount",))
                  .select("user", "amount")
                  .collect())
        env.execute()
        assert rows_of(result) == sorted([
            {"user": "alice", "amount": 30.0},
            {"user": "alice", "amount": 20.0},
            {"user": "carol", "amount": 50.0}], key=repr)

    def test_derived_columns(self):
        env = Environment()
        result = (env.table(ORDERS)
                  .select("user",
                          gross=(lambda r: r["amount"] * 1.2, ("amount",)))
                  .collect())
        env.execute()
        gross = {row["user"]: row["gross"] for row in result.get()
                 if row["user"] == "carol"}
        assert gross["carol"] == pytest.approx(60.0)

    def test_group_by_aggregations(self):
        env = Environment(parallelism=2)
        result = (env.table(ORDERS)
                  .group_by("user")
                  .agg(revenue=("sum", "amount"),
                       orders=("count", None),
                       biggest=("max", "amount"))
                  .collect())
        env.execute()
        by_user = {row["user"]: row for row in result.get()}
        assert by_user["alice"] == {"user": "alice", "revenue": 50.0,
                                    "orders": 2, "biggest": 30.0}
        assert by_user["bob"]["revenue"] == 20.0

    def test_multi_key_grouping(self):
        env = Environment()
        result = (env.table(ORDERS)
                  .group_by("country", "user")
                  .agg(n=("count", None))
                  .collect())
        env.execute()
        keys = {(row["country"], row["user"]) for row in result.get()}
        assert ("de", "alice") in keys and ("fr", "bob") in keys

    def test_avg_and_min(self):
        env = Environment()
        result = (env.table(ORDERS)
                  .group_by("country")
                  .agg(mean=("avg", "amount"), smallest=("min", "amount"))
                  .collect())
        env.execute()
        by_country = {row["country"]: row for row in result.get()}
        assert by_country["fr"]["mean"] == pytest.approx(10.0)
        assert by_country["de"]["smallest"] == 20.0


class TestStreamingTables:
    def test_tumbling_window_aggregation(self):
        env = Environment()
        result = (env.table(ORDERS, bounded=False, time_column="ts")
                  .window(Tumble("ts", 1000))
                  .group_by("country")
                  .agg(revenue=("sum", "amount"))
                  .collect())
        env.execute()
        rows = {(row["country"], row["window_start"]): row["revenue"]
                for row in result.get()}
        assert rows[("de", 0)] == 30.0
        assert rows[("de", 1000)] == 70.0
        assert rows[("fr", 2000)] == 15.0

    def test_sliding_window(self):
        env = Environment()
        result = (env.table(ORDERS, bounded=False, time_column="ts")
                  .window(Slide("ts", 2000, 1000))
                  .agg(n=("count", None))
                  .collect())
        env.execute()
        total = sum(row["n"] for row in result.get())
        assert total == len(ORDERS) * 2  # each row in 2 sliding windows

    def test_session_window(self):
        env = Environment()
        result = (env.table(ORDERS, bounded=False, time_column="ts")
                  .window(Session("ts", 500))
                  .group_by("user")
                  .agg(n=("count", None))
                  .collect())
        env.execute()
        alice = [row for row in result.get() if row["user"] == "alice"]
        assert len(alice) == 2  # two separate sessions

    def test_unbounded_group_by_without_window_rejected(self):
        env = Environment()
        table = env.table(ORDERS, bounded=False, time_column="ts")
        with pytest.raises(ValueError, match="needs a window"):
            table.group_by("user").agg(n=("count", None))

    def test_out_of_order_rows_with_watermark_delay(self):
        rows = [dict(row) for row in ORDERS]
        random.Random(3).shuffle(rows)
        env = Environment()
        result = (env.table(rows, bounded=False,
                            time_column="ts", watermark_delay=5000)
                  .window(Tumble("ts", 1000))
                  .group_by("country")
                  .agg(revenue=("sum", "amount"))
                  .collect())
        env.execute()
        rows_out = {(row["country"], row["window_start"]): row["revenue"]
                    for row in result.get()}
        assert rows_out[("de", 1000)] == 70.0


class TestValidation:
    def test_schema_mismatch_rejected(self):
        env = Environment()
        with pytest.raises(ValueError, match="does not match schema"):
            env.table([{"a": 1}, {"b": 2}])

    def test_unknown_column_select(self):
        env = Environment()
        with pytest.raises(ValueError, match="unknown columns"):
            env.table(ORDERS).select("nope")

    def test_unknown_column_in_where_reads(self):
        env = Environment()
        with pytest.raises(ValueError, match="unknown columns"):
            env.table(ORDERS).where(lambda r: True,
                                    reads=("ghost",))

    def test_unknown_aggregation(self):
        env = Environment()
        with pytest.raises(ValueError, match="unsupported aggregation"):
            (env.table(ORDERS).group_by("user")
             .agg(x=("median", "amount")))

    def test_streaming_requires_time_column(self):
        env = Environment()
        with pytest.raises(ValueError, match="time_column"):
            env.table(ORDERS, bounded=False)


class TestOptimizer:
    def _plan(self):
        scan = Scan(("a", "b", "c"), bounded=True)
        select = Select(keep=("a", "b"), derived={}, derived_reads={})
        where_a = Where(lambda r: r["a"] > 0, reads=("a",), description="a>0")
        where_b = Where(lambda r: r["b"] > 0, reads=("b",), description="b>0")
        return scan, select, where_a, where_b

    def test_predicate_pushdown(self):
        scan, select, where_a, _ = self._plan()
        optimized = optimize([scan, select, where_a])
        from repro.table.plan import schema_after
        # The Where ends up as the last op: it was pushed before the
        # user's Select, which collapsed into the pruning projection.
        assert isinstance(optimized[-1], Where)
        assert isinstance(optimized[1], Select)  # pruning projection
        assert schema_after(optimized) == ("a", "b")

    def test_pushdown_blocked_by_derived_dependency(self):
        scan = Scan(("a",), bounded=True)
        select = Select(keep=(), derived={"d": lambda r: r["a"] * 2},
                        derived_reads={"d": ("a",)})
        where_d = Where(lambda r: r["d"] > 0, reads=("d",),
                        description="d>0")
        optimized = optimize([scan, select, where_d])
        select_pos = max(i for i, op in enumerate(optimized)
                         if isinstance(op, Select))
        where_pos = [i for i, op in enumerate(optimized)
                     if isinstance(op, Where)][0]
        assert where_pos > select_pos  # must stay after

    def test_filter_fusion(self):
        scan, _, where_a, where_b = self._plan()
        optimized = optimize([scan, where_a, where_b])
        wheres = [op for op in optimized if isinstance(op, Where)]
        assert len(wheres) == 1
        assert "AND" in wheres[0].description

    def test_projection_pruning_narrows_scan(self):
        scan, select, where_a, _ = self._plan()
        optimized = optimize([scan, select, where_a])
        assert isinstance(optimized[1], Select)
        assert set(optimized[1].keep) <= {"a", "b"}

    def test_explain_shows_plan(self):
        env = Environment()
        table = (env.table(ORDERS)
                 .select("user", "amount")
                 .where(lambda r: r["amount"] > 10, reads=("amount",),
                        description="amount>10"))
        text = table.explain()
        assert "Scan" in text and "Where" in text and "Select" in text


class TestOptimizationEquivalence:
    """The optimizer must never change results -- randomized check."""

    def _random_rows(self, rng, n=60):
        return [{"k": rng.choice("xyz"), "v": rng.randint(-10, 10),
                 "w": rng.random(), "ts": i * 7}
                for i, _ in enumerate(range(n))]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_bounded_plans_agree(self, seed):
        rng = random.Random(seed)
        rows = self._random_rows(rng)

        def build(env):
            return (env.table(rows)
                    .where(lambda r: r["v"] > -5, reads=("v",))
                    .select("k", "v")
                    .where(lambda r: r["v"] < 8, reads=("v",))
                    .group_by("k")
                    .agg(total=("sum", "v"), n=("count", None)))

        env1 = Environment()
        optimized = build(env1).collect(optimized=True)
        env1.execute()
        env2 = Environment()
        unoptimized = build(env2).collect(optimized=False)
        env2.execute()
        assert rows_of(optimized) == rows_of(unoptimized)

    @pytest.mark.parametrize("seed", [4, 5])
    def test_streaming_plans_agree(self, seed):
        rng = random.Random(seed)
        rows = self._random_rows(rng)

        def build(env):
            return (env.table(rows, bounded=False, time_column="ts")
                    .select("k", "v", "ts")
                    .where(lambda r: r["v"] != 0, reads=("v",))
                    .window(Tumble("ts", 100))
                    .group_by("k")
                    .agg(total=("sum", "v")))

        env1 = Environment()
        optimized = build(env1).collect(optimized=True)
        env1.execute()
        env2 = Environment()
        unoptimized = build(env2).collect(optimized=False)
        env2.execute()
        assert rows_of(optimized) == rows_of(unoptimized)

    def test_pushdown_reduces_records_into_select(self):
        env = Environment()
        rows = self._random_rows(random.Random(9), n=200)
        table = (env.table(rows)
                 .select("k", "v")
                 .where(lambda r: r["v"] > 0, reads=("v",),
                        description="v>0"))
        table.collect(optimized=True)
        env.execute()
        engine = env.last_engine
        # The where[] operator now sits upstream of select; records
        # flowing out of the filter are fewer than the scan emitted.
        counters = {}
        for task in engine.tasks:
            counters.update(task.metrics.counters())
        survivors = sum(1 for row in rows if row["v"] > 0)
        collected = [name for name in counters if "records" in name]
        assert survivors < len(rows)  # sanity for this seed


class TestTableJoin:
    USERS = [
        {"user": "alice", "country": "de"},
        {"user": "bob", "country": "fr"},
        {"user": "carol", "country": "de"},
    ]

    def test_join_enriches_rows(self):
        env = Environment(parallelism=2)
        orders = env.table(ORDERS).select("user", "amount")
        users = env.table(self.USERS)
        joined = orders.join(users, on=("user",))
        assert set(joined.columns) == {"user", "amount", "country"}
        result = joined.collect()
        env.execute()
        rows = result.get()
        assert len(rows) == len(ORDERS)
        by_user = {row["user"]: row["country"] for row in rows}
        assert by_user == {"alice": "de", "bob": "fr", "carol": "de"}

    def test_join_then_group(self):
        env = Environment()
        orders = env.table(ORDERS).select("user", "amount")
        users = env.table(self.USERS)
        report = (orders.join(users, on=("user",))
                  .group_by("country")
                  .agg(revenue=("sum", "amount"))
                  .collect())
        env.execute()
        by_country = {row["country"]: row["revenue"]
                      for row in report.get()}
        assert by_country == {"de": 100.0, "fr": 20.0}

    def test_unmatched_left_rows_dropped(self):
        env = Environment()
        left = env.table([{"user": "ghost", "amount": 1.0}])
        users = env.table(self.USERS)
        result = left.join(users, on=("user",)).collect()
        env.execute()
        assert result.get() == []

    def test_validation(self):
        env = Environment()
        orders = env.table(ORDERS)
        users = env.table(self.USERS)
        with pytest.raises(ValueError, match="missing on the left"):
            users.join(orders, on=("nope",))
        with pytest.raises(ValueError, match="ambiguous"):
            # both carry 'country' as a non-key column
            users.join(env.table([{"user": "x", "country": "es"}]),
                       on=("user",))

    def test_streaming_join_rejected(self):
        env = Environment()
        stream = env.table(ORDERS, bounded=False, time_column="ts")
        users = env.table(self.USERS)
        with pytest.raises(ValueError, match="bounded"):
            stream.join(users, on=("user",))


class TestBoundedWindowing:
    def test_windows_work_on_bounded_tables_too(self):
        """Batch = a stream that ends: windowed aggregation is legal on
        bounded relations and produces the same rows."""
        env = Environment()
        bounded = (env.table(ORDERS, bounded=True, time_column="ts")
                   .window(Tumble("ts", 1000))
                   .group_by("country")
                   .agg(revenue=("sum", "amount"))
                   .collect())
        env.execute()
        env2 = Environment()
        streaming = (env2.table(ORDERS, bounded=False, time_column="ts")
                     .window(Tumble("ts", 1000))
                     .group_by("country")
                     .agg(revenue=("sum", "amount"))
                     .collect())
        env2.execute()
        assert rows_of(bounded) == rows_of(streaming)
