"""Tests for shared arrangements: the multiversioned index, its operator
lifecycle, the optimizer rewrite, and end-to-end sharing parity."""

import pytest

from repro.api import Environment
from repro.runtime.engine import EngineConfig
from repro.runtime.batch import ArrangeOperator
from repro.state import (
    Arrangement,
    ShardedArrangement,
    VersionCompactedError,
)
from repro.table import make_table
from repro.table.optimizer import optimize, rewrite_shared_arrangements
from repro.table.plan import ArrangementScan

ORDERS = [
    {"user": "alice", "amount": 30.0, "country": "de", "ts": 10},
    {"user": "bob", "amount": 5.0, "country": "fr", "ts": 20},
    {"user": "alice", "amount": 20.0, "country": "de", "ts": 1050},
    {"user": "carol", "amount": 50.0, "country": "de", "ts": 1100},
    {"user": "bob", "amount": 15.0, "country": "fr", "ts": 2200},
]

USERS = [
    {"user": "alice", "tier": "gold"},
    {"user": "bob", "tier": "silver"},
    {"user": "carol", "tier": "gold"},
]


def rows_of(result):
    return sorted(result.get(), key=repr)


def make_rows(n, num_keys=7):
    return [{"user": "u%d" % (i % num_keys), "amount": float(i % 23),
             "ts": i * 10} for i in range(n)]


# -- the multiversioned index itself ------------------------------------------

class TestArrangement:
    def test_versions_are_snapshots(self):
        arr = Arrangement("a", ("k",))
        arr.insert(("x",), {"k": "x", "v": 1})
        arr.seal(10)
        arr.insert(("x",), {"k": "x", "v": 2})
        arr.insert(("y",), {"k": "y", "v": 3})
        arr.seal(20)
        handle = arr.attach()
        handle.advance_to(20)
        assert arr.version_for(10) == 1
        assert arr.version_for(15) == 1
        assert arr.version_for(20) == 2
        at_10 = handle.read_at(10)
        assert at_10 == {("x",): [{"k": "x", "v": 1}]}
        at_20 = handle.read_at(20)
        assert sorted(at_20) == [("x",), ("y",)]
        assert at_20[("x",)] == [{"k": "x", "v": 1}, {"k": "x", "v": 2}]

    def test_timestamps_before_first_seal_read_empty(self):
        arr = Arrangement("a", ("k",))
        arr.insert(("x",), {"k": "x"})
        arr.seal(10)
        handle = arr.attach()
        assert handle.read_at(5) == {}

    def test_compaction_respects_reader_low_watermark(self):
        arr = Arrangement("a", ("k",))
        slow = arr.attach()
        for i in range(6):
            arr.insert(("x",), {"k": "x", "v": i})
            arr.seal((i + 1) * 10)
        fast = arr.attach()
        fast.advance_to(60)
        # slow never advanced: its low watermark pins compaction at zero.
        arr.compact()
        assert arr.compacted_through == 0
        assert arr.version_count >= 6
        slow.advance_to(30)
        arr.compact()
        assert arr.compacted_through == 3  # the version sealed at ts=30
        # reads at and above the frontier still work, below it raise.
        assert len(fast.read_at(30)[("x",)]) == 3
        with pytest.raises(VersionCompactedError):
            fast.read_at(10)
        slow.detach()
        fast.advance_to(60)
        arr.compact()
        assert arr.compacted_through == 6
        assert arr.version_count == 0  # everything folded into the base
        assert arr.compaction_lag == 0

    def test_flat_version_count_under_steady_watermark(self):
        """A reader that keeps up lets periodic compaction hold the
        number of live versions flat -- the bounded-memory claim."""
        arr = Arrangement("a", ("k",), compaction_interval=4)
        handle = arr.attach()
        peak = 0
        for i in range(200):
            arr.insert(("k%d" % (i % 5),), {"k": "k%d" % (i % 5), "v": i})
            arr.seal((i + 1) * 10)
            handle.advance_to((i + 1) * 10)
            if i % 4 == 3:
                arr.compact()
            peak = max(peak, arr.version_count)
        assert peak <= 8
        assert arr.compactions >= 40
        assert arr.stats()["rows"] == 200

    def test_reader_accounting(self):
        arr = Arrangement("a", ("k",))
        h1, h2 = arr.attach(), arr.attach()
        assert arr.stats()["readers"] == 2
        assert arr.stats()["readers_peak"] == 2
        h1.detach()
        h1.detach()  # idempotent
        assert arr.stats()["readers"] == 1
        assert arr.stats()["readers_total"] == 2
        h2.detach()
        assert arr.stats()["readers"] == 0

    def test_snapshot_restore_round_trip(self):
        arr = Arrangement("a", ("k",), compaction_interval=2)
        handle = arr.attach()
        for i in range(8):
            arr.insert(("x",), {"k": "x", "v": i})
            arr.seal((i + 1) * 10)
        handle.advance_to(40)
        arr.compact()
        state = arr.snapshot()

        other = Arrangement("a", ("k",))
        restored_handle = other.attach()
        other.restore(state)
        assert other.sealed == arr.sealed
        assert other.compacted_through == arr.compacted_through
        assert other.read_rows(other.version_for(80)) == \
            arr.read_rows(arr.version_for(80))
        # a surviving handle is clamped into the restored valid range
        assert (other.compacted_through <= restored_handle.low_watermark
                <= other.sealed)

    def test_sharded_stats_aggregate(self):
        sharded = ShardedArrangement("a", ("k",), parallelism=2)
        sharded.shard(0).insert(("x",), {"k": "x"})
        sharded.shard(1).insert(("y",), {"k": "y"})
        stats = sharded.stats()
        assert stats["shards"] == 2
        assert stats["rows"] == 2
        assert stats["distinct_keys"] == 2


class TestArrangeOperatorReset:
    def test_open_resets_dirty_shard(self):
        """Scratch restarts re-run open(); a shard left over from the
        failed attempt must not leak rows or stale handles into it."""
        sharded = ShardedArrangement("a", ("k",), parallelism=1)
        shard = sharded.shard(0)
        shard.insert(("x",), {"k": "x"})
        shard.seal(10)
        stale = shard.attach()

        class _Ctx:
            subtask_index = 0

        op = ArrangeOperator(sharded, lambda row: (row["k"],), name="a")
        op.open(_Ctx())
        assert shard.stats()["rows"] == 0
        assert shard.stats()["readers"] == 0
        assert not stale.attached


# -- the optimizer rewrite ----------------------------------------------------

class TestArrangementRewrite:
    def test_group_by_rewrites_to_arrangement_scan(self):
        env = Environment()
        table = env.table(ORDERS).group_by("user").agg(
            revenue=("sum", "amount"))
        ops = table.optimized_plan(share_arrangements=True)
        assert isinstance(ops[0], ArrangementScan)
        assert ops[0].kind == "group"
        assert ops[0].keys == ("user",)

    def test_identical_prefixes_share_a_fingerprint(self):
        env = Environment()
        t = env.table(ORDERS)
        a = (t.where(lambda r: r["amount"] > 0, reads=("amount",))
             .group_by("user").agg(n=("count", None)))
        b = (t.where(lambda r: r["amount"] > 0, reads=("amount",))
             .group_by("user").agg(total=("sum", "amount")))
        ops_a = a.optimized_plan(share_arrangements=True)
        ops_b = b.optimized_plan(share_arrangements=True)
        assert ops_a[0].fingerprint == ops_b[0].fingerprint

    def test_windowed_plans_are_not_rewritten(self):
        env = Environment()
        from repro.table import Tumble
        table = (env.table(ORDERS, time_column="ts")
                 .window(Tumble("ts", size=1000)).group_by("user")
                 .agg(n=("count", None)))
        ops = table.optimized_plan(share_arrangements=True)
        assert not any(isinstance(op, ArrangementScan) for op in ops)

    def test_rewrite_preserves_plain_plans(self):
        env = Environment()
        table = env.table(ORDERS).select("user", "amount")
        ops = table.optimized_plan(share_arrangements=True)
        assert not any(isinstance(op, ArrangementScan) for op in ops)


# -- end-to-end sharing parity ------------------------------------------------

class TestSharedQueryParity:
    def _run_group_queries(self, share, parallelism=2):
        env = Environment(
            parallelism=parallelism,
            config=EngineConfig(share_arrangements=share,
                                arrangement_compaction_interval=4))
        t = env.table(make_rows(120), time_column="ts")
        results = [
            t.group_by("user").agg(revenue=("sum", "amount")).collect(),
            t.group_by("user").agg(n=("count", None)).collect(),
            t.group_by("user").agg(biggest=("max", "amount")).collect(),
        ]
        env.execute()
        return [rows_of(result) for result in results], env

    def test_group_by_sharing_matches_independent(self):
        shared, env = self._run_group_queries(share=True)
        independent, _ = self._run_group_queries(share=False)
        assert shared == independent
        report = env.job_report().get("arrangements")
        assert report, "sharing enabled but no arrangements section"
        assert max(row["readers_peak"] for row in report) == 3
        assert all(row["compacted_through"] <= row["sealed"]
                   for row in report)

    def _run_join_queries(self, share):
        env = Environment(
            parallelism=2,
            config=EngineConfig(share_arrangements=share))
        left = env.table(ORDERS)
        right = env.table(USERS)
        results = [
            left.join(right, on=("user",)).collect(),
            left.where(lambda r: r["amount"] > 10, reads=("amount",))
                .join(right, on=("user",)).collect(),
        ]
        env.execute()
        return [rows_of(result) for result in results], env

    def test_join_sharing_matches_independent(self):
        shared, env = self._run_join_queries(share=True)
        independent, _ = self._run_join_queries(share=False)
        assert shared == independent
        report = env.job_report().get("arrangements")
        assert report
        # both join queries read the one arrangement over USERS
        assert {row["arrangement"] for row in report} == \
            {report[0]["arrangement"]}
        assert max(row["readers_total"] for row in report) == 2

    def test_many_queries_few_arrangements(self):
        """The acceptance shape: hundreds of concurrent queries served
        by a handful of arrangements, byte-identical to independent
        runs, with the source scanned once per arrangement rather than
        once per query."""
        num_queries = 256
        rows = make_rows(300)
        aggs = [("revenue", ("sum", "amount")), ("n", ("count", None)),
                ("lo", ("min", "amount")), ("hi", ("max", "amount"))]

        def build(env):
            t = env.table(rows, time_column="ts")
            results = []
            for q in range(num_queries):
                name, spec = aggs[q % len(aggs)]
                key = ("user",) if q % 2 == 0 else ("user", "amount")
                results.append(
                    t.group_by(*key).agg(**{name: spec}).collect())
            return results

        shared_env = Environment(
            config=EngineConfig(share_arrangements=True,
                                arrangement_compaction_interval=8))
        shared_results = build(shared_env)
        shared_env.execute()
        shared = [rows_of(r) for r in shared_results]

        indep_env = Environment(
            config=EngineConfig(share_arrangements=False))
        indep_results = build(indep_env)
        indep_env.execute()
        independent = [rows_of(r) for r in indep_results]

        assert shared == independent
        report = shared_env.job_report()["arrangements"]
        names = {row["arrangement"] for row in report}
        assert len(names) <= 4
        assert sum(row["readers_peak"] for row in report) == num_queries
        # the shared plan routes every row through one arrange operator
        # per arrangement; the independent plan re-processes the input
        # once per query -- a >=3x logical-work gap.
        def records_processed(env):
            return sum(op["records_in"]
                       for op in env.job_report()["operators"])
        assert (records_processed(indep_env)
                >= 3 * records_processed(shared_env))


def make_arrangement_crash():
    """Crash once, after a checkpoint sealed and at least one
    arrangement shard has compacted -- the restore then lands mid-way
    through a compacting index."""
    from repro.runtime.faults import CRASH, FaultEvent, FaultInjector

    def compacted(view):
        return any(row["compactions"] >= 1 for task in view.tasks
                   for row in task.operator_reports("arrangement_report"))
    return FaultInjector([FaultEvent(CRASH, after_checkpoints=1,
                                     when=compacted)])


class TestCrashRestore:
    def _run(self, tmp_path, crash):
        faults = make_arrangement_crash() if crash else None
        config = EngineConfig(
            share_arrangements=True,
            arrangement_compaction_interval=2,
            checkpoint_interval_ms=5,
            elements_per_step=4,
            checkpoint_dir=str(tmp_path / ("crash" if crash else "clean")),
            faults=faults)
        env = Environment(parallelism=2, config=config)
        t = env.table(make_rows(160), time_column="ts")
        results = [
            t.group_by("user").agg(revenue=("sum", "amount")).collect(),
            t.group_by("user").agg(n=("count", None)).collect(),
        ]
        env.execute()
        return [rows_of(r) for r in results], env, faults

    def test_restore_mid_compaction_matches_clean_run(self, tmp_path):
        clean, _, _ = self._run(tmp_path, crash=False)
        replayed, env, faults = self._run(tmp_path, crash=True)
        assert faults.applied, "the crash never fired mid-compaction"
        assert replayed == clean
        report = env.job_report()["arrangements"]
        assert report
        for row in report:
            assert row["compacted_through"] <= row["sealed"]


class TestMultiprocessParity:
    @pytest.mark.parametrize("case_index", [8, 41, 75, 88])
    def test_oracle_crash_case_on_worker_processes(self, case_index):
        """A seed-0 arrangement-oracle case whose shared run crashes on
        two workers, half-way through the first source subtask's rows,
        and the respawned fleet restores.  (Parallelism-1 cases of 70+
        rows: at parallelism 2 a source subtask may own no row, end at
        once and so end checkpointing before the first cut.)"""
        import multiprocessing
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("multiprocess backend needs fork")
        from repro.testing.deployment import Deployment
        from repro.testing.oracles import SharedArrangementOracle
        from repro.testing.seeds import rng_for

        oracle = SharedArrangementOracle()
        case = oracle.deploy(
            oracle.generate(rng_for(0, oracle.name, case_index), 0,
                            case_index),
            Deployment.parse("multiprocess,workers=2,crash=0.5"))
        engines = []
        run = oracle._run

        def spy(case, share):
            rows, env = run(case, share)
            engines.append(env.last_engine)
            return rows, env

        oracle._run = spy
        mismatch = oracle.check(case)
        assert mismatch is None, "%s\n%s" % (case.seed_line, mismatch)
        assert case.deployment.crash_fired and engines[0].restarts == 1

    def test_oracle_crash_case_on_the_cooperative_scheduler(self):
        """Seed-0 case 257 on a cooperative crash at batch 16: the collect
        sink keeps what the crashed attempt delivered on this backend
        too, so one group row arrives twice; after a crash the oracle
        compares collect output as sets, on either backend."""
        from repro.testing.deployment import Deployment
        from repro.testing.oracles import SharedArrangementOracle
        from repro.testing.seeds import rng_for

        oracle = SharedArrangementOracle()
        case = oracle.deploy(
            oracle.generate(rng_for(0, oracle.name, 257), 0, 257),
            Deployment.parse("cooperative,batch=16,crash=0.75"))
        mismatch = oracle.check(case)
        assert mismatch is None, "%s\n%s" % (case.seed_line, mismatch)
        assert case.deployment.crash_fired

    def test_shared_arrangements_on_multiprocess_backend(self):
        """Fork-inherited shards stay process-local (same-index subtasks
        are co-located), so sharing holds across worker processes."""
        import multiprocessing
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("multiprocess backend needs fork")

        def run(share):
            env = Environment(parallelism=2, config=EngineConfig(
                backend="multiprocess", num_workers=2,
                share_arrangements=share))
            t = env.table(make_rows(60))
            results = [
                t.group_by("user").agg(total=("sum", "amount")).collect(),
                t.group_by("user").agg(n=("count", None)).collect(),
            ]
            env.execute()
            return [rows_of(r) for r in results], env

        shared, env = run(True)
        independent, _ = run(False)
        assert shared == independent
        report = env.job_report().get("arrangements")
        assert report  # federated from the workers
        assert {row["subtask"] for row in report} == {0, 1}


# -- the environment-level table API ------------------------------------------

class TestEnvironmentTableApi:
    def test_env_table_builds_a_table(self):
        env = Environment()
        result = env.table(ORDERS).group_by("country").agg(
            n=("count", None)).collect()
        env.execute()
        by_country = {row["country"]: row["n"] for row in result.get()}
        assert by_country == {"de": 3, "fr": 2}

    def test_env_table_accepts_iterables(self):
        env = Environment()
        table = env.table(iter(ORDERS))
        assert table.columns == ("user", "amount", "country", "ts")

    def test_env_table_time_column(self):
        env = Environment()
        table = env.table(ORDERS, time_column="ts")
        assert table._time_column == "ts"

    def test_register_and_catalog(self):
        env = Environment()
        orders = env.table(ORDERS)
        assert env.register_table("orders", orders) is orders
        assert env.table_catalog() == {"orders": orders}
        # the catalog dict is a copy
        env.table_catalog()["other"] = None
        assert set(env.table_catalog()) == {"orders"}

    def test_register_rejects_foreign_tables(self):
        env, other = Environment(), Environment()
        orders = env.table(ORDERS)
        with pytest.raises(ValueError):
            other.register_table("orders", orders)
        with pytest.raises(TypeError):
            env.register_table("nope", [1, 2, 3])

    def test_make_table_matches_env_table(self):
        env = Environment()
        assert make_table(env, ORDERS).columns == \
            env.table(ORDERS).columns


class TestEngineConfigKnobs:
    def test_share_arrangements_defaults_on(self):
        config = EngineConfig()
        assert config.share_arrangements is True
        assert config.arrangement_compaction_interval == 8

    def test_did_you_mean_for_typoed_knob(self):
        with pytest.raises(TypeError) as excinfo:
            EngineConfig(share_arrangments=True)
        assert "share_arrangements" in str(excinfo.value)

    def test_compaction_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            EngineConfig(arrangement_compaction_interval=0)
