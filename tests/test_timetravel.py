"""Time travel (``repro.state.timetravel``) and the savepoint round
trip it rests on: a durable checkpoint repackaged as a savepoint and
resolved against the program's job graph is the restore map a fresh
deployment takes -- exactly-once sinks included, which put the
committed output of the run that wrote the checkpoint back to that
checkpoint.
"""

import glob
import os

import pytest

from repro.api import Environment
from repro.connectors import TransactionalJsonlFileSink
from repro.runtime.engine import EngineConfig
from repro.state import TimeTravelError, savepoint_from_checkpoint
from repro.state.durable import DurableCheckpointStore
from repro.state.savepoint import savepoint_from_completed
from repro.windowing import CountAggregate, TumblingEventTimeWindows

N = 2000


def sink_program(env, path):
    (env.from_collection(range(N))
        .map(lambda v: {"v": v, "sq": v * v}, name="shape")
        .add_sink(TransactionalJsonlFileSink(path), name="txn-sink"))


def read_bytes(path):
    with open(path, "rb") as handle:
        return handle.read()


@pytest.fixture
def stopped_run(tmp_path):
    """The uninterrupted output, and a run of the same program stopped
    mid-stream with durable checkpoints behind it."""
    clean_path = str(tmp_path / "clean.jsonl")
    env = Environment(config=EngineConfig(checkpoint_interval_ms=5))
    sink_program(env, clean_path)
    env.execute()

    path = str(tmp_path / "out.jsonl")
    directory = str(tmp_path / "chk")
    env = Environment(config=EngineConfig(
        checkpoint_interval_ms=5, checkpoint_dir=directory,
        cancel_hook=lambda engine, rounds: rounds >= 40))
    sink_program(env, path)
    assert env.execute().cancelled
    committed = read_bytes(path)
    assert 0 < len(committed) < len(read_bytes(clean_path))
    return clean_path, path, directory


class TestResumeIntoAnExactlyOnceSink:
    #: ``False`` resumes from the latest checkpoint, ``True`` names it
    #: and ``"oldest"`` travels back to the oldest one retained, into a
    #: file already committed past it.
    @pytest.mark.parametrize("explicit_id", [False, True, "oldest"])
    def test_resumed_file_is_the_uninterrupted_one(self, stopped_run,
                                                   explicit_id):
        clean_path, path, directory = stopped_run
        checkpoint_id = None
        if explicit_id:
            retained = DurableCheckpointStore(
                directory, fresh=False).persisted_ids()
            assert len(retained) > 1
            checkpoint_id = (retained[0] if explicit_id == "oldest"
                             else retained[-1])
        env = Environment()
        sink_program(env, path)
        env.execute(from_savepoint=savepoint_from_checkpoint(
            directory, env, checkpoint_id=checkpoint_id))
        assert read_bytes(path) == read_bytes(clean_path)
        assert glob.glob(glob.escape(path) + ".*") == []

    def test_the_same_file_spelled_another_way_is_continued(self,
                                                            stopped_run):
        clean_path, path, directory = stopped_run
        directory_of, name = os.path.split(path)
        env = Environment()
        sink_program(env, os.path.join(directory_of, ".", name))
        env.execute(from_savepoint=savepoint_from_checkpoint(directory, env))
        assert read_bytes(path) == read_bytes(clean_path)


class TestTimeTravelErrors:
    def test_empty_directory(self, tmp_path):
        env = Environment()
        sink_program(env, str(tmp_path / "out.jsonl"))
        with pytest.raises(TimeTravelError, match="no verified checkpoint"):
            savepoint_from_checkpoint(str(tmp_path / "nothing"), env)

    def test_unknown_checkpoint_id(self, stopped_run, tmp_path):
        _, path, directory = stopped_run
        env = Environment()
        sink_program(env, path)
        with pytest.raises(TimeTravelError, match="checkpoint 999"):
            savepoint_from_checkpoint(directory, env, checkpoint_id=999)

    def test_a_sink_at_another_path_refuses_to_resume(self, stopped_run,
                                                      tmp_path):
        """The checkpoint's committed output and its pending
        transactions belong to the file the stopped run wrote: a sink
        at a path without them raises rather than starting over."""
        _, path, directory = stopped_run
        env = Environment()
        sink_program(env, str(tmp_path / "elsewhere.jsonl"))
        with pytest.raises(RuntimeError,
                           match="cannot restore exactly-once sink"):
            env.execute(from_savepoint=savepoint_from_checkpoint(
                directory, env))

    def test_program_the_checkpoint_does_not_cover(self, stopped_run):
        _, _, directory = stopped_run
        env = Environment(parallelism=2)
        env.from_collection(range(10), name="other").rebalance().map(
            lambda v: v, name="elsewhere").collect()
        with pytest.raises(TimeTravelError, match="lacks a snapshot"):
            savepoint_from_checkpoint(directory, env)


def test_round_trip_at_unchanged_parallelism_is_the_checkpoint():
    """``task_snapshots`` is the inverse of ``savepoint_from_completed``:
    resolved against the graph that wrote it, a savepoint hands every
    subtask the keyed state, timers and operator state of its own
    snapshot -- no merge, no minimum across subtasks."""
    data = [(("k%d" % (i % 5), 1), i * 3) for i in range(1500)]
    env = Environment(parallelism=2, config=EngineConfig(
        checkpoint_interval_ms=5, elements_per_step=4,
        cancel_hook=lambda engine, rounds: rounds >= 60))
    (env.from_source(lambda: data, timestamped=True, parallelism=2,
                     name="pinned-source")
        .key_by(lambda v: v[0])
        .window(TumblingEventTimeWindows.of(300))
        .aggregate(CountAggregate())
        .collect())
    assert env.execute().cancelled
    engine = env.last_engine
    completed = engine.checkpoint_store.latest
    savepoint = savepoint_from_completed(completed, engine.job_graph,
                                         RuntimeError)
    restore = savepoint.task_snapshots(engine.job_graph)

    assert set(restore) == set(completed.snapshots)
    assert any(snapshot.keyed_state["0"] or snapshot.timers["0"]
               for snapshot in restore.values()), "nothing stateful to compare"
    for subtask, original in completed.snapshots.items():
        resolved = restore[subtask]
        assert resolved.subtask == subtask
        assert resolved.keyed_state == original.keyed_state
        assert resolved.timers == original.timers
        assert resolved.operator_state == original.operator_state


def test_one_restore_path_under_src():
    """State is put back by ``Task.restore`` alone, and the decisions
    that used to have copies have one home each."""
    import pathlib
    import repro
    sources = {path: path.read_text() for path in
               pathlib.Path(repro.__file__).parent.rglob("*.py")}

    def files_with(needle):
        return sorted(path.name for path, text in sources.items()
                      if needle in text)

    for call in ("chained.backend.restore(", "chained.timers.restore(",
                 "operator.restore_state("):
        assert files_with(call) == ["task.py"], call
    assert files_with("def restore_from_savepoint") == []
    assert sum(text.count("resume_on_open = True")
               for text in sources.values()) == 1
    assert not set(files_with("draining")) & {"checkpoint.py",
                                              "multiprocess.py"}
    from repro.runtime.engine import Engine
    from repro.runtime.multiprocess import MultiprocessEngine
    assert MultiprocessEngine.create_savepoint is Engine.create_savepoint
