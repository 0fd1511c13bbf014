"""One failure boundary: a user callback that raises reaches the restart
strategy wherever it runs, on either backend.

Each case raises once -- a marker file outlives a respawned worker, so
the restarted attempt runs clean -- at one site: a ``map`` element, a
``ProcessFunction.on_timer`` on a processing-time and on an event-time
timer, a sink's ``snapshot`` (the checkpoint cut), a two-phase-commit
append (the commit), ``ProcessFunction.finish``, and
``ProcessFunction.open`` on the first deployment and on the redeploy
that follows a failure.  Under ``FixedDelayRestart`` with checkpoints on,
the job restarts once per failure and the exactly-once file holds the
clean run's bytes.  Without a strategy the job fails with the
callback's own exception.  The job runs at parallelism 1, so the file's
line order is fixed by the program alone; on two workers the failure is
the worker's and the restart the respawned fleet's.
"""

import multiprocessing
import os
import time

import pytest

from repro.api import Environment
from repro.connectors.sinks import TransactionalTextFileSink
from repro.runtime.engine import EngineConfig, JobFailedError
from repro.runtime.operators import ProcessFunction
from repro.runtime.restart import FixedDelayRestart
from repro.state.descriptors import ValueStateDescriptor
from repro.time.watermarks import WatermarkStrategy

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="multiprocess backend requires the fork start method")

N = 400
KEYS = 7
#: The element that raises, or registers the timers that do.
STRIKE = N // 2
SITES = ["element", "processing-timer", "event-timer", "snapshot", "commit",
         "finish", "open", "first-open"]
#: Failures per site: ``open`` raises on the redeploy that a first
#: failure brings about.
FAILURES = {"open": 2}
BACKENDS = [
    pytest.param(dict(checkpoint_interval_ms=5), id="cooperative"),
    pytest.param(dict(backend="multiprocess", num_workers=2,
                      checkpoint_interval_ms=20),
                 id="multiprocess", marks=needs_fork)]


def raise_once(marker, site):
    """Raise the first time ``site`` is reached in this job."""
    if not os.path.exists(marker):
        open(marker, "w").close()
        raise RuntimeError("%s failed" % site)


class RunningSums(ProcessFunction):
    """Per-key running sums; at ``STRIKE`` a timer site registers its
    timer."""

    def __init__(self, site, marker):
        self.site = site
        self.marker = marker

    def open(self, ctx):
        if self.site == "open" and os.path.exists(self.marker + ".first"):
            raise_once(self.marker, "open")
        elif self.site == "first-open":
            raise_once(self.marker, "first open")
        self.total = ctx.get_state(ValueStateDescriptor("total", default=0))

    def process_element(self, value, ctx):
        total = self.total.value() + value
        self.total.update(total)
        ctx.emit("%d:%d" % (ctx.current_key, total))
        if value == STRIKE and self.site == "processing-timer":
            ctx.register_processing_time_timer(ctx.processing_time() + 2)
        elif value == STRIKE and self.site == "event-timer":
            ctx.register_event_time_timer(value + 20)

    def on_timer(self, timestamp, ctx):
        raise_once(self.marker, self.site)

    def finish(self, ctx):
        if self.site == "finish":
            raise_once(self.marker, "finish")


class FlakySink(TransactionalTextFileSink):
    """Fails its second snapshot, or tears its second append with
    content (a commit) in half."""

    def __init__(self, path, site, marker):
        super().__init__(path)
        self.site = site
        self.marker = marker
        self.snapshots = 0
        self.appends = 0

    def snapshot(self):
        self.snapshots += 1
        if self.site == "snapshot" and self.snapshots == 2:
            raise_once(self.marker, "snapshot")
        return super().snapshot()

    def _write(self, offset, lines):
        if lines:
            self.appends += 1
        if (self.site == "commit" and self.appends == 2
                and not os.path.exists(self.marker)):
            data = "".join(line + "\n" for line in lines).encode()
            with open(self.path, "ab") as handle:
                handle.write(data[:len(data) // 2])
            raise_once(self.marker, "commit")
        super()._write(offset, lines)


def run_job(path, site, marker, backend,
            strategy=lambda: FixedDelayRestart(max_restarts=3, delay_ms=0)):
    def element(value):
        if value % 2:
            time.sleep(0.001)  # keeps the source live for checkpoints
        if site == "element" and value == STRIKE:
            raise_once(marker, "element")
        elif site == "open" and value == 0:
            raise_once(marker + ".first", "element")
        return value

    env = Environment(config=EngineConfig(
        elements_per_step=4, restart_strategy=strategy(), **backend))
    (env.from_collection(range(N))
        .assign_timestamps_and_watermarks(
            WatermarkStrategy.for_monotonic_timestamps(lambda value: value))
        .map(element, name="element")
        .key_by(lambda value: value % KEYS)
        .process(RunningSums(site, marker), name="sums")
        .add_sink(FlakySink(path, site, marker), name="sink"))
    job = env.execute()
    with open(path, "rb") as handle:
        return handle.read(), job


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("site", SITES)
def test_a_raising_callback_restarts_once(tmp_path, site, backend):
    clean, clean_job = run_job(str(tmp_path / "clean.txt"), None,
                               str(tmp_path / "unused"), backend)
    assert clean_job.restarts == 0
    assert len(clean.splitlines()) == N

    marker = str(tmp_path / "raised")
    output, job = run_job(str(tmp_path / "out.txt"), site, marker, backend)
    assert os.path.exists(marker), "the %s site was never reached" % site
    assert job.restarts == FAILURES.get(site, 1)
    assert output == clean


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("site", SITES)
def test_without_a_strategy_the_callbacks_exception_fails_the_job(
        tmp_path, site, backend):
    """On worker processes too: the parent raises the type the worker
    raised, caused by a ``JobFailedError`` carrying the worker's
    traceback."""
    with pytest.raises(RuntimeError, match="failed") as excinfo:
        run_job(str(tmp_path / "out.txt"), site, str(tmp_path / "raised"),
                backend, strategy=lambda: None)
    assert excinfo.type is RuntimeError
    if "backend" in backend:
        cause = excinfo.value.__cause__
        assert isinstance(cause, JobFailedError)
        assert "worker" in str(cause) and "Traceback" in str(cause)
