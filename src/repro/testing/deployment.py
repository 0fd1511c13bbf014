"""Where and how an engine oracle's jobs run.

STREAMLINE's answers must not depend on the deployment, so every engine
oracle runs each case on one :class:`Deployment` -- backend, worker
count, exchange, batch size, at most one crash -- drawn per case by the
fuzz driver (:func:`draw`) or pinned (:meth:`Deployment.parse`).  An
oracle never reads the axes: it gets each job's ``EngineConfig`` from
:meth:`Deployment.config` and slows its sources through :func:`paced`,
so what a crash needs to fire after a sealed checkpoint lives here once.
"""

from __future__ import annotations

import random
import time
from typing import Any, List, Optional

from repro.runtime.engine import EngineConfig
from repro.runtime.faults import CRASH, FaultEvent, FaultInjector
from repro.runtime.restart import FixedDelayRestart

#: Spec key -> (Deployment field, value type, default).
_SPEC_AXES = {"workers": ("workers", int, 1),
              "exchange": ("exchange", str, "shm"),
              "batch": ("batch_size", int, 1),
              "crash": ("crash", float, None)}
_AXES = ("backend",) + tuple(axis for axis, _, _ in _SPEC_AXES.values())


class Deployment:
    """One point on the deployment axes; ``str()`` is its spec, e.g.
    ``multiprocess,workers=2,exchange=pipe,batch=64,crash=0.5``."""

    __slots__ = _AXES + ("_armed",)

    def __init__(self, backend: str = "cooperative", workers: int = 1,
                 exchange: str = "shm", batch_size: int = 1,
                 crash: Optional[float] = None) -> None:
        if crash is not None and not 0 < crash <= 1:
            raise ValueError("crash must be a share in (0, 1]; got %r"
                             % (crash,))
        if backend == "cooperative":  # one process: nothing to exchange
            workers, exchange = 1, "shm"
        EngineConfig(backend=backend, num_workers=workers,
                     exchange=exchange, batch_size=batch_size)  # validates
        self.backend = backend
        self.workers = workers
        self.exchange = exchange
        self.batch_size = batch_size
        self.crash = crash
        self._armed: List[FaultInjector] = []  # crashes config() handed out

    def replace(self, **axes: Any) -> "Deployment":
        return Deployment(**dict({axis: getattr(self, axis)
                                  for axis in _AXES}, **axes))

    @property
    def crash_fired(self) -> bool:
        return any(faults.applied for faults in self._armed)

    def config(self, records: int = 0, crash: bool = True,
               **options: Any) -> EngineConfig:
        """The ``EngineConfig`` of one job on this deployment.

        With a crash drawn, every job checkpoints and has a restart
        strategy; ``crash`` arms it on this job: the first subtask of
        the job graph crashes once a checkpoint has sealed and the drawn
        share of its ``records`` went through it.
        ``options`` are the program's own settings."""
        settings = dict(backend=self.backend, exchange=self.exchange,
                        batch_size=self.batch_size)
        workers = self.backend == "multiprocess"
        if workers:
            settings["num_workers"] = self.workers
        if self.crash is not None:
            # Worker processes checkpoint on the wall clock: one record
            # per step and a 1 ms interval let the first cut seal before
            # a short (paced) source ends checkpointing by finishing.
            settings.update(checkpoint_interval_ms=1 if workers else 5,
                            elements_per_step=1 if workers else 4,
                            restart_strategy=FixedDelayRestart(
                                max_restarts=3, delay_ms=0))
            if crash:
                faults = FaultInjector([FaultEvent(
                    CRASH, after_checkpoints=1,
                    after_records=max(1, int(records * self.crash)))])
                self._armed.append(faults)
                settings["faults"] = faults
        settings.update(options)
        return EngineConfig(**settings)

    def __str__(self) -> str:
        return ",".join([self.backend] + [
            "%s=%s" % (key, getattr(self, axis))
            for key, (axis, _, default) in _SPEC_AXES.items()
            if getattr(self, axis) != default])

    def __repr__(self) -> str:
        return "Deployment.parse(%r)" % str(self)

    def __eq__(self, other: Any) -> bool:
        return isinstance(other, Deployment) and str(self) == str(other)

    @classmethod
    def parse(cls, spec: str) -> "Deployment":
        """The deployment a spec names; axes it leaves out default."""
        fields: dict = {}
        for part in filter(None, (part.strip() for part in spec.split(","))):
            name, _, value = part.partition("=")
            if not value:
                fields["backend"] = name
            elif name in _SPEC_AXES:
                axis, kind, _ = _SPEC_AXES[name]
                fields[axis] = kind(value)
            else:
                raise ValueError("unknown deployment axis %r" % name)
        return cls(**fields)


def draw(rng: random.Random) -> Deployment:
    """A random deployment; every axis consumes its draw, so one axis's
    value never shifts another's."""
    backend = "multiprocess" if rng.random() < 0.35 else "cooperative"
    workers = rng.choice((1, 2))
    exchange = rng.choice(("shm", "pipe"))
    batch_size = rng.choice((1, 16, 64))
    share = rng.choice((0.25, 0.5, 0.75))  # of the victim's records
    crash = share if rng.random() < 0.4 else None
    return Deployment(backend, workers, exchange, batch_size, crash)


def paced(stream: Any, seconds: float = 0.002) -> Any:
    """``stream`` (a ``DataStream`` or a ``Table``), slowed by
    ``seconds`` per record when its job crashes on worker processes, so
    that wall-clock checkpoints seal while it still runs."""
    config = stream.env.config
    if config.faults is None or config.backend != "multiprocess":
        return stream
    if hasattr(stream, "where"):
        return stream.where(lambda row: time.sleep(seconds) or True, (),
                            "pace")
    return stream.map(lambda element: time.sleep(seconds) or element,
                      name="pace")
