"""Restart strategies: the policy half of the job supervisor.

When a subtask raises (an operator bug in any user callback, an
injected chaos fault), the engine's supervisor asks its configured
:class:`RestartStrategy` whether the job may be restarted and after what
simulated delay.  The mechanics of the restart -- deploying fresh
tasks restored from the latest completed checkpoint, or from what the
job was deployed with when none exists yet -- live in
:class:`~repro.runtime.engine.Engine`;
this module is pure policy so each strategy can be unit-tested with a
fake clock.

The vocabulary mirrors Flink's ``restart-strategy`` options:

* :class:`NoRestart` -- fail the job on the first failure,
* :class:`FixedDelayRestart` -- up to N attempts, constant delay,
* :class:`ExponentialBackoffRestart` -- delay grows per attempt, capped,
* :class:`FailureRateRestart` -- give up only when failures cluster
  (more than ``max_failures_per_interval`` inside a sliding interval).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional


class RestartStrategy:
    """Decides whether (and when) a failed job may restart.

    ``on_failure(now_ms)`` returns the restart delay in simulated
    milliseconds, or ``None`` when the strategy gives up.  Strategies are
    stateful (attempt counters, failure history) and single-job: build a
    fresh instance per :class:`~repro.runtime.engine.EngineConfig`.
    """

    name = "restart-strategy"

    def on_failure(self, now_ms: int) -> Optional[int]:
        raise NotImplementedError

    def __repr__(self) -> str:
        return "%s()" % type(self).__name__


def grant_restart(engine: Any, exc: BaseException, now_ms: int) -> int:
    """The supervisor's restart decision, the same on both backends: ask
    ``engine.config.restart_strategy`` about ``exc`` and count the
    restart on ``engine``.  Returns the delay
    the backend spends (on its own clock) before restarting.  Without a
    strategy ``exc`` propagates (no strategy means no restart, on both
    backends); a strategy that gives up fails the job.
    """
    strategy = engine.config.restart_strategy
    if strategy is None:
        raise exc
    delay_ms = strategy.on_failure(now_ms)
    if delay_ms is None:
        from repro.runtime.engine import JobFailedError  # engine imports us
        raise JobFailedError(
            "restart strategy %r gave up after: %r" % (strategy, exc)
        ) from exc
    engine.restarts += 1
    engine.metrics.counter("restarts").inc()
    return delay_ms


class NoRestart(RestartStrategy):
    """Fail the job on the first failure (Flink's ``none``)."""

    name = "no-restart"

    def on_failure(self, now_ms: int) -> Optional[int]:
        return None


class FixedDelayRestart(RestartStrategy):
    """At most ``max_restarts`` attempts, each after a constant delay."""

    name = "fixed-delay"

    def __init__(self, max_restarts: int = 3, delay_ms: int = 10) -> None:
        if max_restarts < 1:
            raise ValueError("max_restarts must be >= 1")
        if delay_ms < 0:
            raise ValueError("delay_ms must be >= 0")
        self.max_restarts = max_restarts
        self.delay_ms = delay_ms
        self._attempts = 0

    def on_failure(self, now_ms: int) -> Optional[int]:
        self._attempts += 1
        if self._attempts > self.max_restarts:
            return None
        return self.delay_ms

    def __repr__(self) -> str:
        return ("FixedDelayRestart(max_restarts=%d, delay_ms=%d, used=%d)"
                % (self.max_restarts, self.delay_ms, self._attempts))


class ExponentialBackoffRestart(RestartStrategy):
    """Delay grows by ``multiplier`` per consecutive failure, capped at
    ``max_delay_ms``; optionally bounded in total attempts.

    ``jitter`` spreads each delay uniformly over ``[delay * (1 -
    jitter), delay]`` so fleets restarting off the same failure do not
    thunder back in lock-step.  The randomness is *seeded*: it draws
    from :func:`repro.testing.seeds.rng_for` under the process-wide
    ``REPRO_SEED`` root, so a chaos run replays the same backoff
    sequence bit-for-bit.
    """

    name = "exponential-backoff"

    def __init__(self, initial_delay_ms: int = 1, max_delay_ms: int = 1000,
                 multiplier: float = 2.0,
                 max_restarts: Optional[int] = None,
                 jitter: float = 0.0) -> None:
        if initial_delay_ms < 0:
            raise ValueError("initial_delay_ms must be >= 0")
        if max_delay_ms < initial_delay_ms:
            raise ValueError("max_delay_ms must be >= initial_delay_ms")
        if multiplier < 1.0:
            raise ValueError("multiplier must be >= 1.0")
        if max_restarts is not None and max_restarts < 1:
            raise ValueError("max_restarts must be >= 1 when given")
        if not 0.0 <= jitter <= 1.0:
            raise ValueError("jitter must be within [0.0, 1.0]")
        self.initial_delay_ms = initial_delay_ms
        self.max_delay_ms = max_delay_ms
        self.multiplier = multiplier
        self.max_restarts = max_restarts
        self.jitter = jitter
        self._attempts = 0
        self._rng = None

    def on_failure(self, now_ms: int) -> Optional[int]:
        self._attempts += 1
        if self.max_restarts is not None and self._attempts > self.max_restarts:
            return None
        delay = self.initial_delay_ms * (self.multiplier ** (self._attempts - 1))
        delay = min(int(delay), self.max_delay_ms)
        if self.jitter and delay:
            if self._rng is None:
                # Lazy: repro.testing imports repro.api which imports
                # the runtime; resolving the seed tree at first failure
                # avoids the cycle.
                from repro.testing.seeds import rng_for, root_seed
                self._rng = rng_for(root_seed(), "restart-backoff-jitter")
            delay = int(delay * (1.0 - self.jitter * self._rng.random()))
        return delay

    def __repr__(self) -> str:
        return ("ExponentialBackoffRestart(initial=%d, max=%d, x%.1f, "
                "jitter=%.2f, used=%d)"
                % (self.initial_delay_ms, self.max_delay_ms,
                   self.multiplier, self.jitter, self._attempts))


class FailureRateRestart(RestartStrategy):
    """Restart freely unless more than ``max_failures_per_interval``
    failures land inside a sliding ``interval_ms`` window -- tolerant of
    sporadic faults, intolerant of crash loops."""

    name = "failure-rate"

    def __init__(self, max_failures_per_interval: int = 3,
                 interval_ms: int = 1000, delay_ms: int = 10) -> None:
        if max_failures_per_interval < 1:
            raise ValueError("max_failures_per_interval must be >= 1")
        if interval_ms <= 0:
            raise ValueError("interval_ms must be positive")
        if delay_ms < 0:
            raise ValueError("delay_ms must be >= 0")
        self.max_failures_per_interval = max_failures_per_interval
        self.interval_ms = interval_ms
        self.delay_ms = delay_ms
        self._failure_times: Deque[int] = deque()

    def on_failure(self, now_ms: int) -> Optional[int]:
        cutoff = now_ms - self.interval_ms
        while self._failure_times and self._failure_times[0] <= cutoff:
            self._failure_times.popleft()
        self._failure_times.append(now_ms)
        if len(self._failure_times) > self.max_failures_per_interval:
            return None
        return self.delay_ms

    def __repr__(self) -> str:
        return ("FailureRateRestart(max=%d/%dms, delay_ms=%d, recent=%d)"
                % (self.max_failures_per_interval, self.interval_ms,
                   self.delay_ms, len(self._failure_times)))
