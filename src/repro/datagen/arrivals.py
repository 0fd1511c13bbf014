"""Arrival processes and skew: the shape knobs of every workload.

All generators are seeded and re-creatable, which is what makes the
whole benchmark suite reproducible and the engine's sources replayable
after recovery.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from typing import Iterator, List


class UniformArrivals:
    """Fixed inter-arrival gap: ``rate`` events per 1000 time units."""

    def __init__(self, rate_per_second: float) -> None:
        if rate_per_second <= 0:
            raise ValueError("rate must be positive")
        self.rate_per_second = rate_per_second

    def timestamps(self, count: int, start: int = 0) -> Iterator[int]:
        gap = 1000.0 / self.rate_per_second
        for index in range(count):
            yield start + int(index * gap)


class PoissonArrivals:
    """Exponential inter-arrival gaps at ``rate`` events per second."""

    def __init__(self, rate_per_second: float, seed: int = 7) -> None:
        if rate_per_second <= 0:
            raise ValueError("rate must be positive")
        self.rate_per_second = rate_per_second
        self.seed = seed

    def timestamps(self, count: int, start: int = 0) -> Iterator[int]:
        rng = random.Random(self.seed)
        now = float(start)
        for _ in range(count):
            now += rng.expovariate(self.rate_per_second) * 1000.0
            yield int(now)


class BurstyArrivals:
    """Alternates a quiet base rate with periodic bursts -- the workload
    that stresses backpressure and rate-dependent transfer (E6)."""

    def __init__(self, base_rate: float, burst_rate: float,
                 period_ms: int = 10_000, burst_fraction: float = 0.2,
                 seed: int = 11) -> None:
        if base_rate <= 0 or burst_rate <= 0:
            raise ValueError("rates must be positive")
        if not 0 < burst_fraction < 1:
            raise ValueError("burst_fraction must be in (0, 1)")
        if period_ms <= 0:
            raise ValueError("period must be positive")
        self.base_rate = base_rate
        self.burst_rate = burst_rate
        self.period_ms = period_ms
        self.burst_fraction = burst_fraction
        self.seed = seed

    def timestamps(self, count: int, start: int = 0) -> Iterator[int]:
        rng = random.Random(self.seed)
        now = float(start)
        burst_window = self.period_ms * self.burst_fraction
        for _ in range(count):
            in_burst = (now % self.period_ms) < burst_window
            rate = self.burst_rate if in_burst else self.base_rate
            now += rng.expovariate(rate) * 1000.0
            yield int(now)


class ZipfSampler:
    """Zipfian key popularity: key 0 is hottest; exponent controls skew."""

    def __init__(self, num_keys: int, exponent: float = 1.1,
                 seed: int = 3) -> None:
        if num_keys <= 0:
            raise ValueError("num_keys must be positive")
        if exponent <= 0:
            raise ValueError("exponent must be positive")
        self.num_keys = num_keys
        self.exponent = exponent
        self._rng = random.Random(seed)
        #: Bound once: ``sample`` is a workload generator's per-event
        #: hot loop.
        self._draw = self._rng.random
        weights = [1.0 / (rank ** exponent)
                   for rank in range(1, num_keys + 1)]
        total = sum(weights)
        self._cumulative: List[float] = []
        running = 0.0
        for weight in weights:
            running += weight / total
            self._cumulative.append(running)

    def sample(self) -> int:
        return bisect_left(self._cumulative, self._draw())

    def sample_many(self, count: int) -> List[int]:
        return [self.sample() for _ in range(count)]
