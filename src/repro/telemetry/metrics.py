"""Metric collectors used across experiments.

All collectors are passive: model code calls ``record`` / ``add`` and the
experiment reads summaries after :meth:`repro.sim.Simulator.run`
completes. Percentiles use the nearest-rank method on the raw samples,
matching how tail latency is usually reported.
"""

from __future__ import annotations

import math
import typing


class Counter:
    """A named monotonically increasing count (requests served, bytes, ...)."""

    def __init__(self, name: str = "counter") -> None:
        self.name = name
        self.value = 0

    def add(self, amount: int = 1) -> None:
        """Increase the count by `amount` (must be non-negative)."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (amount={amount})")
        self.value += amount

    def __repr__(self) -> str:
        return f"<Counter {self.name!r}={self.value}>"


class Gauge:
    """A named level that moves both ways, tracking its peak.

    Used for occupancy-style signals (device-memory bytes in use, queue
    depth) where a :class:`Counter`'s monotonicity is wrong.
    """

    def __init__(self, name: str = "gauge") -> None:
        self.name = name
        self.value = 0
        self.peak = 0

    def set(self, value: int | float) -> None:
        """Move the gauge to an absolute level."""
        if value < 0:
            raise ValueError(f"gauge {self.name!r} cannot go negative (value={value})")
        self.value = value
        self.peak = max(self.peak, value)

    def add(self, delta: int | float) -> None:
        """Move the gauge by a (possibly negative) delta."""
        self.set(self.value + delta)

    def __repr__(self) -> str:
        return f"<Gauge {self.name!r}={self.value} peak={self.peak}>"


def ratio(numerator: float, denominator: float) -> float:
    """`numerator / denominator`, defined as 0.0 on an empty denominator.

    Experiments use this for availability / degradation fractions where
    a zero-request cell should read as 0 rather than raise.
    """
    if denominator == 0:
        return 0.0
    return numerator / denominator


class LatencyRecorder:
    """Collects latency samples and reports avg / percentile statistics.

    Every sample is retained exactly.
    """

    def __init__(self, name: str = "latency") -> None:
        self.name = name
        self._samples: list[float] = []
        self._sorted: list[float] | None = None

    def record(self, latency: float) -> None:
        """Add one latency sample in seconds."""
        if latency < 0:
            raise ValueError(f"negative latency {latency!r}")
        self._samples.append(latency)
        self._sorted = None

    @property
    def count(self) -> int:
        """Number of recorded samples."""
        return len(self._samples)

    @property
    def samples(self) -> tuple[float, ...]:
        """The recorded samples, in recording order."""
        return tuple(self._samples)

    def mean(self) -> float:
        """Average latency; raises on an empty recorder."""
        if not self._samples:
            raise ValueError(f"no samples recorded in {self.name!r}")
        return math.fsum(self._samples) / len(self._samples)

    def percentile(self, fraction: float) -> float:
        """Nearest-rank percentile, e.g. ``percentile(0.99)`` for p99."""
        if not 0 < fraction <= 1:
            raise ValueError(f"percentile fraction must be in (0, 1], got {fraction!r}")
        if not self._samples:
            raise ValueError(f"no samples recorded in {self.name!r}")
        if self._sorted is None:
            self._sorted = sorted(self._samples)
        rank = max(1, math.ceil(fraction * len(self._sorted)))
        return self._sorted[rank - 1]

    def summary(self) -> dict[str, float]:
        """The paper's latency tuple: avg, p50, p99, p999 (seconds)."""
        return {
            "avg": self.mean(),
            "p50": self.percentile(0.50),
            "p99": self.percentile(0.99),
            "p999": self.percentile(0.999),
        }

    def maybe_summary(self) -> dict[str, float] | None:
        """Like :meth:`summary`, but ``None`` on an empty recorder.

        For per-source splits (cache hit vs miss latency) where a cell
        can legitimately see zero samples.
        """
        if not self._samples:
            return None
        return self.summary()

    def __repr__(self) -> str:
        return f"<LatencyRecorder {self.name!r} n={self.count}>"


def jain_fairness(allocations: typing.Sequence[float]) -> float:
    """Jain's fairness index over per-tenant allocations.

    1.0 means perfectly equal shares; 1/n means one tenant got
    everything. Standard metric for multi-tenant throughput fairness.
    """
    if not allocations:
        raise ValueError("need at least one allocation")
    if any(a < 0 for a in allocations):
        raise ValueError("allocations must be non-negative")
    total = sum(allocations)
    if total == 0:
        return 1.0  # everyone equally got nothing
    squares = sum(a * a for a in allocations)
    return total * total / (len(allocations) * squares)


def imbalance(loads: typing.Sequence[float]) -> float:
    """Max/mean load ratio across shards (``docs/scaling.md``).

    1.0 means perfectly even; k means the hottest shard carries k times
    the average. The cluster gauges report this over per-shard segment
    heat; an all-zero (idle) load vector reads as balanced.
    """
    if not loads:
        raise ValueError("need at least one load")
    if any(load < 0 for load in loads):
        raise ValueError("loads must be non-negative")
    total = sum(loads)
    if total == 0:
        return 1.0  # an idle cluster is trivially balanced
    return max(loads) * len(loads) / total


class BandwidthMeter:
    """Accumulates (timestamp, bytes) events and reports achieved rates."""

    def __init__(self, name: str = "bandwidth") -> None:
        self.name = name
        self.total_bytes = 0
        self.first_event: float | None = None
        self.last_event: float | None = None
        self.events = 0

    def record(self, now: float, nbytes: int) -> None:
        """Record `nbytes` delivered at simulated time `now`."""
        if nbytes < 0:
            raise ValueError(f"negative byte count {nbytes!r}")
        if self.first_event is None:
            self.first_event = now
        self.last_event = now
        self.total_bytes += nbytes
        self.events += 1

    def rate(self, duration: float | None = None) -> float:
        """Achieved bytes/second over `duration` (default: first-to-last event).

        Pass the enclosing measurement window as `duration` whenever you
        have one: the implicit first-to-last span is 0 for a
        single-event run, which silently reports 0.0 despite bytes
        recorded. With an explicit `duration` the recorded bytes are
        always spread over that window — a non-positive window is a
        caller bug and raises instead of returning 0.0.
        """
        if duration is not None and duration <= 0:
            raise ValueError(
                f"meter {self.name!r}: measurement window must be positive, got {duration!r}"
            )
        if self.total_bytes == 0:
            return 0.0
        if duration is None:
            if self.first_event is None or self.last_event is None:
                return 0.0
            duration = self.last_event - self.first_event
            if duration <= 0:
                return 0.0
        return self.total_bytes / duration

    def __repr__(self) -> str:
        return f"<BandwidthMeter {self.name!r} bytes={self.total_bytes}>"
