"""A labeled metrics registry with periodic gauge sampling.

Components keep their existing bare :class:`~repro.telemetry.metrics`
collectors for hot-path updates, but *register* them here under a
``(name, labels)`` key so experiments and exporters can enumerate every
series one place:

    registry = MetricsRegistry().attach(sim)
    hits = registry.counter("cache.hits", component="cache")
    registry.register(allocator.occupancy, "hbm.occupancy", tier="smartds")

Gauges additionally get periodic time-series sampling: a daemon sim
process wakes every `interval` seconds and snapshots every gauge's
level, so occupancy/queue-depth curves come out of a run for free
(``registry.samples()``). The sampler stops itself once a tick finds
the simulator idle (``Simulator.idle``: no live event queued, withdrawn
timers do not count), so it never wedges drain-mode ``sim.run()`` or
the tests' drain auditor. A fail-over deadline whose race is decided
is withdrawn (``Timeout.cancel``), so it does not keep the sampler
ticking until it would have expired.

Like span collection, registration is optional: ``registry_for(sim)``
returns ``None`` on an unattached simulator and components skip
registration — their bare collectors keep working exactly as before.
"""

from __future__ import annotations

import math
import typing

from repro.telemetry.metrics import BandwidthMeter, Counter, Gauge, LatencyRecorder

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.kernel import Simulator

#: Anything the registry can adopt as a series.
Collector = typing.Union[Counter, Gauge, LatencyRecorder, BandwidthMeter, "Histogram"]


class Histogram:
    """Fixed log-spaced buckets: O(1) observe, bounded memory.

    Buckets are ``lowest * factor**i`` for ``i`` in ``range(n_buckets)``;
    an observation lands in the first bucket whose upper bound is >= the
    value, with a catch-all overflow bucket at the top. Exact count,
    sum, min, and max are retained; percentiles come from the bucket
    upper bounds (so they over-report by at most one `factor`).

    The defaults (100 ns lowest bound, doubling, 40 buckets) cover
    100 ns .. ~15 hours — every latency this simulator can produce.
    """

    def __init__(
        self,
        name: str = "histogram",
        lowest: float = 1e-7,
        factor: float = 2.0,
        n_buckets: int = 40,
    ) -> None:
        if lowest <= 0:
            raise ValueError(f"lowest bound must be positive, got {lowest!r}")
        if factor <= 1.0:
            raise ValueError(f"bucket factor must be > 1, got {factor!r}")
        if n_buckets < 1:
            raise ValueError(f"need at least one bucket, got {n_buckets!r}")
        self.name = name
        self.bounds = tuple(lowest * factor**i for i in range(n_buckets))
        self._log_lowest = math.log(lowest)
        self._log_factor = math.log(factor)
        # +1: catch-all overflow bucket above the last bound.
        self.counts = [0] * (n_buckets + 1)
        self.count = 0
        self.sum = 0.0
        self.min: float | None = None
        self.max: float | None = None

    def observe(self, value: float) -> None:
        """Record one observation (seconds, bytes — any non-negative unit)."""
        if value < 0:
            raise ValueError(f"histogram {self.name!r} observed negative {value!r}")
        if value <= self.bounds[0]:
            index = 0
        else:
            index = math.ceil((math.log(value) - self._log_lowest) / self._log_factor)
            # Guard the float boundary: log() can land a hair past an
            # exact bound; pull back if the previous bucket still fits.
            if index > 0 and value <= self.bounds[min(index, len(self.bounds)) - 1]:
                index -= 1
            index = min(index, len(self.bounds))
        self.counts[index] += 1
        self.count += 1
        self.sum += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    def mean(self) -> float:
        """Exact mean of all observations; raises when empty."""
        if not self.count:
            raise ValueError(f"no observations in histogram {self.name!r}")
        return self.sum / self.count

    def percentile(self, fraction: float) -> float:
        """Upper bound of the bucket holding the nearest-rank quantile.

        Conservative: the true value is within one bucket `factor`
        below the returned bound. The overflow bucket reports the exact
        observed max.
        """
        if not 0 < fraction <= 1:
            raise ValueError(f"percentile fraction must be in (0, 1], got {fraction!r}")
        if not self.count:
            raise ValueError(f"no observations in histogram {self.name!r}")
        rank = max(1, math.ceil(fraction * self.count))
        seen = 0
        for index, bucket_count in enumerate(self.counts):
            seen += bucket_count
            if seen >= rank:
                if index < len(self.bounds):
                    return min(self.bounds[index], typing.cast(float, self.max))
                return typing.cast(float, self.max)
        raise AssertionError("rank not reached; counts out of sync")  # pragma: no cover

    def summary(self) -> dict[str, float]:
        """Same tuple shape as :meth:`LatencyRecorder.summary`."""
        return {
            "avg": self.mean(),
            "p50": self.percentile(0.50),
            "p99": self.percentile(0.99),
            "p999": self.percentile(0.999),
        }

    def to_dict(self) -> dict:
        """Bucket bounds and counts, for the flat metrics dump."""
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "bounds": list(self.bounds),
            "counts": list(self.counts),
        }

    def __repr__(self) -> str:
        return f"<Histogram {self.name!r} n={self.count}>"


def _series_key(name: str, labels: dict[str, str]) -> tuple:
    return (name, tuple(sorted(labels.items())))


class _GaugeProbe:
    """A registered callable sampled like a gauge (queue depth, etc.)."""

    __slots__ = ("name", "fn")

    def __init__(self, name: str, fn: typing.Callable[[], float]) -> None:
        self.name = name
        self.fn = fn


class MetricsRegistry:
    """All of one simulator's metric series, keyed by name + labels."""

    def __init__(self, name: str = "registry") -> None:
        self.name = name
        self._series: dict[tuple, Collector] = {}
        self._probes: dict[tuple, _GaugeProbe] = {}
        self._samples: list[dict] = []
        self._sampler_running = False

    def attach(self, sim: "Simulator") -> "MetricsRegistry":
        """Make this registry discoverable via ``registry_for(sim)``."""
        sim._metrics_registry = self
        return self

    # -- registration -------------------------------------------------------

    def register(
        self, collector: Collector, name: str | None = None, **labels: str
    ) -> Collector:
        """Adopt an existing collector as the series `(name, labels)`.

        Re-registering the *same* object under the same key is a no-op
        (components may be constructed repeatedly per experiment cell);
        a *different* object under an existing key is a collision and
        raises.
        """
        key = _series_key(name or collector.name, labels)
        existing = self._series.get(key)
        if existing is collector:
            return collector
        if existing is not None:
            raise ValueError(f"series {key!r} already registered to {existing!r}")
        self._series[key] = collector
        return collector

    def register_instance(
        self, collector: Collector, name: str | None = None, **labels: str
    ) -> Collector:
        """Like :meth:`register`, but never collides.

        When `(name, labels)` is already held by a *different* object —
        a component constructed more than once per sim with identical
        labels (two devices, two allocators) — an ``instance`` label is
        added (``1``, ``2``, ...) instead of raising. The first
        registration keeps the clean label set.
        """
        name = name or collector.name
        key = _series_key(name, labels)
        existing = self._series.get(key)
        if existing is None or existing is collector:
            return self.register(collector, name, **labels)
        index = 1
        while True:
            candidate = dict(labels, instance=str(index))
            existing = self._series.get(_series_key(name, candidate))
            if existing is collector:
                return collector
            if existing is None:
                return self.register(collector, name, **candidate)
            index += 1

    def counter(self, name: str, **labels: str) -> Counter:
        """Get-or-create a :class:`Counter` series."""
        return typing.cast(Counter, self._get_or_create(Counter, name, labels))

    def gauge(self, name: str, **labels: str) -> Gauge:
        """Get-or-create a :class:`Gauge` series."""
        return typing.cast(Gauge, self._get_or_create(Gauge, name, labels))

    def histogram(self, name: str, **labels: str) -> Histogram:
        """Get-or-create a :class:`Histogram` series."""
        return typing.cast(Histogram, self._get_or_create(Histogram, name, labels))

    def _get_or_create(self, factory: type, name: str, labels: dict[str, str]) -> Collector:
        key = _series_key(name, labels)
        existing = self._series.get(key)
        if existing is not None:
            if not isinstance(existing, factory):
                raise ValueError(
                    f"series {key!r} is a {type(existing).__name__}, not {factory.__name__}"
                )
            return existing
        collector = factory(name)
        self._series[key] = collector
        return collector

    def gauge_callable(self, name: str, fn: typing.Callable[[], float], **labels: str) -> None:
        """Register a level read on demand at each sample tick (queue
        depth, cache entries) without the component updating a Gauge."""
        key = _series_key(name, labels)
        if key in self._probes or key in self._series:
            raise ValueError(f"series {key!r} already registered")
        self._probes[key] = _GaugeProbe(name, fn)

    # -- enumeration / export -----------------------------------------------

    def series(self) -> dict[tuple, Collector]:
        """All registered series (shallow copy), keyed by (name, labels)."""
        return dict(self._series)

    def get(self, name: str, **labels: str) -> Collector | None:
        """The series registered under `(name, labels)`, or ``None``."""
        return self._series.get(_series_key(name, labels))

    def to_dict(self) -> dict:
        """Flat JSON-ready dump of every series and the gauge samples.

        Probes (:meth:`gauge_callable`) are read once at dump time and
        included as ``type: "probe"`` entries; the whole list is sorted
        by ``(name, labels)`` so two dumps of the same run diff cleanly.
        """
        entries: list[tuple[tuple, dict]] = []
        for (name, label_items), probe in self._probes.items():
            try:
                value: typing.Any = float(probe.fn())
            except Exception:  # observability must not crash the dump
                value = None
            entries.append(
                (
                    (name, label_items),
                    {
                        "name": name,
                        "labels": dict(label_items),
                        "type": "probe",
                        "value": value,
                    },
                )
            )
        for (name, label_items), collector in self._series.items():
            entry: dict[str, typing.Any] = {"name": name, "labels": dict(label_items)}
            if isinstance(collector, Counter):
                entry["type"] = "counter"
                entry["value"] = collector.value
            elif isinstance(collector, Gauge):
                entry["type"] = "gauge"
                entry["value"] = collector.value
                entry["peak"] = collector.peak
            elif isinstance(collector, Histogram):
                entry["type"] = "histogram"
                entry.update(collector.to_dict())
            elif isinstance(collector, LatencyRecorder):
                entry["type"] = "latency"
                entry["count"] = collector.count
                entry["summary"] = collector.maybe_summary()
            elif isinstance(collector, BandwidthMeter):
                entry["type"] = "bandwidth"
                entry["total_bytes"] = collector.total_bytes
                entry["events"] = collector.events
            else:  # pragma: no cover - future collector types
                entry["type"] = type(collector).__name__
                entry["repr"] = repr(collector)
            entries.append(((name, label_items), entry))
        entries.sort(key=lambda pair: pair[0])
        series = [entry for _key, entry in entries]
        return {"registry": self.name, "series": series, "samples": list(self._samples)}

    # -- periodic gauge sampling --------------------------------------------

    def sample_now(self, now: float) -> dict:
        """Snapshot every gauge and probe level at time `now`."""
        sample: dict[str, typing.Any] = {"t": now}
        values: dict[str, float] = {}
        for (name, label_items), collector in self._series.items():
            if isinstance(collector, Gauge):
                values[_flat_name(name, label_items)] = collector.value
        for (name, label_items), probe in self._probes.items():
            values[_flat_name(name, label_items)] = probe.fn()
        sample["gauges"] = values
        self._samples.append(sample)
        return sample

    def samples(self) -> tuple[dict, ...]:
        """All periodic samples recorded so far, in time order."""
        return tuple(self._samples)

    def start_sampler(self, sim: "Simulator", interval: float) -> None:
        """Start the periodic gauge sampler on `sim`.

        The sampler is a daemon process (exempt from the drain audit)
        and exits as soon as it finds the simulator idle after a tick
        (``Simulator.idle``), so a drain-mode ``sim.run()`` still
        terminates.

        Idle-sim edge: with several samplers on one sim, each one's
        next tick keeps the simulator busy for the others, so none
        ever takes the idle exit (a drain-mode run never terminates —
        use a deadline).
        """
        if interval <= 0:
            raise ValueError(f"sample interval must be positive, got {interval!r}")
        if self._sampler_running:
            return
        self._sampler_running = True

        def _sampler() -> typing.Iterator:
            try:
                while True:
                    self.sample_now(sim.now)
                    # Idle sim: stop rather than keep the queue non-empty
                    # forever (the next attach restarts us).
                    if sim.idle:
                        return
                    yield sim.timeout(interval)
            finally:
                self._sampler_running = False

        sim.process(_sampler(), name=f"{self.name}.sampler", daemon=True)

    def __repr__(self) -> str:
        return (
            f"<MetricsRegistry {self.name!r} series={len(self._series)} "
            f"probes={len(self._probes)} samples={len(self._samples)}>"
        )


def _flat_name(name: str, label_items: tuple) -> str:
    if not label_items:
        return name
    rendered = ",".join(f"{key}={value}" for key, value in label_items)
    return f"{name}{{{rendered}}}"


def registry_for(sim: "Simulator") -> MetricsRegistry | None:
    """The registry attached to `sim`, or ``None`` (the common case).

    Components call this once at construction; a ``None`` means they
    skip registration entirely, keeping the unobserved path free.
    """
    return getattr(sim, "_metrics_registry", None)
