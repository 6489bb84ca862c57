"""A flight recorder: bounded ring of kept traces, tail-sampled.

Ahead-of-time trace sampling keeps the traces you *guessed* would
matter; tail-based sampling (Dapper-style) decides after the fact, when
the outcome is known. :class:`FlightRecorder` hangs off a
:class:`~repro.telemetry.spans.SpanCollector`: every root span that
finishes is classified and either kept or dropped:

- **always kept**: traces that failed, were shed, carried a degraded /
  retried / failed / shed stage anywhere in the tree, bounced off a
  wrong shard, or were *slow* — beyond a static per-operation latency
  threshold or (once warmed) the dynamic p99 of recent same-operation
  traces;
- **sampled**: healthy traces are kept 1-in-``healthy_every`` with a
  seeded RNG, so a dump always carries a baseline to diff anomalies
  against.

Keepers ride a ``deque(maxlen=capacity)`` ring — memory is bounded, a
long run keeps the *newest* evidence. Dump on demand with
:meth:`write`, or arm :meth:`arm_auto_dump` to write the buffer the
first time an anomalous trace lands. SLO burn-rate alerts
(:mod:`repro.telemetry.slo`) snapshot this ring at trip time, so every
violation ships with the traces that caused it.

The recorder costs nothing when absent: the root-finish hook in
:meth:`Span.finish` is one attribute load plus a ``None`` test.
"""

from __future__ import annotations

import json
import random
import typing

from repro.params import FlightSpec
from repro.telemetry.registry import Histogram, registry_for
from repro.telemetry.spans import OUTCOMES
from repro.units import to_usec

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.telemetry.spans import Span, SpanCollector

from collections import deque

#: Span outcomes that make a whole trace worth keeping: all but ``ok``.
ANOMALOUS_OUTCOMES = frozenset(OUTCOMES) - {"ok"}


class TraceRecord:
    """One kept trace: the root's identity plus its whole span tree."""

    __slots__ = ("trace_id", "op", "start", "duration", "outcome", "reasons", "spans")

    def __init__(
        self,
        trace_id: int,
        op: str,
        start: float,
        duration: float,
        outcome: str,
        reasons: tuple[str, ...],
        spans: tuple["Span", ...],
    ) -> None:
        self.trace_id = trace_id
        self.op = op
        self.start = start
        self.duration = duration
        self.outcome = outcome
        self.reasons = reasons
        self.spans = spans

    @property
    def anomalous(self) -> bool:
        """Kept for cause, not as a healthy baseline sample."""
        return self.reasons != ("sampled",)

    def to_dict(self) -> dict:
        """JSON-ready dump, times in microseconds."""
        return {
            "trace_id": self.trace_id,
            "op": self.op,
            "start_us": to_usec(self.start),
            "duration_us": to_usec(self.duration),
            "outcome": self.outcome,
            "reasons": list(self.reasons),
            "spans": [
                {
                    "name": span.name,
                    "span_id": span.span_id,
                    "parent_id": span.parent_id,
                    "start_us": to_usec(span.start),
                    "duration_us": to_usec(span.duration),
                    "outcome": span.outcome or "open",
                    "bytes": span.nbytes,
                }
                for span in self.spans
            ],
        }

    def __repr__(self) -> str:
        return (
            f"<TraceRecord {self.trace_id} {self.op!r} {self.outcome} "
            f"reasons={','.join(self.reasons)}>"
        )


class FlightRecorder:
    """Tail-based keeper of completed traces on one collector."""

    def __init__(self, collector: "SpanCollector", spec: FlightSpec | None = None) -> None:
        self.spec = spec or FlightSpec(enabled=True)
        self.collector = collector
        self.capacity = self.spec.capacity
        self._ring: deque[TraceRecord] = deque(maxlen=self.capacity)
        self._rng = random.Random(self.spec.seed)
        self._thresholds = dict(self.spec.slow_thresholds)
        #: Per-operation duration histograms feeding the dynamic
        #: p99-of-recent slowness threshold.
        self._recent: dict[str, Histogram] = {}
        self.traces_seen = 0
        self.traces_kept = 0
        self.traces_evicted = 0
        self.kept_by_reason: dict[str, int] = {}
        self._auto_dump_path: str | None = None
        self.auto_dumped: str | None = None
        collector.flight = self
        registry = registry_for(collector.sim)
        if registry is not None:
            probes = {
                "flight.traces_seen": lambda: float(self.traces_seen),
                "flight.traces_kept": lambda: float(self.traces_kept),
                "flight.traces_evicted": lambda: float(self.traces_evicted),
            }
            for name, fn in probes.items():
                try:
                    registry.gauge_callable(name, fn, component="telemetry")
                except ValueError:
                    # A previous recorder on this sim holds the series
                    # (collector re-attached mid-run); keep its probes.
                    pass

    # -- classification ------------------------------------------------------

    def threshold_for(self, op: str) -> float:
        """The static slowness threshold for operation `op`."""
        return self._thresholds.get(op, self.spec.slow_threshold)

    def _classify(self, root: "Span", spans: tuple["Span", ...]) -> tuple[str, ...]:
        """Why this trace must be kept; empty means healthy."""
        reasons: list[str] = []
        outcome = root.outcome or "open"
        if outcome in ("failed", "shed"):
            reasons.append(outcome)
        stage_outcomes = {
            span.outcome
            for span in spans
            if span is not root and span.outcome in ANOMALOUS_OUTCOMES
        }
        reasons.extend(
            f"stage_{stage}" for stage in sorted(stage_outcomes)
        )
        if any(span.name == "route.wrong_shard" for span in spans):
            reasons.append("wrong_shard")
        duration = root.duration
        if duration >= self.threshold_for(root.name):
            reasons.append("slow")
        elif self.spec.dynamic_percentile is not None:
            recent = self._recent.get(root.name)
            if (
                recent is not None
                and recent.count >= self.spec.dynamic_min_samples
                and duration >= recent.percentile(self.spec.dynamic_percentile)
            ):
                reasons.append("slow_p99")
        return tuple(reasons)

    # -- recording -----------------------------------------------------------

    def observe(self, root: "Span") -> TraceRecord | None:
        """Classify one finished root span; keep or drop its trace.

        Called from :meth:`Span.finish` via the collector's root-finish
        hook; never raises into the datapath.
        """
        self.traces_seen += 1
        spans = self.collector.trace(root.trace_id)
        if root not in spans:
            # The trace was evicted from the collector while open; the
            # root alone still classifies (outcome, duration).
            spans = (root, *spans)
        reasons = self._classify(root, spans)
        # The dynamic threshold learns from traffic *before* this trace,
        # so one outlier cannot raise the bar that should catch it.
        if self.spec.dynamic_percentile is not None:
            recent = self._recent.get(root.name)
            if recent is None:
                recent = self._recent[root.name] = Histogram(f"flight.{root.name}")
            recent.observe(max(0.0, root.duration))
        if not reasons:
            every = self.spec.healthy_every
            if not every or self._rng.randrange(every):
                return None
            reasons = ("sampled",)
        record = TraceRecord(
            trace_id=root.trace_id,
            op=root.name,
            start=root.start,
            duration=root.duration,
            outcome=root.outcome or "open",
            reasons=reasons,
            spans=spans,
        )
        if len(self._ring) == self.capacity:
            self.traces_evicted += 1
        self._ring.append(record)
        self.traces_kept += 1
        for reason in reasons:
            self.kept_by_reason[reason] = self.kept_by_reason.get(reason, 0) + 1
        if (
            self._auto_dump_path is not None
            and self.auto_dumped is None
            and record.anomalous
        ):
            self.auto_dumped = self._auto_dump_path
            self.write(self._auto_dump_path)
        return record

    def arm_auto_dump(self, path: str) -> None:
        """Write the buffer to `path` the first time an anomaly lands."""
        self._auto_dump_path = path

    # -- queries / export ----------------------------------------------------

    @property
    def records(self) -> tuple[TraceRecord, ...]:
        """The ring's current contents, oldest first."""
        return tuple(self._ring)

    def snapshot(self) -> tuple[TraceRecord, ...]:
        """Alias used by SLO alerts at trip time."""
        return self.records

    def anomalous_records(self) -> tuple[TraceRecord, ...]:
        """Only the records kept for cause (not healthy samples)."""
        return tuple(record for record in self._ring if record.anomalous)

    def to_dict(self) -> dict:
        """JSON-ready dump (validated by ``repro.telemetry.schemas``)."""
        return {
            "capacity": self.capacity,
            "seen": self.traces_seen,
            "kept": self.traces_kept,
            "evicted": self.traces_evicted,
            "kept_by_reason": dict(sorted(self.kept_by_reason.items())),
            "records": [record.to_dict() for record in self._ring],
        }

    def write(self, path: str) -> None:
        """Dump the buffer to `path` as JSON."""
        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle, indent=2)

    def __repr__(self) -> str:
        return (
            f"<FlightRecorder kept={self.traces_kept}/{self.traces_seen} "
            f"ring={len(self._ring)}/{self.capacity}>"
        )
