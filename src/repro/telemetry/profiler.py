"""Sim-time profiling: fold span trees into component attribution.

Span names already encode *where* time was spent (``net.write_request``,
``pcie.dma``, ``aams.split``, ``write.attempt``, ``cache.hit``); this
module folds whole traces into:

- per-component **inclusive** time (a span and everything under it) and
  **exclusive** time (the span minus its children — where the clock
  actually ran), so "where does p99 go" has a one-table answer;
- **collapsed-stack** output (``root;child;leaf <weight>``), the format
  Brendan Gregg's ``flamegraph.pl`` and every flamegraph viewer accept.

Build a profile from a whole :class:`~repro.telemetry.spans.TraceSession`
(or fold traces one at a time with :meth:`SimProfile.add_trace`):

    profile = SimProfile.from_session(session)
    print(profile.attribution_table())
    open("profile.folded", "w").write(profile.collapsed())

Exclusive time subtracts the *union* of each span's child intervals
(clipped to the parent), so overlapping children — concurrent replica
writes under one ``write.replicate`` — are not double-subtracted.
"""

from __future__ import annotations

import typing

from repro.telemetry.reporting import format_table
from repro.units import to_usec

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.telemetry.spans import Span, SpanCollector, TraceSession

#: Canonical component order (also the Chrome-trace process order).
COMPONENTS = (
    "client",
    "net",
    "pcie",
    "hbm",
    "engine",
    "storage",
    "cache",
    "admission",
    "tier",
    "routing",
    "other",
)

#: Span-name first segment -> component. Root spans (``write_request``
#: / ``read_request``) are the client's view of the whole request.
_PREFIX_COMPONENT = {
    "client": "client",
    "write_request": "client",
    "read_request": "client",
    "net": "net",
    "pcie": "pcie",
    "hbm": "hbm",
    "aams": "engine",
    "engine": "engine",
    "compress": "engine",
    "decompress": "engine",
    "storage": "storage",
    "cache": "cache",
    "admission": "admission",
    "write": "tier",
    "read": "tier",
    "route": "routing",
}


def component_of(name: str) -> str:
    """The datapath component a span name belongs to."""
    return _PREFIX_COMPONENT.get(name.split(".", 1)[0], "other")


def _union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by possibly-overlapping intervals."""
    if not intervals:
        return 0.0
    intervals.sort()
    covered = 0.0
    current_start, current_end = intervals[0]
    for start, end in intervals[1:]:
        if start > current_end:
            covered += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    return covered + (current_end - current_start)


class SimProfile:
    """Component-level time attribution folded from span trees."""

    def __init__(self) -> None:
        self.n_traces = 0
        self.n_spans = 0
        #: component -> {"spans", "inclusive", "exclusive"}.
        self._components: dict[str, dict[str, float]] = {}
        #: "a;b;c" stack -> total exclusive seconds.
        self._stacks: dict[str, float] = {}

    # -- builders -----------------------------------------------------------

    @classmethod
    def from_session(cls, session: "TraceSession") -> "SimProfile":
        """Fold every trace of every collector in a session."""
        profile = cls()
        for collector in session.collectors:
            for trace_id in collector.trace_ids:
                profile.add_trace(collector.trace(trace_id))
        return profile

    # -- folding ------------------------------------------------------------

    def add_trace(self, spans: typing.Sequence["Span"]) -> None:
        """Fold one request's span tree into the profile."""
        if not spans:
            return
        self.n_traces += 1
        by_id = {span.span_id: span for span in spans}
        children: dict[int, list[Span]] = {}
        for span in spans:
            if span.parent_id is not None and span.parent_id in by_id:
                children.setdefault(span.parent_id, []).append(span)
        for span in spans:
            end = span.end if span.end is not None else span.start
            duration = end - span.start
            intervals = [
                (max(child.start, span.start), min(child.end, end))
                for child in children.get(span.span_id, ())
                if child.end is not None and child.end > span.start and child.start < end
            ]
            exclusive = max(0.0, duration - _union_length(intervals))
            component = component_of(span.name)
            bucket = self._components.setdefault(
                component, {"spans": 0, "inclusive": 0.0, "exclusive": 0.0}
            )
            bucket["spans"] += 1
            bucket["inclusive"] += duration
            bucket["exclusive"] += exclusive
            self.n_spans += 1
            if exclusive > 0.0:
                stack = self._stack_of(span, by_id)
                self._stacks[stack] = self._stacks.get(stack, 0.0) + exclusive

    @staticmethod
    def _stack_of(span: "Span", by_id: dict[int, "Span"]) -> str:
        names = [span.name]
        parent_id = span.parent_id
        while parent_id is not None:
            parent = by_id.get(parent_id)
            if parent is None:
                break
            names.append(parent.name)
            parent_id = parent.parent_id
        return ";".join(reversed(names))

    # -- outputs ------------------------------------------------------------

    @property
    def total_exclusive(self) -> float:
        """Total attributed (exclusive) seconds across all components."""
        return sum(bucket["exclusive"] for bucket in self._components.values())

    def components(self) -> list[dict]:
        """Per-component rows in canonical component order."""
        total = self.total_exclusive
        rows = []
        for component in COMPONENTS:
            bucket = self._components.get(component)
            if bucket is None:
                continue
            rows.append(
                {
                    "component": component,
                    "spans": int(bucket["spans"]),
                    "inclusive_us": to_usec(bucket["inclusive"]),
                    "exclusive_us": to_usec(bucket["exclusive"]),
                    "share": (bucket["exclusive"] / total) if total > 0 else 0.0,
                }
            )
        return rows

    def collapsed(self) -> str:
        """Collapsed-stack lines (``a;b;c <nanoseconds>``), flamegraph-ready."""
        lines = []
        for stack in sorted(self._stacks):
            weight = int(round(self._stacks[stack] * 1e9))
            if weight > 0:
                lines.append(f"{stack} {weight}")
        return "\n".join(lines)

    def attribution_table(self, title: str = "latency attribution") -> str:
        """The per-stage table: spans, inclusive/exclusive us, share."""
        rows = [
            [
                row["component"],
                row["spans"],
                row["inclusive_us"],
                row["exclusive_us"],
                f"{100.0 * row['share']:.1f}%",
            ]
            for row in self.components()
        ]
        return format_table(
            ["component", "spans", "inclusive us", "exclusive us", "share"],
            rows,
            title=f"{title} ({self.n_traces} traces)",
        )

    def to_dict(self) -> dict:
        """JSON-ready dump (validated by ``repro.telemetry.schemas``)."""
        return {
            "n_traces": self.n_traces,
            "n_spans": self.n_spans,
            "total_exclusive_us": to_usec(self.total_exclusive),
            "components": self.components(),
            "collapsed": self.collapsed().splitlines(),
        }

    def __repr__(self) -> str:
        return (
            f"<SimProfile traces={self.n_traces} spans={self.n_spans} "
            f"components={len(self._components)}>"
        )

