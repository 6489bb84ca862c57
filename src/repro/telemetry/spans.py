"""Request-scoped causal span tracing for the full datapath.

Every client request carries a root :class:`Span` in ``Message.span``;
each datapath stage (transport send, AAMS split, engine run, replica
write attempt, storage service, cache hit/miss/fill) opens a child span
with start/end simulated time, an outcome tag, and byte counts:

    collector = SpanCollector(sim)
    ... run the workload ...
    print(collector.format_critical_path(request_id))
    collector.write_chrome_trace("trace.json")   # open in Perfetto

Outcome tags are a small vocabulary shared by all stages:

- ``ok`` — the stage completed on its fast path;
- ``degraded`` — the stage completed but off its fast path (host-path
  ingress, software decompress, raw-payload replication);
- ``retried`` — the attempt timed out and the request rotated to
  another replica (a later sibling span carries the final outcome);
- ``failed`` — the stage gave up (exhausted retry budget, not-found,
  crashed server);
- ``shed`` — admission control rejected the request at ingress before
  any datapath work was spent on it (``docs/robustness.md``).

Tracing follows the same zero-cost discipline as
:class:`repro.sim.trace.Tracer`: with no collector attached,
``Message.span`` stays ``None`` and every instrumentation site is a
single attribute load plus a ``None`` test (see
``tests/test_spans.py``'s micro-benchmark). Attach a collector per
simulator, or use :class:`TraceSession` to attach one to every
simulator an experiment creates (``runner --trace``).
"""

from __future__ import annotations

import json
import typing

from repro.sim import kernel
from repro.telemetry.metrics import Counter
from repro.telemetry.profiler import COMPONENTS, component_of
from repro.telemetry.registry import MetricsRegistry, registry_for
from repro.units import to_usec, usec

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.kernel import Simulator

#: Outcome tags every stage draws from (see module docstring).
OUTCOMES = ("ok", "degraded", "retried", "failed", "shed")
#: Outcomes of a request that was answered with data: ``retried`` and
#: ``degraded`` still served it.
SERVED_OUTCOMES = frozenset({"ok", "retried", "degraded"})
#: Every ``status`` a middle tier answers a request with.
REPLY_STATUSES = frozenset({"ok", "shed", "unavailable", "not_found", "wrong_shard"})


def outcome_of(status: str, retried: bool = False) -> str:
    """The root-span outcome of a request answered with `status`.

    `retried` marks an ``ok`` that took more than one attempt.
    """
    if status == "ok":
        return "retried" if retried else "ok"
    if status == "shed":
        return "shed"
    return "failed"


class Span:
    """One timed stage of one request's journey through the datapath.

    Spans form a tree per request: the root is created by
    :meth:`SpanCollector.request`, stages open children with
    :meth:`child`, and every span is closed exactly once with
    :meth:`finish`. A span left unfinished (e.g. the simulation stopped
    mid-request) exports with zero duration and outcome ``open``.
    """

    __slots__ = (
        "collector",
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "start",
        "end",
        "outcome",
        "nbytes",
        "attrs",
    )

    def __init__(
        self,
        collector: "SpanCollector",
        trace_id: int,
        span_id: int,
        parent_id: int | None,
        name: str,
        start: float,
        attrs: dict,
    ) -> None:
        self.collector = collector
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.end: float | None = None
        self.outcome: str | None = None
        self.nbytes = 0
        self.attrs = attrs

    def child(self, name: str, **attrs: typing.Any) -> "Span":
        """Open a child span starting now (usable even after `finish`,
        so reply-path stages can still hang off a closed parent)."""
        return self.collector._open(self.trace_id, self.span_id, name, attrs)

    def event(self, name: str, outcome: str = "ok", **attrs: typing.Any) -> "Span":
        """A zero-duration child marking an instant decision (cache
        miss, fill admission) rather than a timed stage."""
        span = self.child(name, **attrs)
        span.finish(outcome)
        return span

    def finish(self, outcome: str = "ok", nbytes: int = 0, **attrs: typing.Any) -> "Span":
        """Close the span at the current simulated time.

        First finish wins: a second call is ignored rather than raised,
        because observability must never crash the datapath it watches.

        Finishing a *root* span completes its trace: the collector's
        flight recorder (if any) classifies and maybe keeps it
        (``repro.telemetry.flight``).
        """
        if self.end is not None:
            return self
        self.end = self.collector.sim.now
        self.outcome = outcome
        self.nbytes = nbytes
        if attrs:
            self.attrs = {**self.attrs, **attrs}
        if self.parent_id is None:
            flight = self.collector.flight
            if flight is not None:
                flight.observe(self)
        return self

    @property
    def duration(self) -> float:
        """Seconds from start to end (0.0 while the span is open)."""
        return 0.0 if self.end is None else self.end - self.start

    def __repr__(self) -> str:
        state = f"{self.outcome}" if self.end is not None else "open"
        return (
            f"<Span {self.name!r} trace={self.trace_id} "
            f"t={self.start:.9f}+{self.duration:.9f} {state}>"
        )


class SpanCollector:
    """Collects the span trees of every traced request on one simulator.

    Attaching sets ``sim._span_collector``; instrumentation sites check
    that attribute (or ``Message.span``) and stay inert when it is
    ``None``. At most `limit` spans are kept — beyond it the *oldest
    root's whole trace* is evicted (a ring of recent trees), so recorded
    traces stay complete rather than losing interior nodes. Evicted and
    dropped spans are counted in :attr:`spans_dropped` (also exposed as
    the ``trace.spans_dropped`` registry series when a
    :class:`~repro.telemetry.registry.MetricsRegistry` is attached).
    """

    def __init__(self, sim: "Simulator", limit: int = 200_000) -> None:
        if limit < 1:
            raise ValueError(f"span limit must be >= 1, got {limit}")
        self.sim = sim
        self.limit = limit
        self._by_trace: dict[int, list[Span]] = {}
        self._n_spans = 0
        self._next_span_id = 0
        #: Evicted whole traces (each eviction also counts its spans
        #: into :attr:`spans_dropped`).
        self.traces_evicted = 0
        #: Optional :class:`~repro.telemetry.flight.FlightRecorder`
        #: notified as each root span finishes; ``None`` keeps the
        #: finish path to one attribute load plus a ``None`` test.
        self.flight: typing.Any = None
        self._dropped = Counter("trace.spans_dropped")
        registry = registry_for(sim)
        if registry is not None:
            registry.register_instance(self._dropped, component="telemetry")
        sim._span_collector = self

    @property
    def spans(self) -> list[Span]:
        """Every recorded span, in creation (span id) order."""
        flat = [span for spans in self._by_trace.values() for span in spans]
        flat.sort(key=lambda span: span.span_id)
        return flat

    @property
    def spans_dropped(self) -> int:
        """Spans lost to the cap — evicted with an old trace or (when a
        single trace exceeds the whole cap) dropped on arrival."""
        return self._dropped.value

    # -- recording ----------------------------------------------------------

    def request(self, name: str, trace_id: int, **attrs: typing.Any) -> Span:
        """Open the root span of a new request trace.

        `trace_id` is the client request id; all descendant spans and
        the :meth:`critical_path` report key off it.
        """
        return self._open(trace_id, None, name, attrs)

    def _open(self, trace_id: int, parent_id: int | None, name: str, attrs: dict) -> Span:
        span_id = self._next_span_id
        self._next_span_id += 1
        span = Span(self, trace_id, span_id, parent_id, name, self.sim.now, attrs)
        if self._n_spans >= self.limit:
            # Ring behavior: make room by evicting the *oldest* trace
            # whole — unless that is the incoming trace itself (one
            # giant trace at the cap), where the new span is dropped so
            # older complete trees survive.
            by_trace = self._by_trace
            while self._n_spans >= self.limit:
                oldest = next(iter(by_trace))
                if oldest == trace_id:
                    self._dropped.add()
                    return span
                dead = by_trace.pop(oldest)
                self._n_spans -= len(dead)
                self._dropped.add(len(dead))
                self.traces_evicted += 1
        self._by_trace.setdefault(trace_id, []).append(span)
        self._n_spans += 1
        return span

    # -- queries ------------------------------------------------------------

    @property
    def trace_ids(self) -> tuple[int, ...]:
        """All recorded request ids, in first-span order."""
        return tuple(self._by_trace)

    def trace(self, trace_id: int) -> tuple[Span, ...]:
        """Every span of one request, in creation order."""
        return tuple(self._by_trace.get(trace_id, ()))

    def root(self, trace_id: int) -> Span | None:
        """The request's root span (``parent_id is None``)."""
        for span in self._by_trace.get(trace_id, ()):
            if span.parent_id is None:
                return span
        return None

    def children(self, span: Span) -> tuple[Span, ...]:
        """Direct children of `span`, in creation order."""
        return tuple(
            candidate
            for candidate in self._by_trace.get(span.trace_id, ())
            if candidate.parent_id == span.span_id
        )

    def critical_path(self, trace_id: int) -> list[Span]:
        """The longest causal chain of the request: root to the leaf
        that finished last at every level.

        The child that finishes last is the one that held its parent
        open, so following latest-finish children explains *why* the
        request took as long as it did — e.g. a ``retried`` attempt
        span shows exactly which replica time-out produced the tail.
        """
        root = self.root(trace_id)
        if root is None:
            return []
        path = [root]
        current = root
        while True:
            offspring = self.children(current)
            if not offspring:
                return path
            current = max(offspring, key=lambda s: (s.end if s.end is not None else s.start))
            path.append(current)

    def format_critical_path(self, trace_id: int) -> str:
        """The critical path, one line per hop, times in microseconds."""
        path = self.critical_path(trace_id)
        if not path:
            return f"(no trace recorded for request {trace_id})"
        root = path[0]
        lines = [
            f"request {trace_id} ({root.name}): "
            f"{to_usec(root.duration):.3f} us total, outcome {root.outcome or 'open'}"
        ]
        for depth, span in enumerate(path):
            detail = "".join(f" {key}={value}" for key, value in sorted(span.attrs.items()))
            nbytes = f" {span.nbytes} B" if span.nbytes else ""
            lines.append(
                f"{'  ' * depth}{span.name:<24} "
                f"@{to_usec(span.start):10.3f} us  +{to_usec(span.duration):9.3f} us  "
                f"{span.outcome or 'open'}{nbytes}{detail}"
            )
        return "\n".join(lines)

    # -- export -------------------------------------------------------------

    def to_chrome_trace(self, pid: int = 1) -> dict:
        """Spans as a Chrome ``trace_event`` document.

        Load the JSON in Perfetto (https://ui.perfetto.dev) or
        ``chrome://tracing``. Spans are grouped by datapath *component*
        (:func:`repro.telemetry.profiler.component_of`): each component
        renders as one named process (``process_name`` metadata), with
        one track per request inside it (``thread_name``/``tid`` is the
        request id). Spans are complete ``X`` events with outcome and
        byte counts in ``args``; `pid` namespaces the processes when
        several collectors merge into one document.
        """
        events: list[dict] = []
        used_components: set[str] = set()
        named_tracks: set[tuple[int, int]] = set()
        for span in self.spans:
            component = component_of(span.name)
            component_pid = pid * 100 + COMPONENTS.index(component)
            used_components.add(component)
            track = (component_pid, span.trace_id)
            if track not in named_tracks:
                named_tracks.add(track)
                events.append(
                    {
                        "name": "thread_name",
                        "ph": "M",
                        "pid": component_pid,
                        "tid": span.trace_id,
                        "args": {"name": f"request {span.trace_id}"},
                    }
                )
            events.append(
                {
                    "name": span.name,
                    "cat": span.outcome or "open",
                    "ph": "X",
                    "ts": to_usec(span.start),
                    "dur": to_usec(span.duration),
                    "pid": component_pid,
                    "tid": span.trace_id,
                    "args": {
                        "outcome": span.outcome or "open",
                        "bytes": span.nbytes,
                        **{key: _json_safe(value) for key, value in span.attrs.items()},
                    },
                }
            )
        metadata: list[dict] = []
        for component in used_components:
            index = COMPONENTS.index(component)
            metadata.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pid * 100 + index,
                    "tid": 0,
                    "args": {"name": f"sim{pid} {component}"},
                }
            )
            metadata.append(
                {
                    "name": "process_sort_index",
                    "ph": "M",
                    "pid": pid * 100 + index,
                    "tid": 0,
                    "args": {"sort_index": index},
                }
            )
        metadata.sort(key=lambda event: (event["pid"], event["name"]))
        return {"traceEvents": metadata + events, "displayTimeUnit": "ns"}

    def write_chrome_trace(self, path: str, pid: int = 1) -> None:
        """Write :meth:`to_chrome_trace` to `path` as JSON."""
        with open(path, "w") as handle:
            json.dump(self.to_chrome_trace(pid=pid), handle)

    def __repr__(self) -> str:
        return (
            f"<SpanCollector spans={self._n_spans} "
            f"traces={len(self._by_trace)} dropped={self.spans_dropped}>"
        )


def _json_safe(value: typing.Any) -> typing.Any:
    """Chrome trace args must be JSON: degrade exotic values to repr."""
    if isinstance(value, float) and value in (float("inf"), float("-inf")):
        return repr(value)
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


class TraceSession:
    """Attach tracing + metrics to every simulator created while active.

    Installs a simulator-creation hook (:func:`repro.sim.kernel.add_sim_hook`):
    each new :class:`Simulator` gets a :class:`SpanCollector`, a
    :class:`~repro.telemetry.registry.MetricsRegistry`, and a periodic
    gauge sampler. This is how ``runner --trace`` records spans for any
    experiment without threading a collector through every ``run()``:

        with TraceSession() as session:
            result = experiment.run(quick=True)
        session.write_chrome_trace("trace.json")

    Simulators created before the session, or after it closes, stay
    untraced.
    """

    def __init__(
        self,
        sample_interval: float | None = usec(100),
        span_limit: int = 200_000,
        flight: typing.Any = None,
        slo_specs: typing.Iterable | None = None,
    ) -> None:
        self.sample_interval = sample_interval
        self.span_limit = span_limit
        #: Optional :class:`~repro.params.FlightSpec`: each new sim's
        #: collector gets a :class:`~repro.telemetry.flight.FlightRecorder`.
        self.flight_spec = flight
        #: Optional :class:`~repro.params.SLOSpec` tuple: each new sim
        #: gets an attached :class:`~repro.telemetry.slo.SLOMonitor`
        #: (tiers adopt it via ``slo_monitor_for``).
        self.slo_specs = tuple(slo_specs) if slo_specs else ()
        self.collectors: list[SpanCollector] = []
        self.registries: list[MetricsRegistry] = []
        self.flights: list = []
        self.monitors: list = []
        self._installed = False

    # -- lifecycle ----------------------------------------------------------

    def install(self) -> "TraceSession":
        if not self._installed:
            kernel.add_sim_hook(self._on_new_sim)
            self._installed = True
        return self

    def uninstall(self) -> None:
        if self._installed:
            kernel.remove_sim_hook(self._on_new_sim)
            self._installed = False

    def __enter__(self) -> "TraceSession":
        return self.install()

    def __exit__(self, *exc_info: typing.Any) -> None:
        self.uninstall()

    def _on_new_sim(self, sim: "Simulator") -> None:
        # Registry first: the collector (and flight recorder) register
        # their own series with it at construction.
        registry = MetricsRegistry(name=f"sim{len(self.registries)}").attach(sim)
        self.registries.append(registry)
        collector = SpanCollector(sim, limit=self.span_limit)
        self.collectors.append(collector)
        if self.flight_spec is not None:
            from repro.telemetry.flight import FlightRecorder

            self.flights.append(FlightRecorder(collector, self.flight_spec))
        if self.slo_specs:
            from repro.telemetry.slo import SLOMonitor

            monitor = SLOMonitor(
                sim,
                self.slo_specs,
                name=f"sim{len(self.monitors)}",
                flight=collector.flight,
            ).attach()
            self.monitors.append(monitor)
        if self.sample_interval is not None:
            registry.start_sampler(sim, self.sample_interval)

    # -- aggregate views ----------------------------------------------------

    @property
    def total_spans(self) -> int:
        return sum(len(collector.spans) for collector in self.collectors)

    @property
    def total_traces(self) -> int:
        return sum(len(collector.trace_ids) for collector in self.collectors)

    def to_chrome_trace(self) -> dict:
        """All collectors merged: one ``pid`` per simulator."""
        events: list[dict] = []
        for index, collector in enumerate(self.collectors, start=1):
            document = collector.to_chrome_trace(pid=index)
            events.extend(document["traceEvents"])
        return {"traceEvents": events, "displayTimeUnit": "ns"}

    def write_chrome_trace(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.to_chrome_trace(), handle)

    def interesting_trace(self) -> tuple[SpanCollector, int] | None:
        """The request worth explaining: the first whose trace carries a
        non-``ok`` outcome (degraded/retried/failed), else the slowest.

        Returns ``(collector, trace_id)`` for
        :meth:`SpanCollector.format_critical_path`, or ``None`` when
        nothing was traced.
        """
        slowest: tuple[float, SpanCollector, int] | None = None
        for collector in self.collectors:
            for trace_id in collector.trace_ids:
                root = collector.root(trace_id)
                if root is None:
                    continue
                if any(
                    span.outcome not in (None, "ok") for span in collector.trace(trace_id)
                ):
                    return collector, trace_id
                duration = root.duration
                if slowest is None or duration > slowest[0]:
                    slowest = (duration, collector, trace_id)
        if slowest is None:
            return None
        return slowest[1], slowest[2]
