"""The simulation kernel: a time-ordered event loop.

:class:`Simulator` owns the clock and the event heap. Model code creates
events through the factory helpers (:meth:`Simulator.timeout`,
:meth:`Simulator.event`, :meth:`Simulator.process`) and advances the
world with :meth:`Simulator.run`.
"""

from __future__ import annotations

import gc
import math
import typing
import weakref
from heapq import heappop, heappush
from itertools import count

from repro.sim.events import AllOf, AnyOf, Event, SimulationError, Timeout
from repro.sim.process import Process

#: Every live simulator, weakly referenced. The drain auditor (and the
#: test harness) uses this to find simulators created during a test
#: without threading the instance through every call site.
_live_simulators: "weakref.WeakSet[Simulator]" = weakref.WeakSet()

#: Hooks invoked with each newly constructed Simulator. Installed by
#: observability sessions (repro.telemetry.spans.TraceSession) to attach
#: span collectors / metric registries to every simulator an experiment
#: creates, without threading a collector through every run() signature.
_sim_hooks: list[typing.Callable[["Simulator"], None]] = []


def live_simulators() -> tuple["Simulator", ...]:
    """Snapshot of all simulators currently alive in this interpreter."""
    return tuple(_live_simulators)


def add_sim_hook(hook: typing.Callable[["Simulator"], None]) -> None:
    """Call `hook(sim)` for every :class:`Simulator` constructed from now on."""
    if hook not in _sim_hooks:
        _sim_hooks.append(hook)


def remove_sim_hook(hook: typing.Callable[["Simulator"], None]) -> None:
    """Stop calling `hook` for new simulators (no-op if not installed)."""
    try:
        _sim_hooks.remove(hook)
    except ValueError:
        pass


class Simulator:
    """Discrete-event simulator with a monotonically advancing clock.

    Time is a float in seconds starting at ``0.0``. Events scheduled for
    the same instant are processed in scheduling order (FIFO), which
    keeps runs deterministic.
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: list[tuple[float, int, Event]] = []
        self._sequence = count()
        self._steps = 0
        self._unhandled: list[BaseException] = []
        self._tracers: list[typing.Any] = []  # see repro.sim.trace
        # Weak registries of model objects, per category ("resource",
        # "store", "process", "ledger"). Consumed by repro.sim.debug's
        # DrainAuditor; model code never reads these. Processes — the
        # hottest tracked constructor by orders of magnitude — go into a
        # plain list of bare weakrefs instead of a WeakSet: appending a
        # callbackless weakref is several times cheaper than a WeakSet
        # add, and tracked() filters dead refs on the (rare) read side.
        self._process_refs: list[weakref.ref] = []
        self._tracked: dict[str, weakref.WeakSet] = {}
        # Shared fluid-window timeouts keyed by quantized fire time
        # (see fluid_timeout); entries remove themselves on firing.
        self._fluid: dict[float, Timeout] = {}
        # Observability attach points (see repro.telemetry.spans and
        # .registry): None means untraced, the common case — every
        # instrumentation site guards on that before doing any work.
        self._span_collector: typing.Any = None
        self._metrics_registry: typing.Any = None
        _live_simulators.add(self)
        for hook in _sim_hooks:
            hook(self)

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def steps(self) -> int:
        """Number of events processed so far (the perf harness reads this)."""
        return self._steps

    # -- event factories -------------------------------------------------

    def event(self, name: str = "") -> Event:
        """Create a pending event to be triggered manually."""
        return Event(self, name=name)

    def timeout(self, delay: float, value: typing.Any = None) -> Timeout:
        """Create an event that fires `delay` seconds from now."""
        return Timeout(self, delay, value)

    def fluid_timeout(self, delay: float, window: float, value: typing.Any = None) -> Timeout:
        """A shared timeout, quantized *up* to the end of a `window` slot.

        Every caller whose requested fire time (``now + delay``) lands in
        the same window slot gets the *same* event object — one heap
        entry for an entire storm of co-expiring waits — at the cost of
        firing up to `window` late. Use only where the exact interleaving
        of completions inside one window provably does not matter (e.g.
        homogeneous fan-out arms all awaited together); anything that
        feeds back into queueing decisions must use :meth:`timeout`.

        The shared `value` is delivered to every waiter, so per-waiter
        values are not supported; entries clean themselves out of the
        bucket table when they fire.
        """
        if window <= 0:
            raise SimulationError(f"fluid window must be positive, got {window!r}")
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay!r}")
        bucket = math.ceil((self._now + delay) / window) * window
        event = self._fluid.get(bucket)
        if event is None:
            event = Timeout(self, bucket - self._now, value)
            self._fluid[bucket] = event
            event.callbacks.append(lambda _event, _key=bucket: self._fluid.pop(_key, None))
        return event

    def process(self, generator: typing.Generator, name: str = "", daemon: bool = False) -> Process:
        """Wrap a generator as a running process; it starts at the current time.

        `daemon` marks forever-loop service processes (receive loops,
        worker pools) that are *expected* to still be parked on an event
        when the simulation drains; the drain auditor skips them.
        """
        return Process(self, generator, name=name, daemon=daemon)

    def all_of(self, events: typing.Sequence[Event]) -> AllOf:
        """An event that fires when all of `events` have fired."""
        return AllOf(self, events)

    def any_of(self, events: typing.Sequence[Event]) -> AnyOf:
        """An event that fires when any of `events` has fired."""
        return AnyOf(self, events)

    # -- scheduling and the main loop ------------------------------------

    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        if delay < 0:
            raise SimulationError(f"cannot schedule {event!r} in the past (delay={delay!r})")
        heappush(self._queue, (self._now + delay, next(self._sequence), event))

    def _report_unhandled(self, exc: BaseException) -> None:
        self._unhandled.append(exc)

    def _track(self, category: str, obj: typing.Any) -> None:
        """Register `obj` in the weak registry for `category`."""
        registry = self._tracked.get(category)
        if registry is None:
            registry = self._tracked[category] = weakref.WeakSet()
        registry.add(obj)

    def tracked(self, category: str) -> tuple:
        """Live tracked objects of `category` ("resource", "store", ...)."""
        if category == "process":
            live = [proc for ref in self._process_refs if (proc := ref()) is not None]
            if len(live) < len(self._process_refs):
                self._process_refs = [weakref.ref(proc) for proc in live]
            return tuple(live)
        registry = self._tracked.get(category)
        return tuple(registry) if registry is not None else ()

    def step(self) -> None:
        """Process the single next event; raises if the queue is empty."""
        if not self._queue:
            raise SimulationError("step() on an empty event queue")
        when, _seq, event = heappop(self._queue)
        self._now = when
        self._steps += 1
        if self._tracers:
            for tracer in self._tracers:
                tracer._record(when, event)
        callbacks, event.callbacks = event.callbacks, None  # type: ignore[assignment]
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            # A failure nobody waited on: surface it instead of losing it.
            self._unhandled.append(typing.cast(BaseException, event._value))
        if self._unhandled:
            self._raise_unhandled()

    def _raise_unhandled(self) -> typing.NoReturn:
        """Raise the first pending unhandled failure, attaching the rest.

        Several processes may fail within one step (e.g. one event
        resumes many waiters). Raise the first but keep the others
        attached so no failure is silently lost.
        """
        exc = self._unhandled[0]
        siblings = tuple(self._unhandled[1:])
        self._unhandled.clear()
        if hasattr(exc, "add_note"):  # PEP 678, Python 3.11+
            for other in siblings:
                exc.add_note(f"also unhandled in the same step: {other!r}")
        if siblings:
            try:
                exc.concurrent_failures = siblings  # type: ignore[attr-defined]
            except (AttributeError, TypeError):  # exceptions with __slots__
                pass
        raise exc

    def run(self, until: float | Event | None = None) -> typing.Any:
        """Run until the queue drains, a deadline passes, or an event fires.

        `until` may be ``None`` (drain the queue), a float deadline in
        seconds, or an :class:`Event` whose value is returned.
        """
        stop_event: Event | None = None
        deadline: float | None = None
        if isinstance(until, Event):
            stop_event = until
        elif until is not None:
            deadline = float(until)
            if deadline < self._now:
                raise SimulationError(f"deadline {deadline!r} is in the past (now={self._now!r})")

        # The loops below are specialized per mode so each loop head
        # holds only its own termination check: the body of step() is
        # inlined with the queue, heappop, and tracer list held in
        # locals, because the per-event method call and attribute
        # traffic are measurable at millions of events. The step counter
        # is accumulated locally and folded back in the finally block
        # (nothing reads it mid-callback).
        #
        # The cyclic garbage collector is paused while events dispatch.
        # The kernel's per-request objects (events, requests, processes,
        # conditions) are acyclic, so reference counting frees them as
        # soon as they fire; a collector pass would only rescan the live
        # model graph, and it runs every few hundred allocations. The
        # caller's collector state is restored on every exit.
        queue = self._queue
        pop = heappop
        tracers = self._tracers
        unhandled = self._unhandled
        processed = 0
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            if stop_event is None and deadline is None:
                # Drain mode: no per-step termination checks.
                while queue:
                    when, _seq, event = pop(queue)
                    self._now = when
                    processed += 1
                    if tracers:
                        for tracer in tracers:
                            tracer._record(when, event)
                    callbacks, event.callbacks = event.callbacks, None  # type: ignore[assignment]
                    for callback in callbacks:
                        callback(event)
                    if not event._ok and not event._defused:
                        unhandled.append(typing.cast(BaseException, event._value))
                    if unhandled:
                        self._raise_unhandled()
            elif deadline is None:
                # Stop-event mode (experiments run in the until-modes, so
                # they are just as hot as drain mode).
                while queue:
                    if stop_event.callbacks is None:  # processed
                        break
                    when, _seq, event = pop(queue)
                    self._now = when
                    processed += 1
                    if tracers:
                        for tracer in tracers:
                            tracer._record(when, event)
                    callbacks, event.callbacks = event.callbacks, None  # type: ignore[assignment]
                    for callback in callbacks:
                        callback(event)
                    if not event._ok and not event._defused:
                        unhandled.append(typing.cast(BaseException, event._value))
                    if unhandled:
                        self._raise_unhandled()
            else:
                # Deadline mode: only the next-event-past-deadline check.
                while queue:
                    if queue[0][0] > deadline:
                        self._now = deadline
                        return None
                    when, _seq, event = pop(queue)
                    self._now = when
                    processed += 1
                    if tracers:
                        for tracer in tracers:
                            tracer._record(when, event)
                    callbacks, event.callbacks = event.callbacks, None  # type: ignore[assignment]
                    for callback in callbacks:
                        callback(event)
                    if not event._ok and not event._defused:
                        unhandled.append(typing.cast(BaseException, event._value))
                    if unhandled:
                        self._raise_unhandled()
        finally:
            self._steps += processed
            if gc_was_enabled:
                gc.enable()

        if stop_event is not None:
            if not stop_event.triggered:
                raise SimulationError(f"run() ended before {stop_event!r} fired")
            if not stop_event.ok:
                raise typing.cast(BaseException, stop_event._value)
            return stop_event.value
        if deadline is not None:
            self._now = deadline
        return None

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if the queue is empty."""
        return self._queue[0][0] if self._queue else float("inf")

    def __repr__(self) -> str:
        return f"<Simulator t={self._now:.9f} pending={len(self._queue)}>"
