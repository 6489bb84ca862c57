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
from heapq import heapify, heappop, heappush
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

#: Withdrawn timers may sit in the event heap until they outnumber the
#: live entries; below this many the heap is never rebuilt for them.
_WITHDRAWN_FLOOR = 64

#: The process registry is never compacted below this many refs.
_PROCESS_REFS_FLOOR = 256


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
        # Withdrawn timers (Timeout.cancel) still in _queue: they are
        # skipped when popped and purged once they are most of the heap.
        self._withdrawn = 0
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
        # add. Dead refs are dropped once the list outgrows
        # _process_refs_limit (see _compact_process_refs).
        self._process_refs: list[weakref.ref] = []
        self._process_refs_limit = _PROCESS_REFS_FLOOR
        self._tracked: dict[str, weakref.WeakSet] = {}
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

    @property
    def idle(self) -> bool:
        """True when no live event is queued (withdrawn timers do not count)."""
        return len(self._queue) <= self._withdrawn

    # -- event factories -------------------------------------------------

    def event(self, name: str = "") -> Event:
        """Create a pending event to be triggered manually."""
        return Event(self, name=name)

    def timeout(self, delay: float, value: typing.Any = None) -> Timeout:
        """Create an event that fires `delay` seconds from now."""
        return Timeout(self, delay, value)

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

    def _withdraw(self) -> None:
        """Count one withdrawn timer; purge them once they are most of the heap.

        The heap is rebuilt in place, because :meth:`run` holds it in a
        local. Entries pop in ``(time, seq)`` order and ``seq`` is
        unique, so the rebuild cannot reorder live events.
        """
        self._withdrawn += 1
        queue = self._queue
        if self._withdrawn > _WITHDRAWN_FLOOR and 2 * self._withdrawn > len(queue):
            queue[:] = [entry for entry in queue if entry[2].callbacks is not None]
            heapify(queue)
            self._withdrawn = 0

    def _compact_process_refs(self) -> None:
        """Drop dead process refs; compact again once the list doubles."""
        live = [proc_ref for proc_ref in self._process_refs if proc_ref() is not None]
        self._process_refs = live
        self._process_refs_limit = max(_PROCESS_REFS_FLOOR, 2 * len(live))

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
            self._compact_process_refs()
            return tuple(proc_ref() for proc_ref in self._process_refs)
        registry = self._tracked.get(category)
        return tuple(registry) if registry is not None else ()

    def step(self) -> None:
        """Process the single next live event; raises if there is none."""
        queue = self._queue
        while True:
            if not queue:
                raise SimulationError("step() on an empty event queue")
            when, _seq, event = heappop(queue)
            callbacks = event.callbacks
            if callbacks is not None:
                break
            self._withdrawn -= 1  # a withdrawn timer: drop it unseen
        self._now = when
        self._steps += 1
        if self._tracers:
            for tracer in self._tracers:
                tracer._record(when, event)
        event.callbacks = None  # type: ignore[assignment]
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
        seconds, or an :class:`Event` whose value is returned. An event
        scheduled exactly at the deadline is still dispatched.
        """
        horizon = math.inf
        deadline: float | None = None
        if isinstance(until, Event):
            stop = until
        else:
            stop = Event(self, name="never")  # nobody triggers it
            if until is not None:
                deadline = horizon = float(until)
                if deadline < self._now:
                    raise SimulationError(f"deadline {deadline!r} is in the past (now={self._now!r})")

        # One loop serves every mode, because interleaved end-to-end runs
        # showed no speed to gain from a loop specialized per mode: drain
        # and deadline runs stop on an event that is never processed, and
        # drain and stop-event runs have an infinite horizon. The body of
        # step() is inlined with the queue, heappop, and tracer list held
        # in locals, because the per-event method call and attribute
        # traffic are measurable at millions of events. The step counter
        # is accumulated locally and folded back in the finally block
        # (nothing reads it mid-callback). A popped entry whose callbacks
        # are already gone is a withdrawn timer (Timeout.cancel): every
        # other queued event keeps its list until it is dispatched here.
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
            while queue:
                if stop.callbacks is None or queue[0][0] > horizon:
                    break
                when, _seq, event = pop(queue)
                callbacks = event.callbacks
                if callbacks is None:
                    self._withdrawn -= 1
                    continue
                self._now = when
                processed += 1
                if tracers:
                    for tracer in tracers:
                        tracer._record(when, event)
                event.callbacks = None  # type: ignore[assignment]
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

        if deadline is not None:
            self._now = deadline
        if stop is not until:
            return None
        if not stop.triggered:
            raise SimulationError(f"run() ended before {stop!r} fired")
        if not stop.ok:
            raise typing.cast(BaseException, stop._value)
        return stop.value

    def peek(self) -> float:
        """Time of the next live event, or ``inf`` if none is queued."""
        queue = self._queue
        while queue and queue[0][2].callbacks is None:
            heappop(queue)  # withdrawn timers at the head go now
            self._withdrawn -= 1
        return queue[0][0] if queue else float("inf")

    def __repr__(self) -> str:
        return f"<Simulator t={self._now:.9f} pending={len(self._queue) - self._withdrawn}>"
