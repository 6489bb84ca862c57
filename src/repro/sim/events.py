"""Event primitives for the simulation kernel.

An :class:`Event` is a one-shot occurrence at a point in simulated time.
Processes wait on events by ``yield``-ing them; the kernel resumes the
process when the event fires. Events either *succeed* with a value or
*fail* with an exception (which is re-raised inside every waiting
process).

Events are hot-path objects — a run creates one per timeout, queue
operation, and resource grant — so the class is slotted and display
names are computed lazily: constructors store raw parts and the
:attr:`Event.name` property renders them only when diagnostics
(tracers, the drain auditor, ``repr``) actually read the name.
"""

from __future__ import annotations

import typing
from heapq import heappush

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.kernel import Simulator

#: Sentinel for "event has not fired yet".
_PENDING = object()

#: Value of a timer withdrawn by :meth:`Timeout.cancel`; it never fires.
_WITHDRAWN = object()


class SimulationError(RuntimeError):
    """Raised for kernel misuse (double trigger, negative delay, ...)."""


class Event:
    """A one-shot occurrence that processes can wait on.

    Events move through three states: *pending* (created), *triggered*
    (scheduled on the event queue with a value), and *processed* (the
    kernel has run its callbacks). ``yield``-ing a processed event
    resumes the process immediately on the next kernel step. A
    :class:`Timeout` may instead end *withdrawn* (:meth:`Timeout.cancel`).
    """

    __slots__ = ("sim", "_name", "callbacks", "_value", "_ok", "_defused", "__weakref__")

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self._name = name
        self.callbacks: list[typing.Callable[[Event], None]] = []
        self._value: typing.Any = _PENDING
        self._ok = True
        self._defused = False

    @property
    def name(self) -> str:
        """Display name; subclasses may render it lazily."""
        return self._name

    @name.setter
    def name(self, value: str) -> None:
        self._name = value

    @property
    def triggered(self) -> bool:
        """True once the event has a value (success or failure)."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run (callbacks list is consumed)."""
        return self.callbacks is None and self._value is not _WITHDRAWN

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> typing.Any:
        """The event's result; raises if the event is still pending."""
        value = self._value
        if value is _PENDING or value is _WITHDRAWN:
            raise SimulationError(f"value of {self!r} is not available")
        return value

    def succeed(self, value: typing.Any = None, delay: float = 0.0) -> "Event":
        """Trigger the event successfully with `value` after `delay`."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        if delay:
            self.sim._schedule(self, delay)
        else:
            # Inlined zero-delay schedule — the overwhelmingly common
            # case (resource grants, process starts, queue handoffs).
            sim = self.sim
            heappush(sim._queue, (sim._now, next(sim._sequence), self))
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Trigger the event as failed; waiters see `exception` raised."""
        if not isinstance(exception, BaseException):
            raise SimulationError(f"fail() needs an exception, got {exception!r}")
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = False
        self._value = exception
        self.sim._schedule(self, delay)
        return self

    def defuse(self) -> None:
        """Mark a failed event as handled so the kernel will not re-raise it."""
        self._defused = True

    def __repr__(self) -> str:
        if self._value is _WITHDRAWN:
            state = "withdrawn"
        elif self.processed:
            state = "processed"
        else:
            state = "triggered" if self.triggered else "pending"
        label = f" {self.name!r}" if self.name else ""
        return f"<{type(self).__name__}{label} {state}>"


class Timeout(Event):
    """An event that fires after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: typing.Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay!r}")
        # Inline the Event constructor and the schedule: timeouts are the
        # single most frequent event, and the name is rendered lazily.
        self.sim = sim
        self._name = ""
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self.delay = delay
        heappush(sim._queue, (sim._now + delay, next(sim._sequence), self))

    @property
    def name(self) -> str:
        return self._name or f"timeout({self.delay:g})"

    @name.setter
    def name(self, value: str) -> None:
        self._name = value

    def cancel(self) -> None:
        """Withdraw the timer once the race it guarded is decided.

        A withdrawn timer never runs its callbacks, is not counted in
        :attr:`Simulator.steps`, is not shown to tracers and does not
        advance the clock; its queue entry is dropped lazily. Cancelling
        a timer that has already fired (or was already withdrawn) does
        nothing. The only waiter it may still have is a condition that
        has already fired; anything else would be stranded, so that
        raises :class:`SimulationError`, as does a later ``yield`` of
        the withdrawn timer.
        """
        callbacks = self.callbacks
        if callbacks is None:
            return
        for callback in callbacks:
            owner = getattr(callback, "__self__", None)
            if (
                not isinstance(owner, _Condition)
                or callback.__func__ is not _Condition._observe
                or not owner.triggered
            ):
                raise SimulationError(f"cannot cancel {self!r}: {callback!r} still waits on it")
        self.callbacks = None  # type: ignore[assignment]
        self._value = _WITHDRAWN
        self.sim._withdraw()


class _Condition(Event):
    """Shared machinery for :class:`AllOf` / :class:`AnyOf`.

    Once the condition fires it drops its constituent list. A
    constituent that never fires (the loser of an :class:`AnyOf` race)
    keeps the condition alive through its callback, so holding the list
    past that point would tie the two into a reference cycle that only
    the cyclic collector could free.
    """

    __slots__ = ("_events", "_done")

    def __init__(self, sim: "Simulator", events: typing.Sequence[Event]) -> None:
        super().__init__(sim, name=type(self).__name__)
        self._events = list(events)
        self._done = 0
        for event in self._events:
            if event.sim is not sim:
                raise SimulationError("all events of a condition must share a simulator")
            if event._value is _WITHDRAWN:
                raise SimulationError(f"cannot wait on withdrawn {event!r}")
        for event in self._events:
            if event.processed:
                self._observe(event)
            else:
                event.callbacks.append(self._observe)
        if not self.triggered and self._satisfied():
            self._settle()

    def _observe(self, event: Event) -> None:
        if self.triggered:
            # A constituent failing after the condition fired is still
            # handled here, so it never surfaces as unhandled.
            if not event.ok:
                event.defuse()
            return
        if not event.ok:
            event.defuse()
            self.fail(typing.cast(BaseException, event._value))
            self._events = ()
            return
        self._done += 1
        if self._satisfied():
            self._settle()

    def _settle(self) -> None:
        self.succeed(self._collect())
        self._events = ()

    def _satisfied(self) -> bool:
        raise NotImplementedError

    def _collect(self) -> typing.Any:
        return {
            event: event._value
            for event in self._events
            if event.processed and event.ok
        }


class AllOf(_Condition):
    """Fires when every constituent event has been processed (fails fast on failure)."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._done >= len(self._events)


class AnyOf(_Condition):
    """Fires as soon as any constituent event has been processed."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._done >= 1 or not self._events
