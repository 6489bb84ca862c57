"""Generator-backed simulation processes.

A :class:`Process` drives a Python generator: every value the generator
``yield``s must be an :class:`~repro.sim.events.Event`; the process
sleeps until that event fires and is resumed with the event's value
(or has the event's exception thrown into it on failure). A process is
itself an event that fires with the generator's return value, so
processes can wait on each other.
"""

from __future__ import annotations

import typing
from heapq import heappush
from types import GeneratorType
from weakref import ref

from repro.sim.events import _PENDING, _WITHDRAWN, Event, SimulationError, _Condition

#: The one callback a process may complete into without an event.
_OBSERVE = _Condition._observe


class _Start:
    """What a process spawned during dispatch is first resumed with.

    It stands in for the start event such a process no longer gets:
    :meth:`Process._resume` reads only ``_ok`` and ``_value``.
    """

    __slots__ = ()
    _ok = True
    _value = None


_START = _Start()

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.kernel import Simulator


class Process(Event):
    """An event representing a running generator; fires when it returns."""

    __slots__ = ("_generator", "_waiting_on", "daemon", "_poke_name")

    def __init__(
        self,
        sim: "Simulator",
        generator: typing.Generator,
        name: str = "",
        daemon: bool = False,
    ) -> None:
        if type(generator) is not GeneratorType and (
            not hasattr(generator, "send") or not hasattr(generator, "throw")
        ):
            raise SimulationError(f"process body must be a generator, got {generator!r}")
        # Inlined Event.__init__: processes are created on every request /
        # transfer / fan-out arm, so constructor cost is macro-visible.
        self.sim = sim
        self._name = name or getattr(generator, "__name__", "process")
        self.callbacks: list[typing.Callable[[Event], None]] = []
        self._value = _PENDING
        self._ok = True
        self._defused = False
        self._generator = generator
        self._waiting_on: Event | None = None
        # Poke events are created on resume from an already-fired event;
        # the name is rendered once, lazily, on the first poke.
        self._poke_name: str | None = None
        #: Daemon processes are service loops expected to outlive the
        #: workload; the drain auditor does not report them as stuck.
        self.daemon = daemon
        refs = getattr(sim, "_process_refs", None)
        if refs is not None:
            refs.append(ref(self))
            # Drop dead refs once the list doubles past its last live
            # size: amortized O(1) per process, and the registry stays
            # proportional to the processes alive, not to those created.
            if len(refs) > sim._process_refs_limit:
                sim._compact_process_refs()
        # Creation never runs the body, so it cannot raise model
        # exceptions. A process spawned while the kernel dispatches an
        # event needs no start event: it starts, in spawn order, as soon
        # as that event's callbacks return, after its spawner has reached
        # its `yield` (see Simulator._start_ready).
        if sim._dispatching:
            sim._ready.append(self)
            return
        # Otherwise an immediately-succeeding start event kicks it off,
        # built field-by-field: it is pure kernel overhead.
        start = Event.__new__(Event)
        start.sim = sim
        start._name = "start"
        start.callbacks = [self._resume]
        start._value = None
        start._ok = True
        start._defused = False
        heappush(sim._queue, (sim._now, next(sim._sequence), start))

    @property
    def is_alive(self) -> bool:
        """True while the generator has not returned or raised."""
        return not self.triggered

    def _resume(self, event: Event) -> None:
        self._waiting_on = None
        try:
            if event._ok:
                target = self._generator.send(event._value)
            else:
                event._defused = True
                target = self._generator.throw(typing.cast(BaseException, event._value))
        except StopIteration as stop:
            # Inlined self.succeed(stop.value): the generator just
            # returned, so the process cannot already be triggered and
            # _ok is still True.
            self._value = stop.value
            callbacks = self.callbacks
            if callbacks:
                for callback in callbacks:
                    if getattr(callback, "__func__", None) is not _OBSERVE:
                        sim = self.sim
                        heappush(sim._queue, (sim._now, next(sim._sequence), self))
                        return
                # Only conditions wait: join them now, without a
                # completion event. Each condition still schedules its
                # own event when it fires.
                self.callbacks = None  # type: ignore[assignment]
                for callback in callbacks:
                    callback(self)
            else:
                # Nobody waits: mark it processed instead of scheduling
                # a completion no callback would see. A later `yield`
                # resumes through the poke path with the return value.
                self.callbacks = None  # type: ignore[assignment]
            return
        except BaseException as exc:  # noqa: BLE001 - model errors must surface
            # Trim this frame from the traceback (the generator's frames
            # stay): it holds `self`, and the process stores `exc` as its
            # value, so keeping it would make a reference cycle. No local
            # may hold the old traceback, or that local would close a
            # cycle of its own through this frame.
            exc.__traceback__ = exc.__traceback__.tb_next  # type: ignore[union-attr]
            if self.callbacks:
                self.fail(exc)
            else:
                # Nobody is waiting on this process; report to the kernel so
                # the failure is not silently dropped.
                self.sim._report_unhandled(exc)
                self.fail(exc)
                self.defuse()
            return

        if not isinstance(target, Event):
            if type(target) is GeneratorType:
                # The likely mistake is `yield link.dma_write(...)`: the
                # datapath legs are generator functions run inline.
                raise SimulationError(
                    f"process {self.name!r} yielded generator {target.__qualname__!r};"
                    " delegate with `yield from`"
                )
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}; processes may only yield events"
            )
        if target.callbacks is None:  # processed
            if target._value is _WITHDRAWN:
                raise SimulationError(f"process {self.name!r} yielded withdrawn {target!r}")
            # Already-fired event: resume on the next kernel step via a
            # poke event carrying the target's outcome (built inline —
            # this sits on the resume hot path).
            poke = Event.__new__(Event)
            sim = self.sim
            poke.sim = sim
            name = self._poke_name
            if name is None:
                name = self._poke_name = "poke:" + self._name
            poke._name = name
            poke.callbacks = [self._resume]
            poke._value = target._value
            poke._ok = target._ok
            poke._defused = False
            heappush(sim._queue, (sim._now, next(sim._sequence), poke))
            self._waiting_on = poke
        else:
            target.callbacks.append(self._resume)
            self._waiting_on = target
