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

from repro.sim.events import _PENDING, Event, SimulationError

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.kernel import Simulator


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`."""

    @property
    def cause(self) -> typing.Any:
        """The cause passed to :meth:`Process.interrupt`."""
        return self.args[0] if self.args else None


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
            # Amortized compaction bound for very long-running sims; the
            # auditor-side read (Simulator.tracked) also compacts.
            if len(refs) > 1_000_000:
                sim._process_refs = [r for r in refs if r() is not None]
        # Kick the process off via an immediately-succeeding event so that
        # creation order equals start order and creation itself cannot raise
        # model exceptions. Built field-by-field: this start event and its
        # zero-delay schedule are pure kernel overhead otherwise.
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

    def interrupt(self, cause: typing.Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self.triggered:
            raise SimulationError(f"cannot interrupt finished {self!r}")
        if self._waiting_on is None:
            raise SimulationError(f"cannot interrupt {self!r} while it is being resumed")
        # Detach from the event we were waiting on; it may still fire but
        # must not resume us twice.
        waited = self._waiting_on
        if not waited.processed and self._resume in waited.callbacks:
            waited.callbacks.remove(self._resume)
        if not waited.ok and waited.triggered:
            waited.defuse()
        poke = Event(self.sim, name=f"interrupt:{self.name}")
        poke.callbacks.append(self._resume)
        poke.fail(Interrupt(cause))

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
            sim = self.sim
            heappush(sim._queue, (sim._now, next(sim._sequence), self))
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
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}; processes may only yield events"
            )
        if target.callbacks is None:  # processed
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
