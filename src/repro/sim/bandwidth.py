"""Shared-bandwidth servers.

A :class:`BandwidthServer` models a rate-limited pipe — a memory bus, a
PCIe link direction, a NIC port direction, an HBM stack. A transfer of
``n`` bytes occupies one of the server's `lanes` for ``n / lane_rate``
seconds (plus a fixed per-transfer overhead), so queueing delay and
interference between competing traffic emerge from the FIFO discipline,
exactly as the paper's microbenchmarks (Table 1, Fig. 4) probe them on
real hardware.

Rates are bytes/second; see :mod:`repro.units` for conversions.
"""

from __future__ import annotations

import os
import typing

from heapq import heappush

from repro.sim.events import _PENDING, Event, SimulationError, Timeout
from repro.sim.resources import Resource

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.debug import FlowLedger
    from repro.sim.kernel import Simulator
    from repro.telemetry.metrics import BandwidthMeter


class _FastTransfer(Timeout):
    """Completion event of a fast-path transfer; its value is the byte count.

    Carries the per-transfer meter and flow tag so the server books the
    transfer through one shared callback instead of a closure per
    transfer.
    """

    __slots__ = ("meter", "flow")


class _QueuedTransfer(Event):
    """Completion event of a slow-path (slot-queued) transfer.

    Three callbacks drive it, each bound to this event and attached to
    the event it waits on: a zero-delay start hop requests a lane, the
    grant starts the service timeout, and the service end releases the
    lane and schedules this event ``per_transfer_overhead`` later. The
    start hop keeps the lane request at the same point in the event
    order as a process body would make it. Nothing here refers back to
    the start, request or service events, so the chain holds no
    reference cycle.
    """

    __slots__ = ("server", "nbytes", "priority", "meter", "flow")

    def _start(self, _start: Event) -> None:
        request = self.server._slots.request(self.priority)
        request.callbacks.append(self._granted)

    def _granted(self, request: Event) -> None:
        server = self.server
        # The service timeout carries the request so its end can release it.
        service = Timeout(self.sim, self.nbytes * server.lanes / server.rate, request)
        service.callbacks.append(self._served)

    def _served(self, service: Timeout) -> None:
        server = self.server
        server._slots.release(service._value)
        # Fires at ``(grant + service) + overhead``, the association the
        # fast path uses too.
        self._value = self.nbytes
        sim = self.sim
        heappush(
            sim._queue,
            (sim._now + server.per_transfer_overhead, next(sim._sequence), self),
        )


class BandwidthServer:
    """A FIFO pipe of `rate` bytes/second split across `lanes` equal lanes.

    With ``lanes == 1`` the pipe is a classic single FIFO server; with
    more lanes (e.g. 8 memory channels) transfers proceed in parallel at
    ``rate / lanes`` each, which keeps aggregate bandwidth at `rate`
    while letting small transfers overtake large ones on other lanes.
    """

    def __init__(
        self,
        sim: "Simulator",
        rate: float,
        name: str = "pipe",
        lanes: int = 1,
        per_transfer_overhead: float = 0.0,
        fast_path: bool | None = None,
    ) -> None:
        if rate <= 0:
            raise SimulationError(f"bandwidth rate must be positive, got {rate!r}")
        if lanes < 1:
            raise SimulationError(f"lane count must be >= 1, got {lanes}")
        self.sim = sim
        self.name = name
        self.rate = rate
        self.lanes = lanes
        self.per_transfer_overhead = per_transfer_overhead
        self._slots = Resource(sim, lanes, name=f"{name}.lanes")
        self._meters: list["BandwidthMeter"] = []
        self._ledgers: list["FlowLedger"] = []
        self.bytes_served = 0
        if fast_path is None:
            fast_path = os.environ.get("REPRO_BW_FAST_PATH", "1") != "0"
        #: Whether uncontended transfers take the slot-free fast path
        #: (analytic completion, one event). ``REPRO_BW_FAST_PATH=0``
        #: turns it off globally for A/B equivalence runs.
        self.fast_path = fast_path
        # Lane-occupancy end times of in-flight fast-path transfers,
        # reaped lazily at each decision point. Invariant: non-empty only
        # while the slot queue is empty and in_use + len(...) <= lanes.
        self._fast_busy: list[float] = []
        self._xfer_name = f"xfer:{name}"
        #: Fast-path / slow-path admission counters (diagnostics and the
        #: perf harness's event-count micro-benchmark).
        self.fast_transfers = 0
        self.slow_transfers = 0
        # Bound once: the server is long-lived, so the method object's
        # reference back to it is no per-transfer cycle.
        self._book_done = self._on_done

    @property
    def lane_rate(self) -> float:
        """Service rate of a single lane in bytes/second."""
        return self.rate / self.lanes

    @property
    def queue_length(self) -> int:
        """Transfers waiting for a lane right now."""
        return self._slots.queue_length

    @property
    def busy_lanes(self) -> int:
        """Lanes currently serving a transfer (slot-holding or fast-path)."""
        self._reap()
        return self._slots.in_use + len(self._fast_busy)

    def _reap(self) -> None:
        """Drop fast-path lane holds whose service already ended."""
        busy = self._fast_busy
        if busy:
            now = self.sim._now
            keep = [end for end in busy if end > now]
            if len(keep) != len(busy):
                busy[:] = keep

    def _materialize(self) -> None:
        """Convert fast-path lane holds into granted slot requests.

        Called the moment a transfer needs the slow path: every in-flight
        fast transfer claims a real slot (granted immediately — the fast
        path only admits while lanes are free) and schedules its release
        at its analytically known service end, so FIFO queueing behind it
        is exactly what the all-slow-path discipline would produce.
        """
        sim = self.sim
        now = sim._now
        slots = self._slots
        for end in self._fast_busy:
            req = slots.request()
            release = Timeout(sim, end - now)
            release.callbacks.append(
                lambda _event, _req=req: slots.release(_req)
            )
        self._fast_busy.clear()

    def attach_meter(self, meter: "BandwidthMeter") -> None:
        """Record every served byte into `meter` as well."""
        self._meters.append(meter)

    def attach_ledger(self, ledger: "FlowLedger") -> None:
        """Record every flow-tagged transfer into `ledger` (byte-conservation audit)."""
        self._ledgers.append(ledger)

    def account(self, suffix: str, flow: str, nbytes: int) -> None:
        """Book `nbytes` of `flow` at sub-point ``"{name}.{suffix}"``.

        Out-of-band accounting (no pipe time) for bytes that occupied
        the pipe but never reached the consumer — e.g. frames the fabric
        dropped — so exact conservation can be asserted:
        ``tx == rx + tx.dropped``.
        """
        for ledger in self._ledgers:
            ledger.record(f"{self.name}.{suffix}", flow, nbytes)

    def service_time(self, nbytes: int) -> float:
        """Time one lane is *occupied* pushing `nbytes` (without queueing).

        The per-transfer overhead is propagation latency: it delays the
        transfer's completion but does not occupy the lane (the pipe
        keeps serving others while earlier bits are in flight).
        """
        # Same expression as both transfer paths, so the estimate is
        # bit-identical to the simulated occupancy.
        return nbytes * self.lanes / self.rate

    def transfer(
        self,
        nbytes: int,
        priority: int = 0,
        meter: "BandwidthMeter | None" = None,
        flow: str | None = None,
    ) -> Event:
        """Start a transfer; the returned event fires when the last byte lands.

        `flow` optionally tags the transfer with a flow id so attached
        :class:`~repro.sim.debug.FlowLedger` instances can account the
        bytes for end-to-end conservation checks.

        Uncontended transfers (a lane free, nothing queued) take the
        slot-free fast path: completion time is computed analytically and
        a single event carries the service time, the per-transfer
        overhead, and the byte accounting — no slot request/release.
        Contended transfers fall back to the exact FIFO slow path, a
        :class:`_QueuedTransfer` driven by callbacks; any fast-path
        transfers still in flight first claim real slots
        (:meth:`_materialize`) so queueing order is identical to an
        all-slow-path run. Both paths fire with the
        transfer's byte count at the same simulated times and book the
        same meter/ledger records.
        """
        if nbytes < 0:
            raise SimulationError(f"cannot transfer {nbytes} bytes")
        self._reap()
        slots = self._slots
        if (
            self.fast_path
            and not slots._n_waiting
            and slots._in_use + len(self._fast_busy) < self.lanes
        ):
            self.fast_transfers += 1
            sim = self.sim
            service = nbytes * self.lanes / self.rate
            end = sim._now + service
            self._fast_busy.append(end)
            # Built field-by-field and pushed at an *absolute* time: the
            # slow path fires its service timeout at ``now + service``
            # and only then adds the overhead, so the completion instant
            # is ``(now + service) + overhead`` — the same association
            # must be used here or completion times differ in the last
            # ulp and the fast/slow equivalence property breaks.
            done = _FastTransfer.__new__(_FastTransfer)
            done.sim = sim
            done._name = self._xfer_name
            # Booking runs before any waiter: the callback is in place
            # before the caller could yield this event.
            done.callbacks = [self._book_done]
            done._value = nbytes
            done._ok = True
            done._defused = False
            done.delay = service + self.per_transfer_overhead
            done.meter = meter
            done.flow = flow
            heappush(
                sim._queue,
                (end + self.per_transfer_overhead, next(sim._sequence), done),
            )
            return done
        if self._fast_busy:
            self._materialize()
        self.slow_transfers += 1
        sim = self.sim
        done = _QueuedTransfer.__new__(_QueuedTransfer)
        done.sim = sim
        done._name = self._xfer_name
        done.callbacks = [self._book_done]
        done._value = _PENDING
        done._ok = True
        done._defused = False
        done.server = self
        done.nbytes = nbytes
        done.priority = priority
        done.meter = meter
        done.flow = flow
        start = Event.__new__(Event)
        start.sim = sim
        start._name = "start"
        start.callbacks = [done._start]
        start._value = None
        start._ok = True
        start._defused = False
        heappush(sim._queue, (sim._now, next(sim._sequence), start))
        return done

    def _on_done(self, done: "_FastTransfer | _QueuedTransfer") -> None:
        """First callback of every completion: book before any waiter runs."""
        nbytes = done._value
        self.bytes_served += nbytes
        now = self.sim._now
        for attached in self._meters:
            attached.record(now, nbytes)
        if done.meter is not None:
            done.meter.record(now, nbytes)
        if done.flow is not None:
            for ledger in self._ledgers:
                ledger.record(self.name, done.flow, nbytes)
