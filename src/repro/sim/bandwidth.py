"""Shared-bandwidth servers.

A :class:`BandwidthServer` models a rate-limited pipe — a memory bus, a
PCIe link direction, a NIC port direction, an HBM stack. A transfer of
``n`` bytes occupies one of the server's `lanes` for ``n * lanes / rate``
seconds (plus a fixed per-transfer overhead), so queueing delay and
interference between competing traffic emerge from the FIFO discipline,
exactly as the paper's microbenchmarks (Table 1, Fig. 4) probe them on
real hardware.

Rates are bytes/second; see :mod:`repro.units` for conversions.
"""

from __future__ import annotations

import typing

from heapq import heappush, heapreplace

from repro.sim.events import Event, SimulationError, Timeout

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.debug import FlowLedger
    from repro.sim.kernel import Simulator
    from repro.telemetry.metrics import BandwidthMeter


class _Transfer(Timeout):
    """Completion event of a transfer; its value is the byte count.

    Carries the per-transfer meter and flow tag so the server books the
    transfer through one shared callback instead of a closure per
    transfer.
    """

    __slots__ = ("meter", "flow")


class BandwidthServer:
    """A FIFO pipe of `rate` bytes/second split across `lanes` equal lanes.

    With ``lanes == 1`` the pipe is a classic single FIFO server; with
    more lanes (e.g. 8 memory channels) transfers proceed in parallel at
    ``rate / lanes`` each, which keeps aggregate bandwidth at `rate`
    while letting small transfers overtake large ones on other lanes.

    Transfers are served first come, first served: each one starts on
    the lane that frees earliest, so its completion time is known the
    moment it is issued and it costs a single kernel event.
    """

    def __init__(
        self,
        sim: "Simulator",
        rate: float,
        name: str = "pipe",
        lanes: int = 1,
        per_transfer_overhead: float = 0.0,
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
        # Min-heap of the time each lane finishes its last scheduled
        # transfer; its head is the lane the next transfer takes.
        self._lane_free = [0.0] * lanes
        self._meters: list["BandwidthMeter"] = []
        self._ledgers: list["FlowLedger"] = []
        self.bytes_served = 0
        self._xfer_name = f"xfer:{name}"
        #: Transfers that started at once / behind a busy lane
        #: (diagnostics and the benchmark's transfer count).
        self.fast_transfers = 0
        self.slow_transfers = 0
        # Bound once: the server is long-lived, so the method object's
        # reference back to it is no per-transfer cycle.
        self._book_done = self._on_done

    @property
    def busy_lanes(self) -> int:
        """Lanes whose scheduled transfers end after now."""
        now = self.sim._now
        return sum(1 for end in self._lane_free if end > now)

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

    def transfer(
        self,
        nbytes: int,
        meter: "BandwidthMeter | None" = None,
        flow: str | None = None,
    ) -> Event:
        """Start a transfer; the returned event fires when the last byte lands.

        `flow` optionally tags the transfer with a flow id so attached
        :class:`~repro.sim.debug.FlowLedger` instances can account the
        bytes for end-to-end conservation checks.

        The transfer starts at ``max(now, earliest lane-free time)`` and
        holds that lane for its service time; the returned event fires
        ``per_transfer_overhead`` after the service ends, with the byte
        count as its value, and books the meters and ledgers before any
        waiter resumes.
        """
        if nbytes < 0:
            raise SimulationError(f"cannot transfer {nbytes} bytes")
        sim = self.sim
        now = sim._now
        lane_free = self._lane_free
        start = lane_free[0]
        if start > now:
            self.slow_transfers += 1
        else:
            start = now
            self.fast_transfers += 1
        end = start + nbytes * self.lanes / self.rate
        heapreplace(lane_free, end)
        # Built field-by-field and pushed at an *absolute* time: the
        # completion instant is ``(start + service) + overhead``, and a
        # relative delay from now would round differently.
        when = end + self.per_transfer_overhead
        done = _Transfer.__new__(_Transfer)
        done.sim = sim
        done._name = self._xfer_name
        # Booking runs before any waiter: the callback is in place
        # before the caller could yield this event.
        done.callbacks = [self._book_done]
        done._value = nbytes
        done._ok = True
        done._defused = False
        done.delay = when - now
        done.meter = meter
        done.flow = flow
        heappush(sim._queue, (when, next(sim._sequence), done))
        return done

    def _on_done(self, done: _Transfer) -> None:
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
