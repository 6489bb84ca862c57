"""PCIe interconnect model.

A PCIe 3.0 x16 link carries ~104 Gb/s per direction; the paper shows
(Table 1) that its DMA latency grows from ~1.4 us to ~7-11 us when the
link is heavily loaded. We model each direction as a FIFO
:class:`~repro.sim.bandwidth.BandwidthServer` with a fixed per-leg
propagation delay:

- a **DMA read** (device pulls host memory, "H2D" data direction) sends
  a read-request leg upstream, then receives the data downstream in
  read-completion chunks — each chunk queues separately, so loaded
  reads hurt more than loaded writes, as Table 1 observes;
- a **DMA write** (device pushes to host memory, "D2H") sends the data
  upstream in one transfer.
"""

from __future__ import annotations

import typing

from repro.params import HostSpec
from repro.sim.bandwidth import BandwidthServer
from repro.telemetry.metrics import BandwidthMeter

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.debug import FaultPlan, FlowLedger
    from repro.sim.kernel import Simulator

#: Size of the read-request / completion-credit control leg.
_CONTROL_BYTES = 64


class PcieLink:
    """One PCIe slot: paired upstream (D2H) and downstream (H2D) pipes."""

    def __init__(
        self,
        sim: "Simulator",
        spec: HostSpec | None = None,
        name: str = "pcie",
        fault_plan: "FaultPlan | None" = None,
    ) -> None:
        self.sim = sim
        self.spec = spec or HostSpec()
        self.name = name
        #: Deterministic fault schedule; stall windows delay DMA legs.
        self.fault_plan = fault_plan
        overhead = self.spec.pcie_leg_latency
        self.h2d = BandwidthServer(
            sim, rate=self.spec.pcie_rate, name=f"{name}.h2d", per_transfer_overhead=overhead
        )
        self.d2h = BandwidthServer(
            sim, rate=self.spec.pcie_rate, name=f"{name}.d2h", per_transfer_overhead=overhead
        )
        # Data meters: count payload bytes only. Control TLPs (read
        # requests, credits) occupy the link but are not data bandwidth,
        # matching how PCIe bandwidth is normally reported.
        self.h2d_meter = BandwidthMeter(f"{name}.h2d")
        self.d2h_meter = BandwidthMeter(f"{name}.d2h")

    def attach_ledger(self, ledger: "FlowLedger") -> None:
        """Attach a byte-conservation ledger to both directions."""
        self.h2d.attach_ledger(ledger)
        self.d2h.attach_ledger(ledger)

    def _stall(self, direction: str) -> typing.Generator:
        """Honor an injected stall window before a leg in `direction`.

        Callers guard on ``fault_plan is not None`` so a fault-free link
        builds no generator per leg.
        """
        delay = self.fault_plan.stall_delay(self.sim.now, direction)
        if delay > 0:
            yield self.sim.timeout(delay)

    def dma_read(
        self, nbytes: int, priority: int = 0, flow: str | None = None
    ) -> typing.Generator:
        """Device reads `nbytes` of host memory; returns once all data arrived.

        A generator leg: run it inline with ``yield from``.
        """
        # Read request travels upstream first (control, unmetered)...
        if self.fault_plan is not None:
            yield from self._stall("d2h")
        yield self.d2h.transfer(_CONTROL_BYTES, priority=priority)
        # ...then completions stream back in chunks, each queueing on the
        # downstream direction.
        chunk = self.spec.pcie_read_chunk
        remaining = nbytes
        while remaining > 0:
            step = min(chunk, remaining)
            if self.fault_plan is not None:
                yield from self._stall("h2d")
            yield self.h2d.transfer(step, priority=priority, meter=self.h2d_meter, flow=flow)
            remaining -= step
        return nbytes

    def dma_write(
        self, nbytes: int, priority: int = 0, flow: str | None = None
    ) -> typing.Generator:
        """Device writes `nbytes` into host memory; returns once posted upstream.

        A generator leg: run it inline with ``yield from``.
        """
        if self.fault_plan is not None:
            yield from self._stall("d2h")
        yield self.d2h.transfer(max(nbytes, 1), priority=priority, meter=self.d2h_meter, flow=flow)
        return nbytes
