"""Memory subsystem model (host DRAM, SmartNIC DDR, FPGA HBM).

The paper shows (§3.1.2, Fig. 4) that network DMA and application memory
traffic contend on the same DRAM channels: injected MLC requests cut
achievable RDMA throughput to ~46 %. We model a memory subsystem as a
multi-lane FIFO :class:`~repro.sim.bandwidth.BandwidthServer` at its
achievable bandwidth; every DMA and every CPU payload access is a real
transfer on it, and interference emerges from queueing.

Large transfers are chunked so that a single multi-megabyte RDMA message
cannot monopolize the pipe — mirroring how real DRAM interleaves
transactions across banks/channels.

The same class models BlueField-2's weak device DDR (2 lanes,
~500 Gb/s) and the VCU128's HBM (16 lanes, 3.4 Tb/s); only the numbers
differ.
"""

from __future__ import annotations

import typing

from repro.params import HostSpec
from repro.sim.bandwidth import BandwidthServer
from repro.telemetry.metrics import BandwidthMeter
from repro.units import kib

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.kernel import Simulator


class MemorySubsystem:
    """Shared memory bandwidth with separate read/write accounting."""

    def __init__(
        self,
        sim: "Simulator",
        rate: float,
        lanes: int = 4,
        chunk: int = kib(64),
        name: str = "dram",
    ) -> None:
        if chunk < 1:
            raise ValueError(f"chunk size must be positive, got {chunk}")
        self.sim = sim
        self.name = name
        self.chunk = chunk
        self._bus = BandwidthServer(sim, rate=rate, name=f"{name}.bus", lanes=lanes)
        self._ledgers: list = []
        self.read_meter = BandwidthMeter(f"{name}.read")
        self.write_meter = BandwidthMeter(f"{name}.write")

    @classmethod
    def for_host(cls, sim: "Simulator", spec: HostSpec | None = None, name: str = "dram") -> "MemorySubsystem":
        """The host DRAM of the paper's Xeon server (~120 GB/s, 8 channels)."""
        spec = spec or HostSpec()
        return cls(
            sim,
            rate=spec.memory_rate,
            lanes=spec.memory_lanes,
            chunk=spec.memory_chunk,
            name=name,
        )

    @property
    def rate(self) -> float:
        """Achievable memory bandwidth in bytes/second."""
        return self._bus.rate

    @property
    def total_bytes(self) -> int:
        """All bytes moved (reads + writes)."""
        return self.read_meter.total_bytes + self.write_meter.total_bytes

    def attach_ledger(self, ledger: typing.Any) -> None:
        """Attach a byte-conservation ledger.

        Flow-tagged traffic is recorded under the directional points
        ``{name}.read`` / ``{name}.write`` (the meters' names), not the
        shared bus, so conservation checks can tell the directions apart.
        """
        self._ledgers.append(ledger)

    def read(self, nbytes: int, flow: str | None = None) -> typing.Generator:
        """Read `nbytes` (chunked); a generator leg, run it with ``yield from``."""
        return self._chunked(nbytes, self.read_meter, flow)

    def write(self, nbytes: int, flow: str | None = None) -> typing.Generator:
        """Write `nbytes` (chunked); a generator leg, run it with ``yield from``."""
        return self._chunked(nbytes, self.write_meter, flow)

    def _chunked(
        self, nbytes: int, meter: BandwidthMeter, flow: str | None = None
    ) -> typing.Generator:
        remaining = nbytes
        while remaining > 0:
            step = min(self.chunk, remaining)
            yield self._bus.transfer(step, meter=meter)
            if flow is not None:
                for ledger in self._ledgers:
                    ledger.record(meter.name, flow, step)
            remaining -= step
        return nbytes
