"""The accelerator-enhanced middle tier (Fig. 1b).

The host CPU still sees every message, but compression is offloaded to
a PCIe FPGA (Alveo U280-like) whose engine consumes ~100 Gb/s. The
payload therefore crosses PCIe *twice more* than in the CPU-only design
(host->FPGA and FPGA->host), which is the design's Achilles heel
(§3.2): computation pressure is gone, interconnect pressure doubles,
and memory pressure stays.

With DDIO enabled (the paper's "Acc w/ DDIO"), the FPGA reads payloads
that are still resident in the DDIO LLC ways and the NIC reads the
results the same way, so DRAM sees almost no read traffic — but the
write-allocations still spill, so write bandwidth keeps growing with
load (Fig. 8a).
"""

from __future__ import annotations

import typing

from repro.compression.model import FPGA_ENGINE, CompressorProfile
from repro.hostmodel.cache import DdioLlc
from repro.hostmodel.memory import MemorySubsystem
from repro.hostmodel.pcie import PcieLink
from repro.middletier.base import MiddleTierServer
from repro.middletier.cluster import Testbed
from repro.net.nic import HostNic
from repro.sim.resources import Resource
from repro.units import mib

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.kernel import Simulator

#: In-flight window between NIC write and FPGA read: small enough to sit
#: in the DDIO ways when the pipeline keeps up.
_PIPELINE_WINDOW = mib(1)


class AcceleratorMiddleTier(MiddleTierServer):
    """Host control plane + PCIe FPGA compression; the paper's "Acc"."""

    design_name = "Acc"
    flexible = True
    # The worker posts the engine descriptor and moves on; the payload
    # round-trips through the FPGA over its own PCIe link, and the CPU
    # polls the completion and posts the storage sends.
    write_legs = (
        ("_ddio_read", "in"),
        ("fpga_pcie.dma_read", "in"),
        ("engine", "in"),
        ("fpga_pcie.dma_write", "out"),
        ("_ddio_write", "out"),
    )
    # Reads decompress on the same engine round trip, and the block lands
    # back in host memory as a write's output does.
    read_legs = write_legs
    handoff_posts = 1
    offload = True
    host_posts = True

    def __init__(
        self,
        sim: "Simulator",
        testbed: Testbed,
        n_workers: int,
        address: str = "tier0",
        ddio_enabled: bool = True,
        engine_profile: CompressorProfile = FPGA_ENGINE,
        memory: MemorySubsystem | None = None,
    ) -> None:
        self._ddio_enabled = ddio_enabled
        self._engine_profile = engine_profile
        self._shared_memory = memory
        super().__init__(sim, testbed, n_workers, address=address)

    def _build(self) -> None:
        host = self.platform.host
        self.memory = self._shared_memory or MemorySubsystem.for_host(
            self.sim, host, name=f"{self.address}.dram"
        )
        self.llc = DdioLlc(host, enabled=self._ddio_enabled)
        # With DDIO the egress NIC reads results the FPGA just wrote (hit);
        # without it every device read goes to DRAM.
        read_ws = _PIPELINE_WINDOW if self._ddio_enabled else (
            self.platform.workload.intermediate_buffer_bytes
        )
        self.nic = HostNic(
            self.sim,
            self.address,
            self.memory,
            self.llc,
            host_spec=host,
            network_spec=self.platform.network,
            workload_spec=self.platform.workload,
            read_working_set=read_ws,
        )
        # The accelerator is a second PCIe device with its own x16 link.
        self.fpga_pcie = PcieLink(self.sim, host, name=f"{self.address}.fpga-pcie")
        self.engine = Resource(self.sim, capacity=1, name=f"{self.address}.engine")
        self._fpga_read_ws = read_ws
        self.client_endpoint = self.nic.endpoint
        self.storage_endpoint = self.nic.endpoint

    def _ddio_read(self, nbytes: int) -> typing.Generator:
        """The FPGA reads `nbytes` of host memory: DRAM serves what the
        DDIO ways no longer hold."""
        traffic = self.llc.dma_read(nbytes, self._fpga_read_ws)
        if traffic.dram_read:
            yield from self.memory.read(traffic.dram_read)

    def _ddio_write(self, nbytes: int) -> typing.Generator:
        """The FPGA writes `nbytes` back into the intermediate buffer."""
        traffic = self.llc.dma_write(nbytes, self.platform.workload.intermediate_buffer_bytes)
        if traffic.dram_write:
            yield from self.memory.write(traffic.dram_write)
