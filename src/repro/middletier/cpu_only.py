"""The traditional CPU-based middle tier (Fig. 1a).

Every message crosses PCIe into host DRAM; worker threads parse headers
and run LZ4 on general-purpose cores (2.1 Gb/s per lone thread,
2.7 Gb/s per SMT pair); compressed blocks cross PCIe again on their way
to the replica set. Flexibility is maximal — and so is the pressure on
cores, DRAM, and PCIe, which is exactly what Figs. 7-9 measure.
"""

from __future__ import annotations

import typing

from repro.hostmodel.cache import DdioLlc
from repro.hostmodel.cpu import CpuComplex
from repro.hostmodel.memory import MemorySubsystem
from repro.middletier.base import MiddleTierServer
from repro.middletier.cluster import Testbed
from repro.net.nic import HostNic

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.kernel import Simulator


class CpuOnlyMiddleTier(MiddleTierServer):
    """Compression on host cores; the paper's "CPU-only" baseline."""

    design_name = "CPU-only"
    #: control plane runs entirely in host software.
    flexible = True
    # The DMA ring is long evicted (§3.2): a worker core streams the
    # payload from DRAM and writes the result back for NIC egress.
    # Core time counts uncompressed bytes both ways.
    write_legs = (("memory.read", "in"), ("cores", "in"), ("memory.write", "out"))
    read_legs = (("memory.read", "in"), ("cores", "out"), ("memory.write", "out"))
    host_posts = True

    def __init__(
        self,
        sim: "Simulator",
        testbed: Testbed,
        n_workers: int,
        address: str = "tier0",
        ddio_enabled: bool = True,
        memory: MemorySubsystem | None = None,
    ) -> None:
        self._ddio_enabled = ddio_enabled
        self._shared_memory = memory
        self.cpu = CpuComplex(testbed.platform.host)
        self.cpu.validate_thread_count(n_workers)
        self.core_rates = [
            self.cpu.compression_profile(index, n_workers).rate for index in range(n_workers)
        ]
        super().__init__(sim, testbed, n_workers, address=address)

    def _build(self) -> None:
        host = self.platform.host
        self.memory = self._shared_memory or MemorySubsystem.for_host(
            self.sim, host, name=f"{self.address}.dram"
        )
        self.llc = DdioLlc(host, enabled=self._ddio_enabled)
        self.nic = HostNic(
            self.sim,
            self.address,
            self.memory,
            self.llc,
            host_spec=host,
            network_spec=self.platform.network,
            workload_spec=self.platform.workload,
        )
        self.client_endpoint = self.nic.endpoint
        self.storage_endpoint = self.nic.endpoint
