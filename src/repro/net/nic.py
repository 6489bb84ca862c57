"""A conventional host NIC (ConnectX-5-like) with its DMA datapath.

Every message a CPU-based middle tier receives crosses PCIe into host
memory, and every message it sends crosses back (Fig. 1a). The
:class:`HostDmaDatapath` charges those costs on the shared
:class:`~repro.hostmodel.pcie.PcieLink` and
:class:`~repro.hostmodel.memory.MemorySubsystem`, consulting the
:class:`~repro.hostmodel.cache.DdioLlc` to decide whether DRAM is
touched.

Two working-set parameters steer the DDIO decision independently:

- `write_working_set` — the DMA ring the NIC writes into. The middle
  tier's ~400 MB intermediate buffer (§3.2) never fits: arriving data
  spills to DRAM.
- `read_working_set` — how far back the NIC (or another device) reads
  data that was recently produced. A tight accelerator pipeline reads
  lines still resident in the DDIO ways (the paper's "Acc w/ DDIO"
  behaviour); a CPU-only tier reads long-evicted buffers.
"""

from __future__ import annotations

import typing

from repro.hostmodel.cache import DdioLlc
from repro.hostmodel.memory import MemorySubsystem
from repro.hostmodel.pcie import PcieLink
from repro.net.link import NetworkPort
from repro.net.message import Message
from repro.net.roce import Datapath, QueuePair, RoceEndpoint
from repro.sim.resources import Resource
from repro.params import HostSpec, NetworkSpec, WorkloadSpec

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.kernel import Simulator


class HostDmaDatapath(Datapath):
    """NIC <-> host-memory DMA costs for a conventional NIC.

    The NIC's DMA engine has a bounded number of in-flight transactions
    (`dma_slots`). When host memory is congested, each transaction holds
    its slot longer, the pipeline drains, and the NIC stalls — the
    mechanism behind both Fig. 4's RDMA collapse and Fig. 9's
    degradation of the host-memory-based designs.
    """

    def __init__(
        self,
        pcie: PcieLink,
        memory: MemorySubsystem,
        llc: DdioLlc,
        write_working_set: int,
        read_working_set: int,
        dma_slots: int = 32,
    ) -> None:
        self.pcie = pcie
        self.memory = memory
        self.llc = llc
        self.write_working_set = write_working_set
        self.read_working_set = read_working_set
        self._dma = Resource(pcie.sim, capacity=dma_slots, name="nic.dma")

    def ingress(self, message: Message, qp: QueuePair) -> typing.Generator:
        """NIC DMA-writes the arriving message into the host buffer."""
        slot = self._dma.request()
        yield slot
        try:
            yield from self.pcie.dma_write(message.size)
            traffic = self.llc.dma_write(message.size, self.write_working_set)
            if traffic.dram_write:
                yield from self.memory.write(traffic.dram_write)
        finally:
            self._dma.release(slot)
        return False

    def egress(self, message: Message, qp: QueuePair) -> typing.Generator:
        """NIC DMA-reads the departing message from the host buffer."""
        slot = self._dma.request()
        yield slot
        try:
            traffic = self.llc.dma_read(message.size, self.read_working_set)
            if traffic.dram_read:
                yield from self.memory.read(traffic.dram_read)
            yield from self.pcie.dma_read(message.size)
        finally:
            self._dma.release(slot)
        return None


class HostNic:
    """One conventional NIC plugged into a host: port + endpoint + datapath."""

    def __init__(
        self,
        sim: "Simulator",
        address: str,
        memory: MemorySubsystem,
        llc: DdioLlc,
        host_spec: HostSpec | None = None,
        network_spec: NetworkSpec | None = None,
        workload_spec: WorkloadSpec | None = None,
        pcie: PcieLink | None = None,
        write_working_set: int | None = None,
        read_working_set: int | None = None,
    ) -> None:
        host_spec = host_spec or HostSpec()
        network_spec = network_spec or NetworkSpec()
        workload_spec = workload_spec or WorkloadSpec()
        buffer_bytes = workload_spec.intermediate_buffer_bytes
        self.sim = sim
        self.port = NetworkPort(sim, rate=network_spec.port_rate, name=f"{address}.port")
        self.pcie = pcie or PcieLink(sim, host_spec, name=f"{address}.pcie")
        self.datapath = HostDmaDatapath(
            self.pcie,
            memory,
            llc,
            write_working_set=buffer_bytes if write_working_set is None else write_working_set,
            read_working_set=buffer_bytes if read_working_set is None else read_working_set,
        )
        self.endpoint = RoceEndpoint(
            sim, self.port, address, datapath=self.datapath, spec=network_spec
        )
