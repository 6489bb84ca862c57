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
from repro.net.message import Message, Payload, compress_payload
from repro.net.nic import HostNic
from repro.net.roce import QueuePair
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

    def _handle_write(
        self, worker_index: int, qp: QueuePair, message: Message
    ) -> typing.Generator:
        host = self.platform.host
        if message.payload is None:
            raise ValueError("write_request without payload")
        yield self.sim.timeout(host.parse_header_time)
        # Post the engine descriptor and move on; a completion context
        # finishes the request so the worker never blocks on the FPGA.
        yield self.sim.timeout(host.post_descriptor_time)
        self.sim.process(self._compress_and_complete(qp, message))

    def _compress_and_complete(self, qp: QueuePair, message: Message) -> typing.Generator:
        host = self.platform.host
        payload = message.payload
        if message.header.get("latency_sensitive") or not self._compression_allowed():
            outgoing = payload
        else:
            outgoing = yield self.sim.process(self._engine_compress(payload))
        # The CPU polls the completion and posts the storage sends.
        posts = self.platform.storage.replication + 1
        yield self.sim.timeout(host.post_descriptor_time * posts)
        self._spawn_completion(qp, message, outgoing)

    def _engine_compress(self, payload: Payload) -> typing.Generator:
        """Round-trip the payload through the FPGA over its own PCIe link."""
        traffic = self.llc.dma_read(payload.size, self._fpga_read_ws)
        if traffic.dram_read:
            yield from self.memory.read(traffic.dram_read)
        yield from self.fpga_pcie.dma_read(payload.size)
        yield from self._engine_pass(self.engine, self._engine_profile, payload.size)
        outgoing = compress_payload(payload)
        yield from self.fpga_pcie.dma_write(outgoing.size)
        traffic = self.llc.dma_write(
            outgoing.size, self.platform.workload.intermediate_buffer_bytes
        )
        if traffic.dram_write:
            yield from self.memory.write(traffic.dram_write)
        return outgoing

    def _decompress_cost(self, worker_index: int, payload: Payload) -> typing.Generator:
        """Reads decompress on the engine too (same PCIe round trip)."""
        traffic = self.llc.dma_read(payload.size, self._fpga_read_ws)
        if traffic.dram_read:
            yield from self.memory.read(traffic.dram_read)
        yield from self.fpga_pcie.dma_read(payload.size)
        yield from self._engine_pass(self.engine, self._engine_profile, payload.size)
        original = payload.original_size or payload.size
        yield from self.fpga_pcie.dma_write(original)
