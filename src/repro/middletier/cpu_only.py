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
from repro.net.message import Message, Payload, compress_payload
from repro.net.nic import HostNic
from repro.net.roce import QueuePair

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.kernel import Simulator

#: CPU LZ4 decompression runs >7x faster than compression (§2.2.3, [49]).
_DECOMPRESSION_SPEEDUP = 7.0


class CpuOnlyMiddleTier(MiddleTierServer):
    """Compression on host cores; the paper's "CPU-only" baseline."""

    design_name = "CPU-only"
    #: control plane runs entirely in host software.
    flexible = True

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

    def _handle_write(
        self, worker_index: int, qp: QueuePair, message: Message
    ) -> typing.Generator:
        host = self.platform.host
        payload = message.payload
        if payload is None:
            raise ValueError("write_request without payload")
        yield self.sim.timeout(host.parse_header_time)
        if self._forward_raw(message):
            outgoing = payload  # forwarded raw (Listing 1 / brownout rung 3)
        else:
            profile = self.cpu.compression_profile(worker_index, self.n_workers)
            # The DMA ring is long evicted (§3.2): compression streams the
            # payload from DRAM and writes the result back for NIC egress.
            yield from self.memory.read(payload.size)
            yield self.sim.timeout(profile.time_for(payload.size))
            outgoing = compress_payload(payload)
            yield from self.memory.write(outgoing.size)
        posts = self.platform.storage.replication + 1  # replicas + VM ack
        yield self.sim.timeout(host.post_descriptor_time * posts)
        self._spawn_completion(qp, message, outgoing)

    def _decompress_cost(self, worker_index: int, payload: Payload) -> typing.Generator:
        profile = self.cpu.compression_profile(worker_index, self.n_workers)
        original = payload.original_size or payload.size
        yield from self.memory.read(payload.size)
        yield self.sim.timeout(original / (profile.rate * _DECOMPRESSION_SPEEDUP))
        yield from self.memory.write(original)
