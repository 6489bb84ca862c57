"""The storage agent of a compute server.

One agent runs per compute server (§2.1). It is a
:class:`~repro.workloads.generators.RequestClient`: it owns the RoCE
endpoint towards the middle tier, maps each I/O's LBA to its segment, and
forwards the request to the middle-tier server responsible for that
segment — supporting clusters with many middle-tier servers, which is
how real deployments shard their 100k+ tier (§1).
"""

from __future__ import annotations

import typing

from repro.middletier.mapping import AddressMapper
from repro.net.message import Message, Payload
from repro.net.roce import QueuePair
from repro.params import PlatformSpec
from repro.telemetry.metrics import Counter
from repro.workloads.generators import RequestClient

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.middletier.base import MiddleTierServer
    from repro.sim.kernel import Simulator


class SegmentAllocator:
    """Cloud-global allocator of disjoint segment ranges for virtual disks.

    Every VD owns whole segments (§2.1: "There is a mapping of LBA to
    the segment address of the physical disks"), so two disks never
    collide in the middle tier's block namespace. Share one allocator
    across every storage agent of a simulated cloud.
    """

    def __init__(self, platform: PlatformSpec | None = None) -> None:
        self.platform = platform or PlatformSpec()
        mapper = AddressMapper(
            self.platform.storage, block_size=self.platform.workload.block_size
        )
        self._blocks_per_segment = mapper.blocks_per_chunk * mapper.chunks_per_segment
        self._next_segment = 0

    def allocate(self, capacity_blocks: int) -> int:
        """Reserve whole segments covering `capacity_blocks`; returns the
        base (cloud-global) LBA of the new range."""
        if capacity_blocks < 1:
            raise ValueError("capacity must be at least one block")
        segments = -(-capacity_blocks // self._blocks_per_segment)  # ceil
        base = self._next_segment * self._blocks_per_segment
        self._next_segment += segments
        return base


class StorageAgent(RequestClient):
    """Routes VM block I/O to the middle tier responsible for its segment."""

    def __init__(
        self,
        sim: "Simulator",
        platform: PlatformSpec | None = None,
        address: str = "compute0",
        allocator: SegmentAllocator | None = None,
    ) -> None:
        self.platform = platform or PlatformSpec()
        super().__init__(sim, self.platform.network, address)
        self.allocator = allocator or SegmentAllocator(self.platform)
        self.mapper = AddressMapper(
            self.platform.storage, block_size=self.platform.workload.block_size
        )
        self._tiers: list[tuple["MiddleTierServer", QueuePair]] = []
        self.requests_routed = Counter(f"{address}.routed")

    def attach_tier(self, tier: "MiddleTierServer", port_index: int = 0) -> None:
        """Register a middle-tier server; segments shard across tiers
        round-robin (segment id modulo tier count)."""
        self._tiers.append((tier, self._connect(tier, port_index)))
        tier.start()

    def tier_for(self, lba: int) -> tuple["MiddleTierServer", QueuePair]:
        """The middle tier responsible for this LBA's segment."""
        if not self._tiers:
            raise RuntimeError("no middle tier attached to this agent")
        segment = self.mapper.resolve(lba).segment_id
        return self._tiers[segment % len(self._tiers)]

    def submit_write(
        self, vm_id: str, lba: int, payload: Payload, latency_sensitive: bool = False
    ) -> typing.Any:
        """Issue one block write; returns a process firing with the reply."""
        return self._submit(vm_id, lba, payload, latency_sensitive, kind="write_request")

    def submit_read(self, vm_id: str, lba: int) -> typing.Any:
        """Issue one block read; returns a process firing with the reply."""
        return self._submit(vm_id, lba, None, False, kind="read_request")

    def _submit(
        self,
        vm_id: str,
        lba: int,
        payload: Payload | None,
        latency_sensitive: bool,
        kind: str,
    ) -> typing.Any:
        block_address = self.mapper.resolve(lba)
        tier, _qp = self.tier_for(lba)
        message = Message(
            kind=kind,
            src=self.address,
            dst=tier.address,
            header_size=self.platform.workload.header_size,
            payload=payload,
            header={
                "vm_id": vm_id,
                "service_type": "block-write" if payload else "block-read",
                "block_id": lba,
                "chunk_id": block_address.chunk_id,
                "segment_id": block_address.segment_id,
                "latency_sensitive": latency_sensitive,
            },
        )
        self.requests_routed.add()
        return self.sim.process(self.request(message))

    def _send(self, message: Message, root: typing.Any) -> typing.Generator:
        """Deliver `message` on the queue pair of its segment's tier."""
        _tier, qp = self.tier_for(message.header["block_id"])
        reply = yield from self._round_trip(qp, message, root)
        return reply, 1
