"""The storage agent of a compute server.

One agent runs per compute server (§2.1). It owns the RoCE endpoint
towards the middle tier, maps each I/O's LBA to its segment, and
forwards the request to the middle-tier server responsible for that
segment — supporting clusters with many middle-tier servers, which is
how real deployments shard their 100k+ tier (§1).
"""

from __future__ import annotations

import typing

from repro.middletier.mapping import AddressMapper
from repro.net.link import NetworkPort
from repro.net.message import Message, Payload
from repro.net.roce import QueuePair, RoceEndpoint
from repro.params import PlatformSpec
from repro.sim.events import Event
from repro.telemetry.metrics import Counter

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


class StorageAgent:
    """Routes VM block I/O to the middle tier responsible for its segment."""

    def __init__(
        self,
        sim: "Simulator",
        platform: PlatformSpec | None = None,
        address: str = "compute0",
        allocator: SegmentAllocator | None = None,
    ) -> None:
        self.sim = sim
        self.platform = platform or PlatformSpec()
        self.address = address
        self.allocator = allocator or SegmentAllocator(self.platform)
        self.mapper = AddressMapper(
            self.platform.storage, block_size=self.platform.workload.block_size
        )
        port = NetworkPort(
            sim, rate=self.platform.network.port_rate, name=f"{address}.port"
        )
        self.endpoint = RoceEndpoint(sim, port, address, spec=self.platform.network)
        self._tiers: list[tuple["MiddleTierServer", QueuePair]] = []
        self._reply_events: dict[int, Event] = {}
        self.requests_routed = Counter(f"{address}.routed")
        self._reply_loops_started: set[int] = set()

    def attach_tier(self, tier: "MiddleTierServer", port_index: int = 0) -> None:
        """Register a middle-tier server; segments shard across tiers
        round-robin (segment id modulo tier count)."""
        qp = tier.attach_client(self.endpoint, port_index=port_index)
        tier.start()
        self._tiers.append((tier, qp))
        if id(qp) not in self._reply_loops_started:
            self._reply_loops_started.add(id(qp))
            self.sim.process(self._reply_loop(qp), name=f"{self.address}.replies", daemon=True)

    def tier_for(self, lba: int) -> tuple["MiddleTierServer", QueuePair]:
        """The middle tier responsible for this LBA's segment."""
        if not self._tiers:
            raise RuntimeError("no middle tier attached to this agent")
        segment = self.mapper.resolve(lba).segment_id
        return self._tiers[segment % len(self._tiers)]

    def _reply_loop(self, qp: QueuePair) -> typing.Generator:
        while True:
            message: Message = yield qp.recv()
            event = self._reply_events.pop(message.header.get("in_reply_to"), None)
            if event is not None:
                event.succeed(message)

    def submit_write(
        self, vm_id: str, lba: int, payload: Payload, latency_sensitive: bool = False
    ) -> typing.Any:
        """Issue one block write; returns a process firing with the reply."""
        return self.sim.process(
            self._submit(vm_id, lba, payload, latency_sensitive, kind="write_request")
        )

    def submit_read(self, vm_id: str, lba: int) -> typing.Any:
        """Issue one block read; returns a process firing with the reply."""
        return self.sim.process(self._submit(vm_id, lba, None, False, kind="read_request"))

    def _submit(
        self,
        vm_id: str,
        lba: int,
        payload: Payload | None,
        latency_sensitive: bool,
        kind: str,
    ) -> typing.Generator:
        block_address = self.mapper.resolve(lba)
        tier, qp = self.tier_for(lba)
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
        reply_event = self.sim.event(name=f"reply:{message.request_id}")
        self._reply_events[message.request_id] = reply_event
        self.requests_routed.add()
        yield from qp.transmit(message)
        reply = yield reply_event
        return reply
