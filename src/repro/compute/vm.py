"""Virtual machines and their virtualised disks.

A :class:`VirtualDisk` gives guest code the paper's block abstraction
(§2.1): persistent 4 KB blocks addressed by LBA, backed by the
disaggregated store behind the compute server's
:class:`~repro.compute.agent.StorageAgent`. Writes return when the
middle tier acknowledges durability on all replicas; reads return the
exact bytes written.
"""

from __future__ import annotations

import typing

from repro.compute.agent import StorageAgent
from repro.net.message import Payload
from repro.telemetry.metrics import Counter, LatencyRecorder

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.kernel import Simulator


class BlockIoError(RuntimeError):
    """Raised when the storage stack reports a failed block operation."""


class VirtualDisk:
    """One VD: a block device striped over its own (whole) segments.

    Guest LBAs are disk-relative; the disk owns a cloud-globally unique
    segment range (allocated at creation), so distinct disks never
    collide in the middle tier's block namespace.
    """

    def __init__(self, vm: "VirtualMachine", capacity_blocks: int) -> None:
        if capacity_blocks < 1:
            raise ValueError("a virtual disk needs at least one block")
        self.vm = vm
        self.capacity_blocks = capacity_blocks
        self.base_lba = vm.agent.allocator.allocate(capacity_blocks)
        self.writes = Counter(f"{vm.vm_id}.vd.writes")
        self.reads = Counter(f"{vm.vm_id}.vd.reads")
        self.write_latency = LatencyRecorder(f"{vm.vm_id}.vd.write-latency")
        self.read_latency = LatencyRecorder(f"{vm.vm_id}.vd.read-latency")

    @property
    def block_size(self) -> int:
        """Bytes per block (the paper's 4 KB)."""
        return self.vm.agent.platform.workload.block_size

    def _check_lba(self, lba: int) -> None:
        if not 0 <= lba < self.capacity_blocks:
            raise ValueError(f"LBA {lba} outside 0..{self.capacity_blocks - 1}")

    def write(self, lba: int, data: bytes, latency_sensitive: bool = False) -> typing.Any:
        """Process: durably write one block; fires when replicated."""
        self._check_lba(lba)
        if len(data) != self.block_size:
            raise ValueError(f"block writes must be {self.block_size} B, got {len(data)}")
        return self.vm.sim.process(self._write(lba, data, latency_sensitive))

    def read(self, lba: int) -> typing.Any:
        """Process: read one block back; fires with its bytes."""
        self._check_lba(lba)
        return self.vm.sim.process(self._read(lba))

    def _write(self, lba: int, data: bytes, latency_sensitive: bool) -> typing.Generator:
        start = self.vm.sim.now
        reply = yield self.vm.agent.submit_write(
            self.vm.vm_id, self.base_lba + lba, Payload.from_bytes(data), latency_sensitive
        )
        if reply.header.get("status") != "ok":
            raise BlockIoError(f"write of LBA {lba} failed: {reply.header}")
        self.writes.add()
        self.write_latency.record(self.vm.sim.now - start)
        return reply

    def _read(self, lba: int) -> typing.Generator:
        start = self.vm.sim.now
        reply = yield self.vm.agent.submit_read(self.vm.vm_id, self.base_lba + lba)
        if reply.header.get("status") != "ok":
            raise BlockIoError(f"read of LBA {lba} failed: {reply.header}")
        self.reads.add()
        self.read_latency.record(self.vm.sim.now - start)
        if reply.payload is None:
            raise BlockIoError(f"read of LBA {lba} returned no payload")
        return reply.payload.data if reply.payload.data is not None else reply.payload

    def __repr__(self) -> str:
        return f"<VirtualDisk {self.vm.vm_id} {self.capacity_blocks} blocks>"


class VirtualMachine:
    """A guest with one or more virtual disks behind a storage agent."""

    def __init__(self, sim: "Simulator", agent: StorageAgent, vm_id: str) -> None:
        self.sim = sim
        self.agent = agent
        self.vm_id = vm_id
        self.disks: list[VirtualDisk] = []

    def create_disk(self, capacity_blocks: int) -> VirtualDisk:
        """Provision a new virtual disk on the disaggregated store."""
        disk = VirtualDisk(self, capacity_blocks)
        self.disks.append(disk)
        return disk
