#!/usr/bin/env python
"""A small cloud, end to end (Fig. 2 of the paper).

Two compute servers host two VMs each; their storage agents shard
segments across two SmartDS-equipped middle-tier servers, which
replicate into the shared storage cluster. Guests write and read real
bytes through the full stack, and every block is checked on the way back.

Run:  python examples/full_cloud.py
"""

from repro.compression import SilesiaLikeCorpus
from repro.compute import StorageAgent, VirtualMachine
from repro.compute.agent import SegmentAllocator
from repro.core import SmartDsMiddleTier
from repro.middletier import Testbed
from repro.params import DEFAULT_PLATFORM
from repro.sim import Simulator
from repro.telemetry.reporting import format_table
from repro.units import to_usec


def main():
    sim = Simulator()

    # --- the middle tier: two SmartDS servers, segments sharded --------
    tiers = []
    for index in range(2):
        testbed = Testbed(sim, DEFAULT_PLATFORM)
        tiers.append(SmartDsMiddleTier(sim, testbed, address=f"tier{index}"))

    # --- two compute servers, two VMs each; one cloud-wide segment
    # allocator so every virtual disk owns disjoint segments ----------
    allocator = SegmentAllocator(DEFAULT_PLATFORM)
    agents = [
        StorageAgent(sim, address=f"compute{i}", allocator=allocator) for i in range(2)
    ]
    for agent in agents:
        for tier in tiers:
            agent.attach_tier(tier)
    vms = [
        VirtualMachine(sim, agents[i // 2], f"vm{i}") for i in range(4)
    ]
    blocks = SilesiaLikeCorpus(seed=31, file_size=8192).blocks(4096)
    segment_blocks = (
        agents[0].mapper.blocks_per_chunk * agents[0].mapper.chunks_per_segment
    )
    results = {}

    def guest(vm_index):
        vm = vms[vm_index]
        disk = vm.create_disk(capacity_blocks=2 * segment_blocks)
        wrote = []
        # Interleave two segments so both tiers serve this guest.
        for i in range(8):
            lba = i if i % 2 == 0 else segment_blocks + i
            data = blocks[(vm_index * 8 + i) % len(blocks)]
            yield disk.write(lba, data)
            wrote.append((lba, data))
        for lba, data in wrote:
            read_back = yield disk.read(lba)
            assert read_back == data, f"{vm.vm_id} corrupted block at LBA {lba}"
        results[vm.vm_id] = disk

    for index in range(4):
        sim.process(guest(index))
    sim.run()

    rows = []
    for vm_id, disk in sorted(results.items()):
        rows.append(
            [
                vm_id,
                disk.writes.value,
                disk.reads.value,
                round(to_usec(disk.write_latency.mean()), 1),
                round(to_usec(disk.read_latency.mean()), 1),
            ]
        )
    print(
        format_table(
            ["VM", "writes", "reads", "write avg (us)", "read avg (us)"],
            rows,
            title="Four guests, two compute servers, two SmartDS middle tiers",
        )
    )
    per_tier = [tier.requests_completed.value for tier in tiers]
    print(f"\nrequests per middle tier (segment sharding): {per_tier}")
    print("every block verified bit-for-bit after a full write/read cycle")


if __name__ == "__main__":
    main()
