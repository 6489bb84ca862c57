"""Tests for the compute side: storage agents, VMs, virtual disks."""

import pytest

from repro.compute import StorageAgent, VirtualMachine
from repro.compute.vm import BlockIoError
from repro.core import SmartDsMiddleTier
from repro.middletier import CpuOnlyMiddleTier, Testbed
from repro.sim import Simulator


def build_stack(sim, tier_cls=CpuOnlyMiddleTier, n_tiers=1, **tier_kwargs):
    agent = StorageAgent(sim)
    tiers = []
    for index in range(n_tiers):
        testbed = Testbed(sim)
        kwargs = dict(tier_kwargs) or {"n_workers": 4}
        tier = tier_cls(sim, testbed, address=f"tier{index}", **kwargs)
        agent.attach_tier(tier)
        tiers.append((tier, testbed))
    return agent, tiers


class TestVirtualDisk:
    def test_write_then_read_roundtrip(self):
        sim = Simulator()
        agent, tiers = build_stack(sim, n_workers=4)
        vm = VirtualMachine(sim, agent, "vm0")
        disk = vm.create_disk(capacity_blocks=64)
        data = bytes(range(256)) * 16  # exactly 4096 bytes
        results = {}

        def guest():
            yield disk.write(3, data)
            results["read"] = yield disk.read(3)

        sim.process(guest())
        sim.run()
        assert results["read"] == data
        assert disk.writes.value == 1 and disk.reads.value == 1
        assert disk.write_latency.count == 1 and disk.read_latency.count == 1

    def test_write_on_smartds_tier(self):
        sim = Simulator()
        agent, tiers = build_stack(sim, tier_cls=SmartDsMiddleTier, n_ports=1)
        vm = VirtualMachine(sim, agent, "vm0")
        disk = vm.create_disk(capacity_blocks=16)
        data = b"smartds block 00" * 256
        results = {}

        def guest():
            yield disk.write(0, data)
            results["read"] = yield disk.read(0)

        sim.process(guest())
        sim.run()
        assert results["read"] == data

    def test_overwrite_returns_latest(self):
        sim = Simulator()
        agent, tiers = build_stack(sim, n_workers=4)
        vm = VirtualMachine(sim, agent, "vm0")
        disk = vm.create_disk(capacity_blocks=8)
        first = b"a" * 4096
        second = b"b" * 4096
        results = {}

        def guest():
            yield disk.write(1, first)
            yield disk.write(1, second)
            results["read"] = yield disk.read(1)

        sim.process(guest())
        sim.run()
        assert results["read"] == second

    def test_read_of_never_written_block_fails(self):
        sim = Simulator()
        agent, tiers = build_stack(sim, n_workers=2)
        vm = VirtualMachine(sim, agent, "vm0")
        disk = vm.create_disk(capacity_blocks=8)
        failures = []

        def guest():
            try:
                yield disk.read(5)
            except BlockIoError as exc:
                failures.append(str(exc))

        sim.process(guest())
        sim.run()
        assert failures

    def test_validation(self):
        sim = Simulator()
        agent, tiers = build_stack(sim, n_workers=2)
        vm = VirtualMachine(sim, agent, "vm0")
        disk = vm.create_disk(capacity_blocks=4)
        with pytest.raises(ValueError):
            disk.write(9, b"x" * 4096)  # LBA out of range
        with pytest.raises(ValueError):
            disk.write(0, b"short")  # not a full block
        with pytest.raises(ValueError):
            vm.create_disk(capacity_blocks=0)


class TestStorageAgentRouting:
    def test_segments_shard_across_tiers(self):
        sim = Simulator()
        agent, tiers = build_stack(sim, n_tiers=2, n_workers=2)
        mapper = agent.mapper
        blocks_per_segment = mapper.blocks_per_chunk * mapper.chunks_per_segment
        tier_a, _ = agent.tier_for(0)
        tier_b, _ = agent.tier_for(blocks_per_segment)  # next segment
        assert tier_a is not tier_b

    def test_cross_segment_writes_land_on_their_tier(self):
        sim = Simulator()
        agent, tiers = build_stack(sim, n_tiers=2, n_workers=2)
        vm = VirtualMachine(sim, agent, "vm0")
        mapper = agent.mapper
        blocks_per_segment = mapper.blocks_per_chunk * mapper.chunks_per_segment
        disk = vm.create_disk(capacity_blocks=blocks_per_segment + 8)
        data = b"z" * 4096

        def guest():
            yield disk.write(0, data)  # segment 0 -> tier0
            yield disk.write(blocks_per_segment, data)  # segment 1 -> tier1

        sim.process(guest())
        sim.run()
        assert tiers[0][0].requests_completed.value == 1
        assert tiers[1][0].requests_completed.value == 1
        assert agent.requests_routed.value == 2

    def test_agent_without_tiers_rejects(self):
        sim = Simulator()
        agent = StorageAgent(sim)
        with pytest.raises(RuntimeError):
            agent.tier_for(0)


class TestSegmentAllocation:
    def test_disks_get_disjoint_segment_ranges(self):
        from repro.compute import SegmentAllocator

        sim = Simulator()
        agent, tiers = build_stack(sim, n_workers=2)
        vm_a = VirtualMachine(sim, agent, "vmA")
        vm_b = VirtualMachine(sim, agent, "vmB")
        disk_a = vm_a.create_disk(capacity_blocks=64)
        disk_b = vm_b.create_disk(capacity_blocks=64)
        assert disk_a.base_lba != disk_b.base_lba

    def test_two_vms_same_guest_lba_dont_collide(self):
        sim = Simulator()
        agent, tiers = build_stack(sim, n_workers=4)
        vm_a = VirtualMachine(sim, agent, "vmA")
        vm_b = VirtualMachine(sim, agent, "vmB")
        disk_a = vm_a.create_disk(capacity_blocks=8)
        disk_b = vm_b.create_disk(capacity_blocks=8)
        data_a = b"A" * 4096
        data_b = b"B" * 4096
        results = {}

        def guests():
            yield disk_a.write(0, data_a)
            yield disk_b.write(0, data_b)
            results["a"] = yield disk_a.read(0)
            results["b"] = yield disk_b.read(0)

        sim.process(guests())
        sim.run()
        assert results["a"] == data_a
        assert results["b"] == data_b

    def test_shared_allocator_across_agents(self):
        from repro.compute import SegmentAllocator
        from repro.params import DEFAULT_PLATFORM

        allocator = SegmentAllocator(DEFAULT_PLATFORM)
        sim = Simulator()
        agent_a = StorageAgent(sim, address="c0", allocator=allocator)
        agent_b = StorageAgent(sim, address="c1", allocator=allocator)
        testbed = Testbed(sim)
        tier = CpuOnlyMiddleTier(sim, testbed, n_workers=2)
        agent_a.attach_tier(tier)
        agent_b.attach_tier(tier)
        disk_a = VirtualMachine(sim, agent_a, "vmA").create_disk(8)
        disk_b = VirtualMachine(sim, agent_b, "vmB").create_disk(8)
        assert disk_a.base_lba != disk_b.base_lba

    def test_allocation_is_segment_aligned(self):
        from repro.compute import SegmentAllocator
        from repro.params import DEFAULT_PLATFORM

        allocator = SegmentAllocator(DEFAULT_PLATFORM)
        per_segment = allocator._blocks_per_segment
        first = allocator.allocate(1)
        second = allocator.allocate(per_segment + 1)  # spans 2 segments
        third = allocator.allocate(1)
        assert first == 0
        assert second == per_segment
        assert third == 3 * per_segment

    def test_invalid_capacity(self):
        from repro.compute import SegmentAllocator

        with pytest.raises(ValueError):
            SegmentAllocator().allocate(0)
