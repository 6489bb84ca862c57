"""Tests for the maintenance services (§2.2.3)."""

import pytest

from repro.middletier import (
    CpuOnlyMiddleTier,
    HeartbeatMonitor,
    LsmCompactionService,
    SnapshotService,
    Testbed,
)
from repro.sim import Simulator
from repro.storage import BlockDevice
from repro.units import msec, usec
from repro.workloads import ClientDriver, WriteRequestFactory


def build(sim, n_storage=4, n_workers=4):
    testbed = Testbed(sim, n_storage_servers=n_storage)
    tier = CpuOnlyMiddleTier(sim, testbed, n_workers=n_workers)
    factory = WriteRequestFactory(testbed.platform, seed=11)
    driver = ClientDriver(sim, tier, factory, concurrency=8)
    return testbed, tier, factory, driver


class TestLsmCompaction:
    def test_compaction_triggers_after_threshold(self):
        sim = Simulator()
        testbed, tier, factory, driver = build(sim)
        service = LsmCompactionService(sim, tier, threshold=16, scan_interval=usec(200))
        done = driver.run(64)  # all in chunk 0 (sequential LBAs)
        sim.run(until=done)
        sim.run(until=sim.now + msec(5))
        service.stop()
        assert service.compactions.value >= 1
        assert service.blocks_in.value >= 16
        # Sequential LBAs are all distinct: compaction keeps every block.
        assert service.blocks_out.value == service.blocks_in.value

    def test_compaction_deduplicates_overwrites(self):
        """Rewriting the same LBAs should compact many versions into one."""
        sim = Simulator()
        testbed, tier, factory, driver = build(sim)
        service = LsmCompactionService(sim, tier, threshold=20, scan_interval=usec(200))

        # Issue 20 writes to only 5 distinct blocks.
        def writer():
            tier.start()
            for i in range(20):
                yield from driver.request(factory.make(i % 5))

        sim.process(writer())
        sim.run(until=msec(20))
        service.stop()
        assert service.compactions.value == 1
        assert service.blocks_in.value == 20
        assert service.blocks_out.value == 5

    def test_gc_reclaims_superseded_space(self):
        sim = Simulator()
        testbed, tier, factory, driver = build(sim)
        service = LsmCompactionService(sim, tier, threshold=16, scan_interval=usec(200))
        done = driver.run(32)
        sim.run(until=done)
        sim.run(until=sim.now + msec(5))
        service.stop()
        assert service.bytes_reclaimed.value > 0
        # Live bytes on storage equal one live version per written block.
        total_live_blocks = sum(
            len(s.store.live_blocks(c))
            for s in testbed.storage_servers
            for c in s.store.chunk_ids()
        )
        assert total_live_blocks == 32 * 3  # 3 replicas each

    def test_compaction_survives_a_dead_replica_server(self):
        """A server holding compaction output dies; later compactions of
        the chunk time out their GC there instead of blocking for good."""
        sim = Simulator()
        testbed, tier, factory, driver = build(sim, n_storage=5)
        service = LsmCompactionService(sim, tier, threshold=16, scan_interval=usec(200))

        def batch():
            for lba in range(16):
                yield from driver.request(factory.make(lba))

        tier.start()
        sim.run(until=sim.process(batch()))
        sim.run(until=sim.now + msec(5))
        assert service.compactions.value == 1
        victim = service._previous_output[(0, 0)][0][0]
        testbed.server(victim).fail()
        for _ in range(2):
            sim.run(until=sim.process(batch()))
            sim.run(until=sim.now + msec(20))
        service.stop()
        assert service.compactions.value == 3
        assert not tier._chunk_log.get(0)
        for block_id in range(16):
            holders = tier._block_locations[(0, block_id)]
            assert victim not in holders and len(set(holders)) == 3

    def test_unplaceable_block_keeps_its_retained_writes(self):
        """With too few live servers to place a compacted block, the
        block's retained writes stay in the log in order and none of
        their locations is reclaimed; once servers return, it compacts."""
        sim = Simulator()
        testbed, tier, factory, driver = build(sim)
        service = LsmCompactionService(sim, tier, threshold=8, scan_interval=msec(5))
        gc_calls = []
        real_gc = service._gc

        def spy_gc(address, chunk_id, locations):
            gc_calls.append((address, chunk_id, tuple(locations)))
            return (yield from real_gc(address, chunk_id, locations))

        service._gc = spy_gc

        def writer():
            for i in range(8):
                yield from driver.request(factory.make(i % 4))

        tier.start()
        sim.run(until=sim.process(writer()))
        retained = list(tier._chunk_log[0])
        locations = dict(tier._block_locations)
        down = testbed.storage_servers[:2]
        for server in down:
            server.fail()
        sim.run(until=msec(12))  # two compaction passes, neither can place
        assert service.compactions.value == 2
        assert service.blocks_out.value == 0
        assert tier._chunk_log[0] == retained
        assert tier._block_locations == locations
        assert gc_calls == []
        for server in testbed.storage_servers:
            assert testbed.policy.outstanding(server) == 0

        for server in down:
            server.recover()
        sim.run(until=msec(17))
        service.stop()
        assert not tier._chunk_log.get(0)
        assert service.blocks_out.value == 4
        assert gc_calls
        for block_id in range(4):
            output = service._previous_output[(0, block_id)]
            assert tier._block_locations[(0, block_id)] == tuple(a for a, _ in output)

    def test_bad_threshold_rejected(self):
        sim = Simulator()
        testbed, tier, factory, driver = build(sim)
        with pytest.raises(ValueError):
            LsmCompactionService(sim, tier, threshold=1)


class TestSnapshots:
    def test_snapshots_taken_periodically(self):
        sim = Simulator()
        testbed, tier, factory, driver = build(sim)
        service = SnapshotService(sim, tier, interval=msec(1))
        done = driver.run(16)
        sim.run(until=done)
        sim.run(until=sim.now + msec(5))
        service.stop()
        assert service.snapshots_taken.value >= 4
        for server in testbed.storage_servers:
            assert service.snapshot_ids.get(server.address)

    def test_server_dying_mid_snapshot_does_not_stall_the_rounds(self):
        """A server that fails while it writes its snapshot manifest never
        answers; the round times out on it and the other servers go on."""
        sim = Simulator()
        testbed, tier, factory, driver = build(sim)
        victim = testbed.storage_servers[0]
        victim.device = BlockDevice(sim, name="slow.nvme", write_latency=msec(1))
        service = SnapshotService(sim, tier, interval=msec(1))

        def chaos():
            yield sim.timeout(msec(1.5))  # the first round waits on the victim
            victim.fail()

        sim.process(chaos())
        sim.run(until=msec(20))
        service.stop()
        assert victim.address not in service.snapshot_ids
        for server in testbed.storage_servers[1:]:
            assert len(service.snapshot_ids.get(server.address, ())) >= 2

    def test_snapshot_survives_compaction_gc(self):
        """A snapshot taken before compaction still sees the old blocks."""
        sim = Simulator()
        testbed, tier, factory, driver = build(sim)
        done = driver.run(16)
        sim.run(until=done)
        server = testbed.storage_servers[0]
        snap = server.store.snapshot()
        before = len(server.store.snapshot_blocks(snap))
        compaction = LsmCompactionService(sim, tier, threshold=2, scan_interval=usec(100))
        sim.run(until=sim.now + msec(10))
        compaction.stop()
        assert len(server.store.snapshot_blocks(snap)) == before


class TestHeartbeatFailover:
    def test_detects_failure_and_re_replicates(self):
        sim = Simulator()
        testbed, tier, factory, driver = build(sim, n_storage=5)
        tier.retain_writes = True
        monitor = HeartbeatMonitor(sim, tier, interval=msec(1), timeout=msec(1))
        done = driver.run(24)
        sim.run(until=done)

        victim = tier._chunk_log[0][0].replicas[0][0]
        testbed.server(victim).fail()
        sim.run(until=sim.now + msec(20))
        monitor.stop()

        assert victim in monitor.suspected
        assert monitor.failures_detected.value == 1
        assert monitor.blocks_re_replicated.value > 0
        # Every retained write names three healthy holders again.
        for entries in tier._chunk_log.values():
            for entry in entries:
                holders = [address for address, _ in entry.replicas]
                assert victim not in holders
                assert len(holders) == 3

    def test_re_replication_survives_writes_to_new_chunks(self):
        """Writes that open new chunks while re-replication walks the
        retained log must not break the walk."""
        sim = Simulator()
        testbed, tier, factory, driver = build(sim, n_storage=5)
        tier.retain_writes = True
        monitor = HeartbeatMonitor(sim, tier, interval=msec(1), timeout=msec(1))
        victim = testbed.storage_servers[0]

        def writer():
            tier.start()
            for i in range(400):
                yield from driver.request(factory.make(i * 16384))  # a new chunk each

        def chaos():
            yield sim.timeout(usec(300))
            victim.fail()

        sim.process(chaos())
        sim.run(until=sim.process(writer()))
        sim.run(until=sim.now + msec(10))
        monitor.stop()
        assert tier.requests_completed.value == 400
        assert monitor.failures_detected.value == 1
        assert monitor.blocks_re_replicated.value > 0
        assert len(tier._chunk_log) == 400
        for entries in tier._chunk_log.values():
            for entry in entries:
                holders = {address for address, _ in entry.replicas}
                assert victim.address not in holders and len(holders) == 3

    def test_re_replication_copies_only_the_newest_version(self):
        """A dead server that held an older version of a block does not
        get that version copied elsewhere: every live server's latest
        record of each block is unchanged or the newest version, and the
        read path's map names the newest version's holders."""
        sim = Simulator()
        testbed, tier, factory, driver = build(sim, n_storage=6)
        tier.retain_writes = True
        monitor = HeartbeatMonitor(sim, tier, interval=msec(1), timeout=msec(1))

        def writer(index):
            for i in range(10):
                yield from driver.request(factory.make((index + 3 * i) % 8))

        tier.start()
        sim.run(until=sim.all_of([sim.process(writer(index)) for index in range(6)]))
        entries = tier._chunk_log[0]
        newest = {entry.block_id: entry for entry in entries}
        victim = next(
            address
            for entry in entries
            for address, _ in entry.replicas
            if address not in dict(newest[entry.block_id].replicas)
        )
        live = [server for server in testbed.storage_servers if server.address != victim]
        before = {
            (server.address, block_id): server.store.latest(0, block_id)
            for server in live
            for block_id in newest
        }
        testbed.server(victim).fail()
        sim.run(until=sim.now + msec(20))
        monitor.stop()

        assert monitor.failures_detected.value == 1
        for block_id, entry in newest.items():
            holders = dict(entry.replicas)
            assert tier._block_locations[(0, block_id)] == tuple(holders)
            assert victim not in holders
            for server in live:
                record = server.store.latest(0, block_id)
                if record is not before[(server.address, block_id)]:
                    assert record.location == holders.get(server.address), (
                        block_id,
                        server.address,
                    )

    def test_healthy_cluster_no_false_positives(self):
        sim = Simulator()
        testbed, tier, factory, driver = build(sim)
        monitor = HeartbeatMonitor(sim, tier, interval=msec(1), timeout=msec(1))
        done = driver.run(16)
        sim.run(until=done)
        sim.run(until=sim.now + msec(10))
        monitor.stop()
        assert monitor.failures_detected.value == 0
        assert not monitor.suspected
