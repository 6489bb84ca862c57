"""Unit tests for the storage substrate."""

import itertools

import pytest

from repro.middletier import CpuOnlyMiddleTier, Testbed
from repro.net import Message, NetworkPort, Payload, RoceEndpoint
from repro.sim import Simulator
from repro.storage import BlockDevice, ChunkStore, ReplicationPolicy, StorageServer
from repro.units import gbps, usec


class TestBlockDevice:
    def test_write_latency(self):
        sim = Simulator()
        disk = BlockDevice(sim, write_latency=usec(20), bandwidth=1e9)
        done = []

        def body():
            yield from disk.write(0)
            done.append(sim.now)

        sim.process(body())
        sim.run()
        assert done[0] == pytest.approx(usec(20))

    def test_bandwidth_term(self):
        sim = Simulator()
        disk = BlockDevice(sim, write_latency=0.0, bandwidth=1000.0)

        def body():
            yield from disk.write(500)

        sim.process(body())
        sim.run()
        assert sim.now == pytest.approx(0.5)

    def test_queue_depth_limits_parallelism(self):
        sim = Simulator()
        disk = BlockDevice(sim, write_latency=1.0, bandwidth=1e12, queue_depth=2)
        done = []

        def body():
            yield from disk.write(1)
            done.append(sim.now)

        for _ in range(4):
            sim.process(body())
        sim.run()
        assert done == pytest.approx([1.0, 1.0, 2.0, 2.0], rel=1e-6)

    def test_counters_and_meters(self):
        sim = Simulator()
        disk = BlockDevice(sim)

        def body():
            yield from disk.write(100)
            yield from disk.read(200)

        sim.process(body())
        sim.run()
        assert disk.writes.value == 1 and disk.reads.value == 1
        assert disk.write_meter.total_bytes == 100
        assert disk.read_meter.total_bytes == 200


class CountingLog(list):
    """A chunk log that counts the records iterated out of it."""

    walked = 0

    def __iter__(self):
        for record in super().__iter__():
            self.walked += 1
            yield record

    def __reversed__(self):
        for record in super().__reversed__():
            self.walked += 1
            yield record


class CountingLocation(int):
    """A store location that counts how often it is hashed (looked up)."""

    hashed = 0

    def __hash__(self):
        CountingLocation.hashed += 1
        return int.__hash__(self)


class TestChunkStore:
    def test_append_and_read(self):
        store = ChunkStore()
        record = store.append(chunk_id=1, block_id=7, size=3, data=b"abc")
        assert store.read(record.location).data == b"abc"

    def test_latest_returns_newest_version(self):
        store = ChunkStore()
        store.append(1, 7, 4, b"old!")
        newer = store.append(1, 7, 4, b"new!")
        assert store.latest(1, 7).location == newer.location

    def test_latest_missing_returns_none(self):
        assert ChunkStore().latest(1, 99) is None

    def test_gc_reclaims_dead_entries(self):
        store = ChunkStore()
        record = store.append(1, 7, 100)
        store.append(1, 8, 50)
        store.mark_dead(record.location)
        assert store.gc(1) == 100
        assert store.bytes_reclaimed == 100
        with pytest.raises(KeyError):
            store.read(record.location)

    def test_gc_keeps_live_entries(self):
        store = ChunkStore()
        record = store.append(1, 7, 100)
        assert store.gc(1) == 0
        assert store.read(record.location).size == 100

    def test_snapshot_pins_entries_across_gc(self):
        store = ChunkStore()
        record = store.append(1, 7, 100, b"x" * 100)
        snap = store.snapshot()
        store.mark_dead(record.location)
        assert store.gc(1) == 0  # pinned by the snapshot
        blocks = store.snapshot_blocks(snap)
        assert [b.location for b in blocks] == [record.location]
        assert store.gc(1) == 0  # still pinned: snapshots are never released

    def test_live_bytes_tracks_state(self):
        store = ChunkStore()
        a = store.append(1, 1, 10)
        store.append(1, 2, 20)
        assert sum(record.size for record in store.live_blocks(1)) == 30
        store.mark_dead(a.location)
        assert sum(record.size for record in store.live_blocks(1)) == 20

    def test_latest_after_newest_version_dies(self):
        store = ChunkStore()
        older = store.append(1, 7, 4, b"old!")
        newer = store.append(1, 7, 4, b"new!")
        store.mark_dead(newer.location)
        assert store.latest(1, 7).location == older.location
        store.gc(1)
        assert store.latest(1, 7).location == older.location
        store.mark_dead(older.location)
        assert store.latest(1, 7) is None

    @pytest.mark.parametrize("position", [0.0, 0.5, 1.0])
    def test_latest_inspects_no_more_records_in_a_longer_log(self, position):
        # A read's cost must not grow with the chunk's log: the records
        # `latest` walks are counted at two log lengths and must agree.
        def inspected(n_blocks: int) -> int:
            store = ChunkStore()
            for block in range(n_blocks):
                store.append(0, block, 8)
            log = store._chunks[0] = CountingLog(store._chunks[0])
            target = min(int(n_blocks * position), n_blocks - 1)
            assert store.latest(0, target).block_id == target
            return log.walked

        assert inspected(256) == inspected(2048)

    def test_gc_and_snapshot_walks_ignore_other_snapshots_and_dead_entries(self):
        # Maintenance cost must follow the chunk being collected and the
        # live set being pinned: neither the number of snapshots nor the
        # dead entries they pin elsewhere may add lookups to a `gc` or a
        # `snapshot` call.
        def lookups(n_snapshots: int, n_dead: int) -> tuple[int, int]:
            store = ChunkStore()
            store._locations = map(CountingLocation, itertools.count(1))
            doomed = [store.append(1, block, 8) for block in range(n_dead)]
            for block in range(64):
                store.append(0, block, 8)
            for _ in range(n_snapshots):
                store.snapshot()
            for record in doomed:  # pinned: they stay until the snapshots go
                store.mark_dead(record.location)
            for record in [store.append(0, block, 8) for block in range(16)]:
                store.mark_dead(record.location)
            CountingLocation.hashed = 0
            assert store.gc(0) == 16 * 8
            gc_lookups = CountingLocation.hashed
            CountingLocation.hashed = 0
            store.snapshot()
            return gc_lookups, CountingLocation.hashed

        baseline = lookups(1, 256)
        assert lookups(16, 256) == baseline
        assert lookups(1, 2048) == baseline
        assert lookups(16, 2048) == baseline

    def test_unknown_location_rejected(self):
        store = ChunkStore()
        with pytest.raises(KeyError):
            store.mark_dead(123)
        with pytest.raises(KeyError):
            store.read(123)
        with pytest.raises(KeyError):
            store.snapshot_blocks(5)


class TestReplicationPolicy:
    """Placement through the tier's one chooser, ``MiddleTierServer._choose``,
    which ranks by the policy's ledger of outstanding writes."""

    def _servers(self, sim, n):
        return [StorageServer(sim, f"s{i}") for i in range(n)]

    def _tier(self, sim, n):
        return CpuOnlyMiddleTier(sim, Testbed(sim, servers=self._servers(sim, n)), n_workers=1)

    def test_chooses_distinct_servers(self):
        sim = Simulator()
        chosen = self._tier(sim, 5)._choose(3)
        assert len({s.address for s in chosen}) == 3

    def test_balances_outstanding_load(self):
        sim = Simulator()
        tier = self._tier(sim, 4)
        servers = tier.testbed.storage_servers
        first = tier._choose(3)
        second = tier._choose(3)
        # The one server skipped in round 1 must appear in round 2.
        skipped = set(s.address for s in servers) - set(s.address for s in first)
        assert skipped <= set(s.address for s in second)

    def test_least_loaded_outside_excluded_first(self):
        sim = Simulator()
        tier = self._tier(sim, 4)
        policy = tier.testbed.policy
        s0, s1, s2, s3 = tier.testbed.storage_servers
        for server in (s0, s1, s1):
            policy.claim(server)
        assert tier._choose(2) == [s2, s3]
        assert tier._choose(1, excluded={"s2", "s3"}) == [s0]
        assert policy.outstanding(s0) == 2

    def test_complete_releases_load(self):
        sim = Simulator()
        tier = self._tier(sim, 3)
        policy = tier.testbed.policy
        for server in tier._choose(3):
            policy.complete(server)
        assert all(policy.outstanding(s) == 0 for s in tier.testbed.storage_servers)

    def test_excludes_failed_servers(self):
        sim = Simulator()
        tier = self._tier(sim, 4)
        servers = tier.testbed.storage_servers
        servers[0].fail()
        chosen = tier._choose(3)
        assert servers[0].address not in {s.address for s in chosen}

    def test_too_few_healthy_servers_returns_none(self):
        sim = Simulator()
        tier = self._tier(sim, 3)
        servers = tier.testbed.storage_servers
        servers[0].fail()
        assert tier._choose(3) is None
        assert all(tier.testbed.policy.outstanding(server) == 0 for server in servers)

    def test_too_few_servers_rejected_at_build(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            ReplicationPolicy(self._servers(sim, 2), replication=3)


class TestStorageServer:
    def _connect(self, sim):
        server = StorageServer(sim, "stor0")
        port = NetworkPort(sim, rate=gbps(100), name="mt.port")
        mt = RoceEndpoint(sim, port, "mt")
        qp = server.accept_from(mt)
        return server, qp

    def test_write_then_ack(self):
        sim = Simulator()
        server, qp = self._connect(sim)
        acks = []

        def client():
            msg = Message(
                "storage_write",
                "mt",
                "stor0",
                payload=Payload.from_bytes(b"z" * 512),
                header={"chunk_id": 3, "block_id": 9},
            )
            yield qp.send(msg)
            ack = yield qp.recv()
            acks.append(ack)

        sim.process(client())
        sim.run()
        assert acks and acks[0].kind == "storage_ack"
        assert server.store.latest(3, 9).data == b"z" * 512
        assert server.writes_served.value == 1

    def test_read_returns_stored_bytes(self):
        sim = Simulator()
        server, qp = self._connect(sim)
        replies = []

        def client():
            write = Message(
                "storage_write",
                "mt",
                "stor0",
                payload=Payload.from_bytes(b"q" * 256),
                header={"chunk_id": 1, "block_id": 5},
            )
            yield qp.send(write)
            yield qp.recv()
            read = Message("storage_read", "mt", "stor0", header={"chunk_id": 1, "block_id": 5})
            yield qp.send(read)
            reply = yield qp.recv()
            replies.append(reply)

        sim.process(client())
        sim.run()
        assert replies[0].kind == "storage_read_reply"
        assert replies[0].payload.data == b"q" * 256

    def test_read_miss(self):
        sim = Simulator()
        server, qp = self._connect(sim)
        replies = []

        def client():
            read = Message("storage_read", "mt", "stor0", header={"chunk_id": 1, "block_id": 5})
            yield qp.send(read)
            replies.append((yield qp.recv()))

        sim.process(client())
        sim.run()
        assert replies[0].kind == "storage_read_miss"

    @pytest.mark.drain_audit_exempt  # the client waits forever, by design
    def test_failed_server_goes_silent(self):
        sim = Simulator()
        server, qp = self._connect(sim)
        server.fail()
        acks = []

        def client():
            msg = Message("storage_write", "mt", "stor0", payload=Payload.from_bytes(b"x" * 64))
            yield qp.send(msg)
            acks.append((yield qp.recv()))

        sim.process(client())
        sim.run(until=1.0)
        assert not acks

    def test_recovered_server_serves_again(self):
        sim = Simulator()
        server, qp = self._connect(sim)
        server.fail()
        server.recover()
        acks = []

        def client():
            msg = Message("storage_write", "mt", "stor0", payload=Payload.from_bytes(b"x" * 64))
            yield qp.send(msg)
            acks.append((yield qp.recv()))

        sim.process(client())
        sim.run(until=1.0)
        assert acks
