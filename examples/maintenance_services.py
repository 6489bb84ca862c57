#!/usr/bin/env python
"""Maintenance services: LSM compaction, GC, snapshots, fail-over (§2.2.3).

A CPU-only middle tier serves writes (with deliberate block overwrites)
while the three background services run:

1. LSM compaction folds the retained writes of a chunk (latest version
   wins) and re-persists them;
2. garbage collection reclaims the superseded blocks' disk space on the
   storage servers;
3. a snapshot taken before compaction still sees the old versions;
4. a storage server is killed mid-run — the heartbeat monitor detects
   it and re-replicates every block it held.

Run:  python examples/maintenance_services.py
"""

from repro.middletier import (
    CpuOnlyMiddleTier,
    HeartbeatMonitor,
    LsmCompactionService,
    SnapshotService,
    Testbed,
)
from repro.sim import Simulator
from repro.units import msec, usec
from repro.workloads import ClientDriver, WriteRequestFactory


def main():
    sim = Simulator()
    testbed = Testbed(sim, n_storage_servers=5)
    tier = CpuOnlyMiddleTier(sim, testbed, n_workers=8)
    factory = WriteRequestFactory(testbed.platform, seed=42)
    driver = ClientDriver(sim, tier, factory, concurrency=8)

    compaction = LsmCompactionService(sim, tier, threshold=24, scan_interval=usec(500))
    snapshots = SnapshotService(sim, tier, interval=msec(2))
    monitor = HeartbeatMonitor(sim, tier, interval=msec(1), timeout=msec(1))

    # Phase 1: 60 writes, where every 3rd write overwrites block 0-19.
    def rewriting_client():
        tier.start()
        for i in range(60):
            message = factory.make()
            message.header["block_id"] = i % 20
            message.header["chunk_id"] = 0
            event = sim.event()
            driver._reply_events[message.request_id] = event
            yield from driver.qp.transmit(message)
            yield event

    sim.process(rewriting_client())
    sim.run(until=msec(15))
    print("phase 1 - writes served:", tier.requests_completed.value)
    print(
        f"  compactions: {compaction.compactions.value}"
        f"  ({compaction.blocks_in.value} blocks in -> {compaction.blocks_out.value} out)"
    )
    print(f"  bytes reclaimed by GC: {compaction.bytes_reclaimed.value}")
    print(f"  snapshots taken: {snapshots.snapshots_taken.value}")

    live = {
        server.address: sum(
            len(server.store.live_blocks(chunk)) for chunk in server.store.chunk_ids()
        )
        for server in testbed.storage_servers
    }
    print("  live blocks per storage server:", live)

    # Phase 2: a few more writes stay retained (below the compaction
    # threshold); then kill one of the servers holding them.
    compaction.stop()

    def trailing_writes():
        for i in range(15):
            message = factory.make()
            message.header["block_id"] = 100 + i
            message.header["chunk_id"] = 0
            event = sim.event()
            driver._reply_events[message.request_id] = event
            yield from driver.qp.transmit(message)
            yield event

    done = sim.process(trailing_writes())
    sim.run(until=done)
    victim = tier._chunk_log[0][0].replicas[0][0]
    print(f"\nphase 2 - killing {victim} ...")
    testbed.server(victim).fail()
    sim.run(until=sim.now + msec(30))
    print(f"  heartbeat detected failures: {monitor.failures_detected.value}")
    print(f"  blocks re-replicated: {monitor.blocks_re_replicated.value}")

    under_replicated = 0
    for entries in tier._chunk_log.values():
        for entry in entries:
            holders = {address for address, _ in entry.replicas}
            if victim in holders or len(holders) < 3:
                under_replicated += 1
    print(f"  retained writes still under-replicated: {under_replicated}")

    compaction.stop()
    snapshots.stop()
    monitor.stop()
    assert under_replicated == 0, "fail-over left data under-replicated!"
    print("\nall retained writes are back on three healthy replicas")


if __name__ == "__main__":
    main()
