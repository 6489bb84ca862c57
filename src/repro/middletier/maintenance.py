"""Middle-tier maintenance services (§2.2.3).

Besides real-time I/O serving, every middle-tier server runs:

- **LSM compaction** — served writes are retained in memory; once a
  chunk accumulates a threshold of writes, they are compacted (latest
  version per block wins) and the result re-persisted;
- **garbage collection** — the pre-compaction blocks' disk space on the
  storage servers is reclaimed;
- **snapshots** — periodic point-in-time pins of the chunk stores;
- **fail-over monitoring** — heartbeats detect dead storage servers and
  re-replicate the retained blocks they held.

These services consume host memory bandwidth and CPU alongside the
real-time path — the interference §5.3 measures performance isolation
against.
"""

from __future__ import annotations

import typing

from repro.middletier.admission import address_token, jitter_unit
from repro.middletier.base import MiddleTierServer, RetainedWrite
from repro.net.message import Message
from repro.sim.events import AnyOf
from repro.telemetry.metrics import Counter
from repro.units import gBps, msec

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.kernel import Simulator
    from repro.storage.server import StorageServer


def probe_delay(
    seed: int, interval: float, jitter: float, address: str, count: int
) -> float:
    """Delay before re-probe `count` of suspected server `address`.

    A pure function of its arguments — two tiers with different seeds
    de-synchronize their probes of the same recovering server (no probe
    storm), while a replay under the same ``REPRO_FAULT_SEED`` gets the
    identical schedule. The draw spreads the delay over
    ``interval * [1 - jitter, 1 + jitter]``.
    """
    unit = jitter_unit(seed, address_token(address), count)
    return interval * (1.0 - jitter + 2.0 * jitter * unit)


class LsmCompactionService:
    """Compacts retained writes chunk by chunk and reclaims disk space."""

    def __init__(
        self,
        sim: "Simulator",
        tier: MiddleTierServer,
        threshold: int = 16,
        scan_interval: float = msec(1),
        merge_rate: float = gBps(10),
    ) -> None:
        if threshold < 2:
            raise ValueError(f"compaction threshold must be >= 2, got {threshold}")
        self.sim = sim
        self.tier = tier
        self.threshold = threshold
        self.scan_interval = scan_interval
        self.merge_rate = merge_rate
        self.compactions = Counter("compactions")
        self.blocks_in = Counter("compaction-blocks-in")
        self.blocks_out = Counter("compaction-blocks-out")
        self.bytes_reclaimed = Counter("compaction-bytes-reclaimed")
        #: where the previous compaction of each block landed, so a later
        #: compaction of the same chunk can GC the superseded output too.
        self._previous_output: dict[tuple[int, int], tuple[tuple[str, int], ...]] = {}
        tier.retain_writes = True
        self._running = True
        sim.process(self._loop(), name="lsm-compaction", daemon=True)

    def stop(self) -> None:
        """Stop scanning after the current pass."""
        self._running = False

    def _loop(self) -> typing.Generator:
        while self._running:
            yield self.sim.timeout(self.scan_interval)
            ripe = [
                chunk_id
                for chunk_id, entries in self.tier._chunk_log.items()
                if len(entries) >= self.threshold
            ]
            for chunk_id in ripe:
                yield from self._compact(chunk_id)

    def _compact(self, chunk_id: int) -> typing.Generator:
        entries = self.tier._chunk_log.pop(chunk_id, [])
        if not entries:
            return
        # Bulkhead: compaction is the background tenant — it is paced
        # down whenever the foreground path is under pressure.
        if self.tier.admission is not None:
            yield from self.tier.admission.bulkhead.acquire()
        self.compactions.add()
        self.blocks_in.add(len(entries))
        total_bytes = sum(entry.payload.size for entry in entries)
        # Read the retained blocks out of middle-tier memory and merge —
        # this is the background memory/CPU pressure of §5.3.
        memory = getattr(self.tier, "memory", None)
        if memory is not None:
            yield from memory.read(total_bytes)
        yield self.sim.timeout(total_bytes / self.merge_rate)

        # Latest version per block wins.
        latest: dict[int, RetainedWrite] = {}
        for entry in entries:
            latest[entry.block_id] = entry
        self.blocks_out.add(len(latest))

        # Re-persist the survivors concurrently (compactors batch their
        # output); they become the chunk's new log.
        new_records: dict[int, tuple[tuple[str, int], ...]] = {}
        batch = []
        for block_id, entry in latest.items():
            synthetic = Message(
                kind="write_request",
                src=self.tier.address,
                dst=self.tier.address,
                header_size=self.tier.platform.workload.header_size,
                header={"chunk_id": chunk_id, "block_id": block_id, "compacted": True},
            )
            servers = self.tier.testbed.policy.choose()
            targets = {server.address for server in servers}
            writes = [
                self.sim.process(
                    self.tier._write_replica(server, synthetic, entry.payload, exclude=targets)
                )
                for server in servers
            ]
            batch.append((block_id, writes))
        for block_id, writes in batch:
            results = yield self.sim.all_of(writes)
            new_records[block_id] = tuple(results[write] for write in writes)
            self.tier._block_locations[(chunk_id, block_id)] = tuple(
                address for address, _ in new_records[block_id]
            )

        # ...and GC every superseded location on its server: the raw
        # retained writes, plus the previous compaction's output for any
        # block that was just rewritten.
        dead_by_server: dict[str, list[int]] = {}
        for entry in entries:
            for address, location in entry.replicas:
                if location >= 0:
                    dead_by_server.setdefault(address, []).append(location)
        for block_id in latest:
            for address, location in self._previous_output.pop((chunk_id, block_id), ()):
                if location >= 0:
                    dead_by_server.setdefault(address, []).append(location)
        for block_id, records in new_records.items():
            self._previous_output[(chunk_id, block_id)] = records
        for address, locations in dead_by_server.items():
            server = self.tier.testbed.server(address)
            reclaimed = yield from self._gc(server, chunk_id, locations)
            self.bytes_reclaimed.add(reclaimed)

    def _gc(
        self, server: "StorageServer", chunk_id: int, locations: list[int]
    ) -> typing.Generator:
        qp, matcher = self.tier._storage_links[server.address]
        message = Message(
            kind="storage_gc",
            src=self.tier.address,
            dst=server.address,
            header={"chunk_id": chunk_id, "dead_locations": tuple(locations)},
        )
        ack_event = matcher.expect(message.request_id)
        yield from qp.transmit(message)
        ack: Message = yield ack_event
        return ack.header.get("reclaimed", 0)


class SnapshotService:
    """Periodic point-in-time snapshots of every storage server."""

    def __init__(
        self, sim: "Simulator", tier: MiddleTierServer, interval: float = msec(50)
    ) -> None:
        self.sim = sim
        self.tier = tier
        self.interval = interval
        self.snapshots_taken = Counter("snapshots")
        self.snapshot_ids: dict[str, list[int]] = {}
        self._running = True
        sim.process(self._loop(), name="snapshot-service", daemon=True)

    def stop(self) -> None:
        """Stop after the current round."""
        self._running = False

    def _loop(self) -> typing.Generator:
        while self._running:
            yield self.sim.timeout(self.interval)
            # Bulkhead: snapshot rounds wait out foreground pressure.
            if self.tier.admission is not None:
                yield from self.tier.admission.bulkhead.acquire()
            for server in self.tier.testbed.storage_servers:
                if server.failed:
                    continue
                qp, matcher = self.tier._storage_links[server.address]
                message = Message(
                    kind="storage_snapshot", src=self.tier.address, dst=server.address
                )
                ack_event = matcher.expect(message.request_id)
                yield from qp.transmit(message)
                ack: Message = yield ack_event
                self.snapshot_ids.setdefault(server.address, []).append(
                    ack.header["snapshot_id"]
                )
                self.snapshots_taken.add()


class HeartbeatMonitor:
    """Detects dead storage servers and re-replicates what they held.

    The monitor registers itself as the tier's health oracle
    (``tier.health``): replica selection on both the write fail-over
    path and the read fail-over rotation consults :meth:`is_healthy`
    to skip suspected servers. Suspected servers keep being re-probed
    on a *seeded-jitter* schedule (see :func:`probe_delay`) so monitors
    on different tiers don't hammer a recovering server in lockstep; a
    server that comes back (e.g. a transient partition) is un-suspected
    and returns to the selection pool.
    """

    def __init__(
        self,
        sim: "Simulator",
        tier: MiddleTierServer,
        interval: float = msec(1),
        timeout: float = msec(2),
        seed: int = 0,
        probe_jitter: float = 0.35,
    ) -> None:
        if not 0.0 <= probe_jitter < 1.0:
            raise ValueError(f"probe_jitter must be in [0, 1), got {probe_jitter}")
        self.sim = sim
        self.tier = tier
        self.interval = interval
        self.timeout = timeout
        self.seed = seed
        self.probe_jitter = probe_jitter
        self.suspected: set[str] = set()
        self.failures_detected = Counter("failures-detected")
        self.recoveries_detected = Counter("recoveries-detected")
        self.blocks_re_replicated = Counter("blocks-re-replicated")
        #: per suspected server: re-probes issued so far / next due time.
        self._probe_counts: dict[str, int] = {}
        self._next_probe: dict[str, float] = {}
        self._running = True
        tier.health = self
        sim.process(self._loop(), name="heartbeat-monitor", daemon=True)

    def stop(self) -> None:
        """Stop after the current round."""
        self._running = False

    def is_healthy(self, address: str) -> bool:
        """Whether `address` is currently believed alive."""
        return address not in self.suspected

    def _loop(self) -> typing.Generator:
        while self._running:
            yield self.sim.timeout(self.interval)
            for server in self.tier.testbed.storage_servers:
                address = server.address
                if address in self.suspected:
                    # Suspected servers are re-probed on their own
                    # jittered schedule, not every healthy-ping round —
                    # de-synchronized across monitors by seed.
                    if self.sim.now < self._next_probe.get(address, 0.0):
                        continue
                    alive = yield from self._ping(server)
                    if alive:
                        # The server came back: return it to the pool.
                        self.suspected.discard(address)
                        self._probe_counts.pop(address, None)
                        self._next_probe.pop(address, None)
                        self.recoveries_detected.add()
                    else:
                        count = self._probe_counts.get(address, 0) + 1
                        self._probe_counts[address] = count
                        self._next_probe[address] = self.sim.now + probe_delay(
                            self.seed, self.interval, self.probe_jitter, address, count
                        )
                    continue
                alive = yield from self._ping(server)
                if not alive:
                    self.suspected.add(address)
                    self.failures_detected.add()
                    self._probe_counts[address] = 0
                    self._next_probe[address] = self.sim.now + probe_delay(
                        self.seed, self.interval, self.probe_jitter, address, 0
                    )
                    yield from self._re_replicate(server.address)

    def _ping(self, server: "StorageServer") -> typing.Generator:
        qp, matcher = self.tier._storage_links[server.address]
        message = Message(kind="storage_ping", src=self.tier.address, dst=server.address)
        pong_event = matcher.expect(message.request_id)
        yield from qp.transmit(message)
        deadline = self.sim.timeout(self.timeout)
        yield AnyOf(self.sim, [pong_event, deadline])
        deadline.cancel()
        if pong_event.triggered:
            return True
        matcher.forget(message.request_id)
        return False

    def _re_replicate(self, failed_address: str) -> typing.Generator:
        """Restore replication of retained blocks the dead server held."""
        for chunk_id, entries in self.tier._chunk_log.items():
            for entry in entries:
                holders = [address for address, _ in entry.replicas]
                if failed_address not in holders:
                    continue
                replacement = self._pick_replacement(exclude=set(holders))
                if replacement is None:
                    continue
                synthetic = Message(
                    kind="write_request",
                    src=self.tier.address,
                    dst=self.tier.address,
                    header_size=self.tier.platform.workload.header_size,
                    header={"chunk_id": chunk_id, "block_id": entry.block_id},
                )
                self.tier.testbed.policy.claim(replacement)
                result = yield self.sim.process(
                    self.tier._write_replica(
                        replacement, synthetic, entry.payload, exclude=set(holders)
                    )
                )
                entry.replicas = tuple(
                    r for r in entry.replicas if r[0] != failed_address
                ) + (result,)
                self.tier._block_locations[(chunk_id, entry.block_id)] = tuple(
                    address for address, _ in entry.replicas
                )
                self.blocks_re_replicated.add()

    def _pick_replacement(self, exclude: set[str]) -> "StorageServer | None":
        candidates = [
            server
            for server in self.tier.testbed.storage_servers
            if server.address not in exclude
            and server.address not in self.suspected
            and not server.failed
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda s: self.tier.testbed.policy.outstanding(s))
