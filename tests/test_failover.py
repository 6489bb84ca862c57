"""End-to-end failure recovery: retry policies, read fail-over, and
graceful degradation under device-memory pressure.

The chaos-flavoured tests honour ``REPRO_FAULT_SEED`` so CI can replay
them across a small matrix of fault seeds; every schedule here is
deterministic given that seed (see ``docs/robustness.md``).
"""

import math
import os
import random

import pytest

from repro.cache import HotBlockCache
from repro.core import SmartDsMiddleTier
from repro.core.device import DeviceMemoryAllocator
from repro.middletier import (
    AcceleratorMiddleTier,
    BlueField2MiddleTier,
    CpuOnlyMiddleTier,
    HeartbeatMonitor,
    NaiveFpgaMiddleTier,
    ResponseMatcher,
    RetryPolicy,
    Testbed,
)
from repro.middletier.soc_smartnic import BlueField3MiddleTier
from repro.net import Message, NetworkPort, RoceEndpoint
from repro.net.message import Payload
from repro.params import CacheSpec, NetworkSpec, RecoverySpec
from repro.sim import Simulator
from repro.telemetry.spans import SpanCollector
from repro.units import gbps, kib, msec, usec
from repro.workloads import ClientDriver, WriteRequestFactory

FAULT_SEED = int(os.environ.get("REPRO_FAULT_SEED", "11"))


class TestRetryPolicy:
    def test_attempt_one_never_waits(self):
        assert RetryPolicy().backoff_before(1, token=123) == 0.0

    def test_backoff_grows_exponentially_to_the_cap(self):
        policy = RetryPolicy(
            backoff_base=usec(50), backoff_multiplier=2.0, backoff_cap=usec(300), jitter=0.0
        )
        assert policy.backoff_before(2) == pytest.approx(usec(50))
        assert policy.backoff_before(3) == pytest.approx(usec(100))
        assert policy.backoff_before(4) == pytest.approx(usec(200))
        assert policy.backoff_before(5) == pytest.approx(usec(300))
        assert policy.backoff_before(9) == pytest.approx(usec(300))

    def test_jitter_is_deterministic_per_seed_token_attempt(self):
        policy = RetryPolicy(seed=7)
        a = policy.backoff_before(3, token=42)
        assert a == policy.backoff_before(3, token=42)
        assert a != policy.backoff_before(3, token=43)
        assert a != policy.backoff_before(4, token=42)
        assert a != RetryPolicy(seed=8).backoff_before(3, token=42)

    def test_jitter_stays_within_the_band(self):
        policy = RetryPolicy(backoff_base=usec(100), backoff_cap=usec(100), jitter=0.25)
        for token in range(50):
            value = policy.backoff_before(2, token=token)
            assert usec(75) <= value <= usec(125)

    def test_timeout_clipped_by_deadline(self):
        policy = RetryPolicy(attempt_timeout=usec(80), deadline=usec(100))
        assert policy.timeout_for(1) == pytest.approx(usec(80))
        assert policy.timeout_for(2, elapsed=usec(50)) == pytest.approx(usec(50))
        assert policy.deadline_expired(usec(100))
        assert not policy.deadline_expired(usec(99))

    def test_attempt_budget(self):
        policy = RetryPolicy(max_attempts=3)
        assert not policy.attempts_exhausted(2)
        assert policy.attempts_exhausted(3)

    def test_factories_split_deadline_semantics(self):
        spec = RecoverySpec()
        writes = RetryPolicy.for_writes(spec)
        reads = RetryPolicy.for_reads(spec)
        assert math.isinf(writes.deadline)  # durability beats latency
        assert reads.deadline == spec.read_deadline

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(attempt_timeout=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.0)
        with pytest.raises(ValueError):
            RecoverySpec(hbm_high_watermark=0.5, hbm_low_watermark=0.9)


class TestRetryDeadlineEdges:
    """Deadline-exhaustion corners of the retry machinery."""

    def test_timeout_for_is_zero_once_the_deadline_is_spent(self):
        policy = RetryPolicy(attempt_timeout=usec(80), deadline=usec(100))
        assert policy.remaining(usec(150)) == 0.0
        assert policy.timeout_for(3, elapsed=usec(150)) == 0.0
        assert policy.timeout_for(3, elapsed=usec(100)) == 0.0

    def test_remaining_is_unbounded_for_write_policies(self):
        writes = RetryPolicy.for_writes(RecoverySpec())
        assert math.isinf(writes.remaining(msec(500)))
        assert not writes.deadline_expired(msec(500))

    def test_near_zero_read_budget_degrades_after_one_attempt(self):
        """A read whose deadline is consumed by its very first attempt
        must spend exactly that attempt and then answer "unavailable" —
        no second probe, no backoff spin, no silence."""
        sim = Simulator()
        testbed = Testbed(sim, n_storage_servers=5)
        tier = CpuOnlyMiddleTier(sim, testbed, n_workers=2)
        driver, locations = _write_then_locate(sim, tier, testbed)
        tier.read_retry = RetryPolicy(
            attempt_timeout=msec(1), deadline=usec(1), max_attempts=4, jitter=0.0
        )
        testbed.server(locations[0]).fail()

        start = sim.now
        result = sim.run(until=driver.run_reads([0], concurrency=1))
        assert result.requests == 1
        assert result.payload_bytes == 0
        assert tier.reads_unavailable.value == 1
        assert tier.read_failovers.value == 1  # the single expired attempt
        assert sim.now - start <= msec(1)
        sim.run()

    def test_all_breakers_open_bounds_an_unbounded_write_deadline(self):
        """Write retries have deadline=inf (durability beats latency);
        the circuit breakers must still bound the loop when every server
        is doomed, releasing every replication claim on the way out."""
        from repro.experiments.ext_overload import overload_platform

        sim = Simulator()
        testbed = Testbed(sim, overload_platform(), n_storage_servers=5)
        tier = CpuOnlyMiddleTier(sim, testbed, n_workers=2)
        admission = tier.admission
        assert admission is not None
        for server in testbed.storage_servers:
            for _ in range(admission.spec.breaker_threshold):
                admission.record_server_failure(server.address)
            assert not admission.breaker_for(server.address).allow()
        message = WriteRequestFactory(testbed.platform, seed=FAULT_SEED).make()
        first = testbed.storage_servers[0]
        testbed.policy.claim(first)
        errors = []

        def attempt():
            try:
                yield from tier._write_replica(first, message, message.payload)
            except RuntimeError as err:
                errors.append(str(err))

        sim.run(until=sim.process(attempt()))
        assert len(errors) == 1  # bounded, despite deadline=inf
        assert "no healthy storage server" in errors[0] or "short-circuited" in errors[0]
        assert admission.short_circuits.value == len(testbed.storage_servers)
        for server in testbed.storage_servers:
            assert testbed.policy.outstanding(server) == 0, server.address
        sim.run()


def _linked_pair(sim):
    spec = NetworkSpec()
    a = RoceEndpoint(sim, NetworkPort(sim, gbps(100), "a.port"), "a", spec=spec)
    b = RoceEndpoint(sim, NetworkPort(sim, gbps(100), "b.port"), "b", spec=spec)
    return a.connect(b)


def _reply(request_id):
    return Message("storage_write_reply", "b", "a", header={"in_reply_to": request_id})


class TestResponseMatcher:
    def test_unmatched_ring_stays_bounded(self):
        sim = Simulator()
        qp = _linked_pair(sim)
        matcher = ResponseMatcher(sim, qp)
        n = ResponseMatcher.UNMATCHED_LIMIT + 36

        def flood():
            for i in range(n):
                yield qp.peer.send(_reply(10_000 + i))

        sim.process(flood())
        sim.run()
        assert matcher.unexpected_replies.value == n
        assert len(matcher.unmatched) == ResponseMatcher.UNMATCHED_LIMIT
        # The ring keeps the newest replies and dropped the oldest.
        assert matcher.unmatched[-1].header["in_reply_to"] == 10_000 + n - 1
        assert matcher.unmatched[0].header["in_reply_to"] == 10_036

    def test_forgotten_reply_counts_as_late_not_unexpected(self):
        sim = Simulator()
        qp = _linked_pair(sim)
        matcher = ResponseMatcher(sim, qp)
        event = matcher.expect(7)
        matcher.forget(7)

        def late():
            yield qp.peer.send(_reply(7))

        sim.process(late())
        sim.run()
        assert matcher.late_replies.value == 1
        assert matcher.unexpected_replies.value == 0
        assert len(matcher.unmatched) == 0
        assert not event.triggered

    def test_forget_without_expect_is_a_noop(self):
        sim = Simulator()
        qp = _linked_pair(sim)
        matcher = ResponseMatcher(sim, qp)
        matcher.forget(99)  # never expected: must not whitelist id 99

        def send():
            yield qp.peer.send(_reply(99))

        sim.process(send())
        sim.run()
        assert matcher.late_replies.value == 0
        assert matcher.unexpected_replies.value == 1

    def test_double_expect_rejected(self):
        sim = Simulator()
        qp = _linked_pair(sim)
        matcher = ResponseMatcher(sim, qp)
        matcher.expect(1)
        with pytest.raises(ValueError):
            matcher.expect(1)


def _write_then_locate(sim, tier, testbed, n_writes=8, concurrency=4, seed=1):
    """Run a short write phase; return (driver, replica addresses of LBA 0)."""
    driver = ClientDriver(
        sim,
        tier,
        WriteRequestFactory(testbed.platform, seed=seed),
        concurrency=concurrency,
        warmup_fraction=0.0,
    )
    sim.run(until=driver.run(n_writes))
    return driver, tier._block_locations[(0, 0)]


#: Every design the base class's read loop serves.
READ_TIERS = [
    lambda sim, testbed: CpuOnlyMiddleTier(sim, testbed, n_workers=2),
    lambda sim, testbed: AcceleratorMiddleTier(sim, testbed, n_workers=2),
    lambda sim, testbed: BlueField2MiddleTier(sim, testbed, n_workers=2),
    lambda sim, testbed: NaiveFpgaMiddleTier(sim, testbed, n_workers=1),
    lambda sim, testbed: BlueField3MiddleTier(sim, testbed),
    lambda sim, testbed: SmartDsMiddleTier(sim, testbed, n_ports=1),
]
READ_TIER_IDS = ["cpu-only", "acc", "bf2", "fpga-only", "bf3", "smartds"]


def _read_trace(collector):
    """(root span, every span) of the one traced read request."""
    read_ids = [
        tid for tid in collector.trace_ids
        if collector.root(tid) is not None and collector.root(tid).name == "read_request"
    ]
    assert len(read_ids) == 1
    return collector.root(read_ids[0]), collector.trace(read_ids[0])


class TestReadFailover:
    @pytest.mark.parametrize("tier_factory", READ_TIERS, ids=READ_TIER_IDS)
    def test_read_survives_primary_replica_failure(self, tier_factory):
        sim = Simulator()
        testbed = Testbed(sim, n_storage_servers=5)
        tier = tier_factory(sim, testbed)
        driver, locations = _write_then_locate(sim, tier, testbed)
        testbed.server(locations[0]).fail()  # the replica attempt 1 targets

        result = sim.run(until=driver.run_reads([0], concurrency=1))
        assert result.requests == 1
        assert result.payload_bytes == testbed.platform.workload.block_size
        assert tier.read_failovers.value >= 1
        assert tier.reads_unavailable.value == 0
        sim.run()  # full drain: the conftest audit proves nothing stranded

    @pytest.mark.parametrize("tier_factory", READ_TIERS, ids=READ_TIER_IDS)
    def test_read_with_all_replicas_down_degrades_to_unavailable(self, tier_factory):
        sim = Simulator()
        testbed = Testbed(sim, n_storage_servers=5)
        tier = tier_factory(sim, testbed)
        driver, locations = _write_then_locate(sim, tier, testbed)
        for address in locations:
            testbed.server(address).fail()

        start = sim.now
        result = sim.run(until=driver.run_reads([0], concurrency=1))
        assert result.requests == 1  # the VM got an answer, not silence
        assert result.payload_bytes == 0
        assert tier.reads_unavailable.value == 1
        assert sim.now - start <= tier.read_retry.deadline + msec(1)
        sim.run()  # no stranded _fetch_and_reply process may survive this

    @pytest.mark.parametrize("tier_factory", READ_TIERS, ids=READ_TIER_IDS)
    def test_read_of_a_record_gone_from_every_replica_is_not_found(self, tier_factory):
        """The tier still knows the block's locations, but every
        replica's record was garbage-collected: a storage miss, answered
        ``not_found`` and marked on the root span on every design."""
        sim = Simulator()
        collector = SpanCollector(sim)
        testbed = Testbed(sim, n_storage_servers=5)
        tier = tier_factory(sim, testbed)
        driver, locations = _write_then_locate(sim, tier, testbed)
        for address in locations:
            store = testbed.server(address).store
            while (record := store.latest(0, 0)) is not None:
                store.mark_dead(record.location)
            store.gc(0)

        result = sim.run(until=driver.run_reads([0], concurrency=1))
        sim.run()
        assert result.failures == ((0, "not_found"),)
        assert result.payload_bytes == 0
        assert tier.reads_unavailable.value == 0
        root, spans = _read_trace(collector)
        assert root.outcome == "failed"
        assert [s.outcome for s in spans if s.name == "read.not_found"] == ["failed"]

    @pytest.mark.parametrize("tier_factory", READ_TIERS, ids=READ_TIER_IDS)
    def test_retried_attempt_span_records_the_timeout_it_waited(self, tier_factory):
        """With the deadline clipping the later attempts, each retried
        span's ``timeout`` is the budget its time-out actually ran for:
        its duration, less the fetch's time on the wire."""
        sim = Simulator()
        collector = SpanCollector(sim)
        testbed = Testbed(sim, n_storage_servers=5)
        tier = tier_factory(sim, testbed)
        driver, locations = _write_then_locate(sim, tier, testbed)
        tier.read_retry = RetryPolicy(
            attempt_timeout=msec(1), deadline=msec(2.5), max_attempts=4, jitter=0.0
        )
        for address in locations:
            testbed.server(address).fail()

        sim.run(until=driver.run_reads([0], concurrency=1))
        sim.run()
        _root, spans = _read_trace(collector)
        attempts = [s for s in spans if s.name == "read.attempt"]
        assert len(attempts) == 3  # the deadline, not the budget, ended the read
        assert all(s.outcome == "retried" for s in attempts)
        assert attempts[-1].attrs["timeout"] < msec(1)  # clipped by the deadline
        for span in attempts:
            send_time = span.duration - span.attrs["timeout"]
            assert 0.0 <= send_time < usec(10), (span.attrs, span.duration)

    def test_suspected_replicas_short_circuit_to_unavailable(self):
        sim = Simulator()
        testbed = Testbed(sim, n_storage_servers=5)
        tier = CpuOnlyMiddleTier(sim, testbed, n_workers=2)
        monitor = HeartbeatMonitor(sim, tier, interval=msec(1), timeout=msec(1))
        driver, locations = _write_then_locate(sim, tier, testbed)
        for address in locations:
            testbed.server(address).fail()
        sim.run(until=sim.now + msec(5))  # heartbeats suspect all three
        assert all(address in monitor.suspected for address in locations)

        result = sim.run(until=driver.run_reads([0], concurrency=1))
        assert result.payload_bytes == 0
        assert tier.reads_unavailable.value == 1
        # Every replica suspected: the read gave up without probing them.
        assert tier.read_failovers.value == 0
        monitor.stop()

    def test_heartbeat_monitor_detects_recovery(self):
        sim = Simulator()
        testbed = Testbed(sim, n_storage_servers=5)
        tier = CpuOnlyMiddleTier(sim, testbed, n_workers=2)
        monitor = HeartbeatMonitor(sim, tier, interval=msec(1), timeout=msec(1))
        tier.start()
        victim = testbed.storage_servers[2]
        victim.fail()
        sim.run(until=sim.now + msec(5))
        assert victim.address in monitor.suspected
        assert not tier.health.is_healthy(victim.address)

        victim.recover()
        sim.run(until=sim.now + msec(5))
        assert victim.address not in monitor.suspected
        assert monitor.recoveries_detected.value >= 1
        assert tier.health.is_healthy(victim.address)
        monitor.stop()


class TestClaimCompleteBalance:
    def test_outstanding_drops_to_zero_after_chaotic_run(self):
        """Fail-over timeouts must not leak replication-policy claims."""
        rng = random.Random(FAULT_SEED)
        sim = Simulator()
        testbed = Testbed(sim, n_storage_servers=5)
        tier = CpuOnlyMiddleTier(sim, testbed, n_workers=4, replica_timeout=msec(1))
        driver = ClientDriver(
            sim,
            tier,
            WriteRequestFactory(testbed.platform, seed=FAULT_SEED),
            concurrency=8,
            warmup_fraction=0.0,
        )

        def chaos():
            for _ in range(2):
                yield sim.timeout(msec(rng.uniform(0.1, 0.4)))
                victim = rng.choice([s for s in testbed.storage_servers if not s.failed])
                victim.fail()
                yield sim.timeout(msec(rng.uniform(1.5, 2.5)))
                victim.recover()

        sim.process(chaos())
        result = sim.run(until=driver.run(160))
        sim.run()  # drain every in-flight retry, late ack, and timer
        assert result.requests == 160
        assert tier.failovers.value > 0  # the fail-over path actually ran
        for server in testbed.storage_servers:
            assert testbed.policy.outstanding(server) == 0, server.address


class TestAllocatorDegradation:
    def test_double_free_raises(self):
        allocator = DeviceMemoryAllocator(kib(64))
        buffer = allocator.alloc(1024)
        allocator.free(buffer)
        assert allocator.occupancy.value == 0
        with pytest.raises(ValueError, match="double free"):
            allocator.free(buffer)
        assert allocator.occupancy.value == 0  # accounting unharmed

    def test_try_alloc_respects_admission_watermark(self):
        allocator = DeviceMemoryAllocator(10_000, high_watermark=0.9, low_watermark=0.5)
        first = allocator.try_alloc(9_000)
        assert first is not None
        assert allocator.try_alloc(1) is None  # above the admission limit
        # The hard path still works up to physical capacity...
        extra = allocator.alloc(1_000)
        with pytest.raises(MemoryError):
            allocator.alloc(1)
        allocator.free(extra)
        allocator.free(first)

    def test_alloc_within_waits_for_headroom(self):
        sim = Simulator()
        allocator = DeviceMemoryAllocator(
            10_000, sim=sim, high_watermark=0.9, low_watermark=0.5
        )
        hog = allocator.alloc(9_000)

        def release():
            yield sim.timeout(usec(10))
            allocator.free(hog)

        sim.process(release())
        got = sim.run(until=sim.process(allocator.alloc_within(2_000, max_wait=usec(100))))
        assert got is not None and got.size == 2_000
        assert allocator.alloc_deferred.value == 1
        assert allocator.alloc_rejected.value == 0
        allocator.free(got)
        sim.run()

    def test_alloc_within_gives_up_at_the_deadline(self):
        sim = Simulator()
        allocator = DeviceMemoryAllocator(
            10_000, sim=sim, high_watermark=0.9, low_watermark=0.5
        )
        allocator.alloc(9_000)  # never freed: no headroom will appear
        got = sim.run(until=sim.process(allocator.alloc_within(2_000, max_wait=usec(50))))
        assert got is None
        assert allocator.alloc_rejected.value == 1
        sim.run()


    def test_alloc_within_losing_a_wake_up_keeps_waiting_until_the_deadline(self):
        sim = Simulator()
        allocator = DeviceMemoryAllocator(
            10_000, sim=sim, high_watermark=0.9, low_watermark=0.5
        )
        hog = allocator.alloc(9_000)

        def thief():
            yield sim.timeout(usec(10))
            allocator.free(hog)  # wakes the waiter...
            stolen = allocator.alloc(8_000)  # ...but the bytes are gone before it runs
            yield sim.timeout(usec(20))
            allocator.free(stolen)

        sim.process(thief())
        got = sim.run(until=sim.process(allocator.alloc_within(2_000, max_wait=usec(100))))
        assert got is not None and got.size == 2_000
        assert sim.now == pytest.approx(usec(30))  # the second wake-up, not the first
        assert allocator.alloc_rejected.value == 0
        allocator.free(got)
        sim.run()
        assert sim.now == pytest.approx(usec(30))  # the won race withdrew the deadline


class TestReclaimOrdering:
    """Elastic reclaim and the strict-FIFO headroom queue."""

    def _allocator(self, capacity=10_000):
        sim = Simulator()
        return sim, DeviceMemoryAllocator(
            capacity, sim=sim, high_watermark=0.9, low_watermark=0.5
        )

    def test_gated_alloc_consults_reclaimers_before_refusing(self):
        sim, allocator = self._allocator()
        elastic = [allocator.alloc(2_000), allocator.alloc(2_000)]

        def shed(nbytes):
            freed = 0
            while elastic and freed < nbytes:
                buffer = elastic.pop()
                allocator.free(buffer)
                freed += buffer.size
            return freed

        allocator.register_reclaimer(shed)
        hog = allocator.alloc(5_500)  # 9_500 total: above the admission limit
        got = allocator.try_alloc(2_000)
        assert got is not None
        assert allocator.bytes_reclaimed.value >= 2_000
        allocator.free(got)
        allocator.free(hog)

    def test_reclaim_drains_to_the_low_watermark_not_the_minimum(self):
        """Shedding only enough for the current request would keep
        occupancy glued to the admission gate; the drain target is the
        contract (see DeviceMemoryAllocator.try_alloc)."""
        sim, allocator = self._allocator()
        cache = HotBlockCache(
            sim, allocator, CacheSpec(enabled=True, capacity_bytes=10_000), name="t.cache"
        )
        for block in range(4):
            token = cache.begin_fill((0, block))
            cache.offer((0, block), Payload.synthetic(1_000, 1.0), token)
        hog = allocator.alloc(5_200)  # 9_200 total: above the admission limit
        got = allocator.try_alloc(500)
        assert got is not None
        # Only 700 bytes were needed to admit, but the reclaim aimed at
        # the drain target (5_000) and shed every cache entry on the way.
        assert cache.sheds.value == 4
        assert allocator.allocated == 5_200 + 500  # no elastic bytes left
        allocator.free(got)
        allocator.free(hog)

    def test_headroom_waiters_wake_in_fifo_order(self):
        sim, allocator = self._allocator()
        hog = allocator.alloc(9_000)
        completions = []

        def waiter(tag):
            buffer = yield from allocator.alloc_within(1_200, max_wait=usec(500))
            assert buffer is not None, tag
            completions.append(tag)

        def arrivals():
            for tag in ("first", "second", "third"):
                sim.process(waiter(tag))
                yield sim.timeout(usec(1))
            yield sim.timeout(usec(10))
            allocator.free(hog)

        sim.process(arrivals())
        sim.run()
        assert completions == ["first", "second", "third"]
        assert allocator.alloc_rejected.value == 0  # nobody starved

    def test_small_waiters_do_not_starve_a_large_head_waiter(self):
        sim, allocator = self._allocator()
        hogs = [allocator.alloc(3_000) for _ in range(3)]
        completions = []

        def waiter(tag, size):
            buffer = yield from allocator.alloc_within(size, max_wait=usec(500))
            assert buffer is not None, tag
            completions.append(tag)

        def arrivals():
            sim.process(waiter("large", 4_500))
            yield sim.timeout(usec(1))
            sim.process(waiter("small-a", 200))
            sim.process(waiter("small-b", 200))
            # Frees drip in; the large head waiter must get the first
            # window that fits it, not lose every race to the small ones.
            for hog in hogs:
                yield sim.timeout(usec(10))
                allocator.free(hog)

        sim.process(arrivals())
        sim.run()
        assert completions[0] == "large"
        assert len(completions) == 3

    def test_expired_waiters_leave_the_queue(self):
        sim, allocator = self._allocator()
        allocator.alloc(9_000)  # never freed
        got = sim.run(until=sim.process(allocator.alloc_within(2_000, max_wait=usec(50))))
        assert got is None
        assert allocator.waiters == 0  # no dead entry left to block the head
        sim.run()

    def test_cache_shed_unblocks_a_parked_waiter(self):
        """End of the elastic contract: a request waiting for headroom
        is woken by the cache shedding, within its bounded wait."""
        sim, allocator = self._allocator()
        cache = HotBlockCache(
            sim, allocator, CacheSpec(enabled=True, capacity_bytes=10_000), name="t.cache"
        )
        for block in range(4):
            token = cache.begin_fill((0, block))
            assert cache.offer((0, block), Payload.synthetic(1_000, 1.0), token)
        hog = allocator.alloc(5_200)  # cache 4_000 + 5_200: gate closed

        got = sim.run(until=sim.process(allocator.alloc_within(1_000, max_wait=usec(100))))
        assert got is not None
        assert cache.sheds.value > 0
        assert allocator.alloc_rejected.value == 0
        allocator.free(got)
        allocator.free(hog)
        sim.run()


def _hbm_burst(hbm_capacity, n_writes=64, recv_window=32, concurrency=8, seed=5):
    """A SmartDS write burst against a shrunk HBM; returns (tier, result)."""
    sim = Simulator()
    testbed = Testbed(sim, n_storage_servers=5)
    tier = SmartDsMiddleTier(
        sim, testbed, n_ports=1, recv_window=recv_window, hbm_capacity=hbm_capacity
    )
    driver = ClientDriver(
        sim,
        tier,
        WriteRequestFactory(testbed.platform, seed=seed),
        concurrency=concurrency,
        warmup_fraction=0.0,
    )
    result = sim.run(until=driver.run(n_writes))
    sim.run()
    return tier, result


class TestGracefulDegradation:
    def test_shrunk_hbm_degrades_instead_of_crashing(self):
        tier, result = _hbm_burst(kib(160))
        allocator = tier.device.allocator
        assert result.requests == 64  # every write acked, none crashed
        assert tier.requests_degraded.value > 0
        assert allocator.alloc_rejected.value > 0
        # The watermark gate held: occupancy never crossed admission.
        assert allocator.occupancy.peak <= allocator.admission_limit

    def test_degradation_counters_are_deterministic(self):
        def signature():
            tier, result = _hbm_burst(kib(192))
            allocator = tier.device.allocator
            return (
                result.requests,
                tier.requests_degraded.value,
                allocator.alloc_deferred.value,
                allocator.alloc_rejected.value,
                tier.device.host_path_fallbacks.value,
                allocator.occupancy.peak,
            )

        first = signature()
        assert first[1] > 0  # the shrunk HBM actually forced degradation
        assert first == signature()

    def test_starved_window_falls_back_to_host_path_ingress(self):
        """With a tiny window and HBM, descriptors run out entirely and
        whole frames must ship to host memory instead of splitting."""
        tier, result = _hbm_burst(kib(12), n_writes=24, recv_window=2, concurrency=6)
        assert result.requests == 24
        assert tier.device.host_path_fallbacks.value > 0
        assert tier.requests_degraded.value > 0


class TestDegradedReads:
    def test_raw_block_read_under_hbm_pressure_does_not_wait_for_a_buffer(self):
        """An uncompressed block needs no HBM output buffer, so reading
        one above the allocator's high watermark must not sit out the
        bounded ``degraded_alloc_wait`` for a buffer it never uses."""
        sim = Simulator()
        testbed = Testbed(sim, n_storage_servers=5)
        tier = SmartDsMiddleTier(sim, testbed, n_ports=1)
        driver = ClientDriver(
            sim,
            tier,
            WriteRequestFactory(testbed.platform, seed=1, latency_sensitive_fraction=1.0),
            concurrency=1,
            warmup_fraction=0.0,
        )
        sim.run(until=driver.run(2))  # two raw (latency-sensitive) blocks
        # A first read posts the split-reply descriptors while HBM is free.
        sim.run(until=driver.run_reads([0], concurrency=1))
        allocator = tier.device.allocator
        hog = allocator.alloc(allocator.admission_limit - allocator.allocated + 1)
        deferred = allocator.alloc_deferred.value

        start = sim.now
        result = sim.run(until=driver.run_reads([1], concurrency=1))
        assert result.payload_bytes == testbed.platform.workload.block_size
        assert allocator.alloc_deferred.value == deferred
        assert sim.now - start < testbed.platform.recovery.degraded_alloc_wait
        allocator.free(hog)
        sim.run()


class TestChaosExperimentCell:
    def test_acked_writes_stay_durable_under_full_chaos(self):
        from repro.experiments.ext_chaos import measure_cell

        cell = measure_cell(1.0, FAULT_SEED, n_writes=48)
        assert cell["durability"] == pytest.approx(1.0)
        assert cell["read_availability"] >= 0.9
        assert cell["write_p99_us"] > 0

    def test_healthy_baseline_has_no_failovers(self):
        from repro.experiments.ext_chaos import measure_cell

        cell = measure_cell(0.0, FAULT_SEED, n_writes=32)
        assert cell["durability"] == pytest.approx(1.0)
        assert cell["read_availability"] == pytest.approx(1.0)
        assert cell["write_failovers"] == 0
        assert cell["degraded_fraction"] == 0.0
