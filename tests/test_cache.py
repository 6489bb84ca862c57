"""Tests for the device-memory hot-block read cache (``repro.cache``).

Unit level: the TinyLFU admission sketch, segmented-LRU structure,
write-through invalidation epochs, pin/release lifetimes, elastic
shedding, and the fill/evict/held byte-conservation ledger contract.

Integration level: the SmartDS read path serving hits from HBM, the
read-your-writes guarantee under seeded chaos (honours
``REPRO_FAULT_SEED`` like the rest of the failure-recovery suite), and
the ``ext_cache`` experiment's acceptance thresholds in quick mode.
"""

import os
import random

import pytest

from repro.cache import FrequencySketch, HotBlockCache
from repro.compression import SilesiaLikeCorpus
from repro.core import SmartDsMiddleTier
from repro.core.device import DeviceMemoryAllocator
from repro.middletier import Testbed
from repro.net.message import Payload
from repro.params import CacheSpec
from repro.sim import FlowLedger, Simulator
from repro.units import kib
from repro.workloads import ClientDriver, WriteRequestFactory

FAULT_SEED = int(os.environ.get("REPRO_FAULT_SEED", "11"))


class TestFrequencySketch:
    def test_estimate_grows_with_touches(self):
        sketch = FrequencySketch()
        assert sketch.estimate((0, 1)) == 0
        for _ in range(5):
            sketch.touch((0, 1))
        assert sketch.estimate((0, 1)) == 5

    def test_counters_saturate(self):
        sketch = FrequencySketch()
        for _ in range(100):
            sketch.touch((0, 1))
        assert sketch.estimate((0, 1)) <= 15

    def test_aging_halves_counts(self):
        sketch = FrequencySketch(sample=8)
        for _ in range(7):
            sketch.touch((0, 7))
        before = sketch.estimate((0, 7))
        sketch.touch((0, 7))  # the 8th touch trips the aging pass
        assert sketch.estimate((0, 7)) <= before // 2 + 1

    def test_distinct_keys_mostly_independent(self):
        sketch = FrequencySketch()
        for _ in range(10):
            sketch.touch((3, 1))
        # min-over-rows bounds collision inflation: an untouched key may
        # alias one row but almost never all of them.
        assert sketch.estimate((3, 2)) <= 1

    def test_validation(self):
        with pytest.raises(ValueError):
            FrequencySketch(width=0)
        with pytest.raises(ValueError):
            FrequencySketch(depth=0)
        with pytest.raises(ValueError):
            FrequencySketch(sample=0)


def _payload(size=1024):
    return Payload.synthetic(size, 1.0)


def _cache(capacity=kib(64), limit=None, **spec_kwargs):
    sim = Simulator()
    allocator = DeviceMemoryAllocator(capacity, sim=sim)
    spec = CacheSpec(enabled=True, capacity_bytes=limit or capacity, **spec_kwargs)
    cache = HotBlockCache(sim, allocator, spec, name="t.cache")
    return sim, allocator, cache


def _fill(cache, key, size=1024):
    """Admit one block the way the read path does: fill token then offer."""
    token = cache.begin_fill(key)
    return cache.offer(key, _payload(size), token)


class TestHotBlockCache:
    def test_miss_then_fill_then_hit(self):
        _sim, allocator, cache = _cache()
        assert cache.lookup((0, 1)) is None
        assert cache.misses.value == 1
        assert _fill(cache, (0, 1))
        entry = cache.lookup((0, 1))
        assert entry is not None and entry.payload.size == 1024
        cache.release(entry)
        assert cache.hits.value == 1
        assert cache.hit_ratio() == pytest.approx(0.5)
        assert allocator.allocated == 1024

    def test_second_hit_promotes_to_protected(self):
        _sim, _allocator, cache = _cache()
        _fill(cache, (0, 1))
        assert (0, 1) in cache._probation
        cache.release(cache.lookup((0, 1)))
        assert (0, 1) in cache._protected
        assert (0, 1) not in cache._probation

    def test_protected_budget_demotes_lru_back_to_probation(self):
        # 8 KiB budget, 50% protected: two 2 KiB blocks fill protected,
        # promoting a third demotes the least recently used of them.
        _sim, _allocator, cache = _cache(capacity=kib(8), protected_fraction=0.5)
        for block in (1, 2, 3):
            _fill(cache, (0, block), size=2048)
            cache.release(cache.lookup((0, block)))  # promote each
        assert (0, 1) in cache._probation  # demoted to make room
        assert (0, 3) in cache._protected
        assert cache._protected_bytes <= cache.protected_budget

    def test_eviction_is_lru_within_probation(self):
        _sim, _allocator, cache = _cache(limit=4096)
        for block in (1, 2, 3, 4):
            _fill(cache, (0, block))
        # Make block 5 clearly hotter than the probation LRU (block 1).
        for _ in range(3):
            cache.sketch.touch((0, 5))
        assert _fill(cache, (0, 5))
        assert not cache.contains((0, 1))
        assert cache.contains((0, 2))
        assert cache.evictions.value == 1

    def test_tinylfu_rejects_one_hit_wonders(self):
        _sim, _allocator, cache = _cache(limit=2048)
        _fill(cache, (0, 1))
        _fill(cache, (0, 2))
        cache.release(cache.lookup((0, 1)))  # block 1 is warm
        # A cold candidate may not displace it: sketch says 0 <= 2.
        assert not _fill(cache, (0, 3))
        assert cache.rejections.value == 1
        assert cache.contains((0, 1))

    def test_oversized_and_empty_payloads_refused(self):
        _sim, _allocator, cache = _cache(limit=2048)
        token = cache.begin_fill((0, 1))
        assert not cache.offer((0, 1), _payload(4096), token)
        assert not cache.offer((0, 1), Payload.synthetic(0, 1.0), token)
        assert cache.admissions.value == 0

    def test_duplicate_offer_refused(self):
        _sim, allocator, cache = _cache()
        assert _fill(cache, (0, 1))
        assert not _fill(cache, (0, 1))
        assert allocator.allocated == 1024

    def test_invalidate_drops_resident_entry(self):
        _sim, allocator, cache = _cache()
        _fill(cache, (0, 1))
        cache.invalidate((0, 1))
        assert not cache.contains((0, 1))
        assert cache.invalidations.value == 1
        assert allocator.allocated == 0

    def test_stale_fill_refused_after_racing_write(self):
        """A fill begun before a write may not install pre-write bytes."""
        _sim, _allocator, cache = _cache()
        token = cache.begin_fill((0, 1))
        cache.invalidate((0, 1))  # the write lands mid-fetch
        assert not cache.offer((0, 1), _payload(), token)
        assert cache.fills_raced.value == 1
        # A fill begun after the write is fine again.
        assert _fill(cache, (0, 1))

    def test_invalidating_pinned_entry_defers_the_free(self):
        _sim, allocator, cache = _cache()
        _fill(cache, (0, 1))
        entry = cache.lookup((0, 1))  # a reader is decompressing from it
        cache.invalidate((0, 1))
        assert entry.dead
        assert allocator.allocated == 1024  # buffer alive under the pin
        cache.release(entry)
        assert allocator.allocated == 0
        with pytest.raises(ValueError):
            cache.release(entry)  # double release is a bug

    def test_shed_frees_cold_entries_and_reports_bytes(self):
        _sim, allocator, cache = _cache()
        for block in (1, 2, 3):
            _fill(cache, (0, block))
        freed = cache._shed(2000)
        assert freed == 2048  # two whole entries
        assert cache.sheds.value == 2
        assert allocator.allocated == 1024
        assert not cache.contains((0, 1)) and not cache.contains((0, 2))

    def test_shed_skips_pinned_entries(self):
        _sim, _allocator, cache = _cache()
        _fill(cache, (0, 1))
        _fill(cache, (0, 2))
        pinned = cache.lookup((0, 1))
        # Shedding must not yank the buffer a reader is using; only the
        # unpinned entry's bytes count as freed.
        assert cache._shed(4096) == 1024
        assert cache.contains((0, 1))
        cache.release(pinned)

    def test_request_path_reclaim_sheds_the_cache(self):
        """The cache is the lowest-priority consumer: a gated request
        allocation above the watermark shrinks it rather than failing."""
        sim = Simulator()
        allocator = DeviceMemoryAllocator(
            10_000, sim=sim, high_watermark=0.9, low_watermark=0.5
        )
        cache = HotBlockCache(
            sim, allocator, CacheSpec(enabled=True, capacity_bytes=5_000), name="t.cache"
        )
        for block in range(4):
            _fill(cache, (0, block), size=1000)
        assert allocator.allocated == 4000
        got = allocator.try_alloc(6000)  # would cross the admission limit
        assert got is not None
        assert cache.sheds.value > 0
        assert allocator.bytes_reclaimed.value >= 1000
        allocator.free(got)

    def test_no_admission_into_the_watermark_band(self):
        """Elastic fills stop below the drain target: filling inside the
        band would hold occupancy up against parked headroom waiters."""
        sim = Simulator()
        allocator = DeviceMemoryAllocator(
            10_000, sim=sim, high_watermark=0.9, low_watermark=0.5
        )
        cache = HotBlockCache(
            sim, allocator, CacheSpec(enabled=True, capacity_bytes=10_000), name="t.cache"
        )
        hog = allocator.alloc(4_800)
        assert not _fill(cache, (0, 1), size=1000)  # 5_800 > drain target
        assert cache.pressure_refusals.value == 1
        allocator.free(hog)
        assert _fill(cache, (0, 1), size=1000)

    def test_occupancy_gauges_track_held_bytes(self):
        _sim, _allocator, cache = _cache()
        _fill(cache, (0, 1))
        _fill(cache, (0, 2), size=2048)
        assert cache.occupancy.value == 3072
        assert cache.entries.value == 2
        cache.invalidate((0, 1))
        assert cache.occupancy.value == 2048
        stats = cache.stats()
        assert stats["held_bytes"] == 2048
        assert stats["peak_bytes"] == 3072


class TestCacheLedger:
    def test_fill_balances_against_evict_plus_held(self):
        """The drain-audit contract: every filled byte is either still
        held or was evicted — checked through the level probe."""
        sim = Simulator()
        allocator = DeviceMemoryAllocator(kib(64), sim=sim)
        ledger = FlowLedger(sim, name="cache-ledger")
        cache = HotBlockCache(
            sim, allocator, CacheSpec(enabled=True, capacity_bytes=4096), name="t.cache"
        ).attach_ledger(ledger)
        for block in range(6):  # forces evictions past the 4 KiB budget
            for _ in range(block + 1):  # later blocks out-rank earlier ones
                cache.sketch.touch((0, block))
            _fill(cache, (0, block))
        cache.invalidate((0, 5))
        assert cache.admissions.value > 0
        assert cache.evictions.value + cache.invalidations.value > 0
        assert ledger.imbalances() == []
        sim.run()  # the conftest drain audit re-checks the same ledger

    def test_imbalance_is_detected(self):
        allocator = DeviceMemoryAllocator(kib(64))
        sim = Simulator()
        ledger = FlowLedger(name="off-the-books")  # not sim-tracked on purpose
        cache = HotBlockCache(
            sim, allocator, CacheSpec(enabled=True, capacity_bytes=4096), name="t.cache"
        ).attach_ledger(ledger)
        _fill(cache, (0, 1))
        cache._held -= 100  # corrupt the stock the probe reports
        assert ledger.imbalances() != []


def _write_then_read(sim, tier, testbed, factory, n_writes=8, lbas=(0,)):
    driver = ClientDriver(sim, tier, factory, concurrency=4, warmup_fraction=0.0)
    sim.run(until=driver.run(n_writes))
    result = sim.run(until=driver.run_reads(list(lbas), concurrency=1))
    return driver, result


class TestSmartDsCachedReads:
    def _testbed(self, cache_on=True):
        sim = Simulator()
        testbed = Testbed(sim, n_storage_servers=5)
        spec = CacheSpec(enabled=cache_on, capacity_bytes=kib(256))
        tier = SmartDsMiddleTier(sim, testbed, n_ports=1, cache_spec=spec)
        return sim, testbed, tier

    def test_repeated_read_hits_and_skips_the_backend(self):
        sim, testbed, tier = self._testbed()
        factory = WriteRequestFactory(testbed.platform, seed=2)
        driver, _ = _write_then_read(sim, tier, testbed, factory)
        backend_before = sum(s.reads_served.value for s in testbed.storage_servers)
        result = sim.run(until=driver.run_reads([0, 0, 0], concurrency=1))
        backend_after = sum(s.reads_served.value for s in testbed.storage_servers)
        assert result.requests == 3
        assert result.payload_bytes == 3 * testbed.platform.workload.block_size
        assert tier.cache.hits.value >= 3
        assert backend_after == backend_before  # served from HBM, zero fetches
        sim.run()

    def test_hits_are_faster_than_misses(self):
        sim, testbed, tier = self._testbed()
        factory = WriteRequestFactory(testbed.platform, seed=2)
        driver, _ = _write_then_read(sim, tier, testbed, factory, lbas=(0, 1, 0, 1, 0, 1))
        sim.run()
        hit = tier.cache_hit_latency.maybe_summary()
        miss = tier.cache_miss_latency.maybe_summary()
        assert hit is not None and miss is not None
        assert hit["avg"] < miss["avg"]

    def test_cached_read_under_memory_pressure_degrades_not_fails(self):
        """A hit whose decompress buffer cannot be allocated falls back
        to host-path decompression but still answers correctly."""
        sim = Simulator()
        testbed = Testbed(sim, n_storage_servers=5)
        tier = SmartDsMiddleTier(
            sim,
            testbed,
            n_ports=1,
            recv_window=8,
            hbm_capacity=kib(96),
            cache_spec=CacheSpec(enabled=True, capacity_fraction=0.5),
        )
        factory = WriteRequestFactory(testbed.platform, seed=3)
        driver = ClientDriver(sim, tier, factory, concurrency=4, warmup_fraction=0.0)
        sim.run(until=driver.run(16))
        result = sim.run(until=driver.run_reads([0, 1, 2, 3] * 8, concurrency=4))
        assert result.requests == 32
        assert result.failures == ()
        sim.run()


class TestReadYourWrites:
    def _read_payload(self, sim, driver, lba=0):
        """One read through the driver's QP, returning the raw reply."""
        return sim.run(until=sim.process(driver.request(driver.factory.make_read(lba))))

    def test_read_after_write_ack_never_sees_stale_bytes(self):
        """Warm the cache with version A of LBA 0, overwrite with B
        under seeded server chaos, read again: the reply must carry B.
        Deterministic given REPRO_FAULT_SEED."""
        rng = random.Random(FAULT_SEED)
        corpus = SilesiaLikeCorpus(seed=FAULT_SEED, file_size=kib(16))
        version_a, version_b = corpus.blocks(4096)[:2]
        assert version_a != version_b

        sim = Simulator()
        testbed = Testbed(sim, n_storage_servers=5)
        tier = SmartDsMiddleTier(
            sim,
            testbed,
            n_ports=1,
            cache_spec=CacheSpec(enabled=True, capacity_bytes=kib(256)),
        )
        driver = ClientDriver(
            sim,
            tier,
            WriteRequestFactory(testbed.platform, blocks=[version_a], seed=FAULT_SEED),
            concurrency=4,
            warmup_fraction=0.0,
        )
        sim.run(until=driver.run(8))
        reply = self._read_payload(sim, driver, lba=0)  # warms the cache
        assert reply.payload.data == version_a
        assert tier.cache.contains((0, 0))

        def chaos():
            yield sim.timeout(rng.uniform(1e-5, 1e-4))
            victim = rng.choice(testbed.storage_servers)
            victim.fail()
            yield sim.timeout(rng.uniform(1e-3, 2e-3))
            victim.recover()

        sim.process(chaos())
        # A fresh factory restarts LBA assignment at 0: these 8 writes
        # overwrite the same LBAs with version B, racing the chaos.
        driver.factory = WriteRequestFactory(
            testbed.platform, blocks=[version_b], seed=FAULT_SEED
        )
        sim.run(until=driver.run(8))
        reply = self._read_payload(sim, driver, lba=0)
        assert reply.header["status"] == "ok"
        assert reply.payload.data == version_b  # never version_a
        sim.run()

    def test_fill_racing_a_write_is_refused_end_to_end(self):
        """A read that misses and fetches while a write to the same LBA
        is replicating must not install the pre-write payload."""
        corpus = SilesiaLikeCorpus(seed=7, file_size=kib(16))
        version_a, version_b = corpus.blocks(4096)[:2]
        sim = Simulator()
        testbed = Testbed(sim, n_storage_servers=5)
        tier = SmartDsMiddleTier(
            sim,
            testbed,
            n_ports=1,
            cache_spec=CacheSpec(enabled=True, capacity_bytes=kib(256)),
        )
        driver = ClientDriver(
            sim,
            tier,
            WriteRequestFactory(testbed.platform, blocks=[version_a], seed=7),
            concurrency=4,
            warmup_fraction=0.0,
        )
        sim.run(until=driver.run(8))
        tier.cache.invalidate((0, 0))  # make sure the next read misses

        read = TestReadYourWrites._read_payload
        # Launch the read (it will fetch from storage) and, mid-fetch,
        # the overwrite; the write's invalidation must poison the fill.
        read_proc = sim.process(driver.request(driver.factory.make_read(0)))
        driver.factory = WriteRequestFactory(testbed.platform, blocks=[version_b], seed=7)
        sim.run(until=driver.run(8))
        sim.run(until=read_proc)
        reply = read(self, sim, driver, lba=0)
        assert reply.payload.data == version_b
        assert not tier.cache.contains((0, 0)) or (
            tier.cache.lookup((0, 0)).payload.data != version_a
        )
        sim.run()


class TestExtCacheAcceptance:
    def test_quick_run_meets_the_acceptance_bars(self):
        from repro.experiments.ext_cache import run

        result = run(quick=True)
        hot = next(c for c in result.data["skew_cells"] if c["skew"] == 0.99)
        assert hot["on"]["hit_ratio"] >= 0.5
        assert hot["on"]["mean_us"] < hot["off"]["mean_us"]
        assert hot["on"]["backend_read_bytes"] < hot["off"]["backend_read_bytes"]
        ratios = [c["hit_ratio"] for c in result.data["size_cells"]]
        assert ratios == sorted(ratios)  # monotone in the byte budget
        for cell in result.data["pressure_cells"]:
            assert cell["on"]["degraded"] <= cell["off"]["degraded"], cell
