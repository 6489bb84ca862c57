"""Tests for request generation, the client driver, and the MLC injector."""

import collections

import pytest

from repro.compression import SilesiaLikeCorpus
from repro.hostmodel.memory import MemorySubsystem
from repro.middletier import CpuOnlyMiddleTier, Testbed
from repro.params import PlatformSpec
from repro.sim import Simulator
from repro.units import msec, usec
from repro.workloads import (
    ClientDriver,
    MlcInjector,
    SkewedReadFactory,
    WriteRequestFactory,
)


class TestWriteRequestFactory:
    def test_synthetic_requests_have_paper_shape(self):
        factory = WriteRequestFactory()
        message = factory.make()
        assert message.kind == "write_request"
        assert message.header_size == 64
        assert message.payload.size == 4096
        assert message.payload.data is None

    def test_lbas_are_sequential_and_mapped(self):
        platform = PlatformSpec()
        factory = WriteRequestFactory(platform)
        first = factory.make()
        second = factory.make()
        assert first.header["block_id"] == 0
        assert second.header["block_id"] == 1
        blocks_per_chunk = platform.storage.chunk_bytes // platform.workload.block_size
        deep = None
        for _ in range(2):
            deep = factory.make()
        assert factory.make().header["chunk_id"] == 0
        # A block one chunk in lands in chunk 1.
        factory._next_lba = blocks_per_chunk
        assert factory.make().header["chunk_id"] == 1

    def test_functional_mode_carries_real_bytes(self):
        blocks = SilesiaLikeCorpus(seed=1, file_size=4096).blocks(4096)[:4]
        factory = WriteRequestFactory(blocks=blocks)
        message = factory.make()
        assert message.payload.data == blocks[0]

    def test_latency_sensitive_fraction(self):
        factory = WriteRequestFactory(latency_sensitive_fraction=1.0)
        assert factory.make().header["latency_sensitive"]
        factory = WriteRequestFactory(latency_sensitive_fraction=0.0)
        assert not factory.make().header["latency_sensitive"]

    def test_deterministic_given_seed(self):
        a = WriteRequestFactory(latency_sensitive_fraction=0.5, seed=5)
        b = WriteRequestFactory(latency_sensitive_fraction=0.5, seed=5)
        flags_a = [a.make().header["latency_sensitive"] for _ in range(20)]
        flags_b = [b.make().header["latency_sensitive"] for _ in range(20)]
        assert flags_a == flags_b

    def test_make_read(self):
        factory = WriteRequestFactory()
        read = factory.make_read(lba=17)
        assert read.kind == "read_request"
        assert read.header["block_id"] == 17
        assert read.payload is None

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            WriteRequestFactory(latency_sensitive_fraction=1.5)
        with pytest.raises(ValueError):
            WriteRequestFactory(blocks=[])


class TestClientDriver:
    def _run(self, n_requests=60, concurrency=4, warmup=0.1):
        sim = Simulator()
        testbed = Testbed(sim)
        tier = CpuOnlyMiddleTier(sim, testbed, n_workers=2)
        driver = ClientDriver(
            sim,
            tier,
            WriteRequestFactory(testbed.platform, seed=2),
            concurrency=concurrency,
            warmup_fraction=warmup,
        )
        result = sim.run(until=driver.run(n_requests))
        return driver, result

    def test_all_requests_complete(self):
        driver, result = self._run()
        # warmup excluded: 60 * 0.9 = 54 measured
        assert result.requests == 54

    def test_throughput_positive(self):
        _driver, result = self._run()
        assert result.throughput > 0
        assert result.payload_bytes == result.requests * 4096

    def test_latency_samples_match_requests(self):
        _driver, result = self._run()
        assert result.latency.count == result.requests

    def test_zero_warmup_keeps_all(self):
        _driver, result = self._run(warmup=0.0)
        assert result.requests == 60

    def test_no_unmatched_replies(self):
        driver, _result = self._run()
        assert driver.replies_unmatched.value == 0

    def test_invalid_args(self):
        sim = Simulator()
        testbed = Testbed(sim)
        tier = CpuOnlyMiddleTier(sim, testbed, n_workers=1)
        factory = WriteRequestFactory(testbed.platform)
        with pytest.raises(ValueError):
            ClientDriver(sim, tier, factory, concurrency=0)
        with pytest.raises(ValueError):
            ClientDriver(sim, tier, factory, concurrency=1, warmup_fraction=0.9)
        driver = ClientDriver(sim, tier, factory, concurrency=8)
        with pytest.raises(ValueError):
            driver.run(4)  # below concurrency


def _most_read(skewed, n_samples=2_000):
    """The LBA a sample of `n_samples` reads hits most often (rank 1)."""
    samples = collections.Counter(skewed.next_lba() for _ in range(n_samples))
    return samples.most_common(1)[0][0]


class TestSkewedReadFactory:
    def test_empirical_hottest_key_frequency_matches_zipf(self):
        """Property: over a long sample, the most-read LBA's observed
        frequency converges on ``expected_frequency(1)``."""
        factory = WriteRequestFactory()
        for n_blocks, skew, seed in ((64, 0.99, 0), (128, 1.2, 3), (32, 0.8, 7)):
            skewed = SkewedReadFactory(factory, n_blocks, skew=skew, seed=seed)
            n_samples = 20_000
            samples = collections.Counter(skewed.next_lba() for _ in range(n_samples))
            [(_hottest, hot_hits)] = samples.most_common(1)
            expected = skewed.expected_frequency(1)
            assert abs(hot_hits / n_samples - expected) < 0.15 * expected + 0.01, (
                n_blocks,
                skew,
                seed,
            )

    def test_skew_zero_is_uniform(self):
        skewed = SkewedReadFactory(WriteRequestFactory(), n_blocks=10, skew=0.0)
        for rank in (1, 5, 10):
            assert skewed.expected_frequency(rank) == pytest.approx(0.1)

    def test_rank_frequencies_decay_and_sum_to_one(self):
        skewed = SkewedReadFactory(WriteRequestFactory(), n_blocks=50, skew=0.99)
        frequencies = [skewed.expected_frequency(rank) for rank in range(1, 51)]
        assert frequencies == sorted(frequencies, reverse=True)
        assert sum(frequencies) == pytest.approx(1.0)

    def test_hot_set_is_shuffled_not_first_written(self):
        # Across seeds the rank-1 LBA moves: the hot set comes from the
        # seeded shuffle, not from write order.
        hot = {_most_read(SkewedReadFactory(WriteRequestFactory(), 64, seed=s)) for s in range(8)}
        assert len(hot) > 1

    def test_deterministic_given_seed(self):
        a = SkewedReadFactory(WriteRequestFactory(), 64, skew=0.99, seed=9)
        b = SkewedReadFactory(WriteRequestFactory(), 64, skew=0.99, seed=9)
        assert [a.next_lba() for _ in range(50)] == [b.next_lba() for _ in range(50)]

    def test_make_builds_read_requests_in_range(self):
        factory = WriteRequestFactory()
        skewed = SkewedReadFactory(factory, n_blocks=16, skew=1.0, seed=1)
        for _ in range(64):
            message = skewed.make()
            assert message.kind == "read_request"
            assert 0 <= message.header["block_id"] < 16

    def test_invalid_args(self):
        factory = WriteRequestFactory()
        with pytest.raises(ValueError):
            SkewedReadFactory(factory, n_blocks=0)
        with pytest.raises(ValueError):
            SkewedReadFactory(factory, n_blocks=4, skew=-0.1)
        skewed = SkewedReadFactory(factory, n_blocks=4)
        with pytest.raises(ValueError):
            skewed.expected_frequency(0)
        with pytest.raises(ValueError):
            skewed.expected_frequency(5)


class TestReadFailureSurfacing:
    def _testbed(self):
        sim = Simulator()
        testbed = Testbed(sim)
        tier = CpuOnlyMiddleTier(sim, testbed, n_workers=2)
        driver = ClientDriver(
            sim,
            tier,
            WriteRequestFactory(testbed.platform, seed=4),
            concurrency=4,
            warmup_fraction=0.0,
        )
        sim.run(until=driver.run(8))
        return sim, testbed, tier, driver

    def test_all_ok_reads_have_no_failures(self):
        sim, _testbed, _tier, driver = self._testbed()
        result = sim.run(until=driver.run_reads([0, 1, 2, 3], concurrency=2))
        assert result.failures == ()
        assert result.failed_lbas == ()
        assert result.ok_requests == 4

    def test_unavailable_reads_surface_their_lbas(self):
        """When one LBA's whole replica set is down, the aggregate still
        completes — but the result names exactly which LBA failed."""
        sim, testbed, tier, driver = self._testbed()
        for address in tier._block_locations[(0, 2)]:
            testbed.server(address).fail()
        result = sim.run(until=driver.run_reads([0, 1, 2, 3], concurrency=1))
        assert result.requests == 4
        failed = dict(result.failures)
        assert set(failed) == {2} or 2 in failed  # LBA 2 named, others maybe collateral
        assert failed[2] == "unavailable"
        assert 2 in result.failed_lbas
        assert result.ok_requests == result.requests - len(result.failures)
        assert tier.reads_unavailable.value >= 1
        for address in tier._block_locations[(0, 2)]:
            testbed.server(address).recover()
        sim.run()

    def test_unwritten_lba_fails_as_not_found(self):
        sim, _testbed, _tier, driver = self._testbed()
        result = sim.run(until=driver.run_reads([0, 999], concurrency=1))
        assert result.failures == ((999, "not_found"),)
        assert result.ok_requests == 1


class TestMlcInjector:
    def test_injects_bandwidth(self):
        sim = Simulator()
        memory = MemorySubsystem.for_host(sim)
        mlc = MlcInjector(sim, memory, n_threads=4, delay=0.0, chunk=4096)
        mlc.start()
        sim.run(until=msec(1))
        assert mlc.meter.rate(msec(1)) > 0
        assert memory.total_bytes == mlc.meter.total_bytes

    def test_delay_reduces_pressure(self):
        def bandwidth(delay):
            sim = Simulator()
            memory = MemorySubsystem.for_host(sim)
            mlc = MlcInjector(sim, memory, n_threads=4, delay=delay, chunk=4096)
            mlc.start()
            sim.run(until=msec(1))
            return mlc.meter.rate(msec(1))

        assert bandwidth(usec(10)) < 0.5 * bandwidth(0.0)

    def test_read_fraction_splits_traffic(self):
        sim = Simulator()
        memory = MemorySubsystem.for_host(sim)
        mlc = MlcInjector(sim, memory, n_threads=1, delay=0.0, chunk=4096, read_fraction=0.5)
        mlc.start()
        sim.run(until=msec(1))
        total = memory.read_meter.total_bytes + memory.write_meter.total_bytes
        assert abs(memory.read_meter.total_bytes / total - 0.5) < 0.1

    def test_stop_halts_injection(self):
        sim = Simulator()
        memory = MemorySubsystem.for_host(sim)
        mlc = MlcInjector(sim, memory, n_threads=2, delay=0.0)
        mlc.start()
        sim.run(until=msec(0.5))
        mlc.stop()
        sim.run(until=msec(0.6))
        frozen = mlc.meter.total_bytes
        sim.run(until=msec(2))
        assert mlc.meter.total_bytes == frozen

    def test_start_idempotent(self):
        sim = Simulator()
        memory = MemorySubsystem.for_host(sim)
        mlc = MlcInjector(sim, memory, n_threads=2, delay=0.0)
        mlc.start()
        mlc.start()
        sim.run(until=usec(50))
        # 2 threads, not 4: bandwidth bounded accordingly.
        assert mlc.meter.events > 0

    def test_invalid_args(self):
        sim = Simulator()
        memory = MemorySubsystem.for_host(sim)
        with pytest.raises(ValueError):
            MlcInjector(sim, memory, n_threads=-1, delay=0.0)
        with pytest.raises(ValueError):
            MlcInjector(sim, memory, n_threads=1, delay=-1.0)
        with pytest.raises(ValueError):
            MlcInjector(sim, memory, n_threads=1, delay=0.0, chunk=0)
        with pytest.raises(ValueError):
            MlcInjector(sim, memory, n_threads=1, delay=0.0, read_fraction=2.0)
