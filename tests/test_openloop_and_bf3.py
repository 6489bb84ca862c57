"""Tests for the open-loop driver and the BlueField-3 extension design."""

import pytest

from repro.middletier import CpuOnlyMiddleTier, Testbed
from repro.middletier.soc_smartnic import BlueField3MiddleTier
from repro.params import BlueField3Spec
from repro.sim import Simulator
from repro.units import gbps, to_gbps
from repro.workloads import ClientDriver, WriteRequestFactory
from repro.workloads.generators import OpenLoopDriver


class TestOpenLoopDriver:
    def _run(self, offered_rps, n_requests=200):
        sim = Simulator()
        testbed = Testbed(sim)
        tier = CpuOnlyMiddleTier(sim, testbed, n_workers=8)
        driver = OpenLoopDriver(
            sim,
            tier,
            WriteRequestFactory(testbed.platform, seed=1),
            offered_rate=offered_rps,
            seed=5,
        )
        result = sim.run(until=driver.run(n_requests))
        return result

    def test_achieved_tracks_offered_below_capacity(self):
        offered_rps = 100_000  # ~3.3 Gb/s, far below the 8-worker peak
        result = self._run(offered_rps)
        achieved_rps = result.requests / result.duration
        assert achieved_rps == pytest.approx(offered_rps, rel=0.25)

    def test_latency_grows_near_saturation(self):
        light = self._run(50_000)
        # 8 workers serve ~465 k req/s; offering beyond that builds a
        # queue that grows for the whole run.
        heavy = self._run(540_000, n_requests=600)
        assert heavy.latency.mean() > 1.5 * light.latency.mean()

    def test_all_requests_measured_without_warmup(self):
        sim = Simulator()
        testbed = Testbed(sim)
        tier = CpuOnlyMiddleTier(sim, testbed, n_workers=4)
        driver = OpenLoopDriver(
            sim,
            tier,
            WriteRequestFactory(testbed.platform, seed=1),
            offered_rate=50_000,
            warmup_fraction=0.0,
        )
        result = sim.run(until=driver.run(50))
        assert result.requests == 50

    def test_deterministic_given_seed(self):
        a = self._run(100_000, n_requests=100)
        b = self._run(100_000, n_requests=100)
        assert a.latency.samples == b.latency.samples

    def test_invalid_args(self):
        sim = Simulator()
        testbed = Testbed(sim)
        tier = CpuOnlyMiddleTier(sim, testbed, n_workers=2)
        factory = WriteRequestFactory(testbed.platform)
        with pytest.raises(ValueError):
            OpenLoopDriver(sim, tier, factory, offered_rate=0.0)
        driver = OpenLoopDriver(sim, tier, factory, offered_rate=1000.0)
        with pytest.raises(ValueError):
            driver.run(0)
        with pytest.raises(ValueError, match="offered_rate"):
            OpenLoopDriver(sim, tier, factory).run(1)


class TestBlueField3:
    def test_spec_calibration(self):
        spec = BlueField3Spec()
        assert spec.per_core_compression_rate == pytest.approx(gbps(50) / 16)
        assert spec.port_rate == gbps(400)

    def test_throughput_capped_by_arm_compression(self):
        sim = Simulator()
        testbed = Testbed(sim)
        tier = BlueField3MiddleTier(sim, testbed)
        driver = ClientDriver(
            sim, tier, WriteRequestFactory(testbed.platform, seed=1), concurrency=256
        )
        result = sim.run(until=driver.run(2500))
        # ~50 Gb/s of Arm compression against 400 Gb/s networking (§3.4).
        assert 35 < to_gbps(result.throughput) < 55

    def test_no_host_memory_involved(self):
        sim = Simulator()
        testbed = Testbed(sim)
        tier = BlueField3MiddleTier(sim, testbed)
        driver = ClientDriver(
            sim, tier, WriteRequestFactory(testbed.platform, seed=1), concurrency=16
        )
        sim.run(until=driver.run(64))
        assert tier.device_memory.total_bytes > 0  # payloads cross device DDR

    def test_core_count_validated(self):
        sim = Simulator()
        testbed = Testbed(sim)
        with pytest.raises(ValueError):
            BlueField3MiddleTier(sim, testbed, n_workers=17)

    def test_replication_still_three_way(self):
        sim = Simulator()
        testbed = Testbed(sim)
        tier = BlueField3MiddleTier(sim, testbed)
        driver = ClientDriver(
            sim, tier, WriteRequestFactory(testbed.platform, seed=1), concurrency=8
        )
        sim.run(until=driver.run(32))
        total = sum(s.writes_served.value for s in testbed.storage_servers)
        assert total == tier.requests_completed.value * 3
