"""The request path every client driver shares: its one sample fold,
its reply matching, and how a non-``ok`` reply reaches the result."""

import dataclasses

import pytest

from repro.cluster import ShardedCluster
from repro.core import SmartDsMiddleTier
from repro.middletier import CpuOnlyMiddleTier, Testbed
from repro.params import DEFAULT_PLATFORM, AdmissionSpec
from repro.sim import Simulator
from repro.units import msec
from repro.workloads import (
    ClientDriver,
    DriverResult,
    OpenLoopDriver,
    RoutingClient,
    WriteRequestFactory,
)


def _shedding_tier(sim):
    """A SmartDS tier whose two admission credits a burst overruns."""
    admission = AdmissionSpec(
        enabled=True,
        min_credits=2,
        initial_credits=2,
        max_credits=2,
        latency_budget=msec(50),
        adapt_interval=msec(10),
    )
    platform = dataclasses.replace(DEFAULT_PLATFORM, admission=admission)
    testbed = Testbed(sim, platform, n_storage_servers=5)
    return SmartDsMiddleTier(sim, testbed, n_ports=1)


class TestFold:
    SAMPLES = [
        # (start, end, payload bytes, status, lba, is_read)
        (0.0, 3.0, 4096, "ok", 1, False),
        (0.0, 1.0, 0, "shed", 2, False),
        (1.0, 4.0, 4096, "ok", 3, False),
        (2.0, 2.5, 0, "unavailable", 4, False),
    ]

    def test_goodput_only_by_default(self):
        result = DriverResult.from_samples(self.SAMPLES)
        assert result.requests == 4
        assert result.payload_bytes == 2 * 4096
        assert result.latency.count == 2
        assert result.latency.mean() == pytest.approx(3.0)
        # Failures in completion order, not issue order.
        assert result.failures == ((2, "shed"), (4, "unavailable"))
        assert result.ok_requests == 2
        assert result.duration == pytest.approx(3.0)

    def test_failed_reads_count_in_latency(self):
        # The last two answers are reads: the failed one's wait counts.
        samples = self.SAMPLES[:2] + [sample[:5] + (True,) for sample in self.SAMPLES[2:]]
        result = DriverResult.from_samples(samples)
        assert result.payload_bytes == 2 * 4096
        assert sorted(result.latency.samples) == [0.5, 3.0, 3.0]
        assert result.failures == ((2, "shed"), (4, "unavailable"))

    def test_warmup_drops_the_earliest_completions(self):
        result = DriverResult.from_samples(self.SAMPLES, warmup_fraction=0.25)
        assert result.requests == 3
        assert result.failures == ((4, "unavailable"),)

    def test_no_samples_raises(self):
        with pytest.raises(RuntimeError):
            DriverResult.from_samples([])


class TestClosedLoopWritesSurfaceFailures:
    def test_shed_writes_land_in_failures(self):
        sim = Simulator()
        tier = _shedding_tier(sim)
        factory = WriteRequestFactory(tier.platform, seed=11)
        driver = ClientDriver(sim, tier, factory, concurrency=16, warmup_fraction=0.0)
        result = sim.run(until=driver.run(64))

        shed_total = tier.admission.shed_total
        assert shed_total > 0
        assert result.requests == 64
        assert len(result.failures) == shed_total
        assert {status for _lba, status in result.failures} == {"shed"}
        assert len(set(result.failed_lbas)) == shed_total
        # Goodput and latency leave the shed writes out.
        assert result.payload_bytes == result.ok_requests * 4096
        assert result.latency.count == result.ok_requests
        assert driver.replies_unmatched.value == 0


class TestReadsFoldAlike:
    @pytest.mark.parametrize("routed", [False, True], ids=["closed-loop", "one-shard-routed"])
    def test_a_missed_read_counts_in_latency(self, routed):
        # A 1-shard RoutingClient must fold its reads as ClientDriver does.
        sim = Simulator()
        factory = WriteRequestFactory(DEFAULT_PLATFORM, seed=5)
        if routed:
            cluster = ShardedCluster(sim, DEFAULT_PLATFORM, design="CPU-only", n_workers=2)
            client = RoutingClient(sim, cluster, factory, concurrency=2, warmup_fraction=0.0)
        else:
            tier = CpuOnlyMiddleTier(sim, Testbed(sim), n_workers=2)
            client = ClientDriver(sim, tier, factory, concurrency=2, warmup_fraction=0.0)
        sim.run(until=client.run(8))
        result = sim.run(until=client.run_reads([0, 999], concurrency=1))
        assert result.failures == ((999, "not_found"),)  # LBA 999 was never written
        assert result.latency.count == 2


class TestOpenLoopReplyMatching:
    def _driver(self, sim):
        testbed = Testbed(sim)
        tier = CpuOnlyMiddleTier(sim, testbed, n_workers=2)
        factory = WriteRequestFactory(testbed.platform, seed=3)
        return OpenLoopDriver(sim, tier, factory, offered_rate=1e5, warmup_fraction=0.0)

    def test_every_reply_matches_its_request(self):
        sim = Simulator()
        driver = self._driver(sim)
        result = sim.run(until=driver.run(20))
        assert result.requests == 20
        assert driver.replies_unmatched.value == 0

    def test_a_reply_nobody_waits_for_is_counted(self):
        sim = Simulator()
        driver = self._driver(sim)
        driver.tier.start()
        # Sent outside the driver, so no request waits on the reply.
        driver.qp.send(driver.factory.make())
        sim.run()
        assert driver.replies_unmatched.value == 1
        assert not driver._samples
