"""The request path every client driver shares: its one sample fold,
its reply matching, and how a non-``ok`` reply reaches the result."""

import dataclasses

import pytest

from repro.core import SmartDsMiddleTier
from repro.middletier import CpuOnlyMiddleTier, Testbed
from repro.params import DEFAULT_PLATFORM, AdmissionSpec
from repro.sim import Simulator
from repro.units import msec
from repro.workloads import ClientDriver, DriverResult, OpenLoopDriver, WriteRequestFactory


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
        # (start, end, payload bytes, status, lba)
        (0.0, 3.0, 4096, "ok", 1),
        (0.0, 1.0, 0, "shed", 2),
        (1.0, 4.0, 4096, "ok", 3),
        (2.0, 2.5, 0, "unavailable", 4),
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

    def test_failed_latency_counts_every_answer(self):
        result = DriverResult.from_samples(self.SAMPLES, failed_latency=True)
        assert result.payload_bytes == 2 * 4096
        assert result.latency.count == 4
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
