"""Chaos tests: storage failures under sustained load.

Invariant under any single-server failure during a write-heavy run:
every acknowledged write remains durable on three healthy replicas once
the heartbeat monitor has done its job, and no acknowledged data is
lost (functional payloads still decompress to the original bytes).
"""

import dataclasses
import random

import pytest

from repro.compression import SilesiaLikeCorpus, lz4_decompress
from repro.core import SmartDsMiddleTier
from repro.middletier import CpuOnlyMiddleTier, HeartbeatMonitor, Testbed
from repro.params import DEFAULT_PLATFORM, RecoverySpec
from repro.sim import Simulator
from repro.telemetry.metrics import jain_fairness
from repro.units import msec
from repro.workloads import ClientDriver, WriteRequestFactory


class TestFailureUnderLoad:
    @pytest.mark.parametrize("victim_index", [0, 2, 4])
    def test_acked_writes_survive_one_failure(self, victim_index):
        sim = Simulator()
        testbed = Testbed(sim, n_storage_servers=5)
        tier = CpuOnlyMiddleTier(sim, testbed, n_workers=4)
        tier.retain_writes = True
        monitor = HeartbeatMonitor(sim, tier, interval=msec(1), timeout=msec(1))
        driver = ClientDriver(
            sim,
            tier,
            WriteRequestFactory(testbed.platform, seed=victim_index),
            concurrency=8,
            warmup_fraction=0.0,
        )

        def killer():
            yield sim.timeout(msec(1))
            testbed.storage_servers[victim_index].fail()

        sim.process(killer())
        done = driver.run(120)
        result = sim.run(until=done)
        sim.run(until=sim.now + msec(30))  # let re-replication finish
        monitor.stop()

        assert result.requests == 120
        victim = testbed.storage_servers[victim_index].address
        for entries in tier._chunk_log.values():
            for entry in entries:
                holders = [address for address, _ in entry.replicas]
                assert victim not in holders
                assert len(set(holders)) == 3

    def test_functional_payloads_survive_failure(self):
        sim = Simulator()
        testbed = Testbed(sim, n_storage_servers=5)
        tier = SmartDsMiddleTier(sim, testbed, n_ports=1)
        tier.retain_writes = True
        monitor = HeartbeatMonitor(sim, tier, interval=msec(1), timeout=msec(1))
        blocks = SilesiaLikeCorpus(seed=17, file_size=8192).blocks(4096)[:16]
        driver = ClientDriver(
            sim,
            tier,
            WriteRequestFactory(testbed.platform, blocks=blocks, seed=1),
            concurrency=4,
            warmup_fraction=0.0,
        )

        def killer():
            yield sim.timeout(msec(0.2))
            testbed.storage_servers[1].fail()

        sim.process(killer())
        result = sim.run(until=driver.run(len(blocks)))
        sim.run(until=sim.now + msec(30))  # re-replication of early writes
        monitor.stop()
        assert result.requests == len(blocks)
        # Every block decompresses on every replica that holds it; all
        # blocks have 3 replicas even with a dead server (fail-over).
        for block_id, original in enumerate(blocks):
            replicas = 0
            for server in testbed.storage_servers:
                record = server.store.latest(0, block_id)
                if record is None or server.failed:
                    continue
                replicas += 1
                assert lz4_decompress(record.data) == original
            assert replicas == 3, f"block {block_id} has {replicas} healthy replicas"

    def test_random_failure_schedule_never_loses_acked_data(self):
        """Randomized: kill then recover servers during a sustained run."""
        rng = random.Random(9)
        sim = Simulator()
        platform = dataclasses.replace(
            DEFAULT_PLATFORM, recovery=RecoverySpec(write_attempt_timeout=msec(2))
        )
        testbed = Testbed(sim, platform, n_storage_servers=6)
        tier = CpuOnlyMiddleTier(sim, testbed, n_workers=4)
        driver = ClientDriver(
            sim,
            tier,
            WriteRequestFactory(testbed.platform, seed=3),
            concurrency=8,
            warmup_fraction=0.0,
        )

        def chaos():
            for _ in range(3):
                yield sim.timeout(msec(rng.uniform(0.5, 2.0)))
                victim = rng.choice(testbed.storage_servers)
                victim.fail()
                yield sim.timeout(msec(rng.uniform(2.0, 4.0)))
                victim.recover()

        sim.process(chaos())
        result = sim.run(until=driver.run(200))
        assert result.requests == 200  # every request eventually acked
        # Every acked block readable from at least one live replica.
        missing = 0
        for key, addresses in tier._block_locations.items():
            found = any(
                testbed.server(address).store.latest(key[0], key[1]) is not None
                for address in addresses
            )
            missing += not found
        assert missing == 0


class TestJainFairness:
    def test_equal_allocations_are_fair(self):
        assert jain_fairness([5.0, 5.0, 5.0]) == pytest.approx(1.0)

    def test_single_hog_is_one_over_n(self):
        assert jain_fairness([10.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)

    def test_all_zero_is_fair(self):
        assert jain_fairness([0.0, 0.0]) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            jain_fairness([])
        with pytest.raises(ValueError):
            jain_fairness([-1.0])


class TestMultitenancyExperiment:
    def test_tenants_get_fair_shares(self):
        from repro.experiments.ext_multitenancy import measure_tenants

        stats = measure_tenants("SmartDS-1", n_workers=2, n_tenants=3, n_requests_per_tenant=150)
        assert len(stats["per_tenant_gbps"]) == 3
        assert stats["fairness"] > 0.98

    def test_invalid_tenant_count(self):
        from repro.experiments.ext_multitenancy import measure_tenants

        with pytest.raises(ValueError):
            measure_tenants("CPU-only", n_workers=2, n_tenants=0, n_requests_per_tenant=10)
