"""Functional end-to-end tests: real corpus bytes through the full stack.

These tests run the complete system — client, middle tier, RoCE fabric,
replication, storage — in *functional* mode: payloads carry real bytes
from the Silesia-like corpus, compression really runs the pure-Python
LZ4 codec, and what lands on disk must decompress bit-for-bit back to
what the VM wrote.
"""

import pytest

from repro.compression import SilesiaLikeCorpus, lz4_decompress
from repro.core import SmartDsMiddleTier
from repro.middletier import AcceleratorMiddleTier, BlueField2MiddleTier, CpuOnlyMiddleTier, Testbed
from repro.sim import Simulator
from repro.workloads import ClientDriver, WriteRequestFactory

DESIGNS = [
    (CpuOnlyMiddleTier, {"n_workers": 4}),
    (AcceleratorMiddleTier, {"n_workers": 2}),
    (BlueField2MiddleTier, {"n_workers": 2}),
    (SmartDsMiddleTier, {"n_ports": 1}),
]


@pytest.fixture(scope="module")
def corpus_blocks():
    return SilesiaLikeCorpus(seed=99, file_size=8192).blocks(4096)[:24]


def run_functional(design_cls, kwargs, blocks):
    sim = Simulator()
    testbed = Testbed(sim)
    tier = design_cls(sim, testbed, **kwargs)
    factory = WriteRequestFactory(testbed.platform, blocks=blocks, seed=1)
    driver = ClientDriver(sim, tier, factory, concurrency=4, warmup_fraction=0.0)
    result = sim.run(until=driver.run(len(blocks)))
    return sim, testbed, tier, driver, factory, result


class TestWritePathCarriesRealBytes:
    @pytest.mark.parametrize("design_cls,kwargs", DESIGNS)
    def test_storage_holds_decompressible_replicas(self, design_cls, kwargs, corpus_blocks):
        sim, testbed, tier, driver, factory, result = run_functional(
            design_cls, kwargs, corpus_blocks
        )
        assert result.requests == len(corpus_blocks)
        # Find every block on storage and verify all three replicas.
        for block_id, original in enumerate(corpus_blocks):
            replicas_found = 0
            for server in testbed.storage_servers:
                record = server.store.latest(0, block_id)
                if record is None:
                    continue
                replicas_found += 1
                assert record.data is not None
                assert lz4_decompress(record.data) == original
            assert replicas_found == 3, f"block {block_id}: {replicas_found} replicas"

    @pytest.mark.parametrize("design_cls,kwargs", DESIGNS)
    def test_read_back_returns_original_bytes(self, design_cls, kwargs, corpus_blocks):
        sim, testbed, tier, driver, factory, result = run_functional(
            design_cls, kwargs, corpus_blocks
        )
        replies = []

        def reader():
            for lba in (0, 5, len(corpus_blocks) - 1):
                reply = yield from driver.request(factory.make_read(lba))
                replies.append((lba, reply))

        sim.process(reader())
        sim.run()
        assert len(replies) == 3
        for lba, reply in replies:
            assert reply.header["status"] == "ok"
            assert reply.payload.data == corpus_blocks[lba]


class TestDeterminism:
    def test_identical_seeds_identical_results(self):
        """The whole stack is deterministic: same seed, same trajectory."""

        def run_once():
            sim = Simulator()
            testbed = Testbed(sim)
            tier = CpuOnlyMiddleTier(sim, testbed, n_workers=4)
            factory = WriteRequestFactory(
                testbed.platform, seed=7, latency_sensitive_fraction=0.3
            )
            driver = ClientDriver(sim, tier, factory, concurrency=8)
            result = sim.run(until=driver.run(100))
            return (sim.now, result.latency.samples, result.payload_bytes)

        assert run_once() == run_once()

    def test_different_seeds_differ(self):
        def run_once(seed):
            sim = Simulator()
            testbed = Testbed(sim)
            tier = CpuOnlyMiddleTier(sim, testbed, n_workers=4)
            # The seed steers which writes are latency-sensitive, which
            # changes the compression work and hence the timings.
            factory = WriteRequestFactory(
                testbed.platform, seed=seed, latency_sensitive_fraction=0.3
            )
            driver = ClientDriver(sim, tier, factory, concurrency=8)
            result = sim.run(until=driver.run(100))
            return result.latency.samples

        assert run_once(1) != run_once(2)


class TestLossyFabricEndToEnd:
    def test_writes_survive_a_lossy_fabric(self, corpus_blocks):
        """With 10% message loss everywhere, data still lands intact."""
        import dataclasses

        from repro.params import NetworkSpec, PlatformSpec

        platform = PlatformSpec(network=NetworkSpec(loss_rate=0.1))
        sim = Simulator()
        testbed = Testbed(sim, platform)
        tier = CpuOnlyMiddleTier(sim, testbed, n_workers=4)
        blocks = corpus_blocks[:8]
        factory = WriteRequestFactory(platform, blocks=blocks, seed=1)
        driver = ClientDriver(sim, tier, factory, concurrency=2, warmup_fraction=0.0)
        result = sim.run(until=driver.run(len(blocks)))
        assert result.requests == len(blocks)
        for block_id, original in enumerate(blocks):
            found = [
                server.store.latest(0, block_id)
                for server in testbed.storage_servers
                if server.store.latest(0, block_id) is not None
            ]
            assert len(found) == 3
            for record in found:
                assert lz4_decompress(record.data) == original
