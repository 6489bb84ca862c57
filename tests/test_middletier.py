"""Integration tests for the middle-tier designs and shared machinery."""

import pytest

from repro.core import SmartDsMiddleTier
from repro.middletier import (
    AcceleratorMiddleTier,
    AddressMapper,
    BlueField2MiddleTier,
    CpuOnlyMiddleTier,
    NaiveFpgaMiddleTier,
    Testbed,
)
from repro.params import StorageSpec
from repro.sim import Simulator
from repro.units import to_gbps
from repro.workloads import ClientDriver, WriteRequestFactory

ALL_DESIGNS = [
    (CpuOnlyMiddleTier, {"n_workers": 4}),
    (AcceleratorMiddleTier, {"n_workers": 2}),
    (BlueField2MiddleTier, {"n_workers": 2}),
    (NaiveFpgaMiddleTier, {"n_workers": 2}),
    (SmartDsMiddleTier, {"n_ports": 1}),
]


def run_writes(design_cls, kwargs, n_requests=300, concurrency=16, **factory_kw):
    sim = Simulator()
    testbed = Testbed(sim)
    tier = design_cls(sim, testbed, **kwargs)
    factory = WriteRequestFactory(testbed.platform, seed=3, **factory_kw)
    driver = ClientDriver(sim, tier, factory, concurrency=concurrency)
    done = driver.run(n_requests)
    result = sim.run(until=done)
    return sim, testbed, tier, result


class TestAddressMapper:
    def test_resolve_basic(self):
        mapper = AddressMapper()
        address = mapper.resolve(0)
        assert address.segment_id == 0 and address.chunk_id == 0 and address.chunk_offset == 0

    def test_chunk_boundaries(self):
        mapper = AddressMapper()
        per_chunk = mapper.blocks_per_chunk
        assert mapper.resolve(per_chunk - 1).chunk_id == 0
        assert mapper.resolve(per_chunk).chunk_id == 1

    def test_segment_boundaries(self):
        mapper = AddressMapper()
        per_segment = mapper.blocks_per_chunk * mapper.chunks_per_segment
        assert mapper.resolve(per_segment - 1).segment_id == 0
        assert mapper.resolve(per_segment).segment_id == 1

    def test_sizes_match_paper(self):
        mapper = AddressMapper()
        assert mapper.blocks_per_chunk == 64 * 1024 * 1024 // 4096
        assert mapper.chunks_per_segment == 32 * 1024 // 64

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            AddressMapper().resolve(-1)
        with pytest.raises(ValueError):
            AddressMapper(block_size=0)
        with pytest.raises(ValueError):
            AddressMapper(StorageSpec(chunk_bytes=1000), block_size=4096)


class TestAllDesignsServeWrites:
    @pytest.mark.parametrize("design_cls,kwargs", ALL_DESIGNS)
    def test_writes_complete_and_replicate(self, design_cls, kwargs):
        sim, testbed, tier, result = run_writes(design_cls, kwargs)
        assert result.requests > 0
        assert tier.requests_completed.value > 0
        # Every completed write hit exactly `replication` storage servers.
        total_stored = sum(s.writes_served.value for s in testbed.storage_servers)
        assert total_stored == tier.requests_completed.value * 3

    @pytest.mark.parametrize("design_cls,kwargs", ALL_DESIGNS)
    def test_blocks_are_compressed_on_disk(self, design_cls, kwargs):
        sim, testbed, tier, result = run_writes(design_cls, kwargs)
        for server in testbed.storage_servers:
            for chunk_id in server.store.chunk_ids():
                for record in server.store.live_blocks(chunk_id):
                    assert record.meta["is_compressed"]
                    assert record.size < 4096

    @pytest.mark.parametrize("design_cls,kwargs", ALL_DESIGNS)
    def test_latency_sensitive_writes_skip_compression(self, design_cls, kwargs):
        sim, testbed, tier, result = run_writes(
            design_cls, kwargs, latency_sensitive_fraction=1.0
        )
        for server in testbed.storage_servers:
            for chunk_id in server.store.chunk_ids():
                for record in server.store.live_blocks(chunk_id):
                    assert not record.meta["is_compressed"]
                    assert record.size == 4096


class TestDesignSignatures:
    def test_smartds_uses_no_host_memory(self):
        sim, testbed, tier, result = run_writes(SmartDsMiddleTier, {"n_ports": 1})
        assert tier.memory.total_bytes == 0

    def test_cpu_only_uses_host_memory_both_ways(self):
        sim, testbed, tier, result = run_writes(CpuOnlyMiddleTier, {"n_workers": 4})
        assert tier.memory.read_meter.total_bytes > 0
        assert tier.memory.write_meter.total_bytes > 0

    def test_acc_with_ddio_avoids_memory_reads(self):
        sim, testbed, tier, result = run_writes(
            AcceleratorMiddleTier, {"n_workers": 2, "ddio_enabled": True}
        )
        assert tier.memory.read_meter.total_bytes == 0
        assert tier.memory.write_meter.total_bytes > 0

    def test_acc_without_ddio_reads_memory(self):
        sim, testbed, tier, result = run_writes(
            AcceleratorMiddleTier, {"n_workers": 2, "ddio_enabled": False}
        )
        assert tier.memory.read_meter.total_bytes > 0

    def test_bf2_throughput_engine_bound(self):
        sim, testbed, tier, result = run_writes(
            BlueField2MiddleTier, {"n_workers": 4}, n_requests=2000, concurrency=128
        )
        assert to_gbps(result.throughput) < 45  # ~40 Gb/s engine

    def test_smartds_pcie_traffic_is_headers_only(self):
        sim, testbed, tier, result = run_writes(SmartDsMiddleTier, {"n_ports": 1})
        payload_bytes = tier.payload_bytes_served.value
        # All PCIe traffic together is far smaller than the payload volume.
        pcie_bytes = (
            tier.device.pcie.h2d_meter.total_bytes + tier.device.pcie.d2h_meter.total_bytes
        )
        assert pcie_bytes < 0.2 * payload_bytes

    def test_naive_fpga_marked_inflexible(self):
        assert NaiveFpgaMiddleTier.flexible is False
        assert SmartDsMiddleTier.flexible is True
        assert CpuOnlyMiddleTier.flexible is True

    def test_device_memory_freed_after_run(self):
        sim, testbed, tier, result = run_writes(SmartDsMiddleTier, {"n_ports": 1})
        # Only the posted recv window remains allocated.
        window_bytes = tier._recv_window * (testbed.platform.workload.block_size + 512)
        assert tier.device.allocator.allocated <= window_bytes + 4608


class TestReadPath:
    @pytest.mark.parametrize(
        "design_cls,kwargs",
        [
            (CpuOnlyMiddleTier, {"n_workers": 4}),
            (AcceleratorMiddleTier, {"n_workers": 2}),
            (SmartDsMiddleTier, {"n_ports": 1}),
        ],
    )
    def test_read_after_write_returns_block(self, design_cls, kwargs):
        sim = Simulator()
        testbed = Testbed(sim)
        tier = design_cls(sim, testbed, **kwargs)
        factory = WriteRequestFactory(testbed.platform, seed=5)
        driver = ClientDriver(sim, tier, factory, concurrency=4)
        done = driver.run(20)
        sim.run(until=done)

        replies = []

        def reader():
            replies.append((yield from driver.request(factory.make_read(lba=3))))

        sim.process(reader())
        sim.run()
        assert replies and replies[0].header["status"] == "ok"
        assert replies[0].payload.size == 4096
        assert not replies[0].payload.is_compressed

    def test_read_of_unknown_block_not_found(self):
        sim = Simulator()
        testbed = Testbed(sim)
        tier = CpuOnlyMiddleTier(sim, testbed, n_workers=2)
        factory = WriteRequestFactory(testbed.platform, seed=5)
        driver = ClientDriver(sim, tier, factory, concurrency=2)
        done = driver.run(4)
        sim.run(until=done)
        replies = []

        def reader():
            replies.append((yield from driver.request(factory.make_read(lba=999_999))))

        sim.process(reader())
        sim.run()
        assert replies[0].header["status"] == "not_found"


class TestFailover:
    def test_write_survives_storage_failure(self):
        sim = Simulator()
        testbed = Testbed(sim, n_storage_servers=5)
        tier = CpuOnlyMiddleTier(sim, testbed, n_workers=2)
        factory = WriteRequestFactory(testbed.platform, seed=7)
        driver = ClientDriver(sim, tier, factory, concurrency=4)

        def killer():
            yield sim.timeout(0.0001)
            testbed.storage_servers[0].fail()

        sim.process(killer())
        done = driver.run(100)
        result = sim.run(until=done)
        assert result.requests > 0
        # Every write is durable on three *healthy* replicas.
        assert tier.requests_completed.value == 100
        assert tier.failovers.value > 0

    def test_worker_validation(self):
        sim = Simulator()
        testbed = Testbed(sim)
        with pytest.raises(ValueError):
            CpuOnlyMiddleTier(sim, testbed, n_workers=0)
        with pytest.raises(ValueError):
            CpuOnlyMiddleTier(sim, testbed, n_workers=49)
        with pytest.raises(ValueError):
            BlueField2MiddleTier(sim, testbed, n_workers=9)
