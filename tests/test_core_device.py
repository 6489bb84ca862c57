"""Unit tests for the SmartDS device, engines, and FPGA resource model."""

import pytest

from repro.core import DeviceBuffer, SmartDsDevice, design_resources
from repro.core.resources import FpgaResources, utilization
from repro.net.message import Payload
from repro.sim import Simulator
from repro.units import gbps, to_gbps


class TestDeviceConstruction:
    def test_port_count_bounds(self):
        sim = Simulator()
        assert SmartDsDevice(sim, n_ports=6).n_ports == 6
        with pytest.raises(ValueError):
            SmartDsDevice(sim, n_ports=0)
        with pytest.raises(ValueError):
            SmartDsDevice(sim, n_ports=7)

    def test_one_instance_and_engine_per_port(self):
        sim = Simulator()
        device = SmartDsDevice(sim, n_ports=4)
        assert len(device.instances) == 4
        engines = {id(inst.engine) for inst in device.instances}
        assert len(engines) == 4

    def test_instance_lookup(self):
        sim = Simulator()
        device = SmartDsDevice(sim, n_ports=2)
        assert device.instance(1) is device.instances[1]
        with pytest.raises(ValueError):
            device.instance(2)

    def test_hbm_rate_matches_spec(self):
        sim = Simulator()
        device = SmartDsDevice(sim)
        assert to_gbps(device.hbm.rate) == pytest.approx(3400)


class TestAllocator:
    def test_alloc_free_cycle(self):
        sim = Simulator()
        device = SmartDsDevice(sim)
        buf = device.allocator.alloc(4096)
        assert device.allocator.allocated == 4096
        device.allocator.free(buf)
        assert device.allocator.allocated == 0
        assert device.allocator.peak == 4096

    def test_capacity_enforced(self):
        sim = Simulator()
        device = SmartDsDevice(sim, hbm_capacity=8192)
        device.allocator.alloc(8192)
        with pytest.raises(MemoryError):
            device.allocator.alloc(1)

    def test_bad_sizes_rejected(self):
        sim = Simulator()
        device = SmartDsDevice(sim)
        with pytest.raises(ValueError):
            device.allocator.alloc(0)


class TestHardwareEngine:
    def test_compresses_payload_into_dest(self):
        sim = Simulator()
        device = SmartDsDevice(sim)
        engine = device.instance(0).engine
        src = DeviceBuffer(size=4096, payload=Payload.synthetic(4096, 2.0))
        dest = DeviceBuffer(size=4096)
        results = []

        def body():
            result = yield engine.run(src, 4096, dest)
            results.append(result)

        sim.process(body())
        sim.run()
        assert results[0].is_compressed
        assert results[0].size == 2048
        assert dest.payload is results[0]
        assert engine.blocks_processed.value == 1
        assert engine.bytes_in.value == 4096
        assert engine.bytes_out.value == 2048

    def test_engine_throughput_is_100gbps(self):
        """N back-to-back 4 KB blocks should take ~N * 0.33 us of engine time."""
        sim = Simulator()
        device = SmartDsDevice(sim)
        engine = device.instance(0).engine
        n_blocks = 256

        def body():
            jobs = []
            for _ in range(n_blocks):
                src = DeviceBuffer(size=4096, payload=Payload.synthetic(4096, 2.0))
                dest = DeviceBuffer(size=4096)
                jobs.append(engine.run(src, 4096, dest))
            yield sim.all_of(jobs)

        sim.process(body())
        sim.run()
        achieved = n_blocks * 4096 / sim.now
        # Pipelined blocks approach the engine's 100 Gb/s input rate
        # (minus HBM/PCIe/first-block setup effects).
        assert achieved > 0.5 * gbps(100)

    def test_empty_source_rejected(self):
        sim = Simulator()
        device = SmartDsDevice(sim)
        engine = device.instance(0).engine

        def body():
            yield engine.run(DeviceBuffer(size=4096), 4096, DeviceBuffer(size=4096))

        sim.process(body())
        with pytest.raises(ValueError):
            sim.run()

    def test_oversized_result_rejected(self):
        sim = Simulator()
        device = SmartDsDevice(sim)
        engine = device.instance(0).engine
        src = DeviceBuffer(size=4096, payload=Payload.synthetic(4096, 2.0))
        tiny = DeviceBuffer(size=16)

        def body():
            yield engine.run(src, 4096, tiny)

        sim.process(body())
        with pytest.raises(ValueError):
            sim.run()


class TestFpgaResources:
    def test_table3_published_rows(self):
        assert design_resources("acc") == FpgaResources(112, 109, 172)
        assert design_resources("smartds", 1) == FpgaResources(157, 143, 292)
        assert design_resources("smartds", 2) == FpgaResources(313, 285, 584)
        assert design_resources("smartds", 4) == FpgaResources(627, 571, 1168)
        assert design_resources("smartds", 6) == FpgaResources(941, 857, 1752)

    def test_interpolated_port_counts(self):
        three = design_resources("smartds", 3)
        assert 313 < three.luts_k < 627
        assert 584 < three.brams < 1168

    def test_linear_in_ports(self):
        one = design_resources("smartds", 1)
        six = design_resources("smartds", 6)
        assert six.luts_k / one.luts_k == pytest.approx(6.0, rel=0.01)
        assert six.brams / one.brams == pytest.approx(6.0, rel=0.01)

    def test_utilization_matches_table3_percentages(self):
        util = utilization(design_resources("smartds", 1))
        assert util["luts"] == pytest.approx(0.12, abs=0.01)
        assert util["regs"] == pytest.approx(0.054, abs=0.01)
        assert util["brams"] == pytest.approx(0.145, abs=0.01)

    def test_unknown_design_rejected(self):
        with pytest.raises(ValueError):
            design_resources("gpu")
        with pytest.raises(ValueError):
            design_resources("smartds", 7)
