"""Unit tests for the host hardware models."""

import pytest

from repro.hostmodel import CpuComplex, DdioLlc, MemorySubsystem, PcieLink
from repro.params import HostSpec
from repro.sim import Simulator
from repro.units import gbps, mib, to_usec, usec


class TestMemorySubsystem:
    def test_read_takes_size_over_rate(self):
        sim = Simulator()
        memory = MemorySubsystem(sim, rate=1000.0, lanes=1, chunk=1 << 30)

        def body():
            yield from memory.read(500)

        sim.process(body())
        sim.run()
        assert sim.now == pytest.approx(0.5)

    def test_meters_split_reads_and_writes(self):
        sim = Simulator()
        memory = MemorySubsystem.for_host(sim)

        def body():
            yield from memory.read(1000)
            yield from memory.write(500)

        sim.process(body())
        sim.run()
        assert memory.read_meter.total_bytes == 1000
        assert memory.write_meter.total_bytes == 500

    def test_chunking_lets_small_transfer_overtake(self):
        sim = Simulator()
        # 2 lanes: the giant transfer occupies one lane chunk by chunk, the
        # small one proceeds on the other.
        memory = MemorySubsystem(sim, rate=1000.0, lanes=2, chunk=100)
        done = []

        def big():
            yield from memory.read(10_000)
            done.append(("big", sim.now))

        def small():
            yield sim.timeout(0.001)
            yield from memory.write(100)
            done.append(("small", sim.now))

        sim.process(big())
        sim.process(small())
        sim.run()
        assert done[0][0] == "small"

    def test_interference_slows_foreground(self):
        """Background load cuts foreground effective throughput (Fig. 4 shape)."""

        def run(with_background):
            sim = Simulator()
            memory = MemorySubsystem(sim, rate=1000.0, lanes=1, chunk=100)
            finished = []

            def foreground():
                for _ in range(10):
                    yield from memory.read(100)
                finished.append(sim.now)

            def background():
                while True:
                    yield from memory.write(100)

            sim.process(foreground())
            if with_background:
                sim.process(background())
            sim.run(until=1000.0)
            return finished[0]

        assert run(True) > 1.5 * run(False)


class TestDdioLlc:
    def test_capacity_is_two_elevenths_of_llc(self):
        llc = DdioLlc(HostSpec())
        assert llc.ddio_capacity == mib(16) * 2 // 11

    def test_small_working_set_skips_dram(self):
        llc = DdioLlc()
        traffic = llc.dma_write(4096, working_set=1 << 20)
        assert traffic.dram_read == 0 and traffic.dram_write == 0
        traffic = llc.dma_read(4096, working_set=1 << 20)
        assert traffic.dram_read == 0 and traffic.dram_write == 0

    def test_middle_tier_buffer_never_fits(self):
        """The ~400 MB intermediate buffer (§3.2) always spills to DRAM."""
        llc = DdioLlc()
        working_set = 400 * 1000**2
        assert llc.dma_write(4096, working_set).dram_write == 4096
        assert llc.dma_read(4096, working_set).dram_read == 4096

    def test_disabled_ddio_always_hits_dram(self):
        llc = DdioLlc(enabled=False)
        assert llc.dma_write(4096, working_set=1024).dram_write == 4096

    def test_negative_sizes_rejected(self):
        with pytest.raises(ValueError):
            DdioLlc().dma_write(-1, 0)
        with pytest.raises(ValueError):
            DdioLlc().dma_read(1, -1)


class TestPcieLink:
    def test_unloaded_write_latency_near_calibration(self):
        sim = Simulator()
        link = PcieLink(sim)
        t_done = []

        def body():
            yield from link.dma_write(64)
            t_done.append(sim.now)

        sim.process(body())
        sim.run()
        # One upstream leg: ~0.7 us propagation + tiny serialization.
        assert usec(0.5) < t_done[0] < usec(1.0)

    def test_unloaded_read_latency_near_table1(self):
        sim = Simulator()
        link = PcieLink(sim)
        t_done = []

        def body():
            yield from link.dma_read(64)
            t_done.append(sim.now)

        sim.process(body())
        sim.run()
        # Request leg + completion leg: ~1.4 us (Table 1, under-loaded).
        assert usec(1.2) < t_done[0] < usec(1.8)

    def test_loaded_latency_grows(self):
        """Table 1's shape: heavily loaded PCIe multiplies DMA latency."""

        def probe_latency(loaded):
            sim = Simulator()
            link = PcieLink(sim)
            latencies = []

            def background():
                while True:
                    yield from link.dma_read(1 << 16)

            def probe():
                yield sim.timeout(usec(50))
                start = sim.now
                yield from link.dma_read(4096)
                latencies.append(sim.now - start)

            if loaded:
                for _ in range(16):
                    sim.process(background())
            sim.process(probe())
            sim.run(until=usec(400))
            return latencies[0]

        assert probe_latency(True) > 2 * probe_latency(False)

    def test_meters_track_directions(self):
        sim = Simulator()
        link = PcieLink(sim)

        def body():
            yield from link.dma_write(1000)
            yield from link.dma_read(2000)

        sim.process(body())
        sim.run()
        assert link.d2h_meter.total_bytes >= 1000  # data + read request
        assert link.h2d_meter.total_bytes == 2000

    def test_read_chunks_serialize(self):
        sim = Simulator()
        spec = HostSpec(pcie_rate=1000.0, pcie_leg_latency=0.0, pcie_read_chunk=100)
        link = PcieLink(sim, spec)

        def body():
            yield from link.dma_read(1000)

        sim.process(body())
        sim.run()
        # 64 B request + 10 chunks of 100 B at 1000 B/s.
        assert sim.now == pytest.approx((64 + 1000) / 1000.0)


class TestCpuComplex:
    def test_logical_core_count(self):
        assert CpuComplex().logical_cores == 48

    def test_single_thread_rate_is_2_1_gbps(self):
        cpu = CpuComplex()
        assert cpu.compression_profile(0, 1).rate == pytest.approx(gbps(2.1))

    def test_smt_pair_totals_2_7_gbps(self):
        cpu = CpuComplex()
        # 48 threads: every physical core holds two threads.
        total = cpu.aggregate_compression_rate(48)
        assert total == pytest.approx(24 * gbps(2.7))

    def test_up_to_24_threads_no_sharing(self):
        cpu = CpuComplex()
        assert cpu.aggregate_compression_rate(24) == pytest.approx(24 * gbps(2.1))

    def test_25th_thread_halves_one_core(self):
        cpu = CpuComplex()
        total = cpu.aggregate_compression_rate(25)
        assert total == pytest.approx(23 * gbps(2.1) + gbps(2.7))

    def test_aggregate_monotonic_in_threads(self):
        cpu = CpuComplex()
        rates = [cpu.aggregate_compression_rate(n) for n in range(1, 49)]
        assert all(b >= a for a, b in zip(rates, rates[1:]))

    def test_invalid_thread_counts_rejected(self):
        cpu = CpuComplex()
        with pytest.raises(ValueError):
            cpu.compression_profile(0, 0)
        with pytest.raises(ValueError):
            cpu.compression_profile(0, 49)
        with pytest.raises(ValueError):
            cpu.compression_profile(5, 5)
