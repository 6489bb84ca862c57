"""Tests for ASCII charts, fabric latency, and trace replay."""

import dataclasses

import pytest

from repro.middletier import CpuOnlyMiddleTier, Testbed
from repro.middletier.mapping import AddressMapper
from repro.net import Datapath
from repro.params import AdmissionSpec, PlatformSpec
from repro.sim import Simulator
from repro.telemetry.charts import bar_chart, line_chart
from repro.telemetry.reporting import Series
from repro.units import msec, usec
from repro.workloads import OpenLoopDriver, WriteRequestFactory
from repro.workloads.traces import TraceEntry, generate_trace


class TestLineChart:
    def test_renders_all_series_markers(self):
        a = Series("cpu", (1.0, 2.0, 3.0), (10.0, 20.0, 30.0))
        b = Series("smartds", (1.0, 2.0, 3.0), (40.0, 40.0, 40.0))
        text = line_chart([a, b], title="fig")
        assert "fig" in text
        assert "o cpu" in text and "x smartds" in text
        assert "o" in text and "x" in text

    def test_extremes_on_grid(self):
        series = Series("s", (0.0, 10.0), (0.0, 100.0))
        text = line_chart([series], width=20, height=8)
        lines = text.splitlines()
        assert any("100" in line for line in lines)  # y max tick
        assert "10" in lines[-2]  # x-axis tick line (legend is last)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            line_chart([])
        with pytest.raises(ValueError):
            line_chart([Series("s", (), ())])

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            line_chart([Series("s", (1.0,), (1.0,))], width=5, height=2)

    def test_flat_series_does_not_crash(self):
        series = Series("flat", (1.0, 2.0), (5.0, 5.0))
        assert "flat" in line_chart([series])


class TestBarChart:
    def test_bars_proportional(self):
        text = bar_chart(["a", "b"], [50.0, 100.0], width=10)
        lines = text.splitlines()
        assert lines[0].count("#") == 5
        assert lines[1].count("#") == 10

    def test_unit_suffix(self):
        assert "Gb/s" in bar_chart(["x"], [1.0], unit="Gb/s")

    def test_validation(self):
        with pytest.raises(ValueError):
            bar_chart(["a"], [1.0, 2.0])
        with pytest.raises(ValueError):
            bar_chart([], [])
        with pytest.raises(ValueError):
            bar_chart(["a"], [float("nan")])


class TestFabric:
    def test_cross_rack_storage_adds_write_latency(self):
        """3-way replication across racks costs measurable latency."""

        def run(switch_latency):
            from repro.workloads import ClientDriver

            platform = PlatformSpec()
            platform = dataclasses.replace(
                platform,
                network=dataclasses.replace(platform.network, switch_latency=switch_latency),
            )
            sim = Simulator()
            testbed = Testbed(sim, platform)
            tier = CpuOnlyMiddleTier(sim, testbed, n_workers=2)
            driver = ClientDriver(
                sim, tier, WriteRequestFactory(platform, seed=1), concurrency=2
            )
            result = sim.run(until=driver.run(20))
            return result.latency.mean()

        # One-way latency through a ToR switch (same rack) and through
        # ToR, spine and ToR (cross rack) of a two-tier Clos fabric.
        assert run(switch_latency=usec(2.7)) > run(switch_latency=usec(0.9))


class TestTraceGeneration:
    def test_deterministic(self):
        a = generate_trace(duration=0.01, base_rate=50_000, seed=4)
        b = generate_trace(duration=0.01, base_rate=50_000, seed=4)
        assert a == b

    def test_timestamps_sorted_and_bounded(self):
        trace = generate_trace(duration=0.01, base_rate=50_000, seed=1)
        times = [entry.at for entry in trace]
        assert times == sorted(times)
        assert all(0 <= t < 0.01 for t in times)

    def test_read_write_mix(self):
        trace = generate_trace(
            duration=0.02, base_rate=100_000, read_fraction=0.3, seed=2
        )
        reads = sum(1 for e in trace if e.kind == "read")
        writes = sum(1 for e in trace if e.kind == "write")
        assert writes > reads > 0
        # Reads only target written LBAs.
        written = {e.lba for e in trace if e.kind == "write"}
        assert all(e.lba in written for e in trace if e.kind == "read")

    def test_bursts_raise_short_term_rate(self):
        trace = generate_trace(
            duration=0.05, base_rate=20_000, burst_rate=200_000, seed=3
        )
        # Bin arrivals; the busiest bin should far exceed the average.
        bins = [0] * 50
        for entry in trace:
            bins[min(49, int(entry.at / 0.001))] += 1
        assert max(bins) > 3 * (sum(bins) / len(bins))

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            generate_trace(duration=0, base_rate=1000)
        with pytest.raises(ValueError):
            generate_trace(duration=1, base_rate=1000, read_fraction=1.0)


class Tap(Datapath):
    """Records when the client sends each request and gets each reply."""

    def __init__(self, sim):
        self.sim = sim
        self.sent = []  # (time, request id, header) per request sent
        self.replied = {}  # request id -> reply arrival time

    def egress(self, message, qp):
        self.sent.append((self.sim.now, message.request_id, dict(message.header)))
        return
        yield  # pragma: no cover - generator form

    def ingress(self, message, qp):
        self.replied[message.header["in_reply_to"]] = self.sim.now
        return False
        yield  # pragma: no cover - generator form


def _replayer(sim, platform=PlatformSpec(), n_workers=8):
    tier = CpuOnlyMiddleTier(sim, Testbed(sim, platform), n_workers=n_workers)
    return OpenLoopDriver(sim, tier, WriteRequestFactory(platform, seed=1), warmup_fraction=0.0)


class TestTraceEntry:
    @pytest.mark.parametrize(
        "at, kind, lba", [(0.0, "trim", 1), (-1e-6, "write", 1), (0.0, "read", -1)]
    )
    def test_bad_entry_rejected_when_built(self, at, kind, lba):
        with pytest.raises(ValueError):
            TraceEntry(at=at, kind=kind, lba=lba)


class TestTraceReplay:
    def test_replay_serves_whole_trace(self):
        """Reads wait for their in-flight writes, so none misses."""
        sim = Simulator()
        driver = _replayer(sim)
        trace = generate_trace(
            duration=msec(2), base_rate=100_000, read_fraction=0.2, seed=6
        )
        assert {entry.kind for entry in trace} == {"read", "write"}
        result = sim.run(until=driver.replay(trace))
        assert result.requests == len(trace)
        assert result.failures == ()
        assert result.latency.count == result.requests
        assert driver.replies_unmatched.value == 0

    def test_replay_paces_arrivals(self):
        """Each request leaves at its trace time, measured from the start."""
        sim = Simulator()
        driver = _replayer(sim)
        tap = driver.endpoint.datapath = Tap(sim)
        sim.run(until=usec(5))
        trace = [TraceEntry(at=i * 0.0001, kind="write", lba=i) for i in range(10)]
        start = sim.now
        done = driver.replay(trace)
        sim.run(until=done)
        sent = [when - start for when, _id, _header in tap.sent]
        assert sent == pytest.approx([entry.at for entry in trace], abs=1e-12)
        assert sim.now >= start + trace[-1].at
        assert done.value.requests == 10  # a write-only trace still folds

    def test_read_waits_for_its_in_flight_write(self):
        sim = Simulator()
        driver = _replayer(sim)
        tap = driver.endpoint.datapath = Tap(sim)
        trace = [
            TraceEntry(at=0.0, kind="write", lba=7),
            TraceEntry(at=usec(1), kind="read", lba=7),
            TraceEntry(at=usec(1), kind="read", lba=8),  # no write to wait on
        ]
        result = sim.run(until=driver.replay(trace))
        assert result.failures == ((8, "not_found"),)
        (_, write_id, write), (miss_sent, _, miss), (read_sent, _, read) = tap.sent
        assert (write["block_id"], miss["block_id"], read["block_id"]) == (7, 8, 7)
        assert miss_sent == pytest.approx(usec(1))
        assert usec(1) < tap.replied[write_id] <= read_sent

    def test_empty_trace_rejected(self):
        sim = Simulator()
        driver = _replayer(sim, n_workers=2)
        with pytest.raises(ValueError):
            driver.replay([])

    def test_replayed_write_carries_its_own_lbas_segment(self):
        """A trace write's header names the segment of the LBA it writes,
        not of the factory's next sequential LBA."""
        sim = Simulator()
        driver = _replayer(sim, n_workers=2)
        tap = driver.endpoint.datapath = Tap(sim)
        lba = 8_388_613  # block 5 of segment 1
        sim.run(until=driver.replay([TraceEntry(at=0.0, kind="write", lba=lba)]))
        ((_when, _id, header),) = tap.sent
        resolved = AddressMapper().resolve(lba)
        assert header["block_id"] == lba
        assert header["chunk_id"] == resolved.chunk_id
        assert header["segment_id"] == resolved.segment_id == 1

    def test_shed_writes_are_failures_not_served_writes(self):
        """A tier with one admission credit serves one of 16 simultaneous
        writes and sheds the rest; the replay must report the 15 sheds."""
        platform = dataclasses.replace(
            PlatformSpec(),
            admission=AdmissionSpec(
                enabled=True, initial_credits=1, min_credits=1, max_credits=1
            ),
        )
        sim = Simulator()
        driver = _replayer(sim, platform, n_workers=2)
        trace = [TraceEntry(at=0.0, kind="write", lba=i) for i in range(16)]
        result = sim.run(until=driver.replay(trace))
        assert driver.tier.requests_completed.value == 1
        assert result.requests == 16
        assert result.ok_requests == 1
        assert sorted(result.failed_lbas) == list(range(1, 16))
        assert {status for _lba, status in result.failures} == {"shed"}
        assert result.latency.count == 1
