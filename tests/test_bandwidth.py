"""BandwidthServer against a reference model of a FIFO multi-lane pipe.

The reference is the straightforward slot discipline: a transfer starts
with a zero-delay hop, requests one of `lanes` slots of a
:class:`~repro.sim.resources.Resource`, holds it for ``n * lanes /
rate`` seconds, releases it, and completes ``per_transfer_overhead``
later. The server computes the same schedule from a heap of lane-free
times with one event per transfer; for every seeded schedule below its
completions, meters, ledger cells and final time must be bit-identical
to the reference's, including sweeps over the seeds an experiment's
``REPRO_FAULT_SEED`` fault plans draw from.
"""

import random

import pytest

from repro.sim.bandwidth import BandwidthServer
from repro.sim.debug import FlowLedger
from repro.sim.kernel import Simulator
from repro.sim.resources import Resource
from repro.telemetry.metrics import BandwidthMeter


class ReferencePipe:
    """The slot-queued pipe the server must reproduce exactly."""

    def __init__(self, sim, rate, name="pipe", lanes=1, per_transfer_overhead=0.0):
        self.sim = sim
        self.rate = rate
        self.name = name
        self.lanes = lanes
        self.overhead = per_transfer_overhead
        self.slots = Resource(sim, lanes)
        self.meters = []
        self.ledgers = []
        self.bytes_served = 0

    def attach_meter(self, meter):
        self.meters.append(meter)

    def attach_ledger(self, ledger):
        self.ledgers.append(ledger)

    def transfer(self, nbytes, flow=None):
        done = self.sim.event()
        done.callbacks.append(lambda event: self._book(nbytes, flow))
        self.sim.process(self._serve(nbytes, done))
        return done

    def _serve(self, nbytes, done):
        request = self.slots.request()
        yield request
        yield self.sim.timeout(nbytes * self.lanes / self.rate)
        self.slots.release(request)
        done.succeed(nbytes, delay=self.overhead)

    def _book(self, nbytes, flow):
        self.bytes_served += nbytes
        for meter in self.meters:
            meter.record(self.sim.now, nbytes)
        if flow is not None:
            for ledger in self.ledgers:
                ledger.record(self.name, flow, nbytes)


def _run_schedule(
    pipe_class,
    seed: int,
    lanes: int = 2,
    overhead: float = 0.0,
    producers: int = 4,
    transfers: int = 60,
    max_gap: float = 2e-6,
):
    """Drive a randomized transfer schedule; returns every observable."""
    sim = Simulator()
    pipe = pipe_class(sim, rate=8e9, name="pipe", lanes=lanes, per_transfer_overhead=overhead)
    meter = BandwidthMeter("shared")
    ledger = FlowLedger(name="ledger")
    pipe.attach_meter(meter)
    pipe.attach_ledger(ledger)
    completions = []

    def producer(pid: int):
        rng = random.Random(seed * 1009 + pid)
        for i in range(transfers):
            gap = rng.choice([0.0, rng.random() * max_gap])
            if gap:
                yield sim.timeout(gap)
            nbytes = rng.randrange(64, 65536)
            value = yield pipe.transfer(nbytes, flow=f"flow{pid}")
            completions.append((pid, i, sim.now, value))

    for pid in range(producers):
        sim.process(producer(pid), name=f"producer{pid}")
    sim.run()
    return {
        "completions": sorted(completions),
        "bytes_served": pipe.bytes_served,
        "meter": (meter.total_bytes, meter.events, meter.first_event, meter.last_event),
        "ledger": ledger._cells,
        "final_time": sim.now,
    }


def _assert_matches_reference(**schedule):
    expected = _run_schedule(ReferencePipe, **schedule)
    assert _run_schedule(BandwidthServer, **schedule) == expected


class TestMatchesReferenceModel:
    @pytest.mark.parametrize("seed", [0, 1, 7, 23, 1234])
    def test_randomized_contention(self, seed):
        _assert_matches_reference(seed=seed)

    @pytest.mark.parametrize("seed", [3, 11, 42])
    def test_per_transfer_overhead(self, seed):
        # Overhead delays completion but must not occupy the lane.
        _assert_matches_reference(seed=seed, overhead=5e-7)

    @pytest.mark.parametrize("seed", [5, 17])
    def test_single_lane_burst(self, seed):
        # One lane and near-zero gaps: almost every transfer queues.
        _assert_matches_reference(seed=seed, lanes=1, producers=6, max_gap=2e-7)

    @pytest.mark.parametrize("seed", [11, 23, 37])
    def test_fault_seed_sweep(self, seed, monkeypatch):
        # The same seeds CI's chaos matrix passes via REPRO_FAULT_SEED;
        # the schedule derives from the seed directly.
        monkeypatch.setenv("REPRO_FAULT_SEED", str(seed))
        _assert_matches_reference(seed=seed, lanes=3, producers=5, overhead=1e-7)


class TestLaneSchedule:
    def test_queued_transfer_costs_one_event(self):
        sim = Simulator()
        pipe = BandwidthServer(sim, rate=1e9, per_transfer_overhead=1e-6)
        first = pipe.transfer(1000)
        second = pipe.transfer(1000)  # waits for the one lane
        assert (pipe.fast_transfers, pipe.slow_transfers) == (1, 1)
        sim.run()
        assert sim.steps == 2
        assert first.value == second.value == 1000
        # 1 us of service each, back to back, plus 1 us of overhead.
        assert sim.now == pytest.approx(3e-6)

    def test_busy_lanes_counts_lanes_whose_schedule_ends_after_now(self):
        sim = Simulator()
        pipe = BandwidthServer(sim, rate=3e9, lanes=3)  # 1e9 B/s per lane
        seen = []

        def body():
            pipe.transfer(1000)  # lane ends at 1 us
            pipe.transfer(3000)  # lane ends at 3 us
            seen.append(pipe.busy_lanes)
            yield sim.timeout(1.5e-6)
            seen.append(pipe.busy_lanes)
            pipe.transfer(1000)  # takes a free lane, ends at 2.5 us
            pipe.transfer(1000)  # takes the other free lane, ends at 2.5 us
            pipe.transfer(500)  # queues behind a 2.5 us lane, ends at 3 us
            seen.append(pipe.busy_lanes)
            yield sim.timeout(1.2e-6)
            seen.append(pipe.busy_lanes)
            yield sim.timeout(1e-6)
            seen.append(pipe.busy_lanes)

        sim.process(body())
        sim.run()
        assert seen == [2, 1, 3, 2, 0]
        assert (pipe.fast_transfers, pipe.slow_transfers) == (4, 1)
        assert pipe.bytes_served == 6500

    def test_counters_and_busy_lanes_after_completion(self):
        sim = Simulator()
        pipe = BandwidthServer(sim, rate=1e9, lanes=2)

        def body():
            done = pipe.transfer(1000)
            assert pipe.fast_transfers == 1
            assert pipe.busy_lanes == 1
            yield done
            assert pipe.busy_lanes == 0

        sim.process(body())
        sim.run()
        assert pipe.slow_transfers == 0
        assert pipe.bytes_served == 1000
