"""Batched scheduling primitive: ``fluid_timeout``.

``fluid_timeout`` shares one event per (window-aligned) bucket among
every caller, the opt-in coalescing mode for periodic work where
interleaving doesn't matter.
"""

import pytest

from repro.sim.events import SimulationError
from repro.sim.kernel import Simulator
from repro.telemetry.registry import MetricsRegistry


class TestFluidTimeout:
    def test_same_bucket_shares_one_event(self):
        sim = Simulator()
        a = sim.fluid_timeout(0.9e-3, window=1e-3)
        b = sim.fluid_timeout(0.5e-3, window=1e-3)
        assert a is b  # both round up to the 1ms boundary
        sim.run()
        assert sim.now == pytest.approx(1e-3)
        assert sim.steps == 1

    def test_distinct_buckets_get_distinct_events(self):
        sim = Simulator()
        a = sim.fluid_timeout(0.5e-3, window=1e-3)
        b = sim.fluid_timeout(1.5e-3, window=1e-3)
        assert a is not b
        sim.run()
        assert sim.steps == 2

    def test_bucket_cleans_up_after_firing(self):
        sim = Simulator()
        first = sim.fluid_timeout(1e-3, window=1e-3)
        sim.run()
        assert not sim._fluid  # registry empty: no leak across buckets
        again = sim.fluid_timeout(1e-3, window=1e-3)
        assert again is not first

    def test_waiting_processes_all_resume(self):
        sim = Simulator()
        woke = []

        def sleeper(tag):
            yield sim.fluid_timeout(0.7e-3, window=1e-3)
            woke.append((tag, sim.now))

        for tag in "abc":
            sim.process(sleeper(tag))
        sim.run()
        assert woke == [(t, pytest.approx(1e-3)) for t in "abc"]

    def test_invalid_arguments_raise(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.fluid_timeout(1e-3, window=0.0)
        with pytest.raises(SimulationError):
            sim.fluid_timeout(-1e-3, window=1e-3)


class TestFluidSampler:
    def test_samplers_share_tick_events(self, monkeypatch):
        # Two registries sampling the same period: fluid mode coalesces
        # their ticks onto shared window boundaries (one timeout per
        # tick), and both still record the full sample series.
        def drive() -> tuple[int, int, int]:
            sim = Simulator()
            first = MetricsRegistry(name="first").attach(sim)
            second = MetricsRegistry(name="second").attach(sim)
            first.start_sampler(sim, interval=1e-3)
            second.start_sampler(sim, interval=1e-3)
            sim.timeout(10.5e-3)  # workload keeping the queue non-empty
            # Deadline, not drain: two samplers keep each other's
            # timeouts in the queue, so drain mode would never stop.
            sim.run(until=9.5e-3)
            return sim.steps, len(first.samples()), len(second.samples())

        monkeypatch.delenv("REPRO_FLUID_SAMPLER", raising=False)
        exact_steps, exact_first, exact_second = drive()
        monkeypatch.setenv("REPRO_FLUID_SAMPLER", "1")
        fluid_steps, fluid_first, fluid_second = drive()
        assert fluid_first == exact_first
        assert fluid_second == exact_second
        assert fluid_steps < exact_steps  # shared ticks -> fewer events

    def test_idle_sim_drains_in_fluid_mode(self, monkeypatch):
        # On an *idle* sim, exact samplers keep each other alive forever
        # (each one's next tick defeats the others' idle-exit check —
        # hence the deadline above). Sharing the tick removes that
        # mutual keep-alive: every sampler takes the idle exit within a
        # couple of ticks and a drain-mode run terminates.
        monkeypatch.setenv("REPRO_FLUID_SAMPLER", "1")
        sim = Simulator()
        first = MetricsRegistry(name="first").attach(sim)
        second = MetricsRegistry(name="second").attach(sim)
        first.start_sampler(sim, interval=1e-3)
        second.start_sampler(sim, interval=1e-3)
        sim.run()  # drain mode: must terminate
        assert sim.now <= 3e-3  # exits within a couple of ticks
        assert first.samples() and second.samples()
