"""Property-based tests of kernel, bandwidth, and metric invariants."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import BandwidthServer, Resource, Simulator
from repro.telemetry.metrics import LatencyRecorder


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=30))
def test_clock_is_monotone_for_any_timeout_set(delays):
    """Whatever timeouts are scheduled, observed time never decreases."""
    sim = Simulator()
    observed = []

    def body(delay):
        yield sim.timeout(delay)
        observed.append(sim.now)

    for delay in delays:
        sim.process(body(delay))
    sim.run()
    assert observed == sorted(observed)
    assert sim.now == max(delays)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=10_000), min_size=1, max_size=25),
    st.floats(min_value=10.0, max_value=1e6),
    st.integers(min_value=1, max_value=4),
)
def test_bandwidth_server_conserves_bytes_and_respects_rate(sizes, rate, lanes):
    """Served bytes equal offered bytes, and the makespan is never faster
    than the pipe's aggregate rate allows."""
    sim = Simulator()
    pipe = BandwidthServer(sim, rate=rate, lanes=lanes)

    def body(n):
        yield pipe.transfer(n)

    for n in sizes:
        sim.process(body(n))
    sim.run()
    assert pipe.bytes_served == sum(sizes)
    # A lane serves at rate/lanes; total work cannot finish faster than
    # the busiest possible schedule allows.
    lower_bound = sum(sizes) / rate
    assert sim.now >= lower_bound * (1 - 1e-9)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=6),
    st.lists(st.floats(min_value=0.001, max_value=1.0), min_size=1, max_size=20),
)
def test_resource_never_exceeds_capacity(capacity, hold_times):
    sim = Simulator()
    resource = Resource(sim, capacity=capacity)
    peak = {"value": 0}

    def worker(hold):
        req = resource.request()
        yield req
        peak["value"] = max(peak["value"], resource.in_use)
        yield sim.timeout(hold)
        resource.release(req)

    for hold in hold_times:
        sim.process(worker(hold))
    sim.run()
    assert peak["value"] <= capacity
    assert resource.in_use == 0
    assert resource.waiting_requests() == ()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=200))
def test_percentiles_are_monotone_and_bounded(samples):
    recorder = LatencyRecorder()
    for sample in samples:
        recorder.record(sample)
    fractions = [0.1, 0.5, 0.9, 0.99, 0.999, 1.0]
    values = [recorder.percentile(f) for f in fractions]
    assert values == sorted(values)
    assert min(samples) <= values[0]
    assert values[-1] == max(samples)
    # The mean lies in [min, max] up to rounding of the final division;
    # slack must scale with the samples (an absolute epsilon is
    # meaningless at 1e6).
    slack = 1e-9 * max(1.0, max(samples))
    assert min(samples) - slack <= recorder.mean() <= max(samples) + slack


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=10.0),
            st.floats(min_value=0.0, max_value=5.0),
        ),
        min_size=1,
        max_size=20,
    )
)
def test_process_chains_preserve_causality(steps):
    """A chain of processes each waiting on the previous one finishes at
    the sum of its delays, regardless of unrelated concurrent noise."""
    sim = Simulator()

    def link(prev, delay):
        if prev is not None:
            yield prev
        yield sim.timeout(delay)
        return sim.now

    def noise(delay):
        yield sim.timeout(delay)

    prev = None
    total = 0.0
    for noise_delay, chain_delay in steps:
        sim.process(noise(noise_delay))
        prev = sim.process(link(prev, chain_delay))
        total += chain_delay
    result = sim.run(until=prev)
    assert result == pytest.approx(total)
