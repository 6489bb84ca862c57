"""The simulator's per-request objects must be acyclic.

:meth:`Simulator.run` pauses Python's cyclic garbage collector while
events dispatch, so anything a request leaves behind in a reference
cycle stays in memory until the run returns. Each test below runs one
datapath shape for N and for 2N requests with the collector off, keeps
the simulated system alive, and asks ``gc.collect()`` what became
cyclic garbage. Set-up may leave a fixed amount; nothing may grow with
the number of requests.
"""

from __future__ import annotations

import collections
import dataclasses
import gc
import typing

import pytest

from repro.cluster import ShardedCluster
from repro.core import SmartDsMiddleTier
from repro.middletier import Testbed
from repro.params import (
    DEFAULT_PLATFORM,
    AdmissionSpec,
    CacheSpec,
    ClusterSpec,
    FlightSpec,
)
from repro.sim import FaultPlan, Simulator
from repro.telemetry import SpanCollector
from repro.units import kib, usec
from repro.workloads import ClientDriver, OpenLoopDriver, RoutingClient, WriteRequestFactory

#: Requests in the smaller run; the larger run issues twice as many.
N = 64


def cyclic_garbage(shape: typing.Callable[[int], typing.Any], n: int) -> collections.Counter:
    """Run `shape(n)` with the collector off; count its cyclic garbage by type.

    `shape` returns the simulated system, which stays referenced while
    the collector runs, so only objects that left it count.
    """
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        system = shape(n)
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        found = collections.Counter(type(obj).__name__ for obj in gc.garbage)
        del system
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()
    return found


def assert_no_growth(shape: typing.Callable[[int], typing.Any]) -> None:
    small = cyclic_garbage(shape, N)
    large = cyclic_garbage(shape, 2 * N)
    grown = {name: large[name] - small[name] for name in large if large[name] > small[name]}
    assert not grown, f"cyclic garbage grows with requests ({N} -> {2 * N}): {grown}"


def _smartds(sim: Simulator, platform=DEFAULT_PLATFORM, **tier_kwargs) -> SmartDsMiddleTier:
    testbed = Testbed(sim, platform, n_storage_servers=4)
    return SmartDsMiddleTier(sim, testbed, n_ports=1, **tier_kwargs)


def smartds_write(n: int) -> typing.Any:
    sim = Simulator()
    tier = _smartds(sim)
    factory = WriteRequestFactory(DEFAULT_PLATFORM, seed=1)
    driver = ClientDriver(sim, tier, factory, concurrency=8, warmup_fraction=0.0)
    sim.run(until=driver.run(n))
    return sim, tier, driver


def cached_read(n: int) -> typing.Any:
    # Reads race a split (HBM) reply against a control reply and a
    # deadline; half the reads hit the hot-block cache.
    sim = Simulator()
    tier = _smartds(sim, cache_spec=CacheSpec(enabled=True, capacity_bytes=kib(64)))
    factory = WriteRequestFactory(DEFAULT_PLATFORM, seed=1)
    driver = ClientDriver(sim, tier, factory, concurrency=8, warmup_fraction=0.0)
    sim.run(until=driver.run(32))
    lbas = [index % 32 for index in range(n)]
    sim.run(until=driver.run_reads(lbas, concurrency=4))
    assert tier.cache.hits.value > 0
    return sim, tier, driver


def read_failover(n: int) -> typing.Any:
    # Loss bursts and a failed storage server force per-attempt deadlines
    # and replica rotation on the read path.
    sim = Simulator()
    plan = FaultPlan(seed=3)
    for index in range(200):
        plan.add_loss_burst(start=index * usec(100), duration=usec(10), probability=0.5)
    tier = _smartds(sim, fault_plan=plan)
    factory = WriteRequestFactory(DEFAULT_PLATFORM, seed=1)
    driver = ClientDriver(sim, tier, factory, concurrency=8, warmup_fraction=0.0)
    driver.endpoint.fault_plan = plan
    sim.run(until=driver.run(32))
    tier.testbed.storage_servers[0].fail()
    sim.run(until=driver.run_reads([index % 32 for index in range(n)], concurrency=4))
    assert tier.read_failovers.value > 0
    return sim, tier, driver


def overload(n: int) -> typing.Any:
    platform = dataclasses.replace(
        DEFAULT_PLATFORM,
        admission=AdmissionSpec(
            enabled=True,
            initial_credits=8,
            min_credits=2,
            max_credits=16,
            latency_budget=usec(50),
            adapt_interval=usec(20),
            queue_target=4,
        ),
        flight=FlightSpec(enabled=True),
    )
    sim = Simulator()
    SpanCollector(sim)
    tier = _smartds(sim, platform)
    factory = WriteRequestFactory(platform, seed=1)
    driver = OpenLoopDriver(
        sim, tier, factory, offered_rate=2.0e6, warmup_fraction=0.0, seed=1
    )
    result = sim.run(until=driver.run(n))
    assert any(status == "shed" for _lba, status in result.failures)
    return sim, tier, driver


def sharded(n: int) -> typing.Any:
    platform = dataclasses.replace(DEFAULT_PLATFORM, cluster=ClusterSpec(n_shards=2))
    sim = Simulator()
    cluster = ShardedCluster(sim, platform, design="SmartDS-1")
    cluster.directory.rebalance(range(4))
    factory = WriteRequestFactory(platform, seed=1, spread_segments=4)
    client = RoutingClient(sim, cluster, factory, concurrency=8, warmup_fraction=0.0, seed=1)
    sim.run(until=client.run(n))
    return sim, cluster, client


def failing_children(n: int) -> typing.Any:
    sim = Simulator()
    caught = []

    def child(index: int) -> typing.Generator:
        yield sim.timeout(1.0)
        raise ValueError(index)

    def parent() -> typing.Generator:
        for index in range(n):
            try:
                yield sim.process(child(index))
            except ValueError as exc:
                caught.append(exc.args[0])

    sim.run(until=sim.process(parent()))
    assert caught == list(range(n))
    return sim


@pytest.mark.parametrize(
    "shape",
    [smartds_write, cached_read, read_failover, overload, sharded, failing_children],
    ids=lambda shape: shape.__name__,
)
def test_requests_leave_no_cyclic_garbage(shape):
    assert_no_growth(shape)
