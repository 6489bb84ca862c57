"""Kernel events per request on the SmartDS write and cached-read paths.

The datapath legs — PCIe DMA, HBM and host-DRAM transfers, block-device
I/O and transport sends — are generator functions their callers run
inline with ``yield from``, and a bandwidth transfer is a single
completion event. None of them may come back as a ``Process``:
each one would cost a start event and a completion event per call. The
one leg that stays a process is the hot-block cache's fire-and-forget
HBM fill, which runs under its own ``<cache>.fill`` name.

Event counts are deterministic for a seed, so the budgets are exact. A
change that moves one on purpose re-records it here and says why.
"""

from __future__ import annotations

import typing

from repro.core import SmartDsMiddleTier
from repro.middletier import Testbed
from repro.params import DEFAULT_PLATFORM, CacheSpec
from repro.sim import Simulator, Tracer
from repro.units import kib
from repro.workloads import ClientDriver, WriteRequestFactory

#: Exact kernel events of each measured phase (see the module docstring).
WRITE_REQUESTS = 64
WRITE_EVENTS = 5957
READ_REQUESTS = 64
READ_EVENTS = 2411


def is_leg(name: str) -> bool:
    """Whether a process name belongs to a datapath leg.

    The names the legs ran under as processes: ``<link>.read`` and
    ``<link>.write`` for PCIe DMA, the generator name ``_chunked`` for
    HBM/DRAM, ``<disk>.r`` and ``<disk>.w`` for block-device I/O,
    ``send:<kind>`` for transport sends and ``xfer:<pipe>`` for queued
    bandwidth transfers.
    """
    return (
        name.startswith(("send:", "xfer:"))
        or name == "_chunked"
        or name.endswith((".read", ".write", ".r", ".w"))
    )


class ProcessCensus(Tracer):
    """Every process name alive at any dispatched event of a simulator.

    A tracer sees each event before its callbacks run, and every process
    is alive when its start event is dispatched, so sampling
    ``Simulator.tracked("process")`` there misses none.
    """

    def __init__(self, sim: Simulator) -> None:
        super().__init__(sim)
        self.names: set[str] = set()

    def _record(self, _when: float, _event: typing.Any) -> None:
        self.names.update(process.name for process in self.sim.tracked("process"))

    def legs(self) -> set[str]:
        return {name for name in self.names if is_leg(name)}


def _tier(sim: Simulator, **kwargs) -> SmartDsMiddleTier:
    testbed = Testbed(sim, DEFAULT_PLATFORM, n_storage_servers=4)
    return SmartDsMiddleTier(sim, testbed, n_ports=1, **kwargs)


def write_run(census: bool = False) -> tuple[int, int, ProcessCensus | None]:
    """Closed-loop SmartDS writes; returns (requests, events, census)."""
    sim = Simulator()
    tier = _tier(sim)
    driver = ClientDriver(
        sim, tier, WriteRequestFactory(DEFAULT_PLATFORM, seed=1), concurrency=8,
        warmup_fraction=0.0,
    )
    watch = ProcessCensus(sim) if census else None
    before = sim.steps
    result = sim.run(until=driver.run(WRITE_REQUESTS))
    assert result.requests == WRITE_REQUESTS
    return result.requests, sim.steps - before, watch


def cached_read_run(census: bool = False) -> tuple[int, int, ProcessCensus | None]:
    """Reads of 32 written blocks through the hot-block cache."""
    sim = Simulator()
    tier = _tier(sim, cache_spec=CacheSpec(enabled=True, capacity_bytes=kib(64)))
    driver = ClientDriver(
        sim, tier, WriteRequestFactory(DEFAULT_PLATFORM, seed=1), concurrency=8,
        warmup_fraction=0.0,
    )
    sim.run(until=driver.run(32))
    watch = ProcessCensus(sim) if census else None
    before = sim.steps
    lbas = [index % 32 for index in range(READ_REQUESTS)]
    result = sim.run(until=driver.run_reads(lbas, concurrency=4))
    assert tier.cache.hits.value > 0
    return result.requests, sim.steps - before, watch


class TestEventBudget:
    def test_write_events_per_request(self):
        requests, events, _ = write_run()
        assert (requests, events) == (WRITE_REQUESTS, WRITE_EVENTS), (
            f"{events / requests:.2f} events/request"
        )

    def test_cached_read_events_per_request(self):
        requests, events, _ = cached_read_run()
        assert (requests, events) == (READ_REQUESTS, READ_EVENTS), (
            f"{events / requests:.2f} events/request"
        )


class TestNoLegProcesses:
    def test_write_path_spawns_no_leg_process(self):
        _, _, census = write_run(census=True)
        assert census.names, "the census saw no process at all"
        assert not census.legs(), sorted(census.legs())

    def test_cached_read_path_spawns_no_leg_process(self):
        _, _, census = cached_read_run(census=True)
        assert census.names, "the census saw no process at all"
        assert not census.legs(), sorted(census.legs())

    def test_census_sees_a_leg_process(self):
        # The census itself: a leg spawned as a process must be caught.
        from repro.hostmodel import PcieLink

        sim = Simulator()
        census = ProcessCensus(sim)
        link = PcieLink(sim, DEFAULT_PLATFORM.host)
        sim.process(link.dma_write(64), name=f"{link.name}.write")
        sim.run()
        assert census.legs() == {"pcie.write"}
