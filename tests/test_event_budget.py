"""Kernel events per request on the SmartDS write and cached-read paths.

The datapath legs — PCIe DMA, HBM and host-DRAM transfers, block-device
I/O and transport sends — are generator functions their callers run
inline with ``yield from``, and a bandwidth transfer is a single
completion event. None of them may come back as a ``Process``:
each one would cost a process and, for the caller waiting on it, a
completion event per call. The one leg that stays a process is the
hot-block cache's fire-and-forget HBM fill, which runs under its own
``<cache>.fill`` name.

A process spawned while an event is dispatched starts without a start
event, and a process whose only waiters are conditions completes into
them without a completion event; the write run checks that neither
kind of event is dispatched once the run is under way.

A write-only open-loop run pins the open-loop issuer's count: its
read-your-writes bookkeeping is a dict entry per write, not an event.

Event counts are deterministic for a seed, so the budgets are exact. A
change that moves one on purpose re-records it here and says why.

A functional-mode run pins the codec work: writes that cycle through a
few corpus blocks run LZ4 once per distinct block, not once per write,
and every stored copy still decompresses to the bytes that were sent.

The write run also pins the kernel's footprint: the event heap's
high-water mark and the process registry's length at the end. A race
site that leaves its decided deadline queued (instead of calling
``Timeout.cancel``), or a registry that stops dropping dead processes,
moves them.
"""

from __future__ import annotations

import typing

from repro.compression import SilesiaLikeCorpus, lz4_decompress
from repro.core import SmartDsMiddleTier
from repro.middletier import Testbed
from repro.net import message
from repro.params import DEFAULT_PLATFORM, CacheSpec
from repro.sim import Simulator, Tracer
from repro.sim.events import _Condition
from repro.sim.process import Process
from repro.units import kib
from repro.workloads import ClientDriver, OpenLoopDriver, WriteRequestFactory

#: Exact kernel events of each measured phase (see the module docstring).
WRITE_REQUESTS = 64
WRITE_EVENTS = 5181
READ_REQUESTS = 64
READ_EVENTS = 2151

#: Exact kernel events of a write-only open-loop run.
OPEN_LOOP_WRITES = 64
OPEN_LOOP_EVENTS = 5234

#: Functional-mode writes cycling through this many corpus blocks.
CORPUS_WRITES = 64
CORPUS_BLOCKS = 16

#: Exact kernel footprint of the write run (see the module docstring).
WRITE_HEAP_PEAK = 102
WRITE_PROCESS_REFS = 221


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

    A tracer sees each event before its callbacks run, and samples
    ``Simulator.tracked("process")`` there. A process created outside
    dispatch is alive when its start event is dispatched. One spawned
    during dispatch gets no start event; it is seen at the next
    dispatched event if its first segment ends in a ``yield`` of a
    pending event or of an already-fired one (whose poke is that next
    event). Only a process that returns from its first segment without
    yielding could slip by, and no leg does: each one waits on a
    transfer, a timeout or a queue.
    """

    def __init__(self, sim: Simulator) -> None:
        super().__init__(sim)
        self.names: set[str] = set()

    def _record(self, _when: float, _event: typing.Any) -> None:
        self.names.update(process.name for process in self.sim.tracked("process"))

    def legs(self) -> set[str]:
        return {name for name in self.names if is_leg(name)}


class DispatchWatch(Tracer):
    """Counts the start events and condition-only process completions dispatched.

    A tracer sees each event before the kernel consumes its callbacks,
    so a dispatched process can still be asked who waited on it.
    """

    def __init__(self, sim: Simulator) -> None:
        super().__init__(sim, limit=1)
        self.starts = 0
        self.late_starts = 0
        self.condition_joins = 0

    def _record(self, when: float, event: typing.Any) -> None:
        if isinstance(event, Process):
            if all(
                getattr(callback, "__func__", None) is _Condition._observe
                for callback in event.callbacks
            ):
                self.condition_joins += 1
        elif event.name == "start":
            self.starts += 1
            self.late_starts += when > 0.0


class HeapWatch(Tracer):
    """High-water mark of the event heap, sampled at every dispatched event."""

    def __init__(self, sim: Simulator) -> None:
        super().__init__(sim, limit=1)
        self.peak = 0

    def _record(self, _when: float, _event: typing.Any) -> None:
        self.peak = max(self.peak, len(self.sim._queue))


def _tier(sim: Simulator, **kwargs) -> SmartDsMiddleTier:
    testbed = Testbed(sim, DEFAULT_PLATFORM, n_storage_servers=4)
    return SmartDsMiddleTier(sim, testbed, n_ports=1, **kwargs)


def write_run(census: bool = False) -> tuple[int, int, ProcessCensus | HeapWatch]:
    """Closed-loop SmartDS writes; returns (requests, events, watching tracer).

    The tracer is a :class:`ProcessCensus` with `census`, else a
    :class:`HeapWatch` (the census compacts the process registry on
    every event, so it would hide the registry's own compaction).
    """
    sim = Simulator()
    tier = _tier(sim)
    driver = ClientDriver(
        sim, tier, WriteRequestFactory(DEFAULT_PLATFORM, seed=1), concurrency=8,
        warmup_fraction=0.0,
    )
    watch = ProcessCensus(sim) if census else HeapWatch(sim)
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

    def test_write_kernel_footprint(self):
        _, _, watch = write_run()
        footprint = (watch.peak, len(watch.sim._process_refs))
        assert footprint == (WRITE_HEAP_PEAK, WRITE_PROCESS_REFS), (
            "(event-heap peak, process refs) moved"
        )

    def test_write_run_dispatches_no_spawn_start_or_condition_join(self):
        # Only the processes created before the run (service loops and
        # client streams) get start events, all at time zero; the
        # replica fan-out, storage serves, engine runs and write
        # completions start on their spawner's dispatch, and none of
        # their completions is an event when only a condition waits.
        sim = Simulator()
        tier = _tier(sim)
        driver = ClientDriver(
            sim, tier, WriteRequestFactory(DEFAULT_PLATFORM, seed=1), concurrency=8,
            warmup_fraction=0.0,
        )
        done = driver.run(WRITE_REQUESTS)
        created_before = len(sim.tracked("process"))
        watch = DispatchWatch(sim)
        sim.run(until=done)
        assert (watch.starts, watch.late_starts) == (created_before, 0)
        assert watch.condition_joins == 0

    def test_open_loop_write_events(self):
        sim = Simulator()
        driver = OpenLoopDriver(
            sim, _tier(sim), WriteRequestFactory(DEFAULT_PLATFORM, seed=1),
            offered_rate=400_000, warmup_fraction=0.0, seed=1,
        )
        before = sim.steps
        result = sim.run(until=driver.run(OPEN_LOOP_WRITES))
        assert result.failures == ()
        assert (result.requests, sim.steps - before) == (OPEN_LOOP_WRITES, OPEN_LOOP_EVENTS)

    def test_cached_read_events_per_request(self):
        requests, events, _ = cached_read_run()
        assert (requests, events) == (READ_REQUESTS, READ_EVENTS), (
            f"{events / requests:.2f} events/request"
        )


class TestFunctionalCompression:
    def test_each_distinct_block_is_compressed_once(self, monkeypatch):
        monkeypatch.setattr(message, "_COMPRESSED", {})
        codec = message.lz4_compress
        codec_calls = []

        def counted(data):
            codec_calls.append(data)
            return codec(data)

        monkeypatch.setattr(message, "lz4_compress", counted)
        blocks = SilesiaLikeCorpus(seed=1).blocks(4096)[:CORPUS_BLOCKS]
        assert len(set(blocks)) == CORPUS_BLOCKS
        sim = Simulator()
        testbed = Testbed(sim, DEFAULT_PLATFORM, n_storage_servers=4)
        tier = SmartDsMiddleTier(sim, testbed, n_ports=1)
        driver = ClientDriver(
            sim, tier, WriteRequestFactory(DEFAULT_PLATFORM, blocks=blocks, seed=1),
            concurrency=8, warmup_fraction=0.0,
        )
        result = sim.run(until=driver.run(CORPUS_WRITES))
        assert result.requests == CORPUS_WRITES
        assert len(codec_calls) == CORPUS_BLOCKS
        chunk_blocks = DEFAULT_PLATFORM.storage.chunk_bytes // DEFAULT_PLATFORM.workload.block_size
        for lba in range(CORPUS_WRITES):
            copies = [
                record
                for server in testbed.storage_servers
                if (record := server.store.latest(lba // chunk_blocks, lba)) is not None
            ]
            assert len(copies) == DEFAULT_PLATFORM.storage.replication
            for record in copies:
                assert lz4_decompress(record.data) == blocks[lba % CORPUS_BLOCKS], lba


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

    def test_census_sees_a_leg_spawned_by_a_running_process(self):
        # Spawned during dispatch, the leg gets no start event; the census
        # must still catch it at the next dispatched event.
        from repro.hostmodel import PcieLink

        sim = Simulator()
        census = ProcessCensus(sim)
        link = PcieLink(sim, DEFAULT_PLATFORM.host)

        def spawner() -> typing.Generator:
            yield sim.timeout(1e-6)
            yield sim.process(link.dma_read(64), name=f"{link.name}.read")

        sim.process(spawner())
        sim.run()
        assert census.legs() == {"pcie.read"}
