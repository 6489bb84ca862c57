"""Micro + macro benchmarks for the simulator hot paths and the LZ4 codec.

Every hot-path microbenchmark is measured twice — against the current
implementation and against the verbatim seed implementation from
:mod:`benchmarks.perf.legacy` — so the emitted ``BENCH_*.json`` carries
its own baseline and speedup ratios that are meaningful on any machine.

Timing discipline: each measurement is the best of several repeats
(minimum wall-clock absorbs scheduler noise), and paired current/legacy
measurements are interleaved within each repeat round so load drift
hits both sides equally.
"""

from __future__ import annotations

import os
import platform
import sys
import time
import typing

from benchmarks.perf.legacy import (
    LegacyResource,
    legacy_lz4_compress,
    legacy_lz4_decompress,
)
from repro.compression.corpus import SilesiaLikeCorpus
from repro.compression.lz4 import lz4_compress, lz4_decompress
from repro.sim import kernel
from repro.sim.bandwidth import BandwidthServer
from repro.sim.kernel import Simulator
from repro.sim.resources import Resource, Store

#: The growth-sequence issue this harness last shipped with; names the
#: default output file (``BENCH_10.json``) and is recorded in ``meta``.
BENCH_ISSUE = 10

#: Bumped when the document layout changes incompatibly.
#: v2 (issue 10): decompress gains a legacy comparison + ``speedup``,
#: new ``bandwidth`` section (fast-path event counts), macro entries
#: gain a ``fast_path`` sub-object and are measured with the bandwidth
#: fast path *off* so ``events_per_sec`` compares identical event
#: streams across reports.
SCHEMA_VERSION = 2


def _best_of(body: typing.Callable[[], typing.Any], repeats: int) -> float:
    """Minimum wall-clock seconds of `body` over `repeats` runs."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        body()
        best = min(best, time.perf_counter() - started)
    return best


def _interleaved_best(
    bodies: dict[str, typing.Callable[[], typing.Any]], repeats: int
) -> dict[str, float]:
    """Best-of timing for several bodies, interleaved round by round."""
    best = {name: float("inf") for name in bodies}
    for _ in range(repeats):
        for name, body in bodies.items():
            started = time.perf_counter()
            body()
            best[name] = min(best[name], time.perf_counter() - started)
    return best


# -- kernel ----------------------------------------------------------------


def bench_kernel(quick: bool) -> dict:
    """Events/sec through ``Simulator.step`` for two canonical shapes.

    ``timeout_fanout`` drains a pre-scheduled batch of timeouts (pure
    heap + callback cost); ``process_chain`` runs generator processes
    each yielding a run of timeouts (adds Process resume cost — the
    shape model code actually has).
    """
    n_timeouts = 20_000 if quick else 100_000
    n_procs = 200 if quick else 1_000
    yields = 50 if quick else 100
    delays = [i * 1e-9 for i in range(n_timeouts)]

    def timeout_fanout() -> int:
        sim = Simulator()
        for delay in delays:
            sim.timeout(delay)
        sim.run()
        return sim.steps

    def process_chain() -> int:
        sim = Simulator()

        def body() -> typing.Generator:
            for _ in range(yields):
                yield sim.timeout(1e-6)

        for _ in range(n_procs):
            sim.process(body())
        sim.run()
        return sim.steps

    repeats = 3 if quick else 5
    fanout_steps = timeout_fanout()
    chain_steps = process_chain()
    fanout_s = _best_of(timeout_fanout, repeats)
    chain_s = _best_of(process_chain, repeats)
    return {
        "timeout_fanout": {
            "events": fanout_steps,
            "seconds": fanout_s,
            "events_per_sec": fanout_steps / fanout_s,
        },
        "process_chain": {
            "events": chain_steps,
            "seconds": chain_s,
            "events_per_sec": chain_steps / chain_s,
        },
    }


# -- Resource / Store ------------------------------------------------------


def _drive_resource(make_resource: typing.Callable[[Simulator], typing.Any], depth: int) -> int:
    """Fill one slot, queue `depth` waiters, then grant straight through.

    Priorities descend with arrival order, so every enqueue lands at the
    front of a sorted waiter list — the worst case for the seed's linear
    insert and exactly the overload shape deep queues create. Returns the
    number of queue operations performed (enqueues + grants).
    """
    sim = Simulator()
    resource = make_resource(sim)
    held = resource.request()  # grants immediately, occupies the slot
    waiters = [resource.request(priority=-i) for i in range(depth)]
    resource.release(held)
    for waiter in waiters:
        resource.release(waiter)
    sim.run()
    return 2 * depth


def bench_resource(quick: bool) -> dict:
    """The deep-queue microbenchmark: current heap vs seed sorted list."""
    depth = 2_000 if quick else 8_000
    repeats = 3 if quick else 5
    ops = 2 * depth
    best = _interleaved_best(
        {
            "current": lambda: _drive_resource(
                lambda sim: Resource(sim, capacity=1, name="bench"), depth
            ),
            "legacy": lambda: _drive_resource(
                lambda sim: LegacyResource(sim, capacity=1, name="bench"), depth
            ),
        },
        repeats,
    )
    current = ops / best["current"]
    legacy = ops / best["legacy"]
    return {
        "depth": depth,
        "queue_ops": ops,
        "current_ops_per_sec": current,
        "legacy_ops_per_sec": legacy,
        "speedup": current / legacy,
    }


def bench_store(quick: bool) -> dict:
    """Store put/get throughput, including the blocked-getter handoff."""
    n = 20_000 if quick else 100_000
    repeats = 3 if quick else 5

    def drive() -> None:
        sim = Simulator()
        store = Store(sim, name="bench")
        for i in range(n):
            store.put(i)
        for _ in range(n):
            store.get()
        sim.run()

    seconds = _best_of(drive, repeats)
    return {"items": n, "seconds": seconds, "ops_per_sec": 2 * n / seconds}


# -- LZ4 -------------------------------------------------------------------


def _lz4_classes(corpus: SilesiaLikeCorpus, block_size: int) -> dict[str, list[bytes]]:
    """Corpus inputs grouped by redundancy class.

    ``low_redundancy`` (the x-ray and noise files) is the class the
    bounded table + skip acceleration targets; ``text`` is the
    match-dense regime; ``corpus_blocks`` is every block of every file —
    the datapath-representative mix; ``stream`` is the whole corpus
    through one compressor call (the regime where the seed's unbounded
    table kept growing).
    """
    files = list(corpus.files())

    def blocks_of(data: bytes) -> list[bytes]:
        return [data[i : i + block_size] for i in range(0, len(data), block_size)]

    text = [b for f in files if f.name.startswith(("dickens", "webster")) for b in blocks_of(f.data)]
    low = [b for f in files if f.name.startswith(("x-ray", "noise")) for b in blocks_of(f.data)]
    every = [b for f in files for b in blocks_of(f.data)]
    stream = b"".join(f.data for f in files)
    return {
        "text_blocks": text,
        "low_redundancy_blocks": low,
        "corpus_blocks": every,
        "stream": [stream],
    }


def bench_lz4(quick: bool) -> dict:
    """Compress MB/s per input class (current vs seed) + decompress MB/s."""
    corpus = SilesiaLikeCorpus()
    classes = _lz4_classes(corpus, block_size=4096)
    if quick:
        classes = {
            name: (inputs[:: max(1, len(inputs) // 24)] if name != "stream" else inputs)
            for name, inputs in classes.items()
        }
    repeats = 2 if quick else 5

    result: dict[str, typing.Any] = {"block_size": 4096}
    for name, inputs in classes.items():
        nbytes = sum(len(piece) for piece in inputs)

        def run_current(inputs: list[bytes] = inputs) -> None:
            for piece in inputs:
                lz4_compress(piece)

        def run_legacy(inputs: list[bytes] = inputs) -> None:
            for piece in inputs:
                legacy_lz4_compress(piece)

        best = _interleaved_best({"current": run_current, "legacy": run_legacy}, repeats)
        current = nbytes / best["current"] / 1e6
        legacy = nbytes / best["legacy"] / 1e6
        ratio = nbytes / sum(len(lz4_compress(piece)) for piece in inputs)
        result[f"compress_{name}"] = {
            "input_bytes": nbytes,
            "current_mb_per_sec": current,
            "legacy_mb_per_sec": legacy,
            "speedup": current / legacy,
            "compression_ratio": ratio,
        }

    blobs = [lz4_compress(piece) for piece in classes["corpus_blocks"]]
    nbytes = sum(len(piece) for piece in classes["corpus_blocks"])

    def run_decompress() -> None:
        for blob in blobs:
            lz4_decompress(blob)

    def run_legacy_decompress() -> None:
        for blob in blobs:
            legacy_lz4_decompress(blob)

    best = _interleaved_best(
        {"current": run_decompress, "legacy": run_legacy_decompress}, repeats
    )
    current = nbytes / best["current"] / 1e6
    legacy = nbytes / best["legacy"] / 1e6
    result["decompress_corpus_blocks"] = {
        "output_bytes": nbytes,
        "mb_per_sec": current,
        "legacy_mb_per_sec": legacy,
        "speedup": current / legacy,
    }
    return result


# -- bandwidth fast path ----------------------------------------------------


def _drive_transfers(fast_path: bool, n: int) -> tuple[int, float]:
    """Run `n` sequential uncontended transfers; returns (events, seconds).

    Sequential transfers on a free lane are the fast path's home regime:
    every transfer is admitted slot-free and completes in one event
    instead of the slow path's request/grant/service/completion chain.
    """
    sim = Simulator()
    pipe = BandwidthServer(
        sim, rate=1e9, per_transfer_overhead=1e-6, fast_path=fast_path
    )

    def body() -> typing.Generator:
        for _ in range(n):
            yield pipe.transfer(4096)

    sim.process(body())
    started = time.perf_counter()
    sim.run()
    return sim.steps, time.perf_counter() - started


def bench_bandwidth(quick: bool) -> dict:
    """Kernel event counts for uncontended transfers: fast path on vs off.

    ``event_reduction`` is the headline claim for the slot-free fast
    path — events per uncontended transfer with the path off divided by
    events with it on (>= 3x by design: request + grant + service +
    overhead + completion collapse into a single analytic event).
    """
    n = 5_000 if quick else 25_000
    repeats = 3 if quick else 5
    on_events, _ = _drive_transfers(True, n)
    off_events, _ = _drive_transfers(False, n)
    best = _interleaved_best(
        {
            "fast_on": lambda: _drive_transfers(True, n),
            "fast_off": lambda: _drive_transfers(False, n),
        },
        repeats,
    )
    return {
        "transfers": n,
        "fast_on_events": on_events,
        "fast_off_events": off_events,
        "event_reduction": off_events / on_events,
        "fast_on_transfers_per_sec": n / best["fast_on"],
        "fast_off_transfers_per_sec": n / best["fast_off"],
        "wall_speedup": best["fast_off"] / best["fast_on"],
    }


# -- macro: canonical experiment runs --------------------------------------


def _run_experiment(module: typing.Any, fast_path: bool) -> dict:
    """One experiment run; returns wall/events totals across its simulators.

    Simulators are collected with a sim hook (the same mechanism trace
    sessions use) so the harness can total events processed across every
    simulator an experiment creates. ``fast_path`` forces the bandwidth
    fast path on or off for the duration of the run (servers read
    ``REPRO_BW_FAST_PATH`` at construction time).
    """
    sims: list[Simulator] = []
    kernel.add_sim_hook(sims.append)
    previous = os.environ.get("REPRO_BW_FAST_PATH")
    os.environ["REPRO_BW_FAST_PATH"] = "1" if fast_path else "0"
    try:
        started = time.perf_counter()
        module.run(quick=True)
        seconds = time.perf_counter() - started
    finally:
        kernel.remove_sim_hook(sims.append)
        if previous is None:
            del os.environ["REPRO_BW_FAST_PATH"]
        else:
            os.environ["REPRO_BW_FAST_PATH"] = previous
    return {
        "wall_seconds": seconds,
        "simulators": len(sims),
        "events": sum(sim.steps for sim in sims),
        "max_simulated_seconds": max((sim.now for sim in sims), default=0.0),
    }


def bench_macro(quick: bool) -> dict:
    """Wall-clock + simulated-events/sec for canonical quick experiment runs.

    ``events_per_sec`` is measured with the bandwidth fast path *off* so
    the event stream is identical to earlier reports (same ``events``
    count) and the number is a pure kernel-throughput comparison. The
    ``fast_path`` sub-object reports the end-to-end effect of turning
    the fast path on: fewer events *and* less wall-clock for the same
    simulated outcome — its ``events_per_sec`` is intentionally not the
    headline (fewer events per second of a smaller event stream).
    """
    from repro.experiments import ext_cache, ext_chaos

    # This container's clock speed drifts +-30% on ~10 s scales, which is
    # exactly the duration of one experiment pair — three rounds give each
    # row a fair shot at a fast phase (best-of keeps the fastest).
    rounds = 1 if quick else 3
    out: dict[str, typing.Any] = {}
    for name, module in (("ext_cache", ext_cache), ("ext_chaos", ext_chaos)):
        off = _run_experiment(module, fast_path=False)
        on = _run_experiment(module, fast_path=True)
        for _ in range(rounds - 1):  # interleaved best-of to absorb drift
            off_again = _run_experiment(module, fast_path=False)
            on_again = _run_experiment(module, fast_path=True)
            if off_again["wall_seconds"] < off["wall_seconds"]:
                off = off_again
            if on_again["wall_seconds"] < on["wall_seconds"]:
                on = on_again
        entry = dict(off)
        entry["events_per_sec"] = (
            off["events"] / off["wall_seconds"] if off["wall_seconds"] else 0.0
        )
        entry["fast_path"] = {
            "wall_seconds": on["wall_seconds"],
            "events": on["events"],
            "event_reduction": off["events"] / on["events"] if on["events"] else 0.0,
            "wall_speedup": (
                off["wall_seconds"] / on["wall_seconds"] if on["wall_seconds"] else 0.0
            ),
        }
        out[name] = entry
        if quick:
            break  # one macro experiment keeps the quick mode fast
    return out


# -- top level -------------------------------------------------------------


def run_benchmarks(quick: bool = False) -> dict:
    """Run every benchmark; returns the ``BENCH_*.json`` document."""
    started = time.time()
    document = {
        "meta": {
            "issue": BENCH_ISSUE,
            "schema_version": SCHEMA_VERSION,
            "quick": quick,
            "python": sys.version.split()[0],
            "platform": platform.platform(),
            "unix_time": started,
        },
        "kernel": bench_kernel(quick),
        "resource": bench_resource(quick),
        "store": bench_store(quick),
        "bandwidth": bench_bandwidth(quick),
        "lz4": bench_lz4(quick),
        "macro": bench_macro(quick),
    }
    resource = document["resource"]
    lz4 = document["lz4"]
    macro = document["macro"]
    document["summary"] = {
        "resource_deep_queue_speedup": resource["speedup"],
        "lz4_compress_low_redundancy_speedup": lz4["compress_low_redundancy_blocks"]["speedup"],
        "lz4_compress_corpus_speedup": lz4["compress_corpus_blocks"]["speedup"],
        "lz4_compress_text_speedup": lz4["compress_text_blocks"]["speedup"],
        "lz4_decompress_speedup": lz4["decompress_corpus_blocks"]["speedup"],
        "bandwidth_event_reduction": document["bandwidth"]["event_reduction"],
        "kernel_events_per_sec": document["kernel"]["process_chain"]["events_per_sec"],
        "macro_events_per_sec": {
            name: entry["events_per_sec"] for name, entry in macro.items()
        },
        "harness_seconds": time.time() - started,
    }
    return document
