"""One measured run of one workload.

:func:`run` builds the workload, times its measured phase, brackets it
with kernel event totals, checks the outputs, and reads the layers'
public counters before and after. With ``trace=True`` the measured phase
runs under ``cProfile`` and the profile is folded into per-layer metrics
(see :func:`fold`).
"""

from __future__ import annotations

import collections
import cProfile
import gc
import hashlib
import heapq
import math
import pstats
import resource
import time
import typing

from repro.core.engines import HardwareEngine
from repro.hostmodel import MemorySubsystem, PcieLink
from repro.net import NetworkPort, RoceEndpoint
from repro.sim import BandwidthServer, add_sim_hook, remove_sim_hook
from repro.storage import BlockDevice, StorageServer
from repro.telemetry import SpanCollector

from benchmarks.e2e.workloads import STATUSES, WORKLOADS, Prepared, ReplyRecorder

#: The ``repro`` subpackages the per-layer metrics are reported for.
LAYERS = (
    "sim",
    "net",
    "hostmodel",
    "core",
    "middletier",
    "storage",
    "compression",
    "cache",
    "cluster",
    "telemetry",
    "workloads",
)

#: Host-clock slices per measured phase (see ReplyRecorder.reset).
SLICES = 40

#: The reference kernel's 10th-percentile time on the host the baseline
#: was recorded on (a 2-core Xeon container). Host seconds are reported
#: scaled to this speed; see :func:`reference_kernel`.
REFERENCE_SECONDS = 1.0e-3

#: Every block in these workloads is 4 KiB: the uncompressed bytes one
#: LZ4 call handles (compression.lz4_mb_per_s).
BLOCK_SIZE = 4096


def run(
    name: str,
    seed: int,
    scale: float = 1.0,
    trace: bool = False,
    started: float | None = None,
) -> dict:
    """Set up and measure workload `name` once; returns a JSON-able record.

    `started` is the ``perf_counter()`` reading taken when the process
    started, before ``repro`` was imported; set-up time runs from it to
    the first measured request.
    """
    if started is None:
        started = time.perf_counter()
    sims: list = []
    add_sim_hook(sims.append)
    try:
        prepared = WORKLOADS[name](seed, scale)
    finally:
        remove_sim_hook(sims.append)
    parts = _Parts(sims, prepared)
    before = parts.snapshot()
    recorder = prepared.recorder
    # The traced run is not sliced: the reference kernel would land in
    # its profile.
    recorder.reset(mark_every=0 if trace else max(1, prepared.expected // SLICES), mark=_mark)
    steps = sum(sim.steps for sim in sims)
    profiler = cProfile.Profile() if trace else None
    setup_s = time.perf_counter() - started
    first = _mark()
    if profiler is not None:
        profiler.enable()
    prepared.measure()
    if profiler is not None:
        profiler.disable()
    last = _mark()
    events = sum(sim.steps for sim in sims) - steps
    after = parts.snapshot()

    samples, errors = outcome(recorder, prepared.expected)
    errors += prepared.check()
    requests = len(samples)
    marks = [first, *recorder.marks, last]
    slices = [b[0] - a[1] for a, b in zip(marks, marks[1:])]
    references = sorted(end - start for start, end in marks)
    record = {
        "workload": name,
        "seed": seed,
        "scale": scale,
        "setup_s": setup_s,
        "measured_s": sum(slices),
        "slices": slices,
        # Multiply this run's host seconds by it to express them at the
        # reference speed.
        "to_reference": REFERENCE_SECONDS / references[len(references) // 10],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "events": events,
        "attempted": max(prepared.expected, len(recorder.requests)),
        "requests": requests,
        "errors": errors,
        "exact": exact_metrics(samples, events, recorder.start),
        "counters": counter_metrics(before, after, samples, prepared),
    }
    if profiler is not None:
        stats = pstats.Stats(profiler)
        record["profile"] = stats  # not JSON: the caller dumps it to a file
        record["layers"] = fold(stats.stats, record["measured_s"], requests)
    return record


def reference_kernel(steps: int = 2000) -> int:
    """A fixed pure-Python event loop (a heap of generators), about a
    millisecond of work.

    It runs between the slices of the measured phase. Neighbours on a
    shared host slow a 2-core container by up to ~60% for minutes at a time;
    the kernel's fast (10th-percentile) time slows roughly as much as the
    simulator does, so dividing by it keeps most of those drifts out of
    the reported host seconds.
    """
    queue: list = []

    def process(count: int) -> typing.Iterator[float]:
        for index in range(count):
            yield index * 0.5

    for sequence in range(64):
        heapq.heappush(queue, (0.0, sequence, process(50)))
    sequence = 64
    for _ in range(steps):
        when, _seq, generator = heapq.heappop(queue)
        try:
            delay = next(generator)
        except StopIteration:
            generator, delay = process(50), 0.0
        sequence += 1
        heapq.heappush(queue, (when + delay + 1.0, sequence, generator))
    return sequence


def _mark() -> tuple[float, float]:
    """Run the reference kernel; returns its start and end clock readings."""
    start = time.perf_counter()
    reference_kernel()
    return start, time.perf_counter()


# -- outputs -----------------------------------------------------------------


class Sample(typing.NamedTuple):
    lba: int
    kind: str
    status: str
    latency: float
    end: float
    #: Write payload sent, or read payload received.
    nbytes: int


def outcome(recorder: ReplyRecorder, expected: int) -> tuple[list[Sample], list[str]]:
    """Each request's terminal reply in arrival order, and one message per
    request that broke a check.

    Every issued request must be answered once per send and end in a
    known status, and the phase must issue exactly `expected` requests.
    """
    errors = []
    last: dict[int, tuple[int, str, float, int]] = {}
    answers: collections.Counter = collections.Counter()
    for order, (request_id, status, when, nbytes) in enumerate(recorder.replies):
        last[request_id] = (order, status, when, nbytes)
        answers[request_id] += 1
    requests = recorder.requests
    if len(requests) < expected:
        errors += [f"request never issued ({len(requests)} of {expected})"] * (
            expected - len(requests)
        )
    for request_id, entry in requests.items():
        if answers[request_id] != entry[4]:
            errors.append(f"lba {entry[0]}: sent {entry[4]} times, answered {answers[request_id]}")
    for request_id in last.keys() - requests.keys():
        errors.append(f"reply to request {request_id}, which was never sent")
    samples = []
    for request_id, (_order, status, when, nbytes) in sorted(
        last.items(), key=lambda item: item[1][0]
    ):
        entry = requests.get(request_id)
        if entry is None:
            continue
        lba, kind, sent_bytes, first_send, _sends = entry
        if status not in STATUSES:
            errors.append(f"lba {lba}: unknown status {status!r}")
        size = sent_bytes if kind == "write_request" else nbytes
        samples.append(Sample(lba, kind, status, when - first_send, when, size))
    return samples, errors


def digest(samples: list[Sample]) -> str:
    """SHA-256 over the ordered ``(lba, status, latency)`` samples."""
    text = "".join(f"{s.lba} {s.status} {s.latency!r}\n" for s in samples)
    return hashlib.sha256(text.encode()).hexdigest()


def percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def exact_metrics(samples: list[Sample], events: int, start: float) -> dict:
    """The deterministic end-to-end metrics: model outputs and counts."""
    ok = [s for s in samples if s.status == "ok"]
    latencies = sorted(s.latency for s in ok)
    span = max((s.end for s in samples), default=start) - start
    n = max(1, len(samples))
    return {
        "events_per_req": events / n,
        "fail_frac": (len(samples) - len(ok)) / n,
        "sim_goodput_gbps": sum(s.nbytes for s in ok) * 8 / span / 1e9 if span > 0 else 0.0,
        "sim_p50_us": percentile(latencies, 0.50) * 1e6 if latencies else 0.0,
        "sim_p99_us": percentile(latencies, 0.99) * 1e6 if latencies else 0.0,
        "samples": len(latencies),
        "sim_digest": digest(samples),
    }


# -- layer counters ------------------------------------------------------------


class _Parts:
    """The model objects of one workload whose public counters are read."""

    def __init__(self, sims: list, prepared: Prepared) -> None:
        owned = set(map(id, sims))
        found: dict[type, list] = collections.defaultdict(list)
        kinds = (
            BandwidthServer,
            RoceEndpoint,
            NetworkPort,
            PcieLink,
            MemorySubsystem,
            HardwareEngine,
            BlockDevice,
            StorageServer,
            SpanCollector,
        )
        for obj in gc.get_objects():
            if isinstance(obj, kinds) and id(getattr(obj, "sim", None)) in owned:
                found[type(obj)].append(obj)
        self.found = found
        self.prepared = prepared
        hbm = {id(tier.device.hbm) for tier in prepared.tiers}
        self.dram = [m for m in found[MemorySubsystem] if id(m) not in hbm]

    def snapshot(self) -> dict[str, float]:
        found = self.found
        tiers = self.prepared.tiers
        caches = [tier.cache for tier in tiers if tier.cache is not None]
        admissions = [tier.admission for tier in tiers if tier.admission is not None]
        return {
            "bw_transfers": sum(s.fast_transfers + s.slow_transfers for s in found[BandwidthServer]),
            "retransmissions": sum(e.retransmissions.value for e in found[RoceEndpoint]),
            "wire_bytes": sum(p.tx_meter.total_bytes for p in found[NetworkPort]),
            "pcie_bytes": sum(
                p.h2d_meter.total_bytes + p.d2h_meter.total_bytes for p in found[PcieLink]
            ),
            "dram_bytes": sum(m.total_bytes for m in self.dram),
            "engine_in": sum(e.bytes_in.value for e in found[HardwareEngine]),
            "degraded": sum(t.requests_degraded.value + t.reads_degraded.value for t in tiers),
            "write_failovers": sum(t.failovers.value for t in tiers),
            "read_failovers": sum(t.read_failovers.value for t in tiers),
            "shed": sum(a.shed_total for a in admissions),
            "device_write_bytes": sum(d.write_meter.total_bytes for d in found[BlockDevice]),
            "storage_read_bytes": sum(s.read_bytes_served.value for s in found[StorageServer]),
            "cache_hits": sum(c.hits.value for c in caches),
            "cache_misses": sum(c.misses.value for c in caches),
            "cache_evictions": sum(c.evictions.value for c in caches),
            "cache_invalidations": sum(c.invalidations.value for c in caches),
            "stale_retries": sum(c.stale_retries.value for c in self.prepared.clients),
            "spans": sum(len(c.spans) + c.spans_dropped for c in found[SpanCollector]),
            "flight_kept": sum(t.flight.traces_kept for t in tiers if t.flight is not None),
            "slo_alerts": sum(len(t.slo.alerts) for t in tiers if t.slo is not None),
        }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def counter_metrics(
    before: dict, after: dict, samples: list[Sample], prepared: Prepared
) -> dict[str, float]:
    """Per-layer counter metrics over the measured phase."""
    d = {key: after[key] - before[key] for key in after}
    n = len(samples)
    writes = [s for s in samples if s.kind == "write_request"]
    written = sum(s.nbytes for s in writes if s.status == "ok")
    reads = n - len(writes)
    lookups = d["cache_hits"] + d["cache_misses"]
    replicas = prepared.tiers[0].platform.storage.replication
    return {
        "sim.bw_transfers_per_req": _ratio(d["bw_transfers"], n),
        "net.retransmissions_per_req": _ratio(d["retransmissions"], n),
        "net.wire_bytes_per_req": _ratio(d["wire_bytes"], n),
        "hostmodel.pcie_bytes_per_req": _ratio(d["pcie_bytes"], n),
        "hostmodel.dram_bytes_per_req": _ratio(d["dram_bytes"], n),
        "core.engine_bytes_per_req": _ratio(d["engine_in"], n),
        "core.compression_ratio": _ratio(written * replicas, d["device_write_bytes"]),
        "core.degraded_frac": _ratio(d["degraded"], n),
        "middletier.write_failovers_per_req": _ratio(d["write_failovers"], n),
        "middletier.read_failovers_per_req": _ratio(d["read_failovers"], n),
        "middletier.shed_frac": _ratio(d["shed"], n),
        "storage.write_amplification": _ratio(d["device_write_bytes"], written),
        "storage.read_bytes_per_read": _ratio(d["storage_read_bytes"], reads),
        "cache.hit_ratio": _ratio(d["cache_hits"], lookups),
        "cache.evictions_per_req": _ratio(d["cache_evictions"], n),
        "cache.invalidations_per_write": _ratio(d["cache_invalidations"], len(writes)),
        "cluster.stale_retries": d["stale_retries"],
        "cluster.imbalance": prepared.directory.imbalance() if prepared.directory else 0.0,
        "telemetry.spans_per_req": _ratio(d["spans"], n),
        "telemetry.flight_kept": d["flight_kept"],
        "telemetry.slo_alerts": d["slo_alerts"],
    }


# -- profile fold ------------------------------------------------------------


def layer_of(filename: str) -> str | None:
    """The layer a source file belongs to; ``None`` for code outside the
    layers (stdlib, builtins, top-level ``repro`` modules), whose time is
    charged to its callers. The benchmark's own files are the client
    side of the workload, so they count as ``workloads``."""
    if "/benchmarks/e2e/" in filename:
        return "workloads"
    _, sep, tail = filename.rpartition("/repro/")
    if sep and "/" in tail:
        package = tail.split("/", 1)[0]
        if package in LAYERS:
            return package
    return None


#: Kernel event factories whose callers are counted per layer.
EVENT_FACTORIES = frozenset({"timeout", "process", "event"})


def fold(stats: dict, wall: float, requests: int) -> dict[str, float]:
    """Fold a cProfile ``pstats`` table into per-layer metrics.

    A function's self time goes to the layer its file belongs to. Self
    time of functions outside the layers goes to the layers that called
    them, in proportion to the calls on each caller edge (followed through
    chains of such functions). Call counts are exact, so the
    ``calls_in_per_req`` and ``events_per_req`` metrics repeat exactly.
    """
    layers = {func: layer_of(func[0]) for func in stats}
    owners: dict[tuple, dict[str, float]] = {}

    def owner(func: tuple, active: set) -> dict[str, float]:
        """Share of `func`'s calls made on behalf of each layer."""
        layer = layers.get(func)
        if layer is not None:
            return {layer: 1.0}
        if func in owners:
            return owners[func]
        if func in active or func not in stats:
            return {}
        active.add(func)
        shares: dict[str, float] = collections.defaultdict(float)
        for caller, edge in stats[func][4].items():
            for name, share in owner(caller, active).items():
                shares[name] += edge[1] * share
        active.discard(func)
        total = sum(shares.values())
        result = {name: value / total for name, value in shares.items()} if total else {}
        owners[func] = result
        return result

    self_time = dict.fromkeys(LAYERS, 0.0)
    calls_in = dict.fromkeys(LAYERS, 0.0)
    events = dict.fromkeys(LAYERS, 0.0)
    lz4_calls = 0
    lz4_seconds = 0.0
    for func, (_cc, nc, tt, ct, callers) in stats.items():
        layer = layers[func]
        if layer is not None:
            self_time[layer] += tt
            for caller, edge in callers.items():
                calls_in[layer] += edge[1] * (1.0 - owner(caller, set()).get(layer, 0.0))
        else:
            for caller, edge in callers.items():
                for name, share in owner(caller, set()).items():
                    self_time[name] += edge[2] * share
        filename, _line, funcname = func
        if filename.endswith("repro/sim/kernel.py") and funcname in EVENT_FACTORIES:
            for caller, edge in callers.items():
                for name, share in owner(caller, set()).items():
                    events[name] += edge[1] * share
        if filename.endswith("repro/compression/lz4.py") and funcname in (
            "lz4_compress",
            "lz4_decompress",
        ):
            lz4_calls += nc
            lz4_seconds += ct
    n = max(1, requests)
    metrics: dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = self_time[layer] / wall
        metrics[f"{layer}.calls_in_per_req"] = calls_in[layer] / n
        metrics[f"{layer}.events_per_req"] = events[layer] / n
    metrics["compression.lz4_calls_per_req"] = lz4_calls / n
    metrics["compression.lz4_mb_per_s"] = _ratio(lz4_calls * BLOCK_SIZE / 1e6, lz4_seconds)
    metrics["trace.share_sum"] = sum(self_time.values()) / wall
    return metrics
