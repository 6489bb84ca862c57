"""The five workloads of the end-to-end benchmark.

Each workload function takes the seed and a size scale, builds a fresh simulated
system through the library's public API, generates every input from the
seed, preloads data, and returns a :class:`Prepared` whose ``measure()``
runs the timed phase. Fault plans, admission and SLO specs are defined
here rather than imported from the ``repro.experiments`` modules, so
editing an experiment cannot change a workload.
"""

from __future__ import annotations

import dataclasses
import random
import typing

from repro.cluster import ShardedCluster
from repro.compression import RatioSampler, SilesiaLikeCorpus, lz4_decompress
from repro.core import SmartDsMiddleTier
from repro.middletier import Testbed
from repro.net import Datapath
from repro.params import (
    DEFAULT_PLATFORM,
    AdmissionSpec,
    CacheSpec,
    ClusterSpec,
    FlightSpec,
    SLOSpec,
)
from repro.sim import FaultPlan, Simulator
from repro.telemetry import SpanCollector
from repro.units import kib, msec, usec
from repro.workloads import (
    ClientDriver,
    OpenLoopDriver,
    RoutingClient,
    SkewedReadFactory,
    WriteRequestFactory,
)

#: Terminal reply statuses a request may end with.
STATUSES = frozenset({"ok", "shed", "unavailable", "not_found", "wrong_shard"})

#: Per-block compression ratios of the synthetic writes: uniform on
#: [1.0, 3.2], mean 2.1, the aggregate LZ4 ratio of the Silesia corpus.
#: A spread (not a constant) makes stored sizes, and so latencies,
#: depend on the seed.
RATIOS = tuple(1.0 + 2.2 * step / 63 for step in range(64))

#: Closed-loop saturation of a 1-port SmartDS tier with admission off
#: (64 outstanding synthetic writes), in requests per simulated second.
SATURATION_RATE = 0.74e6


class ReplyRecorder(Datapath):
    """Client-side tap on the transport: every request a client endpoint
    sends and every reply it receives, in simulated time.

    Installed as the client endpoints' datapath. It charges nothing, like
    the default client datapath, so the model is unchanged.
    """

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.reset()

    def reset(
        self, mark_every: int = 0, mark: typing.Callable[[], typing.Any] | None = None
    ) -> None:
        """Forget everything seen so far (the set-up phase's traffic).

        With `mark_every` > 0, ``mark()`` is called at every
        `mark_every`-th reply and its results kept in :attr:`marks`: the
        measured phase splits into slices of identical work for a given
        seed.
        """
        self.start = self.sim.now
        #: request id -> [lba, kind, payload bytes, first send time, sends]
        self.requests: dict[int, list] = {}
        #: (request id, status, arrival time, payload bytes) in arrival order
        self.replies: list[tuple[int, str, float, int]] = []
        self.mark_every = mark_every
        self.mark = mark
        self.marks: list = []

    def egress(self, message, qp) -> typing.Generator:
        entry = self.requests.get(message.request_id)
        if entry is None:
            self.requests[message.request_id] = [
                message.header.get("block_id", -1),
                message.kind,
                message.payload_size,
                self.sim.now,
                1,
            ]
        else:  # a stale-route resend of the same request
            entry[4] += 1
        return
        yield  # pragma: no cover - generator form

    def ingress(self, message, qp) -> typing.Generator:
        replies = self.replies
        replies.append(
            (
                message.header.get("in_reply_to"),
                message.header.get("status", "ok"),
                self.sim.now,
                message.payload_size,
            )
        )
        if self.mark_every and len(replies) % self.mark_every == 0:
            self.marks.append(self.mark())
        return False
        yield  # pragma: no cover - generator form

    def tap(self, *endpoints) -> None:
        for endpoint in endpoints:
            endpoint.datapath = self


@dataclasses.dataclass
class Prepared:
    """A built and preloaded workload, ready for its measured phase."""

    measure: typing.Callable[[], None]
    recorder: ReplyRecorder
    #: Requests the measured phase issues.
    expected: int
    tiers: list
    clients: list = dataclasses.field(default_factory=list)
    directory: typing.Any = None
    #: Post-run output checks; returns one message per failed check.
    check: typing.Callable[[], list[str]] = lambda: []


def _count(base: int, scale: float, multiple: int) -> int:
    """`base` scaled, rounded down to a positive multiple of `multiple`."""
    return max(1, round(base * scale) // multiple) * multiple


def _ratios(seed: int) -> RatioSampler:
    return RatioSampler(RATIOS, seed=seed)


def write_synth(seed: int, scale: float = 1.0) -> Prepared:
    """Bare write datapath: 2 ports, 2x32 outstanding synthetic writes."""
    n = _count(4608, scale, 64)
    sim = Simulator()
    testbed = Testbed(sim, DEFAULT_PLATFORM, n_storage_servers=4)
    tier = SmartDsMiddleTier(sim, testbed, n_ports=2)
    factory = WriteRequestFactory(DEFAULT_PLATFORM, ratio_sampler=_ratios(seed), seed=seed)
    drivers = [
        ClientDriver(sim, tier, factory, concurrency=32, port_index=port, warmup_fraction=0.0)
        for port in range(2)
    ]
    recorder = ReplyRecorder(sim)
    recorder.tap(*(driver.endpoint for driver in drivers))

    def measure() -> None:
        sim.run(until=sim.all_of([driver.run(n // 2) for driver in drivers]))

    return Prepared(measure, recorder, expected=n, tiers=[tier])


def write_corpus(seed: int, scale: float = 1.0) -> Prepared:
    """Real corpus bytes through the engines' LZ4 and into the chunk stores."""
    n = _count(2816, scale, 16)
    rng = random.Random(seed)
    blocks = SilesiaLikeCorpus(seed=seed).blocks(4096)
    rng.shuffle(blocks)
    sim = Simulator()
    testbed = Testbed(sim, DEFAULT_PLATFORM, n_storage_servers=4)
    tier = SmartDsMiddleTier(sim, testbed, n_ports=1)
    factory = WriteRequestFactory(DEFAULT_PLATFORM, blocks=blocks, seed=seed)
    driver = ClientDriver(sim, tier, factory, concurrency=16, warmup_fraction=0.0)
    recorder = ReplyRecorder(sim)
    recorder.tap(driver.endpoint)
    chunk_blocks = DEFAULT_PLATFORM.storage.chunk_bytes // DEFAULT_PLATFORM.workload.block_size

    def measure() -> None:
        sim.run(until=driver.run(n))

    def check() -> list[str]:
        # Read a seeded sample of written blocks back from every replica's
        # chunk store; each must decompress to the bytes that were sent.
        errors = []
        for lba in random.Random(seed + 1).sample(range(n), min(64, n)):
            original = blocks[lba % len(blocks)]
            copies = [
                record
                for server in testbed.storage_servers
                if (record := server.store.latest(lba // chunk_blocks, lba)) is not None
            ]
            if len(copies) != DEFAULT_PLATFORM.storage.replication:
                errors.append(f"lba {lba}: {len(copies)} stored copies")
            for record in copies:
                if lz4_decompress(record.data) != original:
                    errors.append(f"lba {lba}: stored block does not decompress to the original")
        return errors

    return Prepared(measure, recorder, expected=n, tiers=[tier], check=check)


def read_zipf(seed: int, scale: float = 1.0) -> Prepared:
    """Zipf reads through a 512 KiB hot-block cache beside overwrites."""
    n_blocks = _count(1024, scale, 16)
    n_reads = _count(10640, scale, 14)
    n_writes = _count(1184, scale, 2)
    sim = Simulator()
    testbed = Testbed(sim, DEFAULT_PLATFORM, n_storage_servers=4)
    tier = SmartDsMiddleTier(
        sim, testbed, n_ports=1, cache_spec=CacheSpec(enabled=True, capacity_bytes=kib(512))
    )
    factory = WriteRequestFactory(DEFAULT_PLATFORM, ratio_sampler=_ratios(seed), seed=seed)
    reader = ClientDriver(sim, tier, factory, concurrency=16, warmup_fraction=0.0)
    overwrites = WriteRequestFactory(
        DEFAULT_PLATFORM, ratio_sampler=_ratios(seed + 1), vm_id="vm1", seed=seed + 1
    )
    writer = ClientDriver(sim, tier, overwrites, concurrency=2, warmup_fraction=0.0)
    sim.run(until=reader.run(n_blocks))  # preload: 4 MiB, 8x the cache
    skewed = SkewedReadFactory(factory, n_blocks, skew=0.99, seed=seed)
    lbas = [skewed.next_lba() for _ in range(n_reads)]
    recorder = ReplyRecorder(sim)
    recorder.tap(reader.endpoint, writer.endpoint)

    def measure() -> None:
        reads = reader.run_reads(lbas, concurrency=14)
        sim.run(until=sim.all_of([reads, writer.run(n_writes)]))

    return Prepared(measure, recorder, expected=n_reads + n_writes, tiers=[tier])


#: Admission tuned so protection engages inside the storm.
STORM_ADMISSION = AdmissionSpec(
    enabled=True,
    initial_credits=64,
    min_credits=8,
    max_credits=128,
    latency_budget=usec(500),
    adapt_interval=usec(200),
    queue_target=32,
)

#: Write availability and write p99-under-1.5 ms, both on 1 ms / 5 ms
#: burn windows so a page can fire within the storm.
STORM_SLOS = (
    SLOSpec(
        name="write-availability",
        signal="availability",
        op="write",
        target=0.99,
        window=msec(20),
        fast_window=msec(1),
        slow_window=msec(5),
    ),
    SLOSpec(
        name="write-p99",
        signal="latency",
        op="write",
        target=0.99,
        latency_threshold=usec(1500),
        window=msec(20),
        fast_window=msec(1),
        slow_window=msec(5),
    ),
)


def storm_fault_plan(seed: int, horizon: float) -> FaultPlan:
    """A 50 us, p=0.6 loss burst in every 500 us slot up to `horizon`,
    one PCIe stall and one 4x engine slowdown, all placed by `seed`."""
    rng = random.Random(seed)
    plan = FaultPlan(seed=seed)
    slot = usec(500)
    for index in range(int(horizon / slot) + 1):
        plan.add_loss_burst(
            start=index * slot + rng.uniform(0.0, slot - usec(50)),
            duration=usec(50),
            probability=0.6,
        )
    plan.add_pcie_stall(start=rng.uniform(usec(200), msec(1)), duration=usec(60))
    plan.add_engine_slowdown(start=rng.uniform(usec(200), msec(1)), duration=usec(200), factor=4.0)
    return plan


def overload_storm(seed: int, scale: float = 1.0) -> Prepared:
    """Open-loop writes at 2x saturation with admission, SLOs, flight
    recorder and spans on, under a seeded fault plan."""
    n = _count(2800, scale, 1)
    rate = 2.0 * SATURATION_RATE
    platform = dataclasses.replace(
        DEFAULT_PLATFORM,
        admission=STORM_ADMISSION,
        slos=STORM_SLOS,
        flight=FlightSpec(enabled=True),
    )
    plan = storm_fault_plan(seed, horizon=1.5 * n / rate)
    sim = Simulator()
    SpanCollector(sim)
    testbed = Testbed(sim, platform, n_storage_servers=4)
    tier = SmartDsMiddleTier(sim, testbed, n_ports=1, fault_plan=plan)
    factory = WriteRequestFactory(platform, ratio_sampler=_ratios(seed), seed=seed)
    driver = OpenLoopDriver(sim, tier, factory, offered_rate=rate, warmup_fraction=0.0, seed=seed)
    # Loss bursts act at the sending endpoint: the plan on the client
    # endpoint drops traffic into the device too.
    driver.endpoint.fault_plan = plan
    recorder = ReplyRecorder(sim)
    recorder.tap(driver.endpoint)

    def measure() -> None:
        sim.run(until=driver.run(n))

    return Prepared(measure, recorder, expected=n, tiers=[tier])


def sharded_readback(seed: int, scale: float = 1.0) -> Prepared:
    """4 SmartDS shards: routed writes, then shuffled read-backs while one
    storage server is down."""
    n = _count(3072, scale, 32)
    n_segments = 16
    platform = dataclasses.replace(DEFAULT_PLATFORM, cluster=ClusterSpec(n_shards=4))
    sim = Simulator()
    cluster = ShardedCluster(sim, platform, design="SmartDS-1")
    cluster.directory.rebalance(range(n_segments))
    factory = WriteRequestFactory(
        platform, ratio_sampler=_ratios(seed), seed=seed, spread_segments=n_segments
    )
    client = RoutingClient(sim, cluster, factory, concurrency=32, warmup_fraction=0.0, seed=seed)
    recorder = ReplyRecorder(sim)
    recorder.tap(client.endpoint)
    rng = random.Random(seed)
    victim = rng.choice(cluster.testbed.storage_servers)

    def outage() -> typing.Generator:
        yield sim.timeout(usec(300))
        victim.fail()
        yield sim.timeout(msec(1))
        victim.recover()

    def measure() -> None:
        sim.run(until=client.run(n))
        written = [entry[0] for entry in recorder.requests.values()]
        rng.shuffle(written)
        sim.process(outage())
        sim.run(until=client.run_reads(written))

    return Prepared(
        measure,
        recorder,
        expected=2 * n,
        tiers=list(cluster.tiers),
        clients=[client],
        directory=cluster.directory,
    )


#: Workload functions by name; README.md says why each one is there.
WORKLOADS: dict[str, typing.Callable[[int, float], Prepared]] = {
    "write_synth": write_synth,
    "write_corpus": write_corpus,
    "read_zipf": read_zipf,
    "overload_storm": overload_storm,
    "sharded_readback": sharded_readback,
}
