"""Write/read request generation and the request-issuing client drivers."""

from __future__ import annotations

import bisect
import dataclasses
import functools
import itertools
import random
import typing

from repro.compression.lz4 import load_vector_backend
from repro.compression.model import RatioSampler
from repro.net.link import NetworkPort
from repro.net.message import Message, Payload
from repro.net.roce import RoceEndpoint
from repro.params import NetworkSpec, PlatformSpec
from repro.telemetry.metrics import Counter, LatencyRecorder
from repro.telemetry.spans import outcome_of

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.middletier.base import MiddleTierServer
    from repro.sim.kernel import Simulator
    from repro.sim.process import Process
    from repro.workloads.traces import TraceEntry


class WriteRequestFactory:
    """Builds the paper's write requests: 64 B header + 4 KB block.

    Two payload modes:

    - *synthetic* (default): the block's compressibility is drawn from
      `ratio_sampler`, calibrated on the Silesia-like corpus;
    - *functional*: pass `blocks` (real byte blocks, e.g. from
      :meth:`repro.compression.corpus.SilesiaLikeCorpus.blocks`) and
      requests will cycle through them carrying real data. Building a
      functional-mode factory loads the LZ4 codec's numpy backend, so
      the import lands in set-up rather than in the first write.
    """

    def __init__(
        self,
        platform: PlatformSpec | None = None,
        ratio_sampler: RatioSampler | None = None,
        blocks: typing.Sequence[bytes] | None = None,
        latency_sensitive_fraction: float = 0.0,
        vm_id: str = "vm0",
        seed: int = 0,
        spread_segments: int = 1,
    ) -> None:
        if not 0.0 <= latency_sensitive_fraction <= 1.0:
            raise ValueError("latency_sensitive_fraction must be in [0, 1]")
        if spread_segments < 1:
            raise ValueError(f"spread_segments must be >= 1, got {spread_segments}")
        self.platform = platform or PlatformSpec()
        self.spread_segments = spread_segments
        self.ratio_sampler = ratio_sampler or RatioSampler.constant(2.1)
        self.blocks = list(blocks) if blocks is not None else None
        if self.blocks is not None:
            if not self.blocks:
                raise ValueError("functional mode needs at least one block")
            load_vector_backend()
        self.latency_sensitive_fraction = latency_sensitive_fraction
        self.vm_id = vm_id
        self._rng = random.Random(seed)
        self._next_lba = 0

    def make(self, lba: int | None = None) -> Message:
        """Build the next write request, to `lba` when one is given.

        Without `lba` the write goes to the stream's next LBA. Either
        way the payload comes from the factory's sequence, and the
        header (block, chunk and segment ids) is that of the LBA written.
        """
        workload = self.platform.workload
        if self.blocks is not None:
            data = self.blocks[self._next_lba % len(self.blocks)]
            payload = Payload.from_bytes(data)
        else:
            payload = Payload.synthetic(workload.block_size, self.ratio_sampler.sample())
        index = self._next_lba
        self._next_lba += 1
        if lba is None and self.spread_segments == 1:
            lba = index
        elif lba is None:
            # Interleave the sequential stream across the first N
            # segments so a sharded cluster sees traffic on every shard
            # instead of one 32 GB segment soaking everything.
            blocks_per_segment = self.platform.storage.segment_bytes // workload.block_size
            lba = (index % self.spread_segments) * blocks_per_segment + (
                index // self.spread_segments
            )
        chunk_blocks = self.platform.storage.chunk_bytes // workload.block_size
        latency_sensitive = self._rng.random() < self.latency_sensitive_fraction
        return Message(
            kind="write_request",
            src=self.vm_id,
            dst="",
            header_size=workload.header_size,
            payload=payload,
            header={
                "vm_id": self.vm_id,
                "service_type": "block-write",
                "block_id": lba,
                "chunk_id": lba // chunk_blocks,
                "segment_id": (lba * workload.block_size)
                // self.platform.storage.segment_bytes,
                "latency_sensitive": latency_sensitive,
            },
        )

    def make_read(self, lba: int) -> Message:
        """Build a read request for a previously written LBA."""
        workload = self.platform.workload
        chunk_blocks = self.platform.storage.chunk_bytes // workload.block_size
        return Message(
            kind="read_request",
            src=self.vm_id,
            dst="",
            header_size=workload.header_size,
            header={
                "vm_id": self.vm_id,
                "service_type": "block-read",
                "block_id": lba,
                "chunk_id": lba // chunk_blocks,
            },
        )


class SkewedReadFactory:
    """Zipf-distributed reads over a previously written LBA range.

    Rank ``r`` (1-based) is read with weight ``1 / r**skew``; ``skew=0``
    degenerates to uniform. Which LBA holds which rank comes from a
    seeded shuffle, so the hot set is not just the first blocks written.
    Wraps a :class:`WriteRequestFactory` for the actual request build,
    so headers (chunk ids, VM id) match the write stream's.
    """

    def __init__(
        self,
        factory: WriteRequestFactory,
        n_blocks: int,
        skew: float = 0.99,
        seed: int = 0,
    ) -> None:
        if n_blocks < 1:
            raise ValueError(f"need at least one block, got {n_blocks}")
        if skew < 0:
            raise ValueError(f"Zipf skew must be non-negative, got {skew!r}")
        self.factory = factory
        self.n_blocks = n_blocks
        self.skew = skew
        self._rng = random.Random(seed)
        lbas = list(range(n_blocks))
        self._rng.shuffle(lbas)
        self._by_rank = lbas  # rank i (0-based) -> LBA
        weights = [1.0 / (rank**skew) for rank in range(1, n_blocks + 1)]
        self._cumulative = list(itertools.accumulate(weights))
        self._total = self._cumulative[-1]

    def expected_frequency(self, rank: int) -> float:
        """Theoretical access probability of 1-based `rank`."""
        if not 1 <= rank <= self.n_blocks:
            raise ValueError(f"rank must be in 1..{self.n_blocks}, got {rank}")
        return (1.0 / rank**self.skew) / self._total

    def next_lba(self) -> int:
        """Sample one LBA from the Zipf distribution."""
        u = self._rng.random() * self._total
        rank = bisect.bisect_left(self._cumulative, u)
        return self._by_rank[min(rank, self.n_blocks - 1)]

    def make(self) -> Message:
        """Build a read request for a Zipf-sampled LBA."""
        return self.factory.make_read(self.next_lba())


#: One answered request: ``(start, end, payload bytes, status, lba, is_read)``.
Sample = tuple[float, float, int, str, int, bool]


@dataclasses.dataclass
class DriverResult:
    """What one driver run measured (after warm-up exclusion)."""

    requests: int
    payload_bytes: int
    duration: float
    latency: LatencyRecorder
    #: Requests that completed with a non-``ok`` status, as
    #: ``(lba, status)`` pairs — e.g. ``(17, "unavailable")`` when every
    #: replica fail-over attempt for LBA 17 timed out.
    failures: tuple = ()

    @classmethod
    def from_samples(
        cls, samples: typing.Sequence[Sample], warmup_fraction: float = 0.0
    ) -> "DriverResult":
        """Fold answered requests into a result: the one sample fold.

        Samples are ordered by completion and the first
        `warmup_fraction` of them dropped. Payload bytes cover ``ok``
        requests only, so :attr:`throughput` is goodput, and every
        non-``ok`` request lands in :attr:`failures`. Latency covers
        ``ok`` requests and failed reads. A failed write stays out — a
        shed reply returns in microseconds and would otherwise *improve*
        the tail while goodput collapses — but how long a client waits
        to learn a block is ``unavailable`` is part of the read tail.
        """
        if not samples:
            raise RuntimeError("driver has no completed requests")
        ordered = sorted(samples, key=lambda sample: sample[1])
        skip = int(len(ordered) * warmup_fraction)
        measured = ordered[skip:] if skip else ordered
        latency = LatencyRecorder("client-latency")
        payload_bytes = 0
        failures: list[tuple[int, str]] = []
        for start, end, size, status, lba, is_read in measured:
            if status == "ok":
                latency.record(end - start)
                payload_bytes += size
            else:
                failures.append((lba, status))
                if is_read:
                    latency.record(end - start)
        return cls(
            requests=len(measured),
            payload_bytes=payload_bytes,
            duration=max(measured[-1][1] - measured[0][1], 1e-12),
            latency=latency,
            failures=tuple(failures),
        )

    @property
    def throughput(self) -> float:
        """Served payload bytes/second (the paper's throughput metric)."""
        if self.duration <= 0:
            return 0.0
        return self.payload_bytes / self.duration

    @property
    def failed_lbas(self) -> tuple:
        """LBAs whose request failed, in completion order."""
        return tuple(lba for lba, _status in self.failures)

    @property
    def ok_requests(self) -> int:
        """Requests that completed with ``status="ok"``."""
        return self.requests - len(self.failures)


class RequestClient:
    """What every component that sends requests to a middle tier shares.

    The client opens its own port and RoCE endpoint; :meth:`_connect`
    attaches it to a tier and starts one reply loop per queue pair,
    which hands each reply to the request that waits for it.
    :meth:`request` is the one round trip, :meth:`_request` the same
    round trip recording a sample, and :meth:`result` folds the samples.
    """

    def __init__(
        self,
        sim: "Simulator",
        network: NetworkSpec,
        address: str,
        factory: WriteRequestFactory | None = None,
        warmup_fraction: float = 0.0,
    ) -> None:
        if not 0.0 <= warmup_fraction < 0.5:
            raise ValueError("warmup_fraction must be in [0, 0.5)")
        self.sim = sim
        self.factory = factory
        self.address = address
        self.warmup_fraction = warmup_fraction
        self._samples: list[Sample] = []
        self._reply_events: dict[int, typing.Any] = {}
        self.replies_unmatched = Counter(f"{address}.unmatched")
        self.port = NetworkPort(sim, rate=network.port_rate, name=f"{address}.port")
        self.endpoint = RoceEndpoint(sim, self.port, address, spec=network)

    def _connect(self, tier: "MiddleTierServer", port_index: int = 0) -> typing.Any:
        """Open a queue pair to `tier` and start its reply loop."""
        qp = tier.attach_client(self.endpoint, port_index=port_index)
        self.sim.process(
            self._reply_loop(qp), name=f"{self.address}.replies.{tier.address}", daemon=True
        )
        return qp

    def _reply_loop(self, qp: typing.Any) -> typing.Generator:
        while True:
            message: Message = yield qp.recv()
            event = self._reply_events.pop(message.header.get("in_reply_to"), None)
            if event is None:
                self.replies_unmatched.add()
            else:
                event.succeed(message)

    def request(self, message: Message) -> typing.Generator:
        """Send `message` and return its reply; records no sample.

        Use as ``reply = yield from client.request(message)``.
        """
        reply, _attempts = yield from self._send(message, None)
        return reply

    def _request(self, message: Message, samples: list[Sample]) -> typing.Generator:
        """Issue one request, wait for its answer, and record its sample.

        With tracing on, the request's root span closes with the outcome
        of the reply's status.
        """
        lba = message.header.get("block_id", -1)
        collector = self.sim._span_collector
        root = None
        if collector is not None:
            root = collector.request(
                message.kind, message.request_id, vm=self.factory.vm_id, lba=lba
            )
        start = self.sim.now
        reply, attempts = yield from self._send(message, root)
        status = reply.header.get("status", "ok")
        if root is not None:
            root.finish(
                outcome_of(status, retried=attempts > 1),
                nbytes=reply.payload_size,
                status=status,
            )
        # Writes carry the payload out; reads carry it back.
        is_read = message.kind != "write_request"
        size = reply.payload_size if is_read else message.payload_size
        samples.append((start, self.sim.now, size, status, lba, is_read))

    def _send(self, message: Message, root: typing.Any) -> typing.Generator:
        """Deliver `message`; returns ``(reply, attempts)``."""
        reply = yield from self._round_trip(self.qp, message, root)
        return reply, 1

    def _round_trip(self, qp: typing.Any, message: Message, root: typing.Any) -> typing.Generator:
        """Transmit `message` on `qp` and return the reply it gets."""
        tx = None
        if root is not None:
            # The transport reassigns message.span to its own child, so
            # hold the tx span locally to finish it.
            tx = message.span = root.child("client.tx")
        reply_event = self.sim.event(name=f"reply:{message.request_id}")
        self._reply_events[message.request_id] = reply_event
        yield from qp.transmit(message)
        if tx is not None:
            tx.finish(nbytes=message.size)
        return (yield reply_event)

    # -- closed-loop streams ---------------------------------------------------

    def _writes(self, n_requests: int, concurrency: int) -> list[typing.Iterator[Message]]:
        """`concurrency` batches of ``n_requests // concurrency`` writes,
        each built when its stream is ready to send it."""
        if n_requests < concurrency:
            raise ValueError("n_requests must be >= concurrency")
        per_stream = n_requests // concurrency
        make = self.factory.make
        return [(make() for _ in range(per_stream)) for _ in range(concurrency)]

    def _reads(self, lbas: typing.Sequence[int], concurrency: int) -> list[typing.Iterator[Message]]:
        """`lbas` dealt round-robin into at most `concurrency` read batches."""
        lbas = list(lbas)
        if not lbas:
            raise ValueError("no LBAs to read")
        shards = [lbas[i::concurrency] for i in range(concurrency)]
        return [map(self.factory.make_read, shard) for shard in shards if shard]

    def _spawn_streams(
        self, batches: list[typing.Iterator[Message]], samples: list[Sample]
    ) -> list:
        return [
            self.sim.process(self._stream(batch, samples), name=f"{self.address}.s{i}")
            for i, batch in enumerate(batches)
        ]

    def _stream(self, batch: typing.Iterator[Message], samples: list[Sample]) -> typing.Generator:
        for message in batch:
            yield from self._request(message, samples)

    def _collect(
        self, streams: list, samples: list[Sample], warmup_fraction: float
    ) -> typing.Generator:
        yield self.sim.all_of(streams)
        return DriverResult.from_samples(samples, warmup_fraction)

    def result(self) -> DriverResult:
        """Statistics over the measured (post-warm-up) portion of the run."""
        return DriverResult.from_samples(self._samples, self.warmup_fraction)


#: An arrival schedule: ``(delay, build)`` pairs. The issuer waits
#: `delay` seconds after the previous arrival, then sends ``build()``.
Schedule = typing.Iterator[tuple[float, typing.Callable[[], Message]]]


class OpenLoopDriver(RequestClient):
    """Open-loop load generator: requests arrive on a schedule,
    regardless of completions.

    :meth:`run` offers Poisson writes at `offered_rate` — the right tool
    for latency-vs-load curves, where closed-loop generators hide
    queueing — and :meth:`replay` sends a trace at its timestamps. A
    read of an LBA this client has a write in flight to is sent only
    after that write's reply (read-your-writes); its latency runs from
    the send.
    """

    def __init__(
        self,
        sim: "Simulator",
        tier: "MiddleTierServer",
        factory: WriteRequestFactory,
        offered_rate: float | None = None,
        port_index: int = 0,
        address: str | None = None,
        warmup_fraction: float = 0.1,
        seed: int = 0,
    ) -> None:
        if offered_rate is not None and offered_rate <= 0:
            raise ValueError(f"offered rate must be positive, got {offered_rate!r}")
        super().__init__(
            sim,
            tier.platform.network,
            address or f"openloop-{factory.vm_id}-p{port_index}",
            factory,
            warmup_fraction,
        )
        self.offered_rate = offered_rate  # requests/second, for run()
        self._rng = random.Random(seed)
        #: LBA -> the latest write this client sent to it, until its run
        #: ends; a read of the LBA waits on it while it is alive.
        self._writes: dict[int, "Process"] = {}
        self.tier = tier
        self.qp = self._connect(tier, port_index)

    def run(self, n_requests: int) -> typing.Any:
        """Offer `n_requests` writes at the configured rate; returns a
        process that fires with a :class:`DriverResult` once all complete."""
        if self.offered_rate is None:
            raise ValueError("run() needs an offered_rate")
        if n_requests < 1:
            raise ValueError("need at least one request")
        return self._start(self._poisson(n_requests), "run")

    def replay(self, trace: typing.Sequence["TraceEntry"]) -> typing.Any:
        """Send `trace`'s requests at its timestamps (seconds from now);
        returns a process that fires with a :class:`DriverResult` once
        the last request completes."""
        if not trace:
            raise ValueError("empty trace")
        return self._start(self._replayed(trace), "replay")

    def _start(self, schedule: Schedule, what: str) -> typing.Any:
        self.tier.start()
        return self.sim.process(self._issue(schedule), name=f"{self.address}.{what}")

    def _poisson(self, n_requests: int) -> Schedule:
        rng, rate, make = self._rng, self.offered_rate, self.factory.make
        for _ in range(n_requests):
            yield rng.expovariate(rate), make

    def _replayed(self, trace: typing.Sequence["TraceEntry"]) -> Schedule:
        start = self.sim.now
        for entry in trace:
            yield start + entry.at - self.sim.now, functools.partial(self._traced, entry)

    def _traced(self, entry: "TraceEntry") -> Message:
        if entry.kind == "read":
            return self.factory.make_read(entry.lba)
        message = self.factory.make(entry.lba)
        message.header["latency_sensitive"] = entry.latency_sensitive
        return message

    def _issue(self, schedule: Schedule) -> typing.Generator:
        writes = self._writes
        outstanding = []
        for delay, build in schedule:
            if delay > 0:
                yield self.sim.timeout(delay)
            message = build()
            lba = message.header["block_id"]
            request = self._request(message, self._samples)
            if message.kind == "write_request":
                writes[lba] = process = self.sim.process(request)
            else:
                write = writes.get(lba)
                if write is not None and write.is_alive:
                    request = self._after(write, request)
                process = self.sim.process(request)
            outstanding.append(process)
        yield self.sim.all_of(outstanding)
        for lba in [lba for lba, write in writes.items() if not write.is_alive]:
            del writes[lba]
        return self.result()

    @staticmethod
    def _after(write: "Process", request: typing.Generator) -> typing.Generator:
        yield write
        yield from request


class ClientDriver(RequestClient):
    """Closed-loop load generator: `concurrency` outstanding requests.

    Plays the role of the request-issuing server in §5.1. Latency is
    measured per request from send-post to reply receipt; the first
    `warmup_fraction` of requests (and the ramp-down tail) are excluded
    from the reported statistics.
    """

    def __init__(
        self,
        sim: "Simulator",
        tier: "MiddleTierServer",
        factory: WriteRequestFactory,
        concurrency: int,
        port_index: int = 0,
        address: str | None = None,
        warmup_fraction: float = 0.1,
    ) -> None:
        if concurrency < 1:
            raise ValueError(f"concurrency must be >= 1, got {concurrency}")
        super().__init__(
            sim,
            tier.platform.network,
            address or f"client-{factory.vm_id}-p{port_index}",
            factory,
            warmup_fraction,
        )
        self.concurrency = concurrency
        self.tier = tier
        self.qp = self._connect(tier, port_index)

    def run(self, n_requests: int) -> typing.Any:
        """Issue `n_requests` total across the closed-loop streams.

        Returns an event (process) that fires with a
        :class:`DriverResult` when the run completes.
        """
        batches = self._writes(n_requests, self.concurrency)
        self.tier.start()
        streams = self._spawn_streams(batches, self._samples)
        return self.sim.process(
            self._collect(streams, self._samples, self.warmup_fraction),
            name=f"{self.address}.run",
        )

    def run_reads(self, lbas: typing.Sequence[int], concurrency: int | None = None) -> typing.Any:
        """Issue read requests for `lbas` (closed loop); returns a process
        that fires with a fresh :class:`DriverResult` for the reads only.

        Per-read failures are *surfaced*, not folded away: a reply with
        ``status != "ok"`` (``unavailable`` after exhausted fail-over,
        ``not_found``) lands in :attr:`DriverResult.failures` with its
        LBA, so callers can tell which reads the aggregate hides, and
        its wait counts in ``latency`` like every failed read.
        """
        batches = self._reads(lbas, concurrency or self.concurrency)
        self.tier.start()
        samples: list[Sample] = []
        streams = self._spawn_streams(batches, samples)
        return self.sim.process(
            self._collect(streams, samples, 0.0),
            name=f"{self.address}.reads",
        )
