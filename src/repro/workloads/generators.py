"""Write/read request generation and the closed-loop client driver."""

from __future__ import annotations

import bisect
import dataclasses
import itertools
import random
import typing

from repro.compression.model import RatioSampler
from repro.net.link import NetworkPort
from repro.net.message import Message, Payload
from repro.net.roce import RoceEndpoint
from repro.params import PlatformSpec
from repro.telemetry.metrics import Counter, LatencyRecorder

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.middletier.base import MiddleTierServer
    from repro.sim.kernel import Simulator


class WriteRequestFactory:
    """Builds the paper's write requests: 64 B header + 4 KB block.

    Two payload modes:

    - *synthetic* (default): the block's compressibility is drawn from
      `ratio_sampler`, calibrated on the Silesia-like corpus;
    - *functional*: pass `blocks` (real byte blocks, e.g. from
      :meth:`repro.compression.corpus.SilesiaLikeCorpus.blocks`) and
      requests will cycle through them carrying real data.
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
        if self.blocks is not None and not self.blocks:
            raise ValueError("functional mode needs at least one block")
        self.latency_sensitive_fraction = latency_sensitive_fraction
        self.vm_id = vm_id
        self._rng = random.Random(seed)
        self._next_lba = 0

    def make(self) -> Message:
        """Build the next write request."""
        workload = self.platform.workload
        if self.blocks is not None:
            data = self.blocks[self._next_lba % len(self.blocks)]
            payload = Payload.from_bytes(data)
        else:
            payload = Payload.synthetic(workload.block_size, self.ratio_sampler.sample())
        index = self._next_lba
        self._next_lba += 1
        if self.spread_segments == 1:
            lba = index
        else:
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

    @property
    def hottest_lba(self) -> int:
        """The rank-1 LBA (highest access probability)."""
        return self._by_rank[0]

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


@dataclasses.dataclass
class DriverResult:
    """What one closed-loop run measured (after warm-up exclusion)."""

    requests: int
    payload_bytes: int
    duration: float
    latency: LatencyRecorder
    #: Requests that completed with a non-``ok`` status, as
    #: ``(lba, status)`` pairs — e.g. ``(17, "unavailable")`` when every
    #: replica fail-over attempt for LBA 17 timed out.
    failures: tuple = ()

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


class OpenLoopDriver:
    """Open-loop (Poisson) load generator.

    Issues write requests at a fixed offered rate with exponential
    inter-arrival times, regardless of completions — the right tool for
    latency-vs-load curves, where closed-loop generators hide queueing.
    """

    def __init__(
        self,
        sim: "Simulator",
        tier: "MiddleTierServer",
        factory: WriteRequestFactory,
        offered_rate: float,
        port_index: int = 0,
        address: str | None = None,
        warmup_fraction: float = 0.1,
        seed: int = 0,
    ) -> None:
        if offered_rate <= 0:
            raise ValueError(f"offered rate must be positive, got {offered_rate!r}")
        if not 0.0 <= warmup_fraction < 0.5:
            raise ValueError("warmup_fraction must be in [0, 0.5)")
        self.sim = sim
        self.tier = tier
        self.factory = factory
        self.offered_rate = offered_rate  # requests/second
        self.warmup_fraction = warmup_fraction
        self.address = address or f"openloop-{factory.vm_id}-p{port_index}"
        self._rng = random.Random(seed)
        port = NetworkPort(
            sim, rate=tier.platform.network.port_rate, name=f"{self.address}.port"
        )
        self.endpoint = RoceEndpoint(sim, port, self.address, spec=tier.platform.network)
        self.qp = tier.attach_client(self.endpoint, port_index=port_index)
        # (start, end, payload, status, lba) per completed request.
        self._samples: list[tuple[float, float, int, str, int]] = []
        self._reply_events: dict[int, typing.Any] = {}
        sim.process(self._reply_loop(), name=f"{self.address}.replies", daemon=True)

    def _reply_loop(self) -> typing.Generator:
        while True:
            message: Message = yield self.qp.recv()
            event = self._reply_events.pop(message.header.get("in_reply_to"), None)
            if event is not None:
                event.succeed(message)

    def run(self, n_requests: int) -> typing.Any:
        """Offer `n_requests` at the configured rate; returns a process
        that fires with a :class:`DriverResult` once all complete."""
        if n_requests < 1:
            raise ValueError("need at least one request")
        self.tier.start()
        return self.sim.process(self._run(n_requests), name=f"{self.address}.run")

    def _run(self, n_requests: int) -> typing.Generator:
        outstanding = []
        for _ in range(n_requests):
            yield self.sim.timeout(self._rng.expovariate(self.offered_rate))
            outstanding.append(self.sim.process(self._one_request()))
        yield self.sim.all_of(outstanding)
        ordered = sorted(self._samples, key=lambda sample: sample[1])
        skip = int(len(ordered) * self.warmup_fraction)
        measured = ordered[skip:] if skip else ordered
        # Latency and payload bytes cover ok requests only — a shed reply
        # returns in microseconds and would otherwise *improve* the tail
        # while goodput collapses. `throughput` is therefore goodput.
        latency = LatencyRecorder("openloop-latency")
        payload_bytes = 0
        failures: list[tuple[int, str]] = []
        for start, end, size, status, lba in measured:
            if status == "ok":
                latency.record(end - start)
                payload_bytes += size
            else:
                failures.append((lba, status))
        duration = max(measured[-1][1] - measured[0][1], 1e-12)
        return DriverResult(
            requests=len(measured),
            payload_bytes=payload_bytes,
            duration=duration,
            latency=latency,
            failures=tuple(failures),
        )

    def _one_request(self) -> typing.Generator:
        message = self.factory.make()
        collector = self.sim._span_collector
        root = tx = None
        if collector is not None:
            root = collector.request(
                message.kind,
                message.request_id,
                vm=self.factory.vm_id,
                lba=message.header.get("block_id"),
            )
            # The transport reassigns message.span to its own child, so
            # hold the tx span locally to finish it.
            tx = message.span = root.child("client.tx")
        reply_event = self.sim.event()
        self._reply_events[message.request_id] = reply_event
        start = self.sim.now
        yield from self.qp.transmit(message)
        if tx is not None:
            tx.finish(nbytes=message.size)
        reply = yield reply_event
        status = reply.header.get("status", "ok")
        if root is not None:
            outcome = "ok" if status == "ok" else ("shed" if status == "shed" else "failed")
            root.finish(outcome, nbytes=reply.payload_size, status=status)
        self._samples.append(
            (
                start,
                self.sim.now,
                message.payload_size,
                status,
                message.header.get("block_id", -1),
            )
        )


class ClientDriver:
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
        if not 0.0 <= warmup_fraction < 0.5:
            raise ValueError("warmup_fraction must be in [0, 0.5)")
        self.sim = sim
        self.tier = tier
        self.factory = factory
        self.concurrency = concurrency
        self.warmup_fraction = warmup_fraction
        self.address = address or f"client-{factory.vm_id}-p{port_index}"
        port = NetworkPort(
            sim, rate=tier.platform.network.port_rate, name=f"{self.address}.port"
        )
        self.endpoint = RoceEndpoint(
            sim, port, self.address, spec=tier.platform.network
        )
        self.qp = tier.attach_client(self.endpoint, port_index=port_index)
        self._samples: list[tuple[float, float, int]] = []  # (start, end, payload)
        self._reply_events: dict[int, typing.Any] = {}
        self.replies_unmatched = Counter(f"{self.address}.unmatched")
        sim.process(self._reply_loop(), name=f"{self.address}.replies", daemon=True)

    def _reply_loop(self) -> typing.Generator:
        while True:
            message: Message = yield self.qp.recv()
            request_id = message.header.get("in_reply_to")
            event = self._reply_events.pop(request_id, None)
            if event is None:
                self.replies_unmatched.add()
            else:
                event.succeed(message)

    def run(self, n_requests: int) -> typing.Any:
        """Issue `n_requests` total across the closed-loop streams.

        Returns an event (process) that fires with a
        :class:`DriverResult` when the run completes.
        """
        if n_requests < self.concurrency:
            raise ValueError("n_requests must be >= concurrency")
        self.tier.start()
        per_stream = n_requests // self.concurrency
        streams = [
            self.sim.process(self._stream(per_stream), name=f"{self.address}.s{i}")
            for i in range(self.concurrency)
        ]
        return self.sim.process(self._collect(streams, n_requests), name=f"{self.address}.run")

    def _stream(self, n_requests: int) -> typing.Generator:
        collector = self.sim._span_collector
        for _ in range(n_requests):
            message = self.factory.make()
            root = tx = None
            if collector is not None:
                root = collector.request(
                    message.kind,
                    message.request_id,
                    vm=self.factory.vm_id,
                    lba=message.header.get("block_id"),
                )
                # The transport reassigns message.span to its own child,
                # so hold the tx span locally to finish it.
                tx = message.span = root.child("client.tx")
            reply_event = self.sim.event(name=f"reply:{message.request_id}")
            self._reply_events[message.request_id] = reply_event
            start = self.sim.now
            yield from self.qp.transmit(message)
            if tx is not None:
                tx.finish(nbytes=message.size)
            reply = yield reply_event
            if root is not None:
                status = reply.header.get("status", "ok")
                outcome = "ok" if status == "ok" else ("shed" if status == "shed" else "failed")
                root.finish(outcome, nbytes=reply.payload_size, status=status)
            self._samples.append((start, self.sim.now, message.payload_size))

    def _collect(self, streams: list, n_requests: int) -> typing.Generator:
        yield self.sim.all_of(streams)
        return self.result()

    def run_reads(self, lbas: typing.Sequence[int], concurrency: int | None = None) -> typing.Any:
        """Issue read requests for `lbas` (closed loop); returns a process
        that fires with a fresh :class:`DriverResult` for the reads only.

        Per-read failures are *surfaced*, not folded away: a reply with
        ``status != "ok"`` (``unavailable`` after exhausted fail-over,
        ``not_found``) lands in :attr:`DriverResult.failures` with its
        LBA, so callers can tell which reads the aggregate hides.
        """
        concurrency = concurrency or self.concurrency
        lbas = list(lbas)
        if not lbas:
            raise ValueError("no LBAs to read")
        self.tier.start()
        samples: list[tuple[float, float, int]] = []
        failures: list[tuple[int, str]] = []
        shards = [lbas[i::concurrency] for i in range(concurrency)]

        collector = self.sim._span_collector

        def stream(shard):
            for lba in shard:
                message = self.factory.make_read(lba)
                root = tx = None
                if collector is not None:
                    root = collector.request(
                        message.kind, message.request_id, vm=self.factory.vm_id, lba=lba
                    )
                    tx = message.span = root.child("client.tx")
                reply_event = self.sim.event()
                self._reply_events[message.request_id] = reply_event
                start = self.sim.now
                yield from self.qp.transmit(message)
                if tx is not None:
                    tx.finish(nbytes=message.size)
                reply = yield reply_event
                status = reply.header.get("status", "ok")
                if root is not None:
                    outcome = (
                        "ok" if status == "ok" else ("shed" if status == "shed" else "failed")
                    )
                    root.finish(outcome, nbytes=reply.payload_size, status=status)
                if status != "ok":
                    failures.append((lba, status))
                samples.append((start, self.sim.now, reply.payload_size))

        streams = [self.sim.process(stream(shard)) for shard in shards if shard]

        def collect():
            yield self.sim.all_of(streams)
            ordered = sorted(samples, key=lambda sample: sample[1])
            latency = LatencyRecorder("read-latency")
            payload_bytes = 0
            for begin, end, size in ordered:
                latency.record(end - begin)
                payload_bytes += size
            duration = max(ordered[-1][1] - ordered[0][1], 1e-12)
            return DriverResult(
                requests=len(ordered),
                payload_bytes=payload_bytes,
                duration=duration,
                latency=latency,
                failures=tuple(failures),
            )

        return self.sim.process(collect())

    def result(self) -> DriverResult:
        """Statistics over the measured (post-warm-up) portion of the run."""
        if not self._samples:
            raise RuntimeError("driver has no completed requests")
        ordered = sorted(self._samples, key=lambda sample: sample[1])
        skip = int(len(ordered) * self.warmup_fraction)
        measured = ordered[skip:] if skip else ordered
        latency = LatencyRecorder("client-latency")
        payload_bytes = 0
        for start, end, size in measured:
            latency.record(end - start)
            payload_bytes += size
        window_start = measured[0][1]
        window_end = measured[-1][1]
        return DriverResult(
            requests=len(measured),
            payload_bytes=payload_bytes,
            duration=max(window_end - window_start, 1e-12),
            latency=latency,
        )
