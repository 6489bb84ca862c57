"""Directory-routed client driver for the sharded middle tier.

:class:`RoutingClient` is the cluster-aware sibling of
:class:`~repro.workloads.generators.ClientDriver`: one physical client
port, one queue pair per shard, a cached
:class:`~repro.cluster.directory.RouteMap`, and the stale-map retry
protocol of ``docs/scaling.md``:

1. resolve the request's segment and look its owner up in the cached
   map (local, no simulated time);
2. send to that shard, tagging the attempt ``flow="shard:<address>"``
   so FlowLedger byte-conservation audits work per shard;
3. on ``status="wrong_shard"``, refetch the map (paying
   ``ClusterSpec.map_fetch_latency``), back off deterministically, and
   retry — bounded by ``ClusterSpec.max_route_retries`` via the
   existing :class:`~repro.middletier.retry.RetryPolicy` machinery;
4. a request that exhausts its route budget surfaces in
   :attr:`DriverResult.failures` as ``(lba, "wrong_shard")`` — never
   silently dropped.

With ``ClusterSpec.directory_bypassed`` (the 1-shard default) the
client takes the exact single-tier path: no map fetch, no lookup, no
flow tags — byte-for-byte the behavior of ``ClientDriver``.
"""

from __future__ import annotations

import typing

from repro.middletier.retry import RetryPolicy
from repro.net.link import NetworkPort
from repro.net.message import Message
from repro.net.roce import RoceEndpoint
from repro.telemetry.metrics import Counter, LatencyRecorder
from repro.telemetry.registry import registry_for
from repro.workloads.generators import DriverResult, WriteRequestFactory

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.sharded import ShardedCluster
    from repro.sim.kernel import Simulator

#: (start, end, payload_bytes, status, lba) per completed request.
_Sample = tuple[float, float, int, str, int]


class RoutingClient:
    """Closed-loop driver that routes each request by segment owner."""

    def __init__(
        self,
        sim: "Simulator",
        cluster: "ShardedCluster",
        factory: WriteRequestFactory,
        concurrency: int,
        address: str | None = None,
        warmup_fraction: float = 0.1,
        seed: int = 0,
    ) -> None:
        if concurrency < 1:
            raise ValueError(f"concurrency must be >= 1, got {concurrency}")
        if not 0.0 <= warmup_fraction < 0.5:
            raise ValueError("warmup_fraction must be in [0, 0.5)")
        self.sim = sim
        self.cluster = cluster
        self.spec = cluster.spec
        self.factory = factory
        self.concurrency = concurrency
        self.warmup_fraction = warmup_fraction
        self.address = address or f"router-{factory.vm_id}"
        platform = cluster.platform
        self.port = NetworkPort(
            sim, rate=platform.network.port_rate, name=f"{self.address}.port"
        )
        self.endpoint = RoceEndpoint(sim, self.port, self.address, spec=platform.network)
        # One queue pair per shard, all over the same physical port.
        self._qps = {}
        for tier in cluster.tiers:
            qp = tier.attach_client(self.endpoint)
            self._qps[tier.address] = qp
            sim.process(
                self._reply_loop(qp),
                name=f"{self.address}.replies.{tier.address}",
                daemon=True,
            )
        recovery = platform.recovery
        #: Bounds the stale-map retry loop; backoff jitter is a pure
        #: function of (seed, lba, attempt) so churn runs replay exactly.
        self.route_retry = RetryPolicy(
            max_attempts=self.spec.max_route_retries,
            attempt_timeout=recovery.read_attempt_timeout,
            backoff_base=recovery.backoff_base,
            backoff_multiplier=recovery.backoff_multiplier,
            backoff_cap=recovery.backoff_cap,
            jitter=recovery.backoff_jitter,
            seed=seed,
        )
        self._map: typing.Any = None
        self.map_fetches = Counter(f"{self.address}.map-fetches")
        self.stale_retries = Counter(f"{self.address}.stale-retries")
        self.route_exhausted = Counter(f"{self.address}.route-exhausted")
        self.replies_unmatched = Counter(f"{self.address}.unmatched")
        registry = registry_for(sim)
        if registry is not None:
            labels = dict(component="cluster", client=self.address)
            registry.register_instance(self.map_fetches, "client.map_fetches", **labels)
            registry.register_instance(self.stale_retries, "client.stale_retries", **labels)
            registry.register_instance(self.route_exhausted, "client.route_exhausted", **labels)
        self._samples: list[_Sample] = []
        self._failures: list[tuple[int, str]] = []
        self._reply_events: dict[int, typing.Any] = {}
        #: Per-shard latency of ``ok`` requests, keyed by the shard that
        #: finally served them (no warm-up exclusion — for the cluster
        #: experiment's per-shard tail comparison).
        self.shard_latency: dict[str, LatencyRecorder] = {
            address: LatencyRecorder(f"{self.address}.{address}")
            for address in cluster.addresses
        }

    # -- plumbing ------------------------------------------------------------

    def _reply_loop(self, qp: typing.Any) -> typing.Generator:
        while True:
            message: Message = yield qp.recv()
            event = self._reply_events.pop(message.header.get("in_reply_to"), None)
            if event is None:
                self.replies_unmatched.add()
            else:
                event.succeed(message)

    def _fetch_map(self) -> typing.Generator:
        """Fetch a fresh route map from the directory service."""
        yield self.sim.timeout(self.spec.map_fetch_latency)
        self._map = self.cluster.directory.route_map()
        self.map_fetches.add()

    @property
    def map_version(self) -> int | None:
        """Version of the cached route map (``None`` before first fetch)."""
        return None if self._map is None else self._map.version

    # -- the routed request path ---------------------------------------------

    def _issue(
        self,
        message: Message,
        collector: typing.Any,
        samples: list[_Sample],
        failures: list[tuple[int, str]],
    ) -> typing.Generator:
        """Send one request to its owning shard, retrying stale routes."""
        bypassed = self.spec.directory_bypassed
        lba = message.header.get("block_id", -1)
        segment_id = None if bypassed else self.cluster.segment_of(message)
        root = None
        if collector is not None:
            root = collector.request(
                message.kind, message.request_id, vm=self.factory.vm_id, lba=lba
            )
        start = self.sim.now
        attempt = 1
        while True:
            if bypassed:
                target = self.cluster.addresses[0]
            else:
                if self._map is None:
                    yield from self._fetch_map()
                target = self._map.owner_of(segment_id)
                message.flow = f"shard:{target}"
                if root is not None:
                    lookup = root.child(
                        "route.lookup",
                        shard=target,
                        map_version=self._map.version,
                        segment=segment_id,
                        attempt=attempt,
                    )
                    lookup.finish("ok")
            tx = None
            if root is not None:
                # The transport reassigns message.span to its own child,
                # so hold the tx span locally to finish it.
                tx = message.span = root.child("client.tx")
            reply_event = self.sim.event(name=f"reply:{message.request_id}")
            self._reply_events[message.request_id] = reply_event
            yield from self._qps[target].transmit(message)
            if tx is not None:
                tx.finish(nbytes=message.size)
            reply = yield reply_event
            status = reply.header.get("status", "ok")
            if status != "wrong_shard":
                if root is not None:
                    outcome = (
                        "ok" if status == "ok" else ("shed" if status == "shed" else "failed")
                    )
                    if attempt > 1 and status == "ok":
                        outcome = "retried"
                    root.finish(outcome, nbytes=reply.payload_size, status=status)
                if status != "ok":
                    failures.append((lba, status))
                else:
                    self.shard_latency[target].record(self.sim.now - start)
                # Writes carry the payload out; reads carry it back.
                size = (
                    message.payload_size
                    if message.kind == "write_request"
                    else reply.payload_size
                )
                samples.append((start, self.sim.now, size, status, lba))
                return
            # Stale route: the shard no longer (or never did) own the
            # segment. Refetch and retry, bounded by the retry policy.
            self.stale_retries.add()
            if root is not None:
                bounce = root.child(
                    "route.stale_retry",
                    shard=target,
                    owner=reply.header.get("owner"),
                    map_version=reply.header.get("map_version"),
                    attempt=attempt,
                )
                bounce.finish("retried")
            if self.route_retry.attempts_exhausted(attempt):
                # Terminal: surfaced, never silently dropped.
                self.route_exhausted.add()
                if root is not None:
                    root.finish("failed", status="wrong_shard", attempts=attempt)
                failures.append((lba, "wrong_shard"))
                samples.append((start, self.sim.now, 0, "wrong_shard", lba))
                return
            attempt += 1
            yield self.sim.timeout(self.route_retry.backoff_before(attempt, token=lba))
            yield from self._fetch_map()

    # -- closed-loop write runs ----------------------------------------------

    def run(self, n_requests: int) -> typing.Any:
        """Issue `n_requests` writes across the closed-loop streams.

        Returns a process that fires with a :class:`DriverResult`.
        """
        if n_requests < self.concurrency:
            raise ValueError("n_requests must be >= concurrency")
        self.cluster.start()
        return self.sim.process(self._run(n_requests), name=f"{self.address}.run")

    def _run(self, n_requests: int) -> typing.Generator:
        # Prefetch once so no request's latency sample pays the startup
        # map fetch (every stream shifts uniformly instead).
        if not self.spec.directory_bypassed and self._map is None:
            yield from self._fetch_map()
        per_stream = n_requests // self.concurrency
        streams = [
            self.sim.process(self._stream(per_stream), name=f"{self.address}.s{i}")
            for i in range(self.concurrency)
        ]
        yield self.sim.all_of(streams)
        return self.result()

    def _stream(self, n_requests: int) -> typing.Generator:
        collector = self.sim._span_collector
        for _ in range(n_requests):
            message = self.factory.make()
            yield from self._issue(message, collector, self._samples, self._failures)

    # -- routed reads ---------------------------------------------------------

    def run_reads(
        self, lbas: typing.Sequence[int], concurrency: int | None = None
    ) -> typing.Any:
        """Issue routed reads for `lbas`; returns a process firing with a
        fresh :class:`DriverResult` covering the reads only."""
        concurrency = concurrency or self.concurrency
        lbas = list(lbas)
        if not lbas:
            raise ValueError("no LBAs to read")
        self.cluster.start()
        samples: list[_Sample] = []
        failures: list[tuple[int, str]] = []
        shards = [lbas[i::concurrency] for i in range(concurrency)]
        collector = self.sim._span_collector

        def stream(batch: list[int]) -> typing.Generator:
            for lba in batch:
                message = self.factory.make_read(lba)
                yield from self._issue(message, collector, samples, failures)

        def collect() -> typing.Generator:
            if not self.spec.directory_bypassed and self._map is None:
                yield from self._fetch_map()
            streams = [
                self.sim.process(stream(batch), name=f"{self.address}.r{i}")
                for i, batch in enumerate(shards)
                if batch
            ]
            yield self.sim.all_of(streams)
            return _summarize(samples, failures, warmup_fraction=0.0)

        return self.sim.process(collect(), name=f"{self.address}.reads")

    # -- results ---------------------------------------------------------------

    def result(self) -> DriverResult:
        """Statistics over the measured (post-warm-up) write stream."""
        if not self._samples:
            raise RuntimeError("routing client has no completed requests")
        return _summarize(self._samples, self._failures, self.warmup_fraction)

    def __repr__(self) -> str:
        return (
            f"<RoutingClient {self.address!r} shards={len(self._qps)} "
            f"map_version={self.map_version}>"
        )


def _summarize(
    samples: list[_Sample],
    failures: list[tuple[int, str]],
    warmup_fraction: float,
) -> DriverResult:
    """Fold routed samples into a :class:`DriverResult` (goodput-only).

    Latency and payload bytes cover ``ok`` requests only, exactly like
    :class:`~repro.workloads.generators.OpenLoopDriver`; non-ok
    terminal statuses are surfaced through ``failures``.
    """
    ordered = sorted(samples, key=lambda sample: sample[1])
    skip = int(len(ordered) * warmup_fraction)
    measured = ordered[skip:] if skip else ordered
    latency = LatencyRecorder("routed-latency")
    payload_bytes = 0
    measured_failures: list[tuple[int, str]] = []
    for start, end, size, status, lba in measured:
        if status == "ok":
            latency.record(end - start)
            payload_bytes += size
        else:
            measured_failures.append((lba, status))
    duration = max(measured[-1][1] - measured[0][1], 1e-12)
    return DriverResult(
        requests=len(measured),
        payload_bytes=payload_bytes,
        duration=duration,
        latency=latency,
        failures=tuple(measured_failures),
    )
