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
from repro.net.message import Message
from repro.telemetry.metrics import Counter, LatencyRecorder
from repro.telemetry.registry import registry_for
from repro.workloads.generators import RequestClient, WriteRequestFactory

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.sharded import ShardedCluster
    from repro.sim.kernel import Simulator


class RoutingClient(RequestClient):
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
        super().__init__(
            sim,
            cluster.platform.network,
            address or f"router-{factory.vm_id}",
            factory,
            warmup_fraction,
        )
        self.cluster = cluster
        self.spec = cluster.spec
        self.concurrency = concurrency
        # One queue pair per shard, all over the same physical port.
        self._qps = {tier.address: self._connect(tier) for tier in cluster.tiers}
        recovery = cluster.platform.recovery
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
        registry = registry_for(sim)
        if registry is not None:
            labels = dict(component="cluster", client=self.address)
            registry.register_instance(self.map_fetches, "client.map_fetches", **labels)
            registry.register_instance(self.stale_retries, "client.stale_retries", **labels)
            registry.register_instance(self.route_exhausted, "client.route_exhausted", **labels)
        #: Per-shard latency of ``ok`` requests, keyed by the shard that
        #: finally served them (no warm-up exclusion — for the cluster
        #: experiment's per-shard tail comparison).
        self.shard_latency: dict[str, LatencyRecorder] = {
            address: LatencyRecorder(f"{self.address}.{address}")
            for address in cluster.addresses
        }

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

    def _send(self, message: Message, root: typing.Any) -> typing.Generator:
        """Send one request to its owning shard, retrying stale routes.

        Returns ``(reply, attempts)``; a request that exhausts its route
        budget returns its last ``wrong_shard`` bounce.
        """
        bypassed = self.spec.directory_bypassed
        segment_id = None if bypassed else self.cluster.segment_of(message)
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
            reply = yield from self._round_trip(self._qps[target], message, root)
            status = reply.header.get("status", "ok")
            if status != "wrong_shard":
                if status == "ok":
                    self.shard_latency[target].record(self.sim.now - start)
                return reply, attempt
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
                # Terminal: surfaced as a failure, never silently dropped.
                self.route_exhausted.add()
                if root is not None:
                    # The first finish wins, so the root keeps the count.
                    root.finish("failed", status="wrong_shard", attempts=attempt)
                return reply, attempt
            attempt += 1
            lba = message.header.get("block_id", -1)
            yield self.sim.timeout(self.route_retry.backoff_before(attempt, token=lba))
            yield from self._fetch_map()

    # -- closed-loop runs -------------------------------------------------------

    def run(self, n_requests: int) -> typing.Any:
        """Issue `n_requests` writes across the closed-loop streams.

        Returns a process that fires with a :class:`DriverResult`.
        """
        batches = self._writes(n_requests, self.concurrency)
        self.cluster.start()
        return self.sim.process(
            self._run(batches, self._samples, self.warmup_fraction),
            name=f"{self.address}.run",
        )

    def run_reads(
        self, lbas: typing.Sequence[int], concurrency: int | None = None
    ) -> typing.Any:
        """Issue routed reads for `lbas`; returns a process firing with a
        fresh :class:`DriverResult` covering the reads only."""
        batches = self._reads(lbas, concurrency or self.concurrency)
        self.cluster.start()
        return self.sim.process(self._run(batches, [], 0.0), name=f"{self.address}.reads")

    def _run(self, batches: list, samples: list, warmup_fraction: float) -> typing.Generator:
        # Prefetch once so no request's latency sample pays the startup
        # map fetch (every stream shifts uniformly instead).
        if not self.spec.directory_bypassed and self._map is None:
            yield from self._fetch_map()
        streams = self._spawn_streams(batches, samples)
        return (yield from self._collect(streams, samples, warmup_fraction))

    def __repr__(self) -> str:
        return (
            f"<RoutingClient {self.address!r} shards={len(self._qps)} "
            f"map_version={self.map_version}>"
        )
