"""Shared middle-tier machinery.

All middle-tier designs serve the same protocol (§2.2):

- ``write_request`` from a VM: pick replica targets, (usually)
  compress, write to 3 storage servers, ack the VM once all replicas
  are durable; ``latency_sensitive`` writes skip compression, exactly
  as the paper's Listing 1 does;
- ``read_request`` from a VM: fetch the compressed block from one
  replica, decompress, reply.

What differs between designs is *where* bytes live and *which* hardware
pays for parsing, compression, and data movement — subclasses implement
those hooks while this base class owns dispatch, worker pools,
replication with time-out driven fail-over, and completion matching.
"""

from __future__ import annotations

import abc
import dataclasses
import typing
from collections import OrderedDict, deque

from repro.middletier.admission import AdmissionController
from repro.middletier.cluster import Testbed
from repro.middletier.retry import RetryPolicy
from repro.net.message import Message, Payload, decompress_payload
from repro.net.roce import QueuePair, RoceEndpoint
from repro.params import PlatformSpec
from repro.sim.events import AnyOf, Event
from repro.sim.resources import Resource, Store
from repro.telemetry.flight import FlightRecorder
from repro.telemetry.metrics import Counter, LatencyRecorder
from repro.telemetry.registry import registry_for
from repro.telemetry.slo import SLOMonitor, slo_monitor_for
from repro.units import msec

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.compression.model import CompressorProfile
    from repro.sim.kernel import Simulator
    from repro.storage.server import StorageServer


class ResponseMatcher:
    """Routes reply messages on a QP to whoever awaits them by request id.

    Replies nobody awaits come in two flavours. A reply to a request id
    that was :meth:`forget`-ten is an *expected* late arrival (the
    sender raced a fail-over time-out) — counted in :attr:`late_replies`
    and dropped. Anything else is genuinely unexpected and lands in the
    bounded :attr:`unmatched` ring for post-mortem inspection; the ring
    drops its oldest entry rather than growing without bound across a
    long lossy run.
    """

    #: Unexpected replies kept for inspection; beyond this, oldest drop.
    UNMATCHED_LIMIT = 64
    #: Forgotten request ids remembered so their late replies are counted
    #: as expected; beyond this, oldest forgets are themselves forgotten.
    FORGOTTEN_LIMIT = 1024

    def __init__(self, sim: "Simulator", qp: QueuePair) -> None:
        self.sim = sim
        self.qp = qp
        self._waiting: dict[int, Event] = {}
        self.unmatched: deque[Message] = deque(maxlen=self.UNMATCHED_LIMIT)
        self.late_replies = Counter("late-replies")
        self.unexpected_replies = Counter("unexpected-replies")
        self.forgotten_evicted = Counter("forgotten-evicted")
        self._forgotten: OrderedDict[int, None] = OrderedDict()
        registry = registry_for(sim)
        if registry is not None:
            labels = dict(component="middletier")
            registry.register_instance(self.late_replies, "tier.matcher.late_replies", **labels)
            registry.register_instance(
                self.unexpected_replies, "tier.matcher.unexpected_replies", **labels
            )
            registry.register_instance(
                self.forgotten_evicted, "tier.matcher.forgotten_evicted", **labels
            )
        sim.process(self._loop(), name="response-matcher", daemon=True)

    def expect(self, request_id: int) -> Event:
        """Event that fires with the reply to `request_id`."""
        if request_id in self._waiting:
            raise ValueError(f"already expecting a reply to request {request_id}")
        self._forgotten.pop(request_id, None)
        event = self.sim.event(name=f"reply:{request_id}")
        self._waiting[request_id] = event
        return event

    def forget(self, request_id: int) -> None:
        """Stop waiting for a reply (time-out path); a late reply is expected."""
        if self._waiting.pop(request_id, None) is not None:
            self._forgotten[request_id] = None
            while len(self._forgotten) > self.FORGOTTEN_LIMIT:
                self._forgotten.popitem(last=False)
                self.forgotten_evicted.add()

    def _loop(self) -> typing.Generator:
        while True:
            message: Message = yield self.qp.recv()
            request_id = message.header.get("in_reply_to")
            event = self._waiting.pop(request_id, None) if request_id is not None else None
            if event is not None:
                event.succeed(message)
            elif request_id is not None and request_id in self._forgotten:
                del self._forgotten[request_id]
                self.late_replies.add()
            else:
                self.unexpected_replies.add()
                self.unmatched.append(message)


@dataclasses.dataclass
class RetainedWrite:
    """A served write kept in middle-tier memory for LSM compaction.

    §2.2.3: "the middle-tier server would not release the memory that
    holds the write request even if the request has finished".
    """

    block_id: int
    payload: Payload
    replicas: tuple[tuple[str, int], ...]  # (server address, stored location)


class MiddleTierServer(abc.ABC):
    """Base class of every middle-tier design."""

    #: Human-readable design name ("CPU-only", "Acc", ...).
    design_name = "abstract"

    def __init__(
        self,
        sim: "Simulator",
        testbed: Testbed,
        n_workers: int,
        address: str = "tier0",
        replica_timeout: float = msec(5),
        write_retry: RetryPolicy | None = None,
        read_retry: RetryPolicy | None = None,
    ) -> None:
        if n_workers < 1:
            raise ValueError(f"need at least one worker, got {n_workers}")
        self.sim = sim
        self.testbed = testbed
        self.platform: PlatformSpec = testbed.platform
        self.n_workers = n_workers
        self.address = address
        self.replica_timeout = replica_timeout
        recovery = self.platform.recovery
        self.write_retry = write_retry or RetryPolicy.for_writes(
            recovery, attempt_timeout=replica_timeout
        )
        self.read_retry = read_retry or RetryPolicy.for_reads(recovery)
        #: Set by :meth:`repro.middletier.maintenance.HeartbeatMonitor.watch`;
        #: replica selection skips servers it suspects.
        self.health: typing.Any = None
        #: Shard-ownership guard set by :class:`repro.cluster.ShardedCluster`
        #: (``None`` on an undirected tier — the default). Called with each
        #: arriving request; a non-``None`` return means "not my segment"
        #: and carries the reply header fields (live owner, map version)
        #: for the client's stale-map refetch (``docs/scaling.md``).
        self.route_guard: typing.Callable[[Message], dict | None] | None = None
        self.wrong_shard_replies = Counter(f"{address}.wrong-shard")
        self.requests_completed = Counter(f"{address}.completed")
        self.payload_bytes_served = Counter(f"{address}.payload-bytes")
        #: Optional hot-block read cache (see :meth:`attach_cache`).
        self.cache: typing.Any = None
        self.cache_hit_latency = LatencyRecorder(f"{address}.cache-hit")
        self.cache_miss_latency = LatencyRecorder(f"{address}.cache-miss")
        self.failovers = Counter(f"{address}.failovers")
        self.read_failovers = Counter(f"{address}.read-failovers")
        self.reads_unavailable = Counter(f"{address}.reads-unavailable")
        self._requests: Store = Store(sim, name=f"{address}.requests")
        self._storage_links: dict[str, tuple[QueuePair, ResponseMatcher]] = {}
        self._block_locations: dict[tuple[int, int], tuple[str, ...]] = {}
        #: set True (e.g. by the LSM compaction service) to keep served
        #: writes in memory for later compaction (§2.2.3).
        self.retain_writes = False
        self._chunk_log: dict[int, list[RetainedWrite]] = {}
        self._started = False
        # Optional labeled-series registration: None when no registry is
        # attached to the simulator (the common case) — every hot-path
        # use is guarded on that.
        self._latency_hist: typing.Any = None
        registry = registry_for(sim)
        if registry is not None:
            labels = dict(component="middletier", design=self.design_name, address=address)
            registry.register_instance(self.requests_completed, "tier.requests_completed", **labels)
            registry.register_instance(self.wrong_shard_replies, "tier.wrong_shard_replies", **labels)
            registry.register_instance(self.payload_bytes_served, "tier.payload_bytes", **labels)
            registry.register_instance(self.failovers, "tier.write_failovers", **labels)
            registry.register_instance(self.read_failovers, "tier.read_failovers", **labels)
            registry.register_instance(self.reads_unavailable, "tier.reads_unavailable", **labels)
            registry.register_instance(self.cache_hit_latency, "tier.cache_hit_latency", **labels)
            registry.register_instance(self.cache_miss_latency, "tier.cache_miss_latency", **labels)
            self._latency_hist = registry.histogram("tier.request_latency", **labels)
            registry.gauge_callable("tier.queue_depth", lambda: len(self._requests), **labels)
        self._build()
        self._connect_storage()
        # Overload protection (docs/robustness.md): ``None`` when the
        # platform's AdmissionSpec is disabled (the default) — every
        # call site guards on that, so the unprotected tier is unchanged.
        # Built after _build() so the controller can see self.device on
        # designs that have one (the brownout HBM-pressure signal).
        admission_spec = self.platform.admission
        self.admission: AdmissionController | None = (
            AdmissionController(sim, self, admission_spec) if admission_spec.enabled else None
        )
        # Diagnosis layer (docs/observability.md): a tail-sampling
        # flight recorder on the sim's span collector when the platform
        # asks for one, plus SLO monitors fed by every terminal reply —
        # one per tier from ``platform.slos`` (per-shard budgets in a
        # cluster) and/or a session-wide one adopted from the sim
        # (``runner --slo``). Both default to absent, so the unobserved
        # hot path pays one falsy test per completion.
        collector = getattr(sim, "_span_collector", None)
        if (
            self.platform.flight.enabled
            and collector is not None
            and collector.flight is None
        ):
            FlightRecorder(collector, self.platform.flight)
        self.flight = collector.flight if collector is not None else None
        monitors = []
        if self.platform.slos:
            monitors.append(
                SLOMonitor(sim, self.platform.slos, name=address, flight=self.flight)
            )
        session_monitor = slo_monitor_for(sim)
        if session_monitor is not None:
            monitors.append(session_monitor)
        self.slo: SLOMonitor | None = monitors[0] if monitors else None
        self._slo_monitors: tuple[SLOMonitor, ...] = tuple(monitors)

    # -- subclass surface -------------------------------------------------

    @abc.abstractmethod
    def _build(self) -> None:
        """Create the design's hardware; must set ``self.client_endpoint``
        (a :class:`RoceEndpoint` VMs connect to) and
        ``self.storage_endpoint`` (the endpoint used towards storage —
        often the same object)."""

    @abc.abstractmethod
    def _handle_write(
        self, worker_index: int, qp: QueuePair, message: Message
    ) -> typing.Generator:
        """Worker-synchronous part of serving one write request.

        Must end by calling :meth:`_spawn_completion` with the payload
        to persist (compressed or raw), then return so the worker can
        pick up the next request.
        """

    def _decompress_cost(self, worker_index: int, payload: Payload) -> typing.Generator:
        """Charge the design's resources for decompressing one payload.

        Default: free (subclasses charge CPU/engine time). The ~7x
        CPU-decompression speed advantage (§2.2.3) is modeled where a
        design overrides this.
        """
        return
        yield  # pragma: no cover - generator form

    def _engine_pass(
        self, engine: Resource, profile: "CompressorProfile", nbytes: int
    ) -> typing.Generator:
        """Stream `nbytes` through one slot of a hardware `engine`: hold
        the slot for the profile's occupancy, then pay its (pipelined)
        setup latency outside it."""
        slot = engine.request()
        yield slot
        try:
            yield self.sim.timeout(profile.occupancy_time(nbytes))
        finally:
            engine.release(slot)
        if profile.setup_time:
            yield self.sim.timeout(profile.setup_time)

    # -- wiring ------------------------------------------------------------

    client_endpoint: RoceEndpoint
    storage_endpoint: RoceEndpoint

    def attach_cache(self, cache: typing.Any) -> typing.Any:
        """Serve hot reads from a :class:`~repro.cache.HotBlockCache`.

        Hits skip the storage round trip (and its retry/failover
        machinery) entirely; writes invalidate the key before acking so
        reads-after-write never see stale bytes (``docs/caching.md``).
        """
        self.cache = cache
        return cache

    def attach_client(self, client_endpoint: RoceEndpoint, port_index: int = 0) -> QueuePair:
        """Connect a VM-side endpoint; returns the client's queue pair.

        `port_index` selects the NIC port on multi-port designs and is
        ignored by single-port ones.
        """
        qp = client_endpoint.connect(self._endpoint_for_port(port_index))
        self.sim.process(
            self._dispatch(qp.peer, port_index), name=f"{self.address}.dispatch", daemon=True
        )
        return qp

    def _endpoint_for_port(self, port_index: int) -> RoceEndpoint:
        if port_index != 0:
            raise ValueError(f"{self.design_name} has a single port; got index {port_index}")
        return self.client_endpoint

    def _dispatch(self, qp: QueuePair, port_index: int) -> typing.Generator:
        while True:
            message: Message = yield qp.recv()
            # Multi-port designs keep a request's storage traffic on the
            # port it arrived on (see _storage_link_for).
            message.header["arrival_port"] = port_index
            if self._bounce_if_misrouted(qp, message):
                continue
            if self._admit(qp, message):
                self._requests.put((qp, message))

    def _bounce_if_misrouted(self, qp: QueuePair, message: Message) -> bool:
        """Route-guard check shared by every ingress flavor.

        Shard ownership is checked before admission: a misrouted request
        is a routing error to correct, not load to shed. Subclasses with
        their own ingress paths (the AAMS mixed-recv and control queues)
        must call this before `_admit` (``docs/scaling.md``).
        """
        if self.route_guard is None or message.kind not in (
            "write_request",
            "read_request",
        ):
            return False
        redirect = self.route_guard(message)
        if redirect is None:
            return False
        self.sim.process(
            self._send_wrong_shard(qp, message, redirect),
            name=f"{self.address}.wrong-shard",
        )
        return True

    # -- admission ---------------------------------------------------------

    def _admit(self, qp: QueuePair, message: Message) -> bool:
        """Admission gate at ingress; a shed request is answered, not queued."""
        if self.admission is None:
            return True
        reason = self.admission.admit(message)
        if reason is None:
            return True
        self.sim.process(
            self._send_shed_reply(qp, message, reason), name=f"{self.address}.shed"
        )
        return False

    def _send_shed_reply(
        self, qp: QueuePair, message: Message, reason: str
    ) -> typing.Generator:
        kind = "write_reply" if message.kind == "write_request" else "read_reply"
        reply = message.reply(kind, status="shed", reason=reason)
        # reply() doesn't propagate the flow tag; shed replies must stay
        # visible to FlowLedger byte-conservation audits.
        reply.flow = message.flow
        if message.span is not None:
            shed_span = message.span.child("admission.shed", reason=reason)
            shed_span.finish("shed")
        if self._slo_monitors:
            self._observe_completion(message, "shed")
        yield from qp.transmit(reply)

    def _send_wrong_shard(
        self, qp: QueuePair, message: Message, redirect: dict
    ) -> typing.Generator:
        """Bounce a misrouted request back with the current owner.

        The redirect headers (owner address, directory map version) come
        from the cluster's route guard; the client refetches the route
        map and retries (``docs/scaling.md``).
        """
        kind = "write_reply" if message.kind == "write_request" else "read_reply"
        reply = message.reply(kind, status="wrong_shard", **redirect)
        # Like shed replies, wrong-shard bounces carry the request's flow
        # tag so FlowLedger conservation audits see the full exchange.
        reply.flow = message.flow
        self.wrong_shard_replies.add()
        if message.span is not None:
            bounce = message.span.child(
                "route.wrong_shard", shard=self.address, **redirect
            )
            bounce.finish("retried")
        if self._slo_monitors:
            # Monitors ignore routing bounces (IGNORED_STATUSES); fed so
            # a future objective over them sees the full record stream.
            self._observe_completion(message, "wrong_shard")
        yield from qp.transmit(reply)

    def _release_admission(self, message: Message) -> None:
        """Return the request's credit at a non-ok terminal reply."""
        if self.admission is not None:
            self.admission.release(message)

    def _compression_allowed(self) -> bool:
        """Brownout rung 3 gate consulted by the designs' compress steps."""
        return self.admission is None or self.admission.compression_allowed()

    def _fill_allowed(self) -> bool:
        """Brownout rung 1 gate: whether read misses may fill the cache."""
        return self.admission is None or self.admission.cache_fills_allowed()

    def _connect_storage(self) -> None:
        for server in self.testbed.storage_servers:
            qp = server.accept_from(self.storage_endpoint)
            self._storage_links[server.address] = (qp, ResponseMatcher(self.sim, qp))

    def start(self) -> None:
        """Spawn the worker pool (idempotent)."""
        if self._started:
            return
        self._started = True
        for index in range(self.n_workers):
            self.sim.process(self._worker(index), name=f"{self.address}.worker{index}", daemon=True)

    # -- the worker loop ----------------------------------------------------

    def _worker(self, index: int) -> typing.Generator:
        while True:
            qp, message = yield self._requests.get()
            if message.kind == "write_request":
                yield from self._handle_write(index, qp, message)
            elif message.kind == "read_request":
                yield from self._handle_read(index, qp, message)
            else:
                raise ValueError(f"{self.design_name} got unexpected message {message.kind!r}")

    # -- write completion: replication, fail-over, VM ack --------------------

    def _complete(self, message: Message, nbytes: int | None = None) -> None:
        """Count one served request; feed the latency histogram and SLO
        monitors if any are attached. `nbytes` is the goodput payload
        (reads pass the fetched block; default: the request's payload)."""
        if self.admission is not None:
            self.admission.release(message)
        self.requests_completed.add()
        latency = (
            self.sim.now - message.created_at if message.created_at is not None else None
        )
        if self._latency_hist is not None and latency is not None:
            self._latency_hist.observe(latency)
        if self._slo_monitors:
            self._observe_completion(
                message,
                "ok",
                latency=latency,
                nbytes=message.payload_size if nbytes is None else nbytes,
            )

    def _observe_completion(
        self,
        message: Message,
        status: str,
        latency: float | None = None,
        nbytes: int = 0,
    ) -> None:
        """Feed one terminal reply to every attached SLO monitor."""
        for monitor in self._slo_monitors:
            monitor.record(message.kind, status, latency=latency, nbytes=nbytes)

    def _spawn_completion(self, qp: QueuePair, message: Message, payload: Payload) -> None:
        """Persist `payload` to the replica set and ack the VM, off-worker."""
        self.sim.process(
            self._replicate_and_reply(qp, message, payload), name=f"{self.address}.complete"
        )

    def _replicate_and_reply(
        self, qp: QueuePair, message: Message, payload: Payload
    ) -> typing.Generator:
        servers = self.testbed.policy.choose()
        rep_span = None
        if message.span is not None:
            rep_span = message.span.child("write.replicate", replicas=len(servers))
        # Fail-over must never double-place a block: every retry excludes
        # the whole original target set, not just the server that died.
        targets = {server.address for server in servers}
        writes = [
            self.sim.process(
                self._write_replica(server, message, payload, exclude=targets, span=rep_span)
            )
            for server in servers
        ]
        results = yield self.sim.all_of(writes)
        replicas = tuple(results[write] for write in writes)
        key = (message.header.get("chunk_id", 0), message.header.get("block_id", 0))
        self._block_locations[key] = tuple(address for address, _location in replicas)
        # Write-through invalidation: drop the cached (pre-write) block
        # before the VM sees the ack, so a read issued after the ack can
        # never be served stale bytes from the cache.
        if self.cache is not None:
            self.cache.invalidate(key)
        if self.retain_writes:
            self._chunk_log.setdefault(key[0], []).append(
                RetainedWrite(block_id=key[1], payload=payload, replicas=replicas)
            )
        reply = message.reply("write_reply", status="ok")
        reply.span = rep_span
        yield from qp.transmit(reply)
        if rep_span is not None:
            rep_span.finish(nbytes=payload.size * len(servers))
        self._complete(message)
        self.payload_bytes_served.add(message.payload_size)

    def _write_replica(
        self,
        server: "StorageServer",
        message: Message,
        payload: Payload,
        exclude: typing.Collection[str] = (),
        span: typing.Any = None,
    ) -> typing.Generator:
        """Write one replica; on time-out, fail over to another server.

        `exclude` holds the other replicas' targets so a replacement is
        never a server that already stores this block. Returns
        ``(address, location)`` of the acknowledged copy.

        Accounting contract: the caller holds one replication-policy
        claim on `server` (from ``choose()`` or ``claim()``); each
        fail-over claims its replacement via :meth:`_choose_replacement`.
        Every claim is released by exactly one ``complete()`` — in a
        ``finally`` so even an error path (e.g. no replacement left)
        cannot leave ``policy.outstanding`` stale.
        """
        policy = self.write_retry
        token = self._retry_token(message)
        attempts = 0
        excluded: set[str] = set(exclude)
        excluded.discard(server.address)
        while True:
            attempts += 1
            # Circuit open: the attempt is doomed — don't burn a full
            # time-out on it. Release the claim we hold and fail over
            # immediately, bounded by the same attempt budget.
            short_circuit = self.admission is not None and not self.admission.allow_server(
                server.address
            )
            if short_circuit:
                self.testbed.policy.complete(server)
                if span is not None:
                    span.event(
                        "write.short-circuit", outcome="retried", server=server.address
                    )
            else:
                qp, matcher = self._storage_link_for(server, message)
                store_msg = Message(
                    kind="storage_write",
                    src=self.address,
                    dst=server.address,
                    header_size=message.header_size,
                    payload=payload,
                    header={
                        "chunk_id": message.header.get("chunk_id", 0),
                        "block_id": message.header.get("block_id", 0),
                    },
                )
                attempt_span = None
                if span is not None:
                    attempt_span = span.child(
                        "write.attempt", server=server.address, attempt=attempts
                    )
                    store_msg.span = attempt_span
                ack_event = matcher.expect(store_msg.request_id)
                timeout = policy.timeout_for(attempts)
                try:
                    yield from qp.transmit(store_msg)
                    deadline = self.sim.timeout(timeout)
                    yield AnyOf(self.sim, [ack_event, deadline])
                    deadline.cancel()
                finally:
                    self.testbed.policy.complete(server)
                    if not ack_event.triggered:
                        # Expected late arrival, not a leak (§2.2.3 time-out).
                        matcher.forget(store_msg.request_id)
                if ack_event.triggered:
                    ack: Message = ack_event.value
                    if self.admission is not None:
                        self.admission.record_server_success(server.address)
                    if attempt_span is not None:
                        attempt_span.finish("ok", nbytes=payload.size)
                    return (server.address, ack.header.get("location", -1))
                # Timed out: pick a replacement and retry (§2.2.3 fail-over).
                if self.admission is not None:
                    self.admission.record_server_failure(server.address)
                if attempt_span is not None:
                    attempt_span.finish("retried", timeout=timeout)
                self.failovers.add()
            excluded.add(server.address)
            if policy.attempts_exhausted(attempts) or attempts > len(
                self.testbed.storage_servers
            ):
                if span is not None:
                    span.finish("failed", attempts=attempts)
                outcome = "short-circuited" if short_circuit else "failed"
                raise RuntimeError(f"write of {message.header} {outcome} on every server")
            server = self._choose_replacement(excluded)
            backoff = 0.0 if short_circuit else policy.backoff_before(attempts + 1, token)
            if backoff > 0:
                yield self.sim.timeout(backoff)

    def _storage_link_for(
        self, server: "StorageServer", message: Message
    ) -> tuple[QueuePair, ResponseMatcher]:
        """The (QP, matcher) to reach `server` for this request.

        Multi-port designs override this to keep storage traffic on the
        port the request arrived on.
        """
        return self._storage_links[server.address]

    @staticmethod
    def _retry_token(message: Message) -> int:
        """Replay-stable jitter token: a function of the block address.

        Request ids come from a process-global counter, so they are not
        stable across two runs in one process — the block address is.
        """
        return (
            int(message.header.get("chunk_id", 0)) * 1_000_003
            + int(message.header.get("block_id", 0))
        )

    def _suspected(self, address: str) -> bool:
        """Whether the health monitor (if any) suspects `address` is down."""
        return self.health is not None and not self.health.is_healthy(address)

    def _choose_replacement(self, excluded: set[str]) -> "StorageServer":
        alive = [
            s
            for s in self.testbed.storage_servers
            if s.address not in excluded and not s.failed
        ]
        # Prefer servers the heartbeat monitor considers healthy; fall
        # back to suspected-but-not-failed ones rather than giving up.
        healthy = [s for s in alive if not self._suspected(s.address)]
        candidates = healthy or alive
        if self.admission is not None:
            # Among equals, prefer replicas whose breaker isn't open —
            # checked via .state (not allow()) so mere candidate ranking
            # doesn't count as a short-circuit.
            open_free = [
                s
                for s in candidates
                if self.admission.breaker_for(s.address).state != "open"
            ]
            candidates = open_free or candidates
        if not candidates:
            raise RuntimeError("no healthy storage server left for fail-over")
        chosen = min(candidates, key=lambda s: self.testbed.policy.outstanding(s))
        self.testbed.policy.claim(chosen)
        return chosen

    # -- the read path --------------------------------------------------------

    def _handle_read(
        self, worker_index: int, qp: QueuePair, message: Message
    ) -> typing.Generator:
        """Serve a read (§2.2.2): fetch a replica, decompress, reply.

        The storage round-trip runs off-worker; only parse/decompress
        occupy the worker, mirroring the write path split.
        """
        yield self.sim.timeout(self.platform.host.parse_header_time)
        self.sim.process(self._fetch_and_reply(worker_index, qp, message))

    def _read_replica_for(
        self, locations: typing.Sequence[str], attempt: int
    ) -> str | None:
        """Replica address for 0-based fail-over `attempt`, or ``None``.

        Rotates through the block's replica set, skipping servers the
        heartbeat monitor suspects; ``None`` means every replica is
        currently suspected and the read should degrade to
        ``unavailable`` instead of probing dead servers.
        """
        pool = [address for address in locations if not self._suspected(address)]
        if not pool:
            return None
        if self.admission is not None:
            open_free = [
                address
                for address in pool
                if self.admission.breaker_for(address).state != "open"
            ]
            if open_free:
                pool = open_free
            else:
                # Every un-suspected replica's breaker is open: the read
                # is doomed — short-circuit it to "unavailable" rather
                # than spending time-outs probing tripped servers.
                self.admission.short_circuits.add()
                return None
        return pool[attempt % len(pool)]

    def _fetch_and_reply(
        self, worker_index: int, qp: QueuePair, message: Message
    ) -> typing.Generator:
        """Fetch a replica with time-out driven fail-over, then reply.

        The one read loop of every design. Never blocks forever: each
        fetch races a per-attempt time-out (the losing matchers forget
        the request), fail-over rotates through the whole replica set,
        and once the policy's attempt budget or deadline runs out the VM
        gets ``status="unavailable"`` instead of silence.

        With a cache attached, a hit replies straight from device
        memory — no storage round trip, no failover; a miss takes the
        path below and then offers the fetched block for admission.
        Designs differ only in the fetch hook (:meth:`_send_fetch`,
        :meth:`_take_fetch`) and the landing hook (:meth:`_land_reply`).
        """
        started = self.sim.now
        key = (message.header.get("chunk_id", 0), message.header.get("block_id", 0))
        parent = message.span
        fill_token = None
        if self.cache is not None:
            entry = self.cache.lookup(key)
            if entry is not None:
                hit_span = None if parent is None else parent.child("cache.hit")
                # The entry stays pinned across the landing hook's yields, so
                # a concurrent invalidation or shed defers its buffer free to
                # this release instead of yanking it mid-decompress.
                try:
                    payload = yield from self._land_reply(
                        worker_index, qp, message, entry.payload, hit_span, None, entry
                    )
                finally:
                    self.cache.release(entry)
                if hit_span is not None:
                    hit_span.finish(nbytes=payload.size)
                self._complete(message, nbytes=payload.size)
                self.cache_hit_latency.record(self.sim.now - started)
                return
            if parent is not None:
                parent.event("cache.miss")
            # Brownout rung 1: under pressure, misses stop filling the
            # cache — the fill's HBM traffic is the first thing to go.
            if self._fill_allowed():
                fill_token = self.cache.begin_fill(key)
        locations = self._block_locations.get(key)
        policy = self.read_retry
        token = self._retry_token(message)
        attempts = 0
        fetched: tuple[Message, typing.Any] | None = None
        while locations and fetched is None:
            address = self._read_replica_for(locations, attempts)
            if (
                address is None
                or policy.attempts_exhausted(attempts)
                or policy.deadline_expired(self.sim.now - started)
            ):
                self.reads_unavailable.add()
                unavail_span = None
                if parent is not None:
                    unavail_span = parent.child(
                        "read.unavailable", attempts=attempts, **policy.describe()
                    )
                yield from self._finish(qp, message, "unavailable", started, unavail_span)
                return
            attempts += 1
            backoff = policy.backoff_before(attempts, token)
            if backoff > 0:
                yield self.sim.timeout(backoff)
            server = self.testbed.server(address)
            fetch = Message(
                kind="storage_read",
                src=self.address,
                dst=server.address,
                header_size=message.header_size,
                header={"chunk_id": key[0], "block_id": key[1]},
            )
            attempt_span = None
            if parent is not None:
                attempt_span = parent.child("read.attempt", server=address, attempt=attempts)
                fetch.span = attempt_span
            events = yield from self._send_fetch(server, message, fetch)
            # One time-out per attempt: the deadline and the span agree.
            timeout = policy.timeout_for(attempts, self.sim.now - started)
            deadline = self.sim.timeout(timeout)
            yield AnyOf(self.sim, [*events, deadline])
            deadline.cancel()
            fetched = self._take_fetch(server, message, fetch, events, attempt_span)
            if fetched is not None:
                if self.admission is not None:
                    self.admission.record_server_success(address)
                break
            # Timed out: rotate to the next replica (§2.2.3 fail-over).
            if self.admission is not None:
                self.admission.record_server_failure(address)
            self.read_failovers.add()
            if attempt_span is not None:
                attempt_span.finish("retried", timeout=timeout)
        stored, landed = fetched or (None, None)
        # A data-less reply is header-only, so it never lands in a
        # design-owned buffer: nothing to release on this exit.
        if stored is None or stored.kind != "storage_read_reply" or stored.payload is None:
            if parent is not None:
                parent.event("read.not_found", outcome="failed")
            yield from self._finish(qp, message, "not_found", started)
            return
        if self.cache is not None and fill_token is not None:
            # Admission decision on the fetched (still compressed) block.
            admitted = self.cache.offer(key, stored.payload, fill_token)
            if parent is not None:
                parent.event("cache.fill", admitted=admitted)
        payload = yield from self._land_reply(
            worker_index, qp, message, stored.payload, parent, landed
        )
        self._complete(message, nbytes=payload.size)
        if self.cache is not None:
            self.cache_miss_latency.record(self.sim.now - started)

    def _finish(
        self,
        qp: QueuePair,
        message: Message,
        status: str,
        started: float,
        span: typing.Any = None,
    ) -> typing.Generator:
        """The one exit of a read that ends without data.

        Returns the admission credit, feeds the SLO monitors, sends the
        `status` reply, and closes `span` (the give-up span, if any)
        once the reply is on the wire.
        """
        self._release_admission(message)
        if self._slo_monitors:
            self._observe_completion(message, status, latency=self.sim.now - started)
        response = message.reply("read_reply", status=status)
        response.span = span
        yield from qp.transmit(response)
        if span is not None:
            span.finish("failed")

    # -- read hooks: where the reply lands and who decompresses it ----------

    def _send_fetch(
        self, server: "StorageServer", message: Message, fetch: Message
    ) -> typing.Generator:
        """Fetch hook, send step: expect the reply to `fetch` and send it.

        Returns the events the read loop races against the attempt's
        time-out.
        """
        storage_qp, matcher = self._storage_link_for(server, message)
        reply_event = matcher.expect(fetch.request_id)
        yield from storage_qp.transmit(fetch)
        return [reply_event]

    def _take_fetch(
        self,
        server: "StorageServer",
        message: Message,
        fetch: Message,
        events: list[Event],
        span: typing.Any,
    ) -> tuple[Message, typing.Any] | None:
        """Fetch hook, classify step, after the race.

        Returns ``(reply, landed)`` and finishes the attempt `span` when
        a reply won; `landed` is a design-owned buffer holding the
        payload, which the landing hook releases (``None`` here: the
        payload is in host memory). Returns ``None`` on a time-out. The
        losing matchers forget the request either way.
        """
        (reply_event,) = events
        if not reply_event.triggered:
            self._storage_link_for(server, message)[1].forget(fetch.request_id)
            return None
        reply: Message = reply_event.value
        if span is not None:
            span.finish("ok", nbytes=reply.payload_size)
        return reply, None

    def _land_reply(
        self,
        worker_index: int,
        qp: QueuePair,
        message: Message,
        payload: Payload,
        span: typing.Any,
        landed: typing.Any,
        entry: typing.Any = None,
    ) -> typing.Generator:
        """Landing hook: decompress a fetched or cached `payload` and
        send the ok reply, carrying `span`; returns the reply payload.

        `landed` is the fetch hook's buffer (the hook releases it);
        `entry` is the pinned cache entry on a hit (the read loop
        releases it). This default charges :meth:`_decompress_cost` and
        decompresses in software.
        """
        if payload.is_compressed:
            dec_span = None if span is None else span.child("decompress")
            yield from self._decompress_cost(worker_index, payload)
            payload = decompress_payload(payload)
            if dec_span is not None:
                dec_span.finish(nbytes=payload.size)
        yield from self._send_ok(qp, message, payload, span)
        return payload

    @staticmethod
    def _send_ok(
        qp: QueuePair, message: Message, payload: Payload, span: typing.Any
    ) -> typing.Generator:
        response = message.reply("read_reply", status="ok")
        response.payload = payload
        response.span = span
        yield from qp.transmit(response)
