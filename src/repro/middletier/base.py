"""Shared middle-tier machinery.

All middle-tier designs serve the same protocol (§2.2):

- ``write_request`` from a VM: pick replica targets, (usually)
  compress, write to 3 storage servers, ack the VM once all replicas
  are durable; ``latency_sensitive`` writes skip compression, exactly
  as the paper's Listing 1 does;
- ``read_request`` from a VM: fetch the compressed block from one
  replica, decompress, reply.

What differs between designs is *where* bytes live and *which* hardware
pays for parsing, compression, and data movement. Subclasses build that
hardware and declare it as data (the payload's write and read legs, who
parses and who posts); this base class runs the declaration and owns
dispatch, worker pools, replication with time-out driven fail-over, and
completion matching.
"""

from __future__ import annotations

import abc
import dataclasses
import operator
import typing
from collections import OrderedDict, deque

from repro.compression.model import DECOMPRESSION_SPEEDUP
from repro.middletier.admission import AdmissionController
from repro.middletier.cluster import Testbed
from repro.middletier.retry import RetryPolicy
from repro.net.message import Message, Payload, compress_payload, decompress_payload
from repro.net.roce import QueuePair, RoceEndpoint
from repro.params import PlatformSpec
from repro.sim.events import AnyOf, Event
from repro.sim.resources import Resource, Store
from repro.telemetry.flight import FlightRecorder
from repro.telemetry.metrics import Counter, LatencyRecorder
from repro.telemetry.registry import registry_for
from repro.telemetry.slo import SLOMonitor, slo_monitor_for

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.compression.model import CompressorProfile
    from repro.sim.kernel import Simulator
    from repro.storage.server import StorageServer


class ResponseMatcher:
    """Routes reply messages on a QP to whoever awaits them by request id.

    It is the one place a tier matches ``in_reply_to``. Whole replies
    come from the QP's software receive queue; on SmartDS, a reply the
    Split module landed in device memory is handed to :meth:`deliver`
    with its buffer. Either way the waiter gets ``(reply, landed)``.

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
        """Event that fires with ``(reply, landed)`` for `request_id`."""
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

    def deliver(self, message: Message, landed: typing.Any = None) -> bool:
        """Match one reply to its waiter; return whether one took it.

        The waiter's event fires with ``(message, landed)``: `landed` is
        the device buffer a split descriptor put the payload in, or
        ``None`` when the reply reached host memory whole. An unclaimed
        reply stays the caller's, so the caller frees `landed`.
        """
        request_id = message.header.get("in_reply_to")
        event = self._waiting.pop(request_id, None)
        if event is not None:
            event.succeed((message, landed))
            return True
        if request_id in self._forgotten:
            del self._forgotten[request_id]
            self.late_replies.add()
        else:
            self.unexpected_replies.add()
            self.unmatched.append(message)
        return False

    def round_trip(self, message: Message, timeout: float | None = None) -> typing.Generator:
        """``yield from`` body: send `message`, wait for its reply (at most
        `timeout`), return ``(reply, landed)``. On a time-out, return
        ``None`` and forget the request, so its late reply is counted."""
        event = self.expect(message.request_id)
        try:
            yield from self.qp.transmit(message)
            if timeout is None:
                yield event
            else:
                deadline = self.sim.timeout(timeout)
                yield AnyOf(self.sim, [event, deadline])
                deadline.cancel()
        finally:
            if not event.triggered:
                self.forget(message.request_id)
        return event.value if event.triggered else None

    def _loop(self) -> typing.Generator:
        while True:
            self.deliver((yield self.qp.recv()))


#: Statuses a tier answers at ingress, before the request is admitted.
_INGRESS_STATUSES = frozenset({"shed", "wrong_shard"})


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
    #: Whether storage replies can land in device memory by split
    #: (SmartDS); read-attempt spans then record where each one landed.
    split_replies = False

    def __init__(
        self,
        sim: "Simulator",
        testbed: Testbed,
        n_workers: int,
        address: str = "tier0",
    ) -> None:
        if n_workers < 1:
            raise ValueError(f"need at least one worker, got {n_workers}")
        self.sim = sim
        self.testbed = testbed
        self.platform: PlatformSpec = testbed.platform
        self.n_workers = n_workers
        self.address = address
        self.write_retry = RetryPolicy.for_writes(self.platform.recovery)
        self.read_retry = RetryPolicy.for_reads(self.platform.recovery)
        #: Set by :class:`repro.middletier.maintenance.HeartbeatMonitor`
        #: when it is built; replica selection skips servers it suspects.
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
        self.writes_unavailable = Counter(f"{address}.writes-unavailable")
        self._requests: Store = Store(sim, name=f"{address}.requests")
        self._storage_links: dict[str, ResponseMatcher] = {}
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
            registry.register_instance(self.writes_unavailable, "tier.writes_unavailable", **labels)
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

    # -- the design as data (docs/architecture.md, "Where the designs differ")

    #: The payload's legs through the design's hardware as ``(step,
    #: side)`` pairs, run in order by :meth:`_run_legs`: `step` is
    #: ``"engine"`` (a pass through ``self.engine``), ``"cores"`` (worker
    #: time at ``self.core_rates[worker]``) or the dotted name of a
    #: generator leg on the tier (``"memory.read"``, ``"fpga_pcie.dma_write"``);
    #: `side` says whether the leg moves the bytes going in (``"in"``) or
    #: coming out (``"out"``) of the transform.
    write_legs: tuple[tuple[str, str], ...] = ()
    read_legs: tuple[tuple[str, str], ...] = ()
    #: Host descriptors a worker posts to hand a write on (engine
    #: descriptor, recv repost) before it takes the next request.
    handoff_posts = 0
    #: Whether a write's legs run off-worker (an engine completes them)
    #: instead of holding the worker.
    offload = False
    #: Whether host software posts the replica sends and the VM ack
    #: (``replication + 1`` descriptors) once the legs are done.
    host_posts = False
    #: Per-worker core compression rates (bytes/s) of designs with a
    #: ``"cores"`` leg.
    core_rates: typing.Sequence[float] = ()

    @property
    def parse_time(self) -> float:
        """Seconds to parse one request header, write or read (host
        software by default)."""
        return self.platform.host.parse_header_time

    def _run_legs(
        self,
        legs: typing.Iterable[tuple[str, str]],
        worker_index: int,
        nin: int,
        nout: int,
        read: bool = False,
    ) -> typing.Generator:
        """``yield from`` body: move one payload through `legs`, `nin`
        bytes in and `nout` bytes out; `read` runs them as a decompress."""
        for step, side in legs:
            nbytes = nin if side == "in" else nout
            if step == "engine":
                yield from self._engine_pass(self.engine, self._engine_profile, nbytes)
            elif step == "cores":
                rate = self.core_rates[worker_index]
                yield self.sim.timeout(
                    nbytes / (rate * DECOMPRESSION_SPEEDUP) if read else nbytes / rate
                )
            else:
                yield from operator.attrgetter(step)(self)(nbytes)

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
        # The redirect headers (owner address, directory map version)
        # let the client refetch the route map and retry.
        self.wrong_shard_replies.add()
        if message.span is not None:
            bounce = message.span.child("route.wrong_shard", shard=self.address, **redirect)
            bounce.finish("retried")
        self.sim.process(
            self._reply(qp, message, "wrong_shard", **redirect),
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
        if message.span is not None:
            message.span.child("admission.shed", reason=reason).finish("shed")
        self.sim.process(
            self._reply(qp, message, "shed", reason=reason), name=f"{self.address}.shed"
        )
        return False

    def _compression_allowed(self) -> bool:
        """Brownout rung 3 gate consulted by the designs' compress steps."""
        return self.admission is None or self.admission.compression_allowed()

    def _forward_raw(self, message: Message) -> bool:
        """Whether a write skips compression: latency-sensitive writes
        (Listing 1) and brownout rung 3. SmartDS keeps its own branches,
        since it counts the brownout case as degraded."""
        return bool(message.header.get("latency_sensitive")) or not self._compression_allowed()

    def _fill_allowed(self) -> bool:
        """Brownout rung 1 gate: whether read misses may fill the cache."""
        return self.admission is None or self.admission.cache_fills_allowed()

    def _connect_storage(self) -> None:
        for server in self.testbed.storage_servers:
            qp = server.accept_from(self.storage_endpoint)
            self._storage_links[server.address] = ResponseMatcher(self.sim, qp)

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

    # -- the one exit: every client reply ----------------------------------

    def _reply(
        self,
        qp: QueuePair,
        message: Message,
        status: str,
        payload: Payload | None = None,
        span: typing.Any = None,
        **header: typing.Any,
    ) -> typing.Generator:
        """``yield from`` body: answer `message` with `status` — the one
        place a tier replies to a client.

        Builds the ``write_reply`` or ``read_reply`` (carrying `span`,
        `payload` and the extra `header` fields), transmits it, and then
        accounts the request: returns its admission credit and feeds the
        SLO monitors; an ``ok`` also counts as completed and feeds the
        latency histogram. Callers close their own spans afterwards.
        """
        write = message.kind == "write_request"
        reply = message.reply(
            "write_reply" if write else "read_reply", payload, status=status, **header
        )
        reply.span = span
        if status in _INGRESS_STATUSES:
            # reply() doesn't propagate the flow tag; answers given at
            # ingress must stay visible to FlowLedger conservation audits.
            reply.flow = message.flow
        yield from qp.transmit(reply)
        if self.admission is not None:
            self.admission.release(message)
        latency = None if message.created_at is None else self.sim.now - message.created_at
        nbytes = 0
        if status == "ok":
            # Goodput: the written payload, or the block a read returned.
            nbytes = message.payload_size if payload is None else payload.size
            self.requests_completed.add()
            if write:
                self.payload_bytes_served.add(nbytes)
            if self._latency_hist is not None and latency is not None:
                self._latency_hist.observe(latency)
        for monitor in self._slo_monitors:
            monitor.record(message.kind, status, latency=latency, nbytes=nbytes)

    # -- the write path -----------------------------------------------------

    def _handle_write(
        self, worker_index: int, qp: QueuePair, message: Message
    ) -> typing.Generator:
        """Worker part of one write: parse the header, post the hand-off
        descriptors, then compress on the worker or hand off (:attr:`offload`)."""
        if message.payload is None:
            raise ValueError("write_request without payload")
        yield self.sim.timeout(self.parse_time)
        if self.handoff_posts:
            yield self.sim.timeout(self.platform.host.post_descriptor_time * self.handoff_posts)
        if self.offload:
            self.sim.process(self._compress_and_complete(worker_index, qp, message))
        else:
            yield from self._compress_and_complete(worker_index, qp, message)

    def _compress_and_complete(
        self, worker_index: int, qp: QueuePair, message: Message
    ) -> typing.Generator:
        """Run the write legs (unless the write goes raw), post the host
        sends and start replication."""
        payload = message.payload
        if self._forward_raw(message):
            outgoing = payload
        else:
            outgoing = compress_payload(payload)
            yield from self._run_legs(self.write_legs, worker_index, payload.size, outgoing.size)
        if self.host_posts:
            posts = self.platform.storage.replication + 1  # replicas + VM ack
            yield self.sim.timeout(self.platform.host.post_descriptor_time * posts)
        self._spawn_completion(qp, message, outgoing)

    # -- write completion: replication, fail-over, VM ack --------------------

    def _spawn_completion(self, qp: QueuePair, message: Message, payload: Payload) -> None:
        """Persist `payload` to the replica set and ack the VM, off-worker."""
        self.sim.process(
            self._replicate_and_reply(qp, message, payload), name=f"{self.address}.complete"
        )

    def _replicate_and_reply(
        self, qp: QueuePair, message: Message, payload: Payload
    ) -> typing.Generator:
        rep_span = None
        if message.span is not None:
            rep_span = message.span.child(
                "write.replicate", replicas=self.testbed.policy.replication
            )
        key = (message.header.get("chunk_id", 0), message.header.get("block_id", 0))
        replicas = yield from self._replicate(
            key, payload, rep_span, message.header.get("arrival_port", 0)
        )
        # Write-through invalidation: drop the cached (pre-write) block
        # before the VM sees the ack, so a read issued after the ack can
        # never be served stale bytes from the cache. A failed write may
        # still have landed some copies, so it invalidates too.
        if self.cache is not None:
            self.cache.invalidate(key)
        if replicas is None:
            # Some copy found no live server: the write is not durable.
            self.writes_unavailable.add()
            yield from self._reply(qp, message, "unavailable", span=rep_span)
            if rep_span is not None:
                rep_span.finish("failed")
            return
        if self.retain_writes:
            self._chunk_log.setdefault(key[0], []).append(
                RetainedWrite(block_id=key[1], payload=payload, replicas=replicas)
            )
        yield from self._reply(qp, message, "ok", span=rep_span)
        if rep_span is not None:
            rep_span.finish(nbytes=payload.size * len(replicas))

    def _replicate(
        self,
        key: tuple[int, int],
        payload: Payload,
        span: typing.Any = None,
        port: int = 0,
    ) -> typing.Generator:
        """``yield from`` body: persist `payload` as block `key` (§2.2.3).

        The one replicated-write path of the tier — VM writes and LSM
        compaction both land here. Chooses the replica set, writes every
        copy concurrently with time-out fail-over (:meth:`_write_replica`),
        records the holders and returns the ``(address, location)`` of
        each acknowledged copy. Returns ``None``, recording nothing, when
        some copy found no live server. `port` is the NIC port whose
        storage links carry the writes (multi-port designs).
        """
        servers = self._choose(self.testbed.policy.replication)
        if servers is None:
            return None
        # Fail-over must never double-place a block: every retry excludes
        # the whole original target set, not just the server that died.
        targets = {server.address for server in servers}
        writes = [
            self.sim.process(
                self._write_replica(server, key, payload, targets, span, port)
            )
            for server in servers
        ]
        results = yield self.sim.all_of(writes)
        replicas = tuple(results[write] for write in writes)
        if None in replicas:
            return None
        self._record_replicas(key, replicas)
        return replicas

    def _record_replicas(
        self, key: tuple[int, int], replicas: typing.Iterable[tuple[str, int]]
    ) -> None:
        """Note which servers hold block `key` now; the only writer of
        the read path's replica map (re-replication calls it too)."""
        self._block_locations[key] = tuple(address for address, _location in replicas)

    def _write_replica(
        self,
        server: "StorageServer",
        key: tuple[int, int],
        payload: Payload,
        exclude: typing.Collection[str] = (),
        span: typing.Any = None,
        port: int = 0,
    ) -> typing.Generator:
        """Write one replica of block `key`; on time-out, fail over.

        `exclude` holds the other replicas' targets so a replacement is
        never a server that already stores this block. Returns
        ``(address, location)`` of the acknowledged copy, or ``None``
        once the attempt budget is spent or no replacement is left.

        Accounting contract: the caller holds one replication-policy
        claim on `server` (from :meth:`_choose`); each fail-over claims
        its replacement through :meth:`_choose` too.
        Every claim is released by exactly one ``complete()`` — in a
        ``finally`` so even an error path cannot leave
        ``policy.outstanding`` stale.
        """
        policy = self.write_retry
        token = self._retry_token(key)
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
                matcher = self._storage_link_for(server, port)
                store_msg = Message(
                    kind="storage_write",
                    src=self.address,
                    dst=server.address,
                    header_size=self.platform.workload.header_size,
                    payload=payload,
                    header={"chunk_id": key[0], "block_id": key[1]},
                )
                attempt_span = None
                if span is not None:
                    attempt_span = span.child(
                        "write.attempt", server=server.address, attempt=attempts
                    )
                    store_msg.span = attempt_span
                timeout = policy.timeout_for(attempts)
                try:
                    # A time-out forgets the request: a late ack is expected (§2.2.3).
                    acked = yield from matcher.round_trip(store_msg, timeout)
                finally:
                    self.testbed.policy.complete(server)
                if acked is not None:
                    ack, _landed = acked
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
            exhausted = policy.attempts_exhausted(attempts) or attempts > len(
                self.testbed.storage_servers
            )
            chosen = None if exhausted else self._choose(1, excluded)
            if chosen is None:
                if span is not None:
                    span.finish("failed", attempts=attempts)
                return None
            [server] = chosen
            backoff = 0.0 if short_circuit else policy.backoff_before(attempts + 1, token)
            if backoff > 0:
                yield self.sim.timeout(backoff)

    def _storage_link_for(self, server: "StorageServer", port: int) -> ResponseMatcher:
        """The matcher (and so the QP) to reach `server` from NIC `port`.

        Multi-port designs override this to keep storage traffic on the
        port the request arrived on.
        """
        return self._storage_links[server.address]

    @staticmethod
    def _retry_token(key: tuple[int, int]) -> int:
        """Replay-stable jitter token: a function of the block address.

        Request ids come from a process-global counter, so they are not
        stable across two runs in one process — the block address is.
        """
        return int(key[0]) * 1_000_003 + int(key[1])

    def _suspected(self, address: str) -> bool:
        """Whether the health monitor (if any) suspects `address` is down."""
        return self.health is not None and not self.health.is_healthy(address)

    def _choose(
        self, count: int, excluded: typing.Collection[str] = ()
    ) -> "list[StorageServer] | None":
        """Claim `count` live servers outside `excluded`, best first, or
        return ``None`` and claim nothing when fewer are left.

        The one ranking of storage servers (§2.2.1 placement, §2.2.3
        fail-over): servers the heartbeat monitor does not suspect, then
        those whose breaker is not open, then the fewest outstanding
        writes, then the address. The initial replica set, write
        fail-over and heartbeat re-replication all call it.
        """
        policy = self.testbed.policy
        live = [
            s for s in self.testbed.storage_servers if s.address not in excluded and not s.failed
        ]
        if len(live) < count:
            return None
        breakers = None if self.admission is None else self.admission.breakers

        def rank(server: "StorageServer") -> tuple:
            # ``breakers.get``, not ``breaker_for``: ranking never makes a breaker.
            breaker = None if breakers is None else breakers.get(server.address)
            return (
                self._suspected(server.address),
                breaker is not None and breaker.state == "open",
                policy.outstanding(server),
                server.address,
            )

        chosen = sorted(live, key=rank)[:count]
        for server in chosen:
            policy.claim(server)
        return chosen

    # -- the read path --------------------------------------------------------

    def _handle_read(
        self, worker_index: int, qp: QueuePair, message: Message
    ) -> typing.Generator:
        """Serve a read (§2.2.2): fetch a replica, decompress, reply.

        The storage round-trip runs off-worker; only parse/decompress
        occupy the worker, mirroring the write path split. The header
        parse is the design's own, as on writes (:attr:`parse_time`).
        """
        yield self.sim.timeout(self.parse_time)
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
        Every reply reaches the attempt through its QP's
        :class:`ResponseMatcher` as ``(reply, landed)``. Designs differ
        only in the link hook (:meth:`_fetch_link`) and the landing hook
        (:meth:`_land_reply`).
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
        token = self._retry_token(key)
        port = message.header.get("arrival_port", 0)
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
                yield from self._reply(qp, message, "unavailable", span=unavail_span)
                if unavail_span is not None:
                    unavail_span.finish("failed")
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
            matcher = self._fetch_link(server, port)
            reply_event = matcher.expect(fetch.request_id)
            yield from matcher.qp.transmit(fetch)
            # One time-out per attempt, computed after the send: the
            # deadline and the span agree.
            timeout = policy.timeout_for(attempts, self.sim.now - started)
            deadline = self.sim.timeout(timeout)
            yield AnyOf(self.sim, [reply_event, deadline])
            deadline.cancel()
            if reply_event.triggered:
                fetched = reply_event.value
                if attempt_span is not None:
                    reply, landed = fetched
                    if not self.split_replies:
                        attempt_span.finish("ok", nbytes=reply.payload_size)
                    elif landed is not None:
                        attempt_span.finish("ok", nbytes=reply.payload_size, path="split")
                    else:
                        # A payload here is degraded: it sits in host memory.
                        status = "ok" if reply.payload is None else "degraded"
                        attempt_span.finish(status, nbytes=reply.payload_size, path="host")
                if self.admission is not None:
                    self.admission.record_server_success(address)
                break
            # Timed out: forget the fetch, so a late reply is counted and
            # dropped, and rotate to the next replica (§2.2.3 fail-over).
            matcher.forget(fetch.request_id)
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
            yield from self._reply(qp, message, "not_found")
            return
        if self.cache is not None and fill_token is not None:
            # Admission decision on the fetched (still compressed) block.
            admitted = self.cache.offer(key, stored.payload, fill_token)
            if parent is not None:
                parent.event("cache.fill", admitted=admitted)
        yield from self._land_reply(worker_index, qp, message, stored.payload, parent, landed)
        if self.cache is not None:
            self.cache_miss_latency.record(self.sim.now - started)

    # -- read hooks: where the reply lands and who decompresses it ----------

    def _fetch_link(self, server: "StorageServer", port: int) -> ResponseMatcher:
        """Link hook: the matcher whose QP carries a fetch to `server`
        from NIC `port`.

        Default: the port's storage link. SmartDS posts the QP's split
        window here on its first read.
        """
        return self._storage_link_for(server, port)

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
        answer ``ok`` through :meth:`_reply`, carrying `span`; returns the
        reply payload.

        `landed` is the device buffer the reply's payload landed in, or
        ``None`` (this hook releases it);
        `entry` is the pinned cache entry on a hit (the read loop
        releases it). This default runs the design's :attr:`read_legs`.
        """
        if payload.is_compressed:
            dec_span = None if span is None else span.child("decompress")
            original = payload.original_size or payload.size
            yield from self._run_legs(
                self.read_legs, worker_index, payload.size, original, read=True
            )
            payload = decompress_payload(payload)
            if dec_span is not None:
                dec_span.finish(nbytes=payload.size)
        yield from self._reply(qp, message, "ok", payload, span)
        return payload
