"""The SmartDS middle-tier server (§4.3, productionized Listing 1).

The write path is exactly the paper's running example, at scale:

1. ``dev_mixed_recv`` splits every arriving write request — the 64 B
   header lands in host memory (a small ring the DDIO LLC absorbs),
   the 4 KB payload stays in SmartDS HBM.
2. A host worker parses the header (full software flexibility) and
   posts descriptors — the *only* CPU work per request.
3. ``dev_func`` compresses the payload in place on the port's hardware
   engine (skipped for latency-sensitive writes).
4. ``dev_mixed_send`` ships header+payload to each of the three replica
   storage servers; once all ack, the VM gets its reply.

Each networking port has its own extended RoCE instance and engine
(Fig. 6), so throughput scales linearly in ports; storage traffic exits
on the port its request arrived on.
"""

from __future__ import annotations

import functools
import typing

from repro.core.api import SmartDsApi
from repro.core.device import SmartDsDevice
from repro.core.engines import lz4_decompress_op
from repro.hostmodel.cache import DdioLlc
from repro.hostmodel.memory import MemorySubsystem
from repro.middletier.base import MiddleTierServer, ResponseMatcher
from repro.middletier.cluster import Testbed
from repro.net.message import Message, Payload, decompress_payload
from repro.net.roce import QueuePair, RoceEndpoint
from repro.telemetry.metrics import Counter
from repro.telemetry.registry import registry_for

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.params import CacheSpec
    from repro.sim.kernel import Simulator
    from repro.storage.server import StorageServer

#: Device buffers leave room for LZ4's worst-case expansion on
#: incompressible blocks.
_BUFFER_SLACK = 512
#: Mixed-recv descriptors kept posted on each storage QP that serves reads.
_REPLY_WINDOW = 8


class _RecvWindow(typing.NamedTuple):
    """One QP's ring of posted mixed-recv descriptors (§4.1, Listing 1).

    Each arriving message with a payload consumes one descriptor; the
    completion goes to ``handler(message, d_buf)`` and a fresh
    descriptor replaces it. Client-ingress and storage QPs share the
    ring and differ only in the handler and in `brownout`: whether
    brownout rung 2 withholds the window's descriptors.
    """

    port_index: int
    qp: QueuePair
    handler: typing.Callable[[Message, typing.Any], None]
    brownout: bool


class SmartDsMiddleTier(MiddleTierServer):
    """Middle tier built on the SmartDS device and its Table 2 API."""

    design_name = "SmartDS"
    #: control plane stays in host software (the design's raison d'etre).
    flexible = True
    split_replies = True
    # The worker parses the header in host memory and posts the engine
    # descriptor and the recv repost; the storage/reply sends are posted
    # from the completion context when the engine finishes.
    handoff_posts = 2
    offload = True

    def __init__(
        self,
        sim: "Simulator",
        testbed: Testbed,
        n_workers: int | None = None,
        n_ports: int = 1,
        address: str = "tier0",
        memory: MemorySubsystem | None = None,
        recv_window: int = 64,
        hbm_capacity: int | None = None,
        fault_plan: typing.Any = None,
        cache_spec: "CacheSpec | None" = None,
    ) -> None:
        if recv_window < 1:
            raise ValueError(f"recv_window must be >= 1, got {recv_window}")
        self._n_ports = n_ports
        self._shared_memory = memory
        self._recv_window = recv_window
        self._hbm_capacity = hbm_capacity
        self._fault_plan = fault_plan
        self._cache_spec = cache_spec
        # The paper's provisioning rule (§5.5): two host cores per port.
        workers = n_workers if n_workers is not None else 2 * n_ports
        super().__init__(sim, testbed, workers, address=address)
        spec = cache_spec if cache_spec is not None else self.platform.cache
        if spec.enabled:
            # Deferred: repro.cache imports repro.core.device, so a
            # module-level import here would close an import cycle.
            from repro.cache.hotblock import HotBlockCache

            self.attach_cache(
                HotBlockCache(
                    sim,
                    self.device.allocator,
                    spec,
                    hbm=self.device.hbm,
                    name=f"{address}.cache",
                )
            )
        #: Writes served without AAMS/engine help (host-path ingress or
        #: no device memory for the compressed output) — the graceful-
        #: degradation signal experiments plot against fault intensity.
        self.requests_degraded = Counter(f"{address}.requests-degraded")
        #: Reads whose reply payload landed in host memory (no split
        #: descriptor) or was decompressed in software (no HBM output).
        self.reads_degraded = Counter(f"{address}.reads-degraded")
        registry = registry_for(sim)
        if registry is not None:
            labels = dict(component="middletier", design=self.design_name, address=address)
            registry.register_instance(self.requests_degraded, "tier.requests_degraded", **labels)
            registry.register_instance(self.reads_degraded, "tier.reads_degraded", **labels)

    @property
    def n_ports(self) -> int:
        """Networking ports in use on the card."""
        return self._n_ports

    def _build(self) -> None:
        host = self.platform.host
        self.memory = self._shared_memory or MemorySubsystem.for_host(
            self.sim, host, name=f"{self.address}.dram"
        )
        self.llc = DdioLlc(host)
        device_kwargs: dict[str, typing.Any] = {}
        if self._hbm_capacity is not None:
            device_kwargs["hbm_capacity"] = self._hbm_capacity
        self.device = SmartDsDevice(
            self.sim,
            self.platform,
            n_ports=self._n_ports,
            name=f"{self.address}.smartds",
            host_memory=self.memory,
            host_llc=self.llc,
            fault_plan=self._fault_plan,
            **device_kwargs,
        )
        self.api = SmartDsApi(self.device)
        self._buffer_bytes = self.platform.workload.block_size + _BUFFER_SLACK
        self._buffers: dict[int, tuple[int, typing.Any]] = {}
        self._port_links: list[dict[str, ResponseMatcher]] = []
        #: Storage links whose QP has its split window posted.
        self._reply_windows: set[ResponseMatcher] = set()
        self.client_endpoint = self.device.instance(0).endpoint
        self.storage_endpoint = self.client_endpoint

    # -- wiring ---------------------------------------------------------------

    def _endpoint_for_port(self, port_index: int) -> RoceEndpoint:
        return self.device.instance(port_index).endpoint

    def _connect_storage(self) -> None:
        for instance in self.device.instances:
            links: dict[str, ResponseMatcher] = {}
            for server in self.testbed.storage_servers:
                qp = server.accept_from(instance.endpoint)
                links[server.address] = ResponseMatcher(self.sim, qp)
            self._port_links.append(links)
        # Base-class paths that don't know about ports use port 0.
        self._storage_links = self._port_links[0]

    def _storage_link_for(self, server: "StorageServer", port: int) -> ResponseMatcher:
        return self._port_links[port][server.address]

    def attach_client(self, client_endpoint: RoceEndpoint, port_index: int = 0) -> QueuePair:
        qp = client_endpoint.connect(self._endpoint_for_port(port_index))
        # Keep a window of mixed-recv descriptors posted so the Split
        # module pipelines back-to-back messages (Listing 1's loop, with
        # the descriptor depth a production receive queue would use).
        handler = functools.partial(self._admit_split, port_index, qp.peer)
        self._open_window(port_index, qp.peer, handler, self._recv_window, brownout=True)
        # Header-only client messages (read requests) bypass AAMS and land
        # in the software receive queue; drain it like a plain NIC.
        self.sim.process(
            self._dispatch(qp.peer, port_index),
            name=f"{self.address}.ctl{port_index}",
            daemon=True,
        )
        return qp

    # -- receive windows: one routine for client and storage QPs ---------------

    def _open_window(
        self, port_index: int, qp: QueuePair, handler: typing.Any, depth: int, brownout: bool
    ) -> None:
        window = _RecvWindow(port_index, qp, handler, brownout)
        for _ in range(depth):
            self._post_recv(window)

    def _post_recv(self, window: _RecvWindow) -> None:
        """Post one mixed-recv descriptor; its completion reposts another.

        Posting goes through the gated allocator: above the high
        watermark the descriptor is *not* posted — the QP is flagged
        starved so ingress degrades to the host path instead of blocking
        on an empty table — and a deferred repost waits for headroom.
        Brownout rung 2 applies the same degradation deliberately on
        windows that declare it: while the ladder prefers host ingress,
        descriptors stay unposted and arriving writes take the host path
        whole.
        """
        api = self.api
        port_index = window.port_index
        withheld = (
            window.brownout
            and self.admission is not None
            and self.admission.prefer_host_ingress()
        )
        d_buf = None if withheld else api.dev_try_alloc(self._buffer_bytes)
        if d_buf is None:
            self.device.instance(port_index).split.mark_starved(window.qp)
            self.sim.process(
                self._deferred_post_recv(window, withheld),
                name=f"{self.address}.recv-defer{port_index}",
                daemon=True,
            )
            return
        header_size = self.platform.workload.header_size
        h_buf = api.host_alloc(header_size)
        completion = api.dev_mixed_recv(window.qp, h_buf, header_size, d_buf, self._buffer_bytes)
        # Daemon: one of the posted receive-window descriptors; it is
        # expected to still be waiting for a message when the run drains.
        self.sim.process(
            self._on_recv(window, completion, d_buf),
            name=f"{self.address}.recv{port_index}",
            daemon=True,
        )

    def _deferred_post_recv(self, window: _RecvWindow, withheld: bool) -> typing.Generator:
        """Restore a starved slot once HBM has headroom, or, for a
        brownout-withheld one, once the ladder descends."""
        if not withheld:
            yield self.device.allocator.headroom_event(self._buffer_bytes)
        while withheld and self.admission.prefer_host_ingress():
            if self.sim.idle:
                # Idle sim: never hold up a drain-mode run; the window
                # slot is restored by the next attach in a later phase.
                return
            yield self.sim.timeout(self.admission.spec.adapt_interval)
        self.device.instance(window.port_index).split.clear_starved(window.qp)
        self._post_recv(window)

    def _on_recv(
        self, window: _RecvWindow, completion: typing.Any, d_buf: typing.Any
    ) -> typing.Generator:
        yield from self.api.poll(completion)
        window.handler(completion.message, d_buf)
        self._post_recv(window)  # keep the descriptor window full

    def _admit_split(
        self, port_index: int, qp: QueuePair, message: Message, d_buf: typing.Any
    ) -> None:
        """Client-ingress handler: route guard, admission, enqueue."""
        message.header["arrival_port"] = port_index
        if self._bounce_if_misrouted(qp, message) or not self._admit(qp, message):
            # Bounced or shed at ingress: the split already landed the
            # payload in HBM — recycle the buffer.
            self.api.dev_free(d_buf)
            return
        self._buffers[message.request_id] = (port_index, d_buf)
        self._requests.put((qp, message))

    def _deliver_split(
        self, matcher: ResponseMatcher, message: Message, d_buf: typing.Any
    ) -> None:
        """Storage-reply handler: the QP's matcher takes the landed reply;
        a reply nobody claims (late or unexpected) frees its buffer."""
        if not matcher.deliver(message, d_buf):
            self.api.dev_free(d_buf)

    # -- the write path ----------------------------------------------------------

    def _compress_and_complete(
        self, worker_index: int, qp: QueuePair, message: Message
    ) -> typing.Generator:
        """``dev_func`` compresses the split-landed payload HBM to HBM;
        the completion context posts the replica sends and the VM reply."""
        api = self.api
        entry = self._buffers.pop(message.request_id, None)
        posts = self.platform.storage.replication + 1
        parent = message.span
        if entry is None:
            # Degraded host-path write: ingress fell back under memory
            # pressure, so the payload sits in host DRAM, not HBM. Skip
            # the engine and replicate the raw payload — durability is
            # preserved, compression is sacrificed.
            self.requests_degraded.add()
            host_span = None
            if parent is not None:
                host_span = message.span = parent.child(
                    "write.host-path", reason="ingress-fallback"
                )
            yield self.sim.timeout(self.platform.host.post_descriptor_time * posts)
            yield from self._replicate_and_reply(qp, message, message.payload)
            if host_span is not None:
                host_span.finish("degraded", nbytes=message.payload_size)
            return
        port_index, d_recv = entry
        engine = self.device.instance(port_index).engine
        d_send = None
        if message.header.get("latency_sensitive"):
            outgoing = message.payload
        elif not self._compression_allowed():
            # Brownout rung 3: skip the engine and replicate the raw
            # payload — shed compression work before shedding requests.
            self.requests_degraded.add()
            if parent is not None:
                parent.event("write.raw-payload", outcome="degraded", reason="brownout")
            outgoing = message.payload
        else:
            d_send = yield from api.dev_alloc_within(
                self._buffer_bytes, self.platform.recovery.degraded_alloc_wait
            )
            if d_send is None:
                # No HBM for the compressed output within the bounded
                # wait: ship the raw payload instead of crashing.
                self.requests_degraded.add()
                if parent is not None:
                    parent.event("write.raw-payload", outcome="degraded", reason="no-hbm")
                outgoing = message.payload
            else:
                eng_span = None if parent is None else parent.child("engine.compress")
                completion = api.dev_func(
                    d_recv, message.payload.size, d_send, self._buffer_bytes, engine
                )
                yield from api.poll(completion)
                outgoing = d_send.payload
                if eng_span is not None:
                    eng_span.finish(nbytes=outgoing.size)
        # Post the replica sends and the VM reply (completion-context CPU).
        yield self.sim.timeout(self.platform.host.post_descriptor_time * posts)
        try:
            yield from self._replicate_and_reply(qp, message, outgoing)
        finally:
            api.dev_free(d_recv)
            if d_send is not None:
                api.dev_free(d_send)

    # -- the read path: hooks into the base class's fail-over loop ---------------

    def _fetch_link(self, server: "StorageServer", port: int) -> ResponseMatcher:
        """§2.2.2 on SmartDS: the Split module lands a reply's payload in
        HBM through the QP's window, posted here on the QP's first read
        (write acks are header-only and never need one)."""
        matcher = self._storage_link_for(server, port)
        if matcher not in self._reply_windows:
            self._reply_windows.add(matcher)
            handler = functools.partial(self._deliver_split, matcher)
            self._open_window(port, matcher.qp, handler, _REPLY_WINDOW, brownout=False)
        return matcher

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
        """Decompress HBM to HBM on the port engine and reply via the
        Assemble path — from the pinned cache entry's buffer on a hit,
        from the split-landed buffer (freed here) on a miss.

        Two degraded cases: with no HBM for the decompressed output the
        engine is skipped for a software decompress, and a reply that
        arrived whole (no split descriptor, payload in host DRAM)
        completes on the ``read.host-path``.
        """
        api = self.api
        source = landed if entry is None else entry.buffer
        reply_span = span
        d_out = None
        try:
            if source is None:
                self.reads_degraded.add()
                if span is not None:
                    reply_span = span.child("read.host-path", reason="no-split-descriptor")
                if payload.is_compressed:
                    yield from self.memory.read(payload.size)
                    payload = decompress_payload(payload)
            elif payload.is_compressed:
                d_out = yield from api.dev_alloc_within(
                    self._buffer_bytes, self.platform.recovery.degraded_alloc_wait
                )
                if d_out is None:
                    # No HBM for the decompressed output: software path.
                    self.reads_degraded.add()
                    sw_span = None if span is None else span.child("decompress.sw")
                    yield from self.memory.read(payload.size)
                    payload = decompress_payload(payload)
                    if sw_span is not None:
                        sw_span.finish("degraded", nbytes=payload.size)
                else:
                    # Same engine, decompression microprogram (the paper's
                    # engines are symmetric for LZ4).
                    engine = self.device.instance(message.header.get("arrival_port", 0)).engine
                    eng_span = None if span is None else span.child("engine.decompress")
                    payload = yield engine.run(
                        source, payload.size, d_out, operation=lz4_decompress_op
                    )
                    if eng_span is not None:
                        eng_span.finish(nbytes=payload.size)
            yield from self._reply(qp, message, "ok", payload, reply_span)
            if reply_span is not span:
                reply_span.finish("degraded", nbytes=payload.size)
            return payload
        finally:
            if landed is not None:
                api.dev_free(landed)
            if d_out is not None:
                api.dev_free(d_out)

