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


class SmartDsMiddleTier(MiddleTierServer):
    """Middle tier built on the SmartDS device and its Table 2 API."""

    design_name = "SmartDS"
    #: control plane stays in host software (the design's raison d'etre).
    flexible = True

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
        self._buffers: dict[int, tuple[int, typing.Any, typing.Any]] = {}
        self._port_links: list[dict[str, tuple[QueuePair, ResponseMatcher]]] = []
        self._read_matchers: dict[tuple[int, str], _SplitReplyMatcher] = {}
        self.client_endpoint = self.device.instance(0).endpoint
        self.storage_endpoint = self.client_endpoint

    # -- wiring ---------------------------------------------------------------

    def _endpoint_for_port(self, port_index: int) -> RoceEndpoint:
        return self.device.instance(port_index).endpoint

    def _connect_storage(self) -> None:
        for instance in self.device.instances:
            links: dict[str, tuple[QueuePair, ResponseMatcher]] = {}
            for server in self.testbed.storage_servers:
                qp = server.accept_from(instance.endpoint)
                links[server.address] = (qp, ResponseMatcher(self.sim, qp))
            self._port_links.append(links)
        # Base-class paths that don't know about ports use port 0.
        self._storage_links = self._port_links[0]

    def _storage_link_for(
        self, server: "StorageServer", message: Message
    ) -> tuple[QueuePair, ResponseMatcher]:
        port = message.header.get("arrival_port", 0)
        return self._port_links[port][server.address]

    def attach_client(self, client_endpoint: RoceEndpoint, port_index: int = 0) -> QueuePair:
        qp = client_endpoint.connect(self._endpoint_for_port(port_index))
        # Keep a window of mixed-recv descriptors posted so the Split
        # module pipelines back-to-back messages (Listing 1's loop, with
        # the descriptor depth a production receive queue would use).
        for _ in range(self._recv_window):
            self._post_recv(port_index, qp.peer)
        # Header-only client messages (read requests) bypass AAMS and land
        # in the software receive queue; drain it like a plain NIC.
        self.sim.process(
            self._dispatch(qp.peer, port_index),
            name=f"{self.address}.ctl{port_index}",
            daemon=True,
        )
        return qp

    def _post_recv(self, port_index: int, qp: QueuePair) -> None:
        """Post one mixed-recv descriptor; its completion reposts another.

        Posting goes through the gated allocator: above the high
        watermark the descriptor is *not* posted — the QP is flagged
        starved so ingress degrades to the host path instead of blocking
        on an empty table — and a deferred repost waits for headroom.
        Brownout rung 2 applies the same degradation deliberately:
        while the ladder prefers host ingress, descriptors stay unposted
        and arriving writes take the host path whole.
        """
        api = self.api
        if self.admission is not None and self.admission.prefer_host_ingress():
            split = self.device.instance(port_index).split
            split.mark_starved(qp)
            self.sim.process(
                self._brownout_repost(port_index, qp),
                name=f"{self.address}.recv-brownout{port_index}",
                daemon=True,
            )
            return
        header_size = self.platform.workload.header_size
        d_buf = api.dev_try_alloc(self._buffer_bytes)
        if d_buf is None:
            split = self.device.instance(port_index).split
            split.mark_starved(qp)
            self.sim.process(
                self._deferred_post_recv(port_index, qp),
                name=f"{self.address}.recv-defer{port_index}",
                daemon=True,
            )
            return
        h_buf = api.host_alloc(header_size)
        completion = api.dev_mixed_recv(qp, h_buf, header_size, d_buf, self._buffer_bytes)
        # Daemon: one of the posted receive-window descriptors; it is
        # expected to still be waiting for a message when the run drains.
        self.sim.process(
            self._on_recv(port_index, qp, completion, h_buf, d_buf),
            name=f"{self.address}.recv{port_index}",
            daemon=True,
        )

    def _deferred_post_recv(self, port_index: int, qp: QueuePair) -> typing.Generator:
        yield self.device.allocator.headroom_event(self._buffer_bytes)
        self.device.instance(port_index).split.clear_starved(qp)
        self._post_recv(port_index, qp)

    def _brownout_repost(self, port_index: int, qp: QueuePair) -> typing.Generator:
        """Restore a brownout-withheld descriptor once the ladder descends."""
        while self.admission is not None and self.admission.prefer_host_ingress():
            if not self.sim._queue:
                # Idle sim: never hold up a drain-mode run; the window
                # slot is restored by the next attach in a later phase.
                return
            yield self.sim.timeout(self.admission.spec.adapt_interval)
        self.device.instance(port_index).split.clear_starved(qp)
        self._post_recv(port_index, qp)

    def _on_recv(
        self,
        port_index: int,
        qp: QueuePair,
        completion: typing.Any,
        h_buf: typing.Any,
        d_buf: typing.Any,
    ) -> typing.Generator:
        yield from self.api.poll(completion)
        message = completion.message
        message.header["arrival_port"] = port_index
        if self._bounce_if_misrouted(qp, message) or not self._admit(qp, message):
            # Bounced or shed at ingress: the split already landed the
            # payload in HBM — recycle the buffer, keep the descriptor
            # window full.
            self.api.dev_free(d_buf)
            self._post_recv(port_index, qp)
            return
        self._buffers[message.request_id] = (port_index, h_buf, d_buf)
        self._requests.put((qp, message))
        self._post_recv(port_index, qp)

    # -- the write path ----------------------------------------------------------

    def _handle_write(
        self, worker_index: int, qp: QueuePair, message: Message
    ) -> typing.Generator:
        host = self.platform.host
        if message.payload is None:
            raise ValueError("write_request without payload")
        # Parse the header in host memory; post the engine descriptor and
        # the recv repost. The storage/reply sends are posted from the
        # completion context when the engine finishes.
        yield self.sim.timeout(host.parse_header_time)
        yield self.sim.timeout(host.post_descriptor_time * 2)
        self.sim.process(self._compress_and_complete(qp, message))

    def _compress_and_complete(self, qp: QueuePair, message: Message) -> typing.Generator:
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
        port_index, h_buf, d_recv = entry
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

    def _send_fetch(
        self, server: "StorageServer", message: Message, fetch: Message
    ) -> typing.Generator:
        """§2.2.2 on SmartDS: a reply with data is consumed by the Split
        module (payload to HBM); a miss is header-only and lands at the
        control matcher — as does a *full* reply when the device
        degraded this QP to host-path ingress. Both are raced."""
        port_index = message.header.get("arrival_port", 0)
        storage_qp, control_matcher = self._storage_link_for(server, message)
        split_matcher = self._read_matchers.get((port_index, server.address))
        if split_matcher is None:
            split_matcher = _SplitReplyMatcher(self, storage_qp)
            self._read_matchers[(port_index, server.address)] = split_matcher
        events = [
            split_matcher.expect(fetch.request_id),
            control_matcher.expect(fetch.request_id),
        ]
        yield storage_qp.send(fetch)
        return events

    def _take_fetch(
        self,
        server: "StorageServer",
        message: Message,
        fetch: Message,
        events: list[typing.Any],
        span: typing.Any,
    ) -> tuple[Message, typing.Any] | None:
        port_index = message.header.get("arrival_port", 0)
        split_matcher = self._read_matchers[(port_index, server.address)]
        control_matcher = self._storage_link_for(server, message)[1]
        data_event, ctl_event = events
        if data_event.triggered:
            control_matcher.forget(fetch.request_id)
            stored, d_buf = data_event.value
            if span is not None:
                span.finish("ok", nbytes=stored.payload_size, path="split")
            return stored, d_buf
        split_matcher.forget(fetch.request_id)
        if not ctl_event.triggered:
            control_matcher.forget(fetch.request_id)
            return None
        ctl: Message = ctl_event.value
        if span is not None:
            # A payload here is degraded: it sits in host memory.
            status = "ok" if ctl.payload is None else "degraded"
            span.finish(status, nbytes=ctl.payload_size, path="host")
        return ctl, None

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
        arrived whole on the control path (no split descriptor, payload
        in host DRAM) completes on the ``read.host-path``.
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
                    yield self.memory.read(payload.size)
                    payload = decompress_payload(payload)
            elif payload.is_compressed:
                d_out = yield from api.dev_alloc_within(
                    self._buffer_bytes, self.platform.recovery.degraded_alloc_wait
                )
                if d_out is None:
                    # No HBM for the decompressed output: software path.
                    self.reads_degraded.add()
                    sw_span = None if span is None else span.child("decompress.sw")
                    yield self.memory.read(payload.size)
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
            yield from self._send_ok(qp, message, payload, reply_span)
            if reply_span is not span:
                reply_span.finish("degraded", nbytes=payload.size)
            return payload
        finally:
            if landed is not None:
                api.dev_free(landed)
            if d_out is not None:
                api.dev_free(d_out)


class _SplitReplyMatcher:
    """Routes split-consumed storage replies to waiting readers.

    Keeps a window of mixed-recv descriptors posted on one storage QP;
    completions are matched to waiters by ``in_reply_to`` (descriptors
    are interchangeable, so FIFO hardware matching composes with
    software request matching). Unclaimed replies are dropped and their
    buffers recycled.
    """

    WINDOW = 8

    def __init__(self, tier: SmartDsMiddleTier, qp: QueuePair) -> None:
        self.tier = tier
        self.qp = qp
        self.sim = tier.sim
        self._waiting: dict[int, typing.Any] = {}
        for _ in range(self.WINDOW):
            self._post()

    def expect(self, request_id: int) -> typing.Any:
        """Event firing with ``(reply_message, device_buffer)``."""
        event = self.sim.event(name=f"split-reply:{request_id}")
        self._waiting[request_id] = event
        return event

    def forget(self, request_id: int) -> None:
        """Drop interest in a reply (the control path or the time-out won)."""
        self._waiting.pop(request_id, None)

    def _post(self) -> None:
        api = self.tier.api
        d_buf = api.dev_try_alloc(self.tier._buffer_bytes)
        if d_buf is None:
            # Window slot lost to memory pressure: degrade this QP to
            # host-path ingress and restore the slot once HBM drains.
            instance = api._instance_of(self.qp)
            instance.split.mark_starved(self.qp)
            self.sim.process(
                self._deferred_post(instance), name="split-reply-repost", daemon=True
            )
            return
        h_buf = api.host_alloc(self.tier.platform.workload.header_size)
        completion = api.dev_mixed_recv(
            self.qp, h_buf, h_buf.size, d_buf, self.tier._buffer_bytes
        )
        self.sim.process(
            self._on_complete(completion, d_buf), name="split-reply-matcher", daemon=True
        )

    def _deferred_post(self, instance: typing.Any) -> typing.Generator:
        yield self.tier.device.allocator.headroom_event(self.tier._buffer_bytes)
        instance.split.clear_starved(self.qp)
        self._post()

    def _on_complete(self, completion: typing.Any, d_buf: typing.Any) -> typing.Generator:
        yield from self.tier.api.poll(completion)
        message = completion.message
        self._post()  # keep the descriptor window full
        event = self._waiting.pop(message.header.get("in_reply_to"), None)
        if event is None:
            self.tier.api.dev_free(d_buf)  # unclaimed; recycle
        else:
            event.succeed((message, d_buf))
