"""Storage server: RoCE service loop over an append-only chunk store.

A storage server accepts ``storage_write`` messages (compressed blocks
from the middle tier), appends them to its chunk store after the flash
write completes, and acknowledges; ``storage_read`` messages return the
stored bytes. A server can be failed and recovered to exercise the
middle tier's fail-over path.
"""

from __future__ import annotations

import typing

from repro.net.link import NetworkPort
from repro.net.message import Message, Payload
from repro.net.roce import QueuePair, RoceEndpoint
from repro.params import NetworkSpec
from repro.storage.blockdev import BlockDevice
from repro.storage.chunkstore import ChunkStore
from repro.telemetry.metrics import Counter
from repro.telemetry.registry import registry_for

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.kernel import Simulator


class ServerFailed(RuntimeError):
    """Raised into service loops when the server is failed mid-request."""


class StorageServer:
    """One back-end storage server."""

    def __init__(
        self,
        sim: "Simulator",
        address: str,
        network_spec: NetworkSpec | None = None,
        device: BlockDevice | None = None,
    ) -> None:
        network_spec = network_spec or NetworkSpec()
        self.sim = sim
        self.address = address
        self.port = NetworkPort(sim, rate=network_spec.port_rate, name=f"{address}.port")
        self.endpoint = RoceEndpoint(sim, self.port, address, spec=network_spec)
        self.device = device or BlockDevice(sim, name=f"{address}.nvme")
        self.store = ChunkStore()
        self.failed = False
        self.writes_served = Counter(f"{address}.writes")
        self.reads_served = Counter(f"{address}.reads")
        #: Payload bytes shipped back by reads — the backend-traffic
        #: figure the hot-block cache experiments compare against.
        self.read_bytes_served = Counter(f"{address}.read-bytes")
        registry = registry_for(sim)
        if registry is not None:
            labels = dict(component="storage", address=address)
            registry.register_instance(self.writes_served, "storage.writes_served", **labels)
            registry.register_instance(self.reads_served, "storage.reads_served", **labels)
            registry.register_instance(self.read_bytes_served, "storage.read_bytes_served", **labels)

    def serve(self, qp: QueuePair) -> None:
        """Start a service loop on one connection (call once per QP)."""
        self.sim.process(self._serve(qp), name=f"storage:{self.address}", daemon=True)

    def accept_from(self, remote: RoceEndpoint) -> QueuePair:
        """Connect `remote` to this server and start serving; returns remote's QP."""
        qp = remote.connect(self.endpoint)
        self.serve(qp.peer)
        return qp

    def fail(self) -> None:
        """Crash the server: stop acknowledging new requests."""
        self.failed = True

    def recover(self) -> None:
        """Bring the server back (its store contents survive)."""
        self.failed = False

    def _serve(self, qp: QueuePair) -> typing.Generator:
        while True:
            message: Message = yield qp.recv()
            if self.failed:
                continue  # a crashed server goes silent; no ack, no nack
            if message.kind == "storage_write":
                self.sim.process(self._serve_write(qp, message))
            elif message.kind == "storage_read":
                self.sim.process(self._serve_read(qp, message))
            elif message.kind == "storage_gc":
                self.sim.process(self._serve_gc(qp, message))
            elif message.kind == "storage_snapshot":
                self.sim.process(self._serve_snapshot(qp, message))
            elif message.kind == "storage_ping":
                self.sim.process(self._serve_ping(qp, message))
            else:
                raise ValueError(f"storage server got unexpected message {message.kind!r}")

    def _serve_write(self, qp: QueuePair, message: Message) -> typing.Generator:
        payload = message.payload
        if payload is None:
            raise ValueError("storage_write without a payload")
        span = None
        if message.span is not None:
            span = message.span.child("storage.write", server=self.address)
        yield from self.device.write(payload.size)
        if self.failed:
            if span is not None:
                span.finish("failed", reason="server-crashed")
            return
        record = self.store.append(
            chunk_id=message.header.get("chunk_id", 0),
            block_id=message.header.get("block_id", message.request_id),
            size=payload.size,
            data=payload.data,
            meta={
                "is_compressed": payload.is_compressed,
                "ratio": payload.ratio,
                "original_size": payload.original_size,
            },
        )
        self.writes_served.add()
        ack = message.reply("storage_ack", location=record.location, server=self.address)
        ack.span = span
        yield from qp.transmit(ack)
        if span is not None:
            span.finish("ok", nbytes=payload.size)

    def _serve_gc(self, qp: QueuePair, message: Message) -> typing.Generator:
        """Mark superseded locations dead and garbage-collect a chunk.

        Used by the middle tier's compaction/GC maintenance service
        (§2.2.3): after compaction, the pre-compaction blocks' disk
        space is released.
        """
        chunk_id = message.header.get("chunk_id", 0)
        for location in message.header.get("dead_locations", ()):  # superseded entries
            self.store.mark_dead(location)
        reclaimed = self.store.gc(chunk_id)
        # Trimming the log costs a small metadata write.
        yield from self.device.write(min(reclaimed, 4096))
        if self.failed:
            return
        yield from qp.transmit(message.reply("storage_gc_ack", reclaimed=reclaimed))

    def _serve_snapshot(self, qp: QueuePair, message: Message) -> typing.Generator:
        """Pin the live set (snapshot maintenance service, §2.2.3)."""
        snap_id = self.store.snapshot()
        yield from self.device.write(4096)  # persist the snapshot manifest
        if self.failed:
            return
        yield from qp.transmit(message.reply("storage_snapshot_ack", snapshot_id=snap_id))

    def _serve_ping(self, qp: QueuePair, message: Message) -> typing.Generator:
        """Health-check heartbeat; a failed server simply never answers."""
        yield from qp.transmit(message.reply("storage_pong", server=self.address))

    def _serve_read(self, qp: QueuePair, message: Message) -> typing.Generator:
        chunk_id = message.header.get("chunk_id", 0)
        block_id = message.header["block_id"]
        span = None
        if message.span is not None:
            span = message.span.child("storage.read", server=self.address)
        record = self.store.latest(chunk_id, block_id)
        if record is None:
            if span is not None:
                span.finish("failed", reason="miss")
            reply = message.reply("storage_read_miss", block_id=block_id)
            yield from qp.transmit(reply)
            return
        yield from self.device.read(record.size)
        if self.failed:
            if span is not None:
                span.finish("failed", reason="server-crashed")
            return
        self.reads_served.add()
        self.read_bytes_served.add(record.size)
        meta = record.meta
        payload = Payload(
            size=record.size,
            ratio=meta.get("ratio", 1.0),
            data=record.data,
            is_compressed=meta.get("is_compressed", False),
            original_size=meta.get("original_size"),
        )
        reply = message.reply("storage_read_reply", block_id=block_id)
        reply.payload = payload
        reply.span = span
        yield from qp.transmit(reply)
        if span is not None:
            span.finish("ok", nbytes=record.size)
