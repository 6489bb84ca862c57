"""Application-aware message split (AAMS): Split and Assemble (§4.1).

The Split module sits between the RoCE stack and the host: the
application posts *recv descriptors* naming a host buffer for the first
``h_size`` bytes of an RDMA message (the block-storage header) and a
device buffer for the rest (the payload). When a message arrives, the
Split module pops the next descriptor for that queue pair, DMAs the
header across PCIe into host memory — a 64 B ring that lives happily in
the DDIO LLC ways, so host DRAM is untouched — writes the payload to
device HBM, and completes the descriptor.

The Assemble module is the inverse: ``h_size`` bytes are fetched from
host memory over PCIe, ``d_size`` bytes from device memory, and the two
are joined into one outgoing RDMA message.

Messages *without* a payload (storage acks, replies) bypass AAMS and
flow to the host whole, like on a conventional NIC — that traffic is
tiny, which is exactly the paper's point.
"""

from __future__ import annotations

import dataclasses
import typing
import weakref
from collections import OrderedDict

from repro.net.message import Message
from repro.net.roce import Datapath, QueuePair
from repro.sim.resources import Store

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.device import DeviceBuffer, HostBuffer, SmartDsDevice
    from repro.sim.events import Event
    from repro.sim.process import Process


@dataclasses.dataclass
class SplitCompletion:
    """What `poll` sees after a mixed recv completes (Listing 1's `e`)."""

    size: int  # received payload bytes (`e.size`)
    message: Message
    h_buf: "HostBuffer"
    d_buf: "DeviceBuffer"


@dataclasses.dataclass
class SplitDescriptor:
    """One posted ``dev_mixed_recv`` work request."""

    qp: QueuePair
    h_buf: "HostBuffer"
    h_size: int
    d_buf: "DeviceBuffer"
    d_size: int
    event: "Event"


class SplitModule:
    """Per-QP recv-descriptor tables feeding the Split datapath."""

    def __init__(self, device: "SmartDsDevice") -> None:
        self.device = device
        self.sim = device.sim
        # Keyed by the QueuePair object itself, not id(qp): a table must
        # never outlive its QP and get inherited by a new QP allocated at
        # the same address after garbage collection. Weak keys so the
        # module does not pin dead QPs (and their Stores) forever under
        # QP churn — an empty table vanishes with its QP.
        self._tables: "weakref.WeakKeyDictionary[QueuePair, Store]" = (
            weakref.WeakKeyDictionary()
        )
        # QPs whose owner could not post a descriptor because device
        # memory sat above the admission watermark. Ingress must not
        # block on a descriptor that will never arrive: a starved QP's
        # messages take the host path instead (graceful degradation).
        self._starved: "weakref.WeakSet[QueuePair]" = weakref.WeakSet()

    def _table(self, qp: QueuePair) -> Store:
        table = self._tables.get(qp)
        if table is None:
            table = Store(self.sim, name=f"split-table:{qp.endpoint.address}")
            self._tables[qp] = table
        return table

    def post(self, descriptor: SplitDescriptor) -> None:
        """Append a recv descriptor to its QP's table (§4.1 receive side)."""
        if descriptor.h_size > descriptor.h_buf.size:
            raise ValueError("h_size exceeds the host buffer")
        if descriptor.d_size > descriptor.d_buf.size:
            raise ValueError("d_size exceeds the device buffer")
        self._table(descriptor.qp).put(descriptor)

    def has_descriptor(self, qp: QueuePair) -> bool:
        """Whether a split descriptor is queued for `qp` right now."""
        return len(self._table(qp)) > 0

    def pop(self, qp: QueuePair) -> "Event":
        """Next descriptor for `qp` (blocks the caller until one is posted)."""
        return self._table(qp).get()

    def mark_starved(self, qp: QueuePair) -> None:
        """Record that `qp`'s owner failed a gated device-memory alloc."""
        self._starved.add(qp)

    def clear_starved(self, qp: QueuePair) -> None:
        """Descriptors flow again for `qp` (a deferred post succeeded)."""
        self._starved.discard(qp)

    def starved(self, qp: QueuePair) -> bool:
        """Whether `qp` currently cannot get recv descriptors posted."""
        return qp in self._starved


class AamsDatapath(Datapath):
    """The SmartDS extended-RoCE datapath: Split on ingress, Assemble on egress.

    Egress charging covers messages sent directly through
    ``QueuePair.transmit`` (the middle tier's control path); the richer
    ``dev_mixed_send`` entry point in :mod:`repro.core.api` builds the
    message from explicit buffers and then uses the same machinery.
    """

    #: The Assemble header cache remembers this many recently fetched
    #: send headers, so a 3-replica fan-out fetches its header once.
    HEADER_CACHE_LIMIT = 8192

    def __init__(self, device: "SmartDsDevice", split: SplitModule) -> None:
        self.device = device
        self.split = split
        # Bounded LRU: key -> header content at fetch time. Content is
        # kept so a re-fetch with *different* header bytes invalidates
        # the entry instead of replaying a stale header on the wire.
        self._header_cache: OrderedDict[tuple, dict] = OrderedDict()

    def ingress(self, message: Message, qp: QueuePair) -> typing.Generator:
        device = self.device
        if message.payload is None or message.payload.size == 0:
            # Header-only control message (storage ack, reply): the RoCE
            # stack surfaces it to the host as a completion-queue entry
            # (RDMA send-with-immediate), not a full DMA of the frame.
            yield from device.pcie.dma_write(device.spec.notify_bytes, flow=message.flow)
            yield from device.charge_host_header_write(device.spec.notify_bytes)
            return False
        if not self.split.has_descriptor(qp) and self.split.starved(qp):
            # Degraded ingress: the receiver could not post a descriptor
            # (device memory above the admission watermark), so waiting on
            # the table would deadlock. Ship the whole frame to the host
            # over PCIe like a conventional NIC and surface it to the
            # software recv queue (return False); the payload lands in
            # host DRAM instead of HBM.
            total = message.header_size + message.payload.size
            span = None
            if message.span is not None:
                span = message.span.child("aams.split", path="host")
            yield from device.pcie.dma_write(total, flow=message.flow)
            yield from device.charge_host_header_write(message.header_size)
            if device.host_memory is not None:
                yield from device.host_memory.write(message.payload.size, flow=message.flow)
            device.host_path_fallbacks.add()
            if span is not None:
                span.finish("degraded", nbytes=total, reason="starved-qp")
            return False
        # Large message: wait for (or take) the posted split descriptor.
        descriptor: SplitDescriptor = yield self.split.pop(qp)
        span = None
        if message.span is not None:
            span = message.span.child("aams.split", path="split")
        yield device.sim.timeout(device.spec.split_latency)
        header_bytes = min(descriptor.h_size, message.header_size)
        pcie_span = None if span is None else span.child("pcie.header")
        yield from device.pcie.dma_write(header_bytes, flow=message.flow)
        yield from device.charge_host_header_write(header_bytes)
        if pcie_span is not None:
            pcie_span.finish(nbytes=header_bytes)
        hbm_span = None if span is None else span.child("hbm.payload")
        yield from device.hbm.write(message.payload.size, flow=message.flow)
        if hbm_span is not None:
            hbm_span.finish(nbytes=message.payload.size)
        descriptor.h_buf.content = dict(message.header)
        descriptor.d_buf.payload = message.payload
        completion = SplitCompletion(
            size=message.payload.size,
            message=message,
            h_buf=descriptor.h_buf,
            d_buf=descriptor.d_buf,
        )
        descriptor.event.succeed(completion)
        if span is not None:
            span.finish("ok", nbytes=message.payload.size)
        return True

    def egress(self, message: Message, qp: QueuePair) -> typing.Generator:
        device = self.device
        # Assemble: header from host memory over PCIe, payload from HBM.
        # The replica fan-out reuses one prepared send header (Listing 1
        # fills a single h_buf_send), so repeat fetches for the same
        # (kind, block) hit the Assemble module's header cache.
        cache_key = (
            message.kind,
            message.header.get("chunk_id"),
            message.header.get("block_id"),
        )
        cached = self._header_cache.get(cache_key) if cache_key[1] is not None else None
        if cached is not None and cached == message.header:
            # Cache hit with identical content: refresh LRU recency.
            self._header_cache.move_to_end(cache_key)
        else:
            # Miss, unkeyed message, or stale content for this key: fetch
            # the header from host memory and (re)install the entry.
            yield from device.pcie.dma_read(message.header_size, flow=message.flow)
            yield from device.charge_host_header_read(message.header_size)
            if cache_key[1] is not None:
                self._header_cache[cache_key] = dict(message.header)
                self._header_cache.move_to_end(cache_key)
                while len(self._header_cache) > self.HEADER_CACHE_LIMIT:
                    self._header_cache.popitem(last=False)
        if message.payload is not None and message.payload.size > 0:
            yield from device.hbm.read(message.payload.size, flow=message.flow)
        yield device.sim.timeout(device.spec.split_latency)
        return None


class AssembleModule:
    """Explicit ``dev_mixed_send``: join a host header and a device payload."""

    def __init__(self, device: "SmartDsDevice") -> None:
        self.device = device
        self.sim = device.sim

    def send(
        self,
        qp: QueuePair,
        h_buf: "HostBuffer",
        h_size: int,
        d_buf: "DeviceBuffer",
        d_size: int,
    ) -> "Process":
        """Assemble and transmit one RDMA message; notifies the host after."""
        if h_size > h_buf.size:
            raise ValueError("h_size exceeds the host buffer")
        if d_size > d_buf.size:
            raise ValueError("d_size exceeds the device buffer")
        return self.sim.process(self._send(qp, h_buf, h_size, d_buf, d_size))

    def _send(
        self,
        qp: QueuePair,
        h_buf: "HostBuffer",
        h_size: int,
        d_buf: "DeviceBuffer",
        d_size: int,
    ) -> typing.Generator:
        payload = d_buf.payload
        if d_size > 0 and payload is None:
            raise ValueError("dev_mixed_send with empty device buffer")
        header = dict(h_buf.content)
        kind = header.pop("kind", "data")
        message = Message(
            kind=kind,
            src=qp.endpoint.address,
            dst=qp.remote.address,
            header_size=h_size,
            payload=payload if d_size > 0 else None,
            header=header,
        )
        # qp.transmit runs the AamsDatapath egress (PCIe header fetch + HBM
        # payload read) before the wire transfer.
        sent = yield from qp.transmit(message)
        yield from self.device.pcie.dma_write(self.device.spec.notify_bytes)
        return sent
