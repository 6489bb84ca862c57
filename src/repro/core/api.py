"""The SmartDS high-level API (Table 2).

Programming with SmartDS looks like RDMA verbs plus three extras: mixed
recv/send (the AAMS split), and ``dev_func`` (invoke a hardware
engine). Listing 1 of the paper, transcribed onto this API, is the
``examples/quickstart.py`` of this repository; the production middle
tier (:mod:`repro.core.server`) uses the same entry points.

All ``dev_*`` calls are asynchronous and return a
:class:`CompletionEvent`; ``poll`` suspends the calling process until
the completion arrives, exactly like Listing 1's ``poll(e)``.
"""

from __future__ import annotations

import typing

from repro.core.aams import SplitCompletion, SplitDescriptor
from repro.core.device import DeviceBuffer, HostBuffer, SmartDsDevice
from repro.core.engines import HardwareEngine
from repro.net.roce import QueuePair, RoceEndpoint

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.message import Message
    from repro.sim.events import Event


class CompletionEvent:
    """Asynchronous completion handle returned by the ``dev_*`` calls.

    After ``poll`` returns, :attr:`size` holds the byte count the
    operation produced (received payload size for recvs, result size
    for engine invocations) — Listing 1's ``e.size``.
    """

    def __init__(self, event: "Event") -> None:
        self.event = event

    @property
    def size(self) -> int:
        """Bytes produced by the operation (valid after completion)."""
        value = self.event.value
        if isinstance(value, SplitCompletion):
            return value.size
        if hasattr(value, "size"):
            return value.size
        if hasattr(value, "payload_size"):
            return value.payload_size
        raise AttributeError(f"completion value {value!r} carries no size")

    @property
    def message(self) -> "Message":
        """The received message (mixed-recv completions only)."""
        value = self.event.value
        if isinstance(value, SplitCompletion):
            return value.message
        raise AttributeError("this completion does not carry a message")


class RoceInstanceContext:
    """Context of one RoCE instance, from ``open_roce_instance``."""

    def __init__(self, api: "SmartDsApi", index: int) -> None:
        self.api = api
        self.index = index
        self._instance = api.device.instance(index)

    @property
    def endpoint(self) -> RoceEndpoint:
        """The instance's network endpoint (for inbound connections)."""
        return self._instance.endpoint

    @property
    def engine(self) -> HardwareEngine:
        """The hardware engine paired with this port."""
        return self._instance.engine

    def connect_qp(self, remote: RoceEndpoint) -> QueuePair:
        """Connect a queue pair to a remote endpoint (client or storage)."""
        return self._instance.endpoint.connect(remote)


class SmartDsApi:
    """The Table 2 API bound to one SmartDS device."""

    def __init__(self, device: SmartDsDevice) -> None:
        self.device = device
        self.sim = device.sim

    # -- memory management ---------------------------------------------------

    def host_alloc(self, size: int) -> HostBuffer:
        """Allocate `size` bytes of host memory (header buffers)."""
        if size <= 0:
            raise ValueError(f"allocation size must be positive, got {size}")
        return HostBuffer(size=size)

    def dev_alloc(self, size: int) -> DeviceBuffer:
        """Allocate `size` bytes in the SmartDS's device memory."""
        return self.device.allocator.alloc(size)

    def dev_try_alloc(self, size: int) -> DeviceBuffer | None:
        """Gated device alloc: ``None`` above the admission watermark.

        Callers that can degrade (host-path handling) use this instead of
        :meth:`dev_alloc`, which raises :class:`MemoryError` only at the
        hard capacity limit.
        """
        return self.device.allocator.try_alloc(size)

    def dev_alloc_within(self, size: int, max_wait: float) -> typing.Generator:
        """Process body: gated device alloc with a bounded headroom wait.

        ``buffer = yield from api.dev_alloc_within(size, wait)`` — the
        result is ``None`` if the wait expired, signalling the caller to
        degrade rather than crash.
        """
        return (yield from self.device.allocator.alloc_within(size, max_wait))

    def dev_free(self, buffer: DeviceBuffer) -> None:
        """Return a device buffer to the allocator."""
        self.device.allocator.free(buffer)

    # -- instances -------------------------------------------------------------

    def open_roce_instance(self, instance_index: int) -> RoceInstanceContext:
        """Open one of the RoCE instances and return its context."""
        return RoceInstanceContext(self, instance_index)

    # -- data movement ---------------------------------------------------------

    def dev_mixed_recv(
        self,
        qp: QueuePair,
        h_buf: HostBuffer,
        h_size: int,
        d_buf: DeviceBuffer,
        d_size: int,
    ) -> CompletionEvent:
        """Post a mixed recv: first `h_size` bytes to host, rest to device."""
        instance = self._instance_of(qp)
        event = self.sim.event(name="mixed-recv")
        instance.split.post(
            SplitDescriptor(
                qp=qp, h_buf=h_buf, h_size=h_size, d_buf=d_buf, d_size=d_size, event=event
            )
        )
        return CompletionEvent(event)

    def dev_mixed_send(
        self,
        qp: QueuePair,
        h_buf: HostBuffer,
        h_size: int,
        d_buf: DeviceBuffer,
        d_size: int,
    ) -> CompletionEvent:
        """Post a mixed send: assemble host header + device payload."""
        instance = self._instance_of(qp)
        process = instance.assemble.send(qp, h_buf, h_size, d_buf, d_size)
        return CompletionEvent(process)

    def dev_func(
        self,
        src: DeviceBuffer,
        src_size: int,
        dest: DeviceBuffer,
        dest_size: int,
        engine: HardwareEngine,
    ) -> CompletionEvent:
        """Invoke a hardware engine on `src_size` bytes of device memory."""
        if dest_size > dest.size:
            raise ValueError("dest_size exceeds the destination buffer")
        return CompletionEvent(engine.run(src, src_size, dest))

    def poll(self, completion: CompletionEvent) -> typing.Generator:
        """Suspend the calling process until `completion` fires."""
        yield completion.event

    # -- helpers -------------------------------------------------------------------

    def _instance_of(self, qp: QueuePair) -> typing.Any:
        for instance in self.device.instances:
            if qp.endpoint is instance.endpoint:
                return instance
        raise ValueError("queue pair does not belong to this SmartDS device")
