"""RoCE-like reliable message transport between queue pairs.

Modeled on the FPGA RoCE stack the paper extends [18, 70]: endpoints own
queue pairs; ``transmit`` moves one whole RDMA message through the sender's
datapath and tx port, the fabric, and the receiver's rx port and
datapath, then lands it in the destination queue pair's receive buffer.
Delivery is reliable and in order per queue pair (the transport layer
guarantee §2.2.1 assumes).

The per-endpoint :class:`Datapath` hook is where architectures differ:
a plain host charges PCIe + DRAM on both directions; SmartDS's device
charges HBM and splits header from payload; client/storage endpoints
used as harness fixtures charge nothing.
"""

from __future__ import annotations

import random
import typing

from repro.net.link import NetworkPort
from repro.net.message import Message
from repro.params import NetworkSpec
from repro.sim.events import Event, SimulationError
from repro.sim.process import Process
from repro.sim.resources import Store
from repro.telemetry.metrics import Counter
from repro.telemetry.registry import registry_for

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.debug import FaultPlan
    from repro.sim.kernel import Simulator


class Datapath:
    """Resource charges an endpoint pays on message ingress/egress.

    Subclasses override :meth:`ingress` / :meth:`egress` with generator
    methods that yield simulation events (DMA transfers, memory
    traffic). The base class charges nothing.

    :meth:`ingress` may *consume* the message by returning ``True`` —
    the transport then skips the receive buffer. SmartDS's Split module
    uses this: the message is steered into posted split descriptors
    instead of a software receive queue.
    """

    def ingress(self, message: Message, qp: "QueuePair") -> typing.Generator:
        """Charge local resources for an arriving message.

        Returns ``True`` to consume the message (skip buffer delivery).
        """
        return False
        yield  # pragma: no cover - makes this a generator function

    def egress(self, message: Message, qp: "QueuePair") -> typing.Generator:
        """Charge local resources for a departing message."""
        return
        yield  # pragma: no cover - makes this a generator function


#: A datapath that charges nothing (harness clients, storage fixtures).
NullDatapath = Datapath


class QueuePair:
    """One direction-pair of a reliable connection between two endpoints."""

    def __init__(self, endpoint: "RoceEndpoint", remote: "RoceEndpoint") -> None:
        self.endpoint = endpoint
        self.remote = remote
        self.sim = endpoint.sim
        self._recv_buffer = Store(self.sim, name=f"recv:{endpoint.address}<-{remote.address}")
        self._peer: QueuePair | None = None  # set by RoceEndpoint.connect
        # Reliable-connection sequencing: sender-side PSN counter and
        # receiver-side in-order gate (on the *peer* half).
        self._next_tx_seq = 0
        self._rx_next = 0
        self._rx_waiters: dict[int, Event] = {}
        # Per-kind process names for send(), rendered once.
        self._send_names: dict[str, str] = {}

    @property
    def peer(self) -> "QueuePair":
        """The remote half of this connection."""
        if self._peer is None:
            raise SimulationError("queue pair is not connected")
        return self._peer

    def send(self, message: Message) -> "Process":
        """Deliver `message` in a process of its own (concurrent sends).

        The returned process fires with the message (like an RDMA send
        completion) once it has fully landed in the remote receive
        buffer. A caller that waits for the completion at once runs
        :meth:`transmit` inline instead.
        """
        names = self._send_names
        name = names.get(message.kind)
        if name is None:
            name = names[message.kind] = f"send:{message.kind}"
        return Process(self.sim, self.transmit(message), name=name)

    def transmit(self, message: Message) -> typing.Generator:
        """Reliably deliver `message` to the remote endpoint.

        A generator leg, run inline with ``yield from``: it returns the
        message once it has fully landed in the remote receive buffer.
        """
        message.src = self.endpoint.address
        message.dst = self.remote.address
        if message.created_at is None:
            message.created_at = self.sim.now
        spec = self.endpoint.spec
        wire_bytes = message.size + spec.roce_overhead_bytes
        sequence = self._next_tx_seq
        self._next_tx_seq += 1
        if message.span is not None:
            # Downstream stages (receive datapath, server handling) hang
            # off the transport span, keeping the trace tree causal.
            message.span = message.span.child(
                f"net.{message.kind}", src=message.src, dst=message.dst
            )
        lost_frames = 0
        yield from self.endpoint.datapath.egress(message, self)
        while True:
            yield self.endpoint.port.tx.transfer(wire_bytes, flow=message.flow)
            yield self.sim.timeout(spec.switch_latency)
            if self.endpoint._frame_lost():
                # Lossy fabric: the transport retransmits after a
                # time-out (go-back-N on a real RoCE RC connection).
                # The attempt's bytes crossed tx but will never cross
                # rx; book them under `<tx>.dropped` so conservation
                # holds exactly: tx == rx + tx.dropped.
                if message.flow is not None:
                    self.endpoint.port.tx.account("dropped", message.flow, wire_bytes)
                self.endpoint.retransmissions.add()
                lost_frames += 1
                yield self.sim.timeout(spec.retransmit_timeout)
                continue
            yield self.remote.port.rx.transfer(wire_bytes, flow=message.flow)
            break
        # Hold every consumed-message side effect behind the PSN order
        # gate: the receive datapath (and with it the Split module's
        # descriptor completion) must run strictly in PSN order, like the
        # processing pipeline of a real RC queue pair. Running ingress
        # before the gate let a retransmitted frame's successor complete
        # first and consume the wrong split descriptor.
        peer = self.peer
        if sequence != peer._rx_next:
            gate = self.sim.event(name=f"order:{sequence}")
            peer._rx_waiters[sequence] = gate
            yield gate
        consumed = yield from self.remote.datapath.ingress(message, peer)
        if message.span is not None:
            message.span.finish(
                "retried" if lost_frames else "ok",
                nbytes=wire_bytes,
                retransmits=lost_frames,
            )
        if not consumed:
            peer._recv_buffer.put(message)
        peer._rx_next += 1
        next_gate = peer._rx_waiters.pop(peer._rx_next, None)
        if next_gate is not None:
            next_gate.succeed()
        return message

    def recv(self) -> Event:
        """Next message from this connection; blocks while none is queued."""
        return self._recv_buffer.get()

    @property
    def pending(self) -> int:
        """Messages waiting in the receive buffer."""
        return len(self._recv_buffer)


class RoceEndpoint:
    """A network endpoint (one port) that owns queue pairs."""

    def __init__(
        self,
        sim: "Simulator",
        port: NetworkPort,
        address: str,
        datapath: Datapath | None = None,
        spec: NetworkSpec | None = None,
        loss_seed: int = 0,
        fault_plan: "FaultPlan | None" = None,
    ) -> None:
        self.sim = sim
        self.port = port
        self.address = address
        self.datapath = datapath or Datapath()
        self.spec = spec or NetworkSpec()
        self.queue_pairs: list[QueuePair] = []
        self.retransmissions = Counter(f"{address}.retransmissions")
        registry = registry_for(sim)
        if registry is not None:
            registry.register_instance(self.retransmissions, "net.retransmissions", address=address)
        self._loss_rng = random.Random(loss_seed) if self.spec.loss_rate > 0 else None
        #: Deterministic fault schedule (repro.sim.debug.FaultPlan);
        #: loss bursts here compose with the spec's steady loss_rate.
        self.fault_plan = fault_plan

    def _frame_lost(self) -> bool:
        """Whether this transmission attempt is dropped by the fabric."""
        if self.fault_plan is not None and self.fault_plan.frame_lost(self.sim.now):
            return True
        if self._loss_rng is None:
            return False
        return self._loss_rng.random() < self.spec.loss_rate

    def connect(self, remote: "RoceEndpoint") -> QueuePair:
        """Create a connected queue pair; returns the local half.

        The remote half is reachable as ``local.peer`` — hand it to the
        remote side's logic so it can ``recv`` and reply.
        """
        if remote.sim is not self.sim:
            raise SimulationError("endpoints must share a simulator")
        local = QueuePair(self, remote)
        peer = QueuePair(remote, self)
        local._peer = peer
        peer._peer = local
        self.queue_pairs.append(local)
        remote.queue_pairs.append(peer)
        return local

    def __repr__(self) -> str:
        return f"<RoceEndpoint {self.address!r} qps={len(self.queue_pairs)}>"
