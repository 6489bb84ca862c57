"""The SmartDS device: an HBM-enhanced FPGA SmartNIC (Figs. 5 and 6).

One card holds:

- up to 6 networking ports, each with its own *extended RoCE instance*
  (RoCE stack + Split module + Assemble module) and its own hardware
  compression engine;
- 8 GB of HBM at up to 3.4 Tb/s (16 channels) holding message payloads;
- one PCIe 3.0 x16 link to the host, which carries only message
  headers, descriptors, and completions — the design's whole point.

Host-side header traffic is tiny and cycles in a small ring, so it hits
the DDIO LLC ways and leaves host DRAM untouched; the device exposes
``charge_host_header_*`` helpers that implement exactly that test.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.core.aams import AamsDatapath, AssembleModule, SplitModule
from repro.core.engines import HardwareEngine
from repro.hostmodel.cache import DdioLlc
from repro.hostmodel.memory import MemorySubsystem
from repro.hostmodel.pcie import PcieLink
from repro.net.link import NetworkPort
from repro.net.roce import RoceEndpoint
from repro.params import PlatformSpec
from repro.telemetry.metrics import Counter, Gauge
from repro.telemetry.registry import registry_for
from repro.units import gib, kib, mib

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.kernel import Simulator


@dataclasses.dataclass
class HostBuffer:
    """Host memory allocated via ``host_alloc`` (headers, send headers)."""

    size: int
    content: dict = dataclasses.field(default_factory=dict)


@dataclasses.dataclass
class DeviceBuffer:
    """SmartDS device memory allocated via ``dev_alloc`` (payloads)."""

    size: int
    payload: typing.Any = None  # a repro.net.message.Payload or None
    freed: bool = False  # set by the allocator; guards double frees


class DeviceMemoryAllocator:
    """Tracks HBM buffer allocations against the 8 GB capacity.

    Two admission levels (see ``docs/robustness.md``):

    - :meth:`alloc` is the hard path: it succeeds up to the full
      capacity and raises :class:`MemoryError` beyond it;
    - :meth:`try_alloc` / :meth:`alloc_within` are the *gated* path the
      middle tier uses: admissions stop at ``high_watermark * capacity``
      and callers either degrade immediately or wait (bounded) for the
      :meth:`headroom_event` that fires once usage drains below
      ``low_watermark * capacity``.

    Low-priority consumers (the hot-block read cache of
    :mod:`repro.cache`) register *reclaimers* via
    :meth:`register_reclaimer`: before a gated allocation is refused or
    a waiter parks for headroom, the allocator asks the reclaimers to
    shed bytes, so elastic consumers shrink to zero before any request
    is degraded to the host path. Headroom waiters are woken in strict
    FIFO order so no waiter starves behind later, smaller requests.

    Watermark gating and waiting need a simulator; constructing without
    one keeps the plain alloc/free behaviour for unit harnesses.
    """

    def __init__(
        self,
        capacity: int,
        sim: "Simulator | None" = None,
        high_watermark: float = 1.0,
        low_watermark: float | None = None,
    ) -> None:
        if not 0.0 < high_watermark <= 1.0:
            raise ValueError(f"high watermark must be in (0, 1], got {high_watermark!r}")
        low = high_watermark if low_watermark is None else low_watermark
        if not 0.0 < low <= high_watermark:
            raise ValueError(
                f"low watermark must be in (0, high], got {low!r} (high={high_watermark!r})"
            )
        self.capacity = capacity
        self.sim = sim
        self.high_watermark = high_watermark
        self.low_watermark = low
        self.allocated = 0
        self.peak = 0
        self.occupancy = Gauge("hbm.occupancy")
        self.alloc_deferred = Counter("hbm.alloc-deferred")
        self.alloc_rejected = Counter("hbm.alloc-rejected")
        self.bytes_reclaimed = Counter("hbm.bytes-reclaimed")
        registry = registry_for(sim)
        if registry is not None:
            labels = dict(component="hbm")
            registry.register_instance(self.occupancy, "hbm.occupancy", **labels)
            registry.register_instance(self.alloc_deferred, "hbm.alloc_deferred", **labels)
            registry.register_instance(self.alloc_rejected, "hbm.alloc_rejected", **labels)
            registry.register_instance(self.bytes_reclaimed, "hbm.bytes_reclaimed", **labels)
        self._waiters: list[tuple[int, "typing.Any"]] = []  # (size, Event), FIFO
        self._reclaimers: list[typing.Callable[[int], int]] = []
        self._reclaiming = False

    @property
    def admission_limit(self) -> float:
        """Bytes the gated path may occupy (high watermark)."""
        return self.high_watermark * self.capacity

    @property
    def drain_target(self) -> float:
        """Occupancy below which headroom waiters resume (low watermark)."""
        return self.low_watermark * self.capacity

    def would_reject(self, size: int) -> bool:
        """Whether a gated allocation of `size` would be refused right now."""
        return self.allocated + size > self.admission_limit

    @property
    def waiters(self) -> int:
        """Headroom waiters currently parked (FIFO queue length)."""
        return len(self._waiters)

    def elastic_headroom(self, size: int) -> bool:
        """Whether a *low-priority* allocation of `size` is welcome.

        Stricter than the admission gate: elastic consumers stay below
        the drain target and never allocate while headroom waiters are
        parked — otherwise their fills would keep occupancy inside the
        watermark band and starve the waiters they are meant to yield to.
        """
        return not self._waiters and self.allocated + size <= self.drain_target

    # -- elastic low-priority consumers -------------------------------------

    def register_reclaimer(self, reclaimer: typing.Callable[[int], int]) -> None:
        """Register a shed callback: ``reclaimer(nbytes) -> bytes freed``.

        Reclaimers are consulted (in registration order) before a gated
        allocation is refused and before a headroom waiter parks, so an
        elastic consumer's occupancy never turns a request away.
        """
        self._reclaimers.append(reclaimer)

    def reclaim(self, nbytes: int) -> int:
        """Ask the registered reclaimers to free at least `nbytes`.

        Returns the bytes actually freed (possibly 0). Re-entrant calls
        (a reclaimer freeing memory wakes a waiter that allocates) are
        no-ops rather than infinite recursion.
        """
        if self._reclaiming or not self._reclaimers or nbytes <= 0:
            return 0
        self._reclaiming = True
        freed = 0
        try:
            for reclaimer in self._reclaimers:
                if freed >= nbytes:
                    break
                freed += reclaimer(nbytes - freed)
        finally:
            self._reclaiming = False
        if freed:
            self.bytes_reclaimed.add(freed)
        return freed

    def alloc(self, size: int) -> DeviceBuffer:
        if size <= 0:
            raise ValueError(f"allocation size must be positive, got {size}")
        if self.allocated + size > self.capacity:
            raise MemoryError(
                f"device memory exhausted: {self.allocated} + {size} > {self.capacity}"
            )
        self.allocated += size
        self.peak = max(self.peak, self.allocated)
        self.occupancy.set(self.allocated)
        return DeviceBuffer(size=size)

    def try_alloc(self, size: int, reclaim: bool = True) -> DeviceBuffer | None:
        """Gated allocation: ``None`` instead of raising above the high watermark.

        With `reclaim` (the default), a refusal first asks the
        registered reclaimers to shed down to the *drain target* (not
        merely enough to fit this request): shedding the minimum would
        keep occupancy glued to the admission gate while elastic bytes
        remain, starving headroom waiters that need the low watermark.
        Elastic consumers pass ``reclaim=False`` so they never shed
        their own entries to admit more of themselves.
        """
        if size <= 0:
            raise ValueError(f"allocation size must be positive, got {size}")
        if self.would_reject(size):
            if not reclaim:
                return None
            self.reclaim(int(self.allocated + size - self.drain_target))
            if self.would_reject(size):
                return None
        return self.alloc(size)

    def headroom_event(self, size: int) -> "typing.Any":
        """Event firing once a gated alloc of `size` fits below the low watermark.

        The event may race with other waiters — re-check with
        :meth:`try_alloc` after it fires. Parking a waiter first asks
        the reclaimers to shed down to the drain target, so elastic
        consumers cannot keep a waiter parked.
        """
        if self.sim is None:
            raise RuntimeError("headroom waiting needs an allocator constructed with a sim")
        event = self.sim.event(name="hbm-headroom")
        if self.allocated + size <= self.drain_target:
            event.succeed()
            return event
        self._waiters.append((size, event))
        # Shedding frees buffers, and each free() wakes FIFO waiters —
        # including, possibly, the one just parked.
        self.reclaim(int(self.allocated + size - self.drain_target))
        return event

    def cancel_headroom(self, event: "typing.Any") -> None:
        """Withdraw a headroom waiter (its bounded wait expired).

        Keeps the FIFO wake-up queue free of dead entries, so a stale
        head waiter cannot block live waiters behind it.
        """
        self._waiters = [(size, ev) for size, ev in self._waiters if ev is not event]

    def alloc_within(self, size: int, max_wait: float) -> typing.Generator:
        """Process body: gated alloc, waiting up to `max_wait` for headroom.

        Returns the buffer, or ``None`` once the bounded wait expires —
        the caller then degrades (host-path handling) instead of
        crashing with :class:`MemoryError`. Counted in
        :attr:`alloc_deferred` (had to wait) / :attr:`alloc_rejected`
        (wait expired).
        """
        buffer = self.try_alloc(size)
        if buffer is not None:
            return buffer
        self.alloc_deferred.add()
        if self.sim is None or max_wait <= 0:
            self.alloc_rejected.add()
            return None
        deadline = self.sim.timeout(max_wait)
        while True:
            headroom = self.headroom_event(size)
            yield self.sim.any_of([headroom, deadline])
            buffer = self.try_alloc(size)
            if buffer is not None:
                self.cancel_headroom(headroom)
                # The deadline outlives each iteration's race, so only
                # here is it decided; every condition on it has fired.
                deadline.cancel()
                return buffer
            if deadline.processed:
                self.cancel_headroom(headroom)
                self.alloc_rejected.add()
                return None

    def free(self, buffer: DeviceBuffer) -> None:
        if buffer.freed:
            raise ValueError(
                f"double free of a {buffer.size}-byte device buffer (already returned)"
            )
        if buffer.size > self.allocated:
            raise ValueError("freeing more device memory than is allocated")
        buffer.freed = True
        self.allocated -= buffer.size
        self.occupancy.set(self.allocated)
        buffer.payload = None
        self._wake_waiters()

    def _wake_waiters(self) -> None:
        # Strict FIFO: wake from the head and stop at the first waiter
        # that does not fit. Skipping ahead would let a stream of small
        # requests starve a large one parked at the front of the queue.
        if self.allocated > self.drain_target:
            return
        while self._waiters:
            size, event = self._waiters[0]
            if self.allocated + size > self.drain_target:
                break
            self._waiters.pop(0)
            if not event.triggered:
                event.succeed()


class RoceInstance:
    """One networking port's extended RoCE stack (Fig. 6)."""

    def __init__(self, device: "SmartDsDevice", index: int) -> None:
        self.device = device
        self.index = index
        network = device.platform.network
        self.port = NetworkPort(
            device.sim, rate=network.port_rate, name=f"{device.name}.port{index}"
        )
        self.split = SplitModule(device)
        self.assemble = AssembleModule(device)
        self.datapath = AamsDatapath(device, self.split)
        self.endpoint = RoceEndpoint(
            device.sim,
            self.port,
            f"{device.name}.roce{index}",
            datapath=self.datapath,
            spec=network,
            fault_plan=device.fault_plan,
        )
        self.engine = HardwareEngine(device, index, fault_plan=device.fault_plan)


class SmartDsDevice:
    """One SmartDS card plugged into a host."""

    def __init__(
        self,
        sim: "Simulator",
        platform: PlatformSpec | None = None,
        n_ports: int = 1,
        name: str = "smartds",
        host_memory: MemorySubsystem | None = None,
        host_llc: DdioLlc | None = None,
        hbm_capacity: int = gib(8),
        header_ring_bytes: int = mib(1),
        fault_plan: typing.Any = None,
    ) -> None:
        self.platform = platform or PlatformSpec()
        self.spec = self.platform.smartds
        if not 1 <= n_ports <= self.spec.max_ports:
            raise ValueError(
                f"SmartDS supports 1..{self.spec.max_ports} ports, got {n_ports}"
            )
        self.sim = sim
        self.name = name
        self.n_ports = n_ports
        self.hbm = MemorySubsystem(
            sim,
            rate=self.spec.hbm_rate,
            lanes=self.spec.hbm_lanes,
            chunk=kib(64),
            name=f"{name}.hbm",
        )
        recovery = self.platform.recovery
        self.allocator = DeviceMemoryAllocator(
            hbm_capacity,
            sim=sim,
            high_watermark=recovery.hbm_high_watermark,
            low_watermark=recovery.hbm_low_watermark,
        )
        #: Requests the card handled without the Split module (full frame
        #: over PCIe) because device memory was above the high watermark.
        self.host_path_fallbacks = Counter(f"{name}.host-path-fallbacks")
        registry = registry_for(sim)
        if registry is not None:
            registry.register_instance(
                self.host_path_fallbacks,
                "device.host_path_fallbacks",
                component="device",
                device=name,
            )
        #: One deterministic fault schedule for the whole card: its loss
        #: bursts hit the RoCE instances, its stall windows the PCIe
        #: link, its slowdown windows the hardware engines.
        self.fault_plan = fault_plan
        self.pcie = PcieLink(sim, self.platform.host, name=f"{name}.pcie", fault_plan=fault_plan)
        self.host_memory = host_memory
        self.host_llc = host_llc or DdioLlc(self.platform.host)
        self.header_ring_bytes = header_ring_bytes
        self.instances = [RoceInstance(self, i) for i in range(n_ports)]

    def instance(self, index: int) -> RoceInstance:
        """The extended RoCE instance of port `index`."""
        if not 0 <= index < self.n_ports:
            raise ValueError(f"port index {index} outside 0..{self.n_ports - 1}")
        return self.instances[index]

    # -- host-side header traffic ------------------------------------------

    def charge_host_header_write(self, nbytes: int) -> typing.Generator:
        """DRAM cost of landing header bytes in the host header ring.

        The ring is ~1 MB: it fits in the DDIO LLC ways, so normally no
        DRAM transfer happens at all.
        """
        if self.host_memory is None:
            return
        traffic = self.host_llc.dma_write(nbytes, self.header_ring_bytes)
        if traffic.dram_write:
            yield from self.host_memory.write(traffic.dram_write)

    def charge_host_header_read(self, nbytes: int) -> typing.Generator:
        """DRAM cost of the Assemble module fetching a send header."""
        if self.host_memory is None:
            return
        traffic = self.host_llc.dma_read(nbytes, self.header_ring_bytes)
        if traffic.dram_read:
            yield from self.host_memory.read(traffic.dram_read)
