"""The hot-block read cache living in SmartDS device memory.

Structure (see ``docs/caching.md``):

- **Segmented LRU**: new blocks enter a probation segment; a second hit
  promotes to the protected segment (bounded at
  ``CacheSpec.protected_fraction`` of the byte budget, demoting its LRU
  back to probation). Scans churn probation and never touch the hot set.
- **TinyLFU admission**: once eviction would be needed, a candidate is
  admitted only if the :class:`~repro.cache.sketch.FrequencySketch`
  ranks it above the probation-LRU victim — one-hit-wonders bounce off.
- **Write-through invalidation with epochs**: every write bumps a
  global epoch and stamps the key; an in-flight fill started before the
  stamp (``begin_fill`` token older than the stamp) is refused, so a
  read after a write ack can never resurrect pre-write bytes.
- **Elastic sizing**: the cache allocates with ``reclaim=False`` (it
  never sheds itself to grow) and registers :meth:`_shed` as a
  reclaimer with the :class:`~repro.core.device.DeviceMemoryAllocator`,
  so request-path pressure shrinks the cache — to zero if need be —
  before any request is degraded to the host path.

Entries hold *compressed* payloads, so a cached 4 KiB block costs its
LZ4 size. The SmartDS hit path decompresses straight from the cached
device buffer on the port engine; pin/release keeps a buffer alive
across those yields even if the entry is invalidated or shed meanwhile.
"""

from __future__ import annotations

import dataclasses
import typing
from collections import OrderedDict

from repro.cache.sketch import FrequencySketch
from repro.core.device import DeviceBuffer, DeviceMemoryAllocator
from repro.params import CacheSpec
from repro.telemetry.metrics import Counter, Gauge, ratio
from repro.telemetry.registry import registry_for

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hostmodel.memory import MemorySubsystem
    from repro.net.message import Payload
    from repro.sim.debug import FlowLedger
    from repro.sim.kernel import Simulator

#: Cache keys are block addresses: ``(chunk_id, block_id)``.
Key = typing.Tuple[int, int]


@dataclasses.dataclass
class CacheEntry:
    """One cached block: a compressed payload in a device buffer."""

    key: Key
    buffer: DeviceBuffer
    payload: "Payload"
    size: int
    #: Readers decompressing from :attr:`buffer` hold a pin; the buffer
    #: is returned to the allocator only once the last pin drops.
    pins: int = 0
    #: Set when the entry was invalidated/evicted while pinned — the
    #: last :meth:`HotBlockCache.release` frees the buffer.
    dead: bool = False


class HotBlockCache:
    """Segmented-LRU + TinyLFU cache of compressed blocks in HBM."""

    def __init__(
        self,
        sim: "Simulator",
        allocator: DeviceMemoryAllocator,
        spec: CacheSpec | None = None,
        hbm: "MemorySubsystem | None" = None,
        name: str = "cache",
    ) -> None:
        self.sim = sim
        self.allocator = allocator
        self.spec = spec or CacheSpec(enabled=True)
        self.hbm = hbm
        self.name = name
        self._fill_name = f"{name}.fill"
        self.limit = self.spec.limit_for(allocator.capacity)
        self.protected_budget = int(self.spec.protected_fraction * self.limit)
        self.sketch = FrequencySketch(
            self.spec.sketch_width, self.spec.sketch_depth, self.spec.sketch_sample
        )
        # Both segments are ordered LRU -> MRU (first item is coldest).
        self._probation: "OrderedDict[Key, CacheEntry]" = OrderedDict()
        self._protected: "OrderedDict[Key, CacheEntry]" = OrderedDict()
        self._protected_bytes = 0
        self._held = 0
        # Write-through epochs: a fill token older than the key's stamp
        # means a write raced the fill and the stale bytes are refused.
        self._epoch = 0
        self._invalidated: dict[Key, int] = {}
        self._ledger: "FlowLedger | None" = None

        self.hits = Counter(f"{name}.hits")
        self.misses = Counter(f"{name}.misses")
        self.admissions = Counter(f"{name}.admissions")
        self.rejections = Counter(f"{name}.rejections")
        self.evictions = Counter(f"{name}.evictions")
        self.invalidations = Counter(f"{name}.invalidations")
        self.sheds = Counter(f"{name}.sheds")
        self.fills_raced = Counter(f"{name}.fills-raced")
        self.pressure_refusals = Counter(f"{name}.pressure-refusals")
        self.hit_bytes = Counter(f"{name}.hit-bytes")
        self.occupancy = Gauge(f"{name}.occupancy")
        self.entries = Gauge(f"{name}.entries")

        registry = registry_for(sim)
        if registry is not None:
            labels = dict(component="cache", cache=name)
            registry.register_instance(self.hits, "cache.hits", **labels)
            registry.register_instance(self.misses, "cache.misses", **labels)
            registry.register_instance(self.admissions, "cache.admissions", **labels)
            registry.register_instance(self.rejections, "cache.rejections", **labels)
            registry.register_instance(self.evictions, "cache.evictions", **labels)
            registry.register_instance(self.invalidations, "cache.invalidations", **labels)
            registry.register_instance(self.sheds, "cache.sheds", **labels)
            registry.register_instance(self.fills_raced, "cache.fills_raced", **labels)
            registry.register_instance(self.pressure_refusals, "cache.pressure_refusals", **labels)
            registry.register_instance(self.hit_bytes, "cache.hit_bytes", **labels)
            registry.register_instance(self.occupancy, "cache.occupancy", **labels)
            registry.register_instance(self.entries, "cache.entries", **labels)

        allocator.register_reclaimer(self._shed)

    # -- read-side API ------------------------------------------------------

    def lookup(self, key: Key) -> CacheEntry | None:
        """Pinned entry for `key`, or ``None`` on a miss.

        Every lookup feeds the admission sketch. A probation hit
        promotes to protected. The caller must :meth:`release` a hit.
        """
        self.sketch.touch(key)
        entry = self._probation.pop(key, None)
        if entry is not None:
            self._promote(entry)
        else:
            entry = self._protected.get(key)
            if entry is not None:
                self._protected.move_to_end(key)
        if entry is None:
            self.misses.add()
            return None
        self.hits.add()
        self.hit_bytes.add(entry.size)
        entry.pins += 1
        return entry

    def release(self, entry: CacheEntry) -> None:
        """Drop a pin taken by :meth:`lookup`."""
        if entry.pins <= 0:
            raise ValueError(f"releasing unpinned cache entry {entry.key}")
        entry.pins -= 1
        if entry.dead and entry.pins == 0:
            self.allocator.free(entry.buffer)

    def contains(self, key: Key) -> bool:
        """Whether `key` is resident (no sketch touch, no promotion)."""
        return key in self._probation or key in self._protected

    # -- fill-side API ------------------------------------------------------

    def begin_fill(self, key: Key) -> int:
        """Token to pass to :meth:`offer` after the backend fetch.

        Captures the current epoch *before* the fetch leaves, so a
        write that lands mid-fetch invalidates the eventual offer.
        """
        return self._epoch

    def offer(self, key: Key, payload: "Payload", token: int) -> bool:
        """Admission decision on a freshly fetched block.

        Returns True when the block was cached. Refusals: the fill
        raced a write (stale), the key is already resident, TinyLFU
        ranks the candidate below the eviction victim, or the watermark
        gate is closed (the cache never reclaims to grow itself).
        """
        if self._invalidated.get(key, 0) > token:
            self.fills_raced.add()
            return False
        if self.contains(key):
            return False
        size = payload.size
        if size <= 0 or size > self.limit:
            return False
        while self._held + size > self.limit:
            victim = self._victim()
            if victim is None:
                return False
            if self.sketch.estimate(key) <= self.sketch.estimate(victim.key):
                self.rejections.add()
                return False
            self._pop_segment(victim.key)
            self._remove(victim, self.evictions)
        # Lowest-priority consumer: admit only while comfortably below
        # the drain target and nobody is parked waiting for headroom —
        # filling inside the watermark band would hold occupancy up and
        # starve the request-path waiters the cache must yield to.
        if not self.allocator.elastic_headroom(size):
            self.pressure_refusals.add()
            return False
        buffer = self.allocator.try_alloc(size, reclaim=False)
        if buffer is None:
            self.pressure_refusals.add()
            return False
        buffer.payload = payload
        entry = CacheEntry(key=key, buffer=buffer, payload=payload, size=size)
        self._probation[key] = entry
        self._held += size
        self.occupancy.set(self._held)
        self.entries.set(len(self._probation) + len(self._protected))
        self.admissions.add()
        if self._ledger is not None:
            self._ledger.record(f"{self.name}.fill", self.name, size)
        if self.hbm is not None:
            # Fire-and-forget: the fill charges the HBM port on its own.
            self.sim.process(self.hbm.write(size), name=self._fill_name)
        return True

    # -- write-through invalidation -----------------------------------------

    def invalidate(self, key: Key) -> None:
        """Drop `key` and poison in-flight fills for it (called pre-ack)."""
        self._epoch += 1
        self._invalidated[key] = self._epoch
        entry = self._pop_segment(key)
        if entry is not None:
            self._remove(entry, self.invalidations)

    # -- elastic sizing -----------------------------------------------------

    def _shed(self, nbytes: int) -> int:
        """Reclaimer callback: evict cold entries until `nbytes` freed.

        Pinned entries are skipped (their memory cannot be returned
        yet), so the reported figure is bytes actually freed now.
        """
        freed = 0
        while freed < nbytes:
            victim = self._victim(skip_pinned=True)
            if victim is None:
                break
            self._pop_segment(victim.key)
            self._remove(victim, self.sheds)
            freed += victim.size
        return freed

    # -- accounting ---------------------------------------------------------

    def attach_ledger(self, ledger: "FlowLedger") -> "HotBlockCache":
        """Book fills/evictions/occupancy so byte conservation closes.

        Declares ``fill == evict + held`` for the cache's own flow; the
        drain auditor re-checks it (through the probe refreshing the
        ``held`` stock) at the end of every audited test.
        """
        self._ledger = ledger
        ledger.add_probe(self._probe)
        ledger.expect_balanced(
            self.name, [f"{self.name}.fill"], [f"{self.name}.evict", f"{self.name}.held"]
        )
        return self

    def _probe(self, ledger: "FlowLedger") -> None:
        ledger.set_level(f"{self.name}.held", self.name, self._held)

    def hit_ratio(self) -> float:
        """Fraction of lookups served from the cache (0.0 when idle)."""
        return ratio(self.hits.value, self.hits.value + self.misses.value)

    def stats(self) -> dict[str, float]:
        """Counter snapshot for experiment tables."""
        return {
            "hits": self.hits.value,
            "misses": self.misses.value,
            "hit_ratio": self.hit_ratio(),
            "admissions": self.admissions.value,
            "rejections": self.rejections.value,
            "evictions": self.evictions.value,
            "invalidations": self.invalidations.value,
            "sheds": self.sheds.value,
            "fills_raced": self.fills_raced.value,
            "pressure_refusals": self.pressure_refusals.value,
            "held_bytes": self._held,
            "peak_bytes": self.occupancy.peak,
        }

    # -- internals ----------------------------------------------------------

    def _promote(self, entry: CacheEntry) -> None:
        """Probation hit: move to protected, demoting its LRU if over budget."""
        self._protected[entry.key] = entry
        self._protected_bytes += entry.size
        while self._protected_bytes > self.protected_budget and len(self._protected) > 1:
            key, demoted = next(iter(self._protected.items()))
            if demoted is entry:
                break
            del self._protected[key]
            self._protected_bytes -= demoted.size
            self._probation[key] = demoted

    def _victim(self, skip_pinned: bool = False) -> CacheEntry | None:
        """Coldest evictable entry: probation LRU first, then protected."""
        for segment in (self._probation, self._protected):
            for entry in segment.values():
                if skip_pinned and entry.pins:
                    continue
                return entry
        return None

    def _pop_segment(self, key: Key) -> CacheEntry | None:
        entry = self._probation.pop(key, None)
        if entry is not None:
            return entry
        entry = self._protected.pop(key, None)
        if entry is not None:
            self._protected_bytes -= entry.size
        return entry

    def _remove(self, entry: CacheEntry, counter: Counter) -> None:
        """Book an entry's removal; free its buffer now or at last unpin."""
        self._held -= entry.size
        self.occupancy.set(self._held)
        self.entries.set(len(self._probation) + len(self._protected))
        counter.add()
        if self._ledger is not None:
            self._ledger.record(f"{self.name}.evict", self.name, entry.size)
        if entry.pins:
            entry.dead = True
        else:
            self.allocator.free(entry.buffer)

    def __repr__(self) -> str:
        return (
            f"<HotBlockCache {self.name!r} held={self._held}/{self.limit} "
            f"hits={self.hits.value} misses={self.misses.value}>"
        )
