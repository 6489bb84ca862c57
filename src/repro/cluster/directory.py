"""Segment directory: consistent-hash placement with versioned route maps.

The paper evaluates one middle-tier server (§5.1); a production block
store shards the tier horizontally. :class:`SegmentDirectory` places
32 GB segments — the routing unit exposed by
:meth:`repro.middletier.mapping.AddressMapper.segment_of` — onto
middle-tier shards through a consistent-hash ring of virtual nodes,
plus explicit per-segment *overrides* for migration and rebalancing.

Every mutation (shard add/remove, pin/unpin) bumps an integer version
and invalidates the cached :class:`RouteMap` snapshot. Clients cache a
snapshot and route locally; a shard that receives a request it no
longer owns answers ``status="wrong_shard"`` with the live owner and
version, and the client refetches (``docs/scaling.md``).

Hashing uses blake2b, not Python's salted ``hash()``, so a seeded run
replayed in another process places every segment identically.
"""

from __future__ import annotations

import bisect
import hashlib
import typing

from repro.telemetry import metrics


def stable_hash(token: str) -> int:
    """A 64-bit stable hash of `token` (replay-deterministic)."""
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class RouteMap:
    """One immutable snapshot of segment->shard placement.

    Clients hold a RouteMap and resolve owners locally (no simulated
    time); the `version` travels in ``wrong_shard`` replies so a client
    can tell a stale cache from a racing mutation.
    """

    __slots__ = ("version", "shards", "overrides", "_points", "_owners")

    def __init__(
        self,
        version: int,
        shards: typing.Sequence[str],
        ring: typing.Sequence[tuple[int, str]],
        overrides: typing.Mapping[int, str],
    ) -> None:
        self.version = version
        self.shards = tuple(shards)
        self.overrides = dict(overrides)
        self._points = tuple(point for point, _ in ring)
        self._owners = tuple(owner for _, owner in ring)

    def owner_of(self, segment_id: int) -> str:
        """The shard owning `segment_id` under this snapshot."""
        if segment_id < 0:
            raise ValueError(f"negative segment id {segment_id}")
        pinned = self.overrides.get(segment_id)
        if pinned is not None:
            return pinned
        if len(self.shards) == 1:
            return self.shards[0]
        point = stable_hash(f"segment:{segment_id}")
        index = bisect.bisect_right(self._points, point)
        if index == len(self._points):
            index = 0  # wrap past the last vnode back to the first
        return self._owners[index]

    def placement(self, segment_ids: typing.Iterable[int]) -> dict[int, str]:
        """Owner of every segment in `segment_ids` (test/report helper)."""
        return {segment_id: self.owner_of(segment_id) for segment_id in segment_ids}

    def __repr__(self) -> str:
        return (
            f"<RouteMap v{self.version} shards={len(self.shards)} "
            f"vnodes={len(self._points)} overrides={len(self.overrides)}>"
        )


class SegmentDirectory:
    """Authoritative segment->shard placement, versioned.

    The directory is a control-plane object: lookups and mutations take
    no simulated time (clients pay :attr:`ClusterSpec.map_fetch_latency`
    when they *fetch* a snapshot, modeling the network hop to the
    directory service). It also accumulates per-segment *heat* — bytes
    routed per segment — backing the cluster's load and imbalance
    gauges.
    """

    def __init__(self, shards: typing.Sequence[str], vnodes_per_shard: int = 128) -> None:
        if not shards:
            raise ValueError("need at least one shard")
        if len(set(shards)) != len(shards):
            raise ValueError(f"duplicate shard addresses in {list(shards)!r}")
        if vnodes_per_shard < 1:
            raise ValueError(f"need at least one vnode per shard, got {vnodes_per_shard}")
        self.vnodes_per_shard = vnodes_per_shard
        self._shards: list[str] = list(shards)
        self._overrides: dict[int, str] = {}
        self.version = 1
        self._map: RouteMap | None = None
        self._segment_heat: dict[int, float] = {}

    # -- membership and overrides -------------------------------------------

    @property
    def shards(self) -> tuple[str, ...]:
        """Current member shards, in registration order."""
        return tuple(self._shards)

    def add_shard(self, address: str) -> None:
        """Add a shard to the ring; only segments it now owns move."""
        if address in self._shards:
            raise ValueError(f"shard {address!r} already in the directory")
        self._shards.append(address)
        self._bump()

    def remove_shard(self, address: str) -> None:
        """Drop a shard; the minimal-disruption property of consistent
        hashing guarantees only *its* segments remap."""
        if address not in self._shards:
            raise ValueError(f"shard {address!r} not in the directory")
        if len(self._shards) == 1:
            raise ValueError("cannot remove the last shard")
        self._shards.remove(address)
        for segment_id, pinned in list(self._overrides.items()):
            if pinned == address:
                del self._overrides[segment_id]
        self._bump()

    def pin_segment(self, segment_id: int, address: str) -> None:
        """Override the ring: place `segment_id` on `address` explicitly.

        The migration primitive — a rebalancer moves a hot segment by
        pinning it; the ring keeps serving everything unpinned.
        """
        if segment_id < 0:
            raise ValueError(f"negative segment id {segment_id}")
        if address not in self._shards:
            raise ValueError(f"cannot pin to unknown shard {address!r}")
        if self._overrides.get(segment_id) == address:
            return  # no-op pins don't churn client caches
        self._overrides[segment_id] = address
        self._bump()

    def rebalance(self, segment_ids: typing.Iterable[int]) -> None:
        """Pin `segment_ids` round-robin across the member shards.

        A deliberately simple rebalancer: perfect spread for a known
        active set (the scale-sweep experiment), one version bump for
        the whole batch.
        """
        changed = False
        for index, segment_id in enumerate(sorted(set(segment_ids))):
            if segment_id < 0:
                raise ValueError(f"negative segment id {segment_id}")
            target = self._shards[index % len(self._shards)]
            if self._overrides.get(segment_id) != target:
                self._overrides[segment_id] = target
                changed = True
        if changed:
            self._bump()

    def _bump(self) -> None:
        self.version += 1
        self._map = None

    # -- lookups -------------------------------------------------------------

    def route_map(self) -> RouteMap:
        """The current placement snapshot (cached until the next mutation)."""
        if self._map is None or self._map.version != self.version:
            ring = sorted(
                (stable_hash(f"{shard}#vnode{vnode}"), shard)
                for shard in self._shards
                for vnode in range(self.vnodes_per_shard)
            )
            self._map = RouteMap(self.version, self._shards, ring, self._overrides)
        return self._map

    def owner_of(self, segment_id: int) -> str:
        """Authoritative owner of `segment_id` right now."""
        return self.route_map().owner_of(segment_id)

    # -- heat accounting -----------------------------------------------------

    def record_heat(self, segment_id: int, nbytes: int) -> None:
        """Account `nbytes` of served traffic against `segment_id`."""
        if nbytes < 0:
            raise ValueError(f"negative heat {nbytes} for segment {segment_id}")
        self._segment_heat[segment_id] = self._segment_heat.get(segment_id, 0) + nbytes

    def segment_heat(self) -> dict[int, float]:
        """Accumulated bytes per segment (copy)."""
        return dict(self._segment_heat)

    def shard_heat(self) -> dict[str, float]:
        """Accumulated segment heat summed per *current* owner.

        Every member shard appears, idle ones at 0.0, so the imbalance
        metric sees cold shards instead of silently skipping them.
        """
        route = self.route_map()
        heat = {shard: 0.0 for shard in self._shards}
        for segment_id, nbytes in self._segment_heat.items():
            heat[route.owner_of(segment_id)] += nbytes
        return heat

    def imbalance(self) -> float:
        """Max/mean shard heat (1.0 = even; see :func:`repro.telemetry.metrics.imbalance`)."""
        return metrics.imbalance(list(self.shard_heat().values()))

    def __repr__(self) -> str:
        return (
            f"<SegmentDirectory v{self.version} shards={self._shards!r} "
            f"overrides={len(self._overrides)}>"
        )
