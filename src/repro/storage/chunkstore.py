"""Append-only chunk store.

Storage servers "write the data into the disk in an appended way"
(§2.2.1): each 64 MB chunk is a log of compressed blocks. The store is
functional — it really keeps the (optionally real) bytes — and supports
the maintenance services the middle tier drives: garbage collection of
compacted entries and point-in-time snapshots.
"""

from __future__ import annotations

import dataclasses
import itertools
import typing


@dataclasses.dataclass(frozen=True)
class StoredBlock:
    """One log entry: an appended (usually compressed) block."""

    location: int  # store-unique id, stands in for (chunk offset)
    chunk_id: int
    block_id: int  # the block's logical id (e.g. LBA)
    size: int
    data: bytes | None = None
    sequence: int = 0  # append order within the chunk
    meta: dict = dataclasses.field(default_factory=dict)


class ChunkStore:
    """An append-only log per chunk with GC and snapshots."""

    def __init__(self) -> None:
        self._locations = itertools.count(1)
        self._chunks: dict[int, list[StoredBlock]] = {}
        # Per chunk, each block's newest retained record, so `latest`
        # need not scan the log while that record is live.
        self._newest: dict[int, dict[int, StoredBlock]] = {}
        self._by_location: dict[int, StoredBlock] = {}
        self._live: dict[int, bool] = {}
        self._snapshots: dict[int, tuple[int, ...]] = {}
        self._snapshot_ids = itertools.count(1)
        self.bytes_appended = 0
        self.bytes_reclaimed = 0

    def append(
        self,
        chunk_id: int,
        block_id: int,
        size: int,
        data: bytes | None = None,
        meta: dict | None = None,
    ) -> StoredBlock:
        """Append a block to a chunk's log; returns its stored record."""
        if size < 0:
            raise ValueError(f"negative block size {size}")
        if data is not None and len(data) != size:
            raise ValueError("data length disagrees with size")
        log = self._chunks.setdefault(chunk_id, [])
        record = StoredBlock(
            location=next(self._locations),
            chunk_id=chunk_id,
            block_id=block_id,
            size=size,
            data=data,
            sequence=len(log),
            meta=dict(meta or {}),
        )
        log.append(record)
        self._newest.setdefault(chunk_id, {})[block_id] = record
        self._by_location[record.location] = record
        self._live[record.location] = True
        self.bytes_appended += size
        return record

    def read(self, location: int) -> StoredBlock:
        """Fetch a stored block by location; raises KeyError if reclaimed."""
        record = self._by_location.get(location)
        if record is None or not self._live[location]:
            raise KeyError(f"location {location} does not hold a live block")
        return record

    def latest(self, chunk_id: int, block_id: int) -> StoredBlock | None:
        """Most recent live version of a block in a chunk (None if absent)."""
        newest = self._newest.get(chunk_id, {}).get(block_id)
        if newest is None or self._live[newest.location]:
            return newest
        # The newest version is dead (compaction superseded it, and it
        # stays in the log until GC, or while a snapshot pins it): an
        # older one may be live.
        for record in reversed(self._chunks[chunk_id]):
            if record.block_id == block_id and self._live[record.location]:
                return record
        return None

    def live_blocks(self, chunk_id: int) -> list[StoredBlock]:
        """All live entries of a chunk, oldest first."""
        return [r for r in self._chunks.get(chunk_id, []) if self._live[r.location]]

    def mark_dead(self, location: int) -> None:
        """Mark an entry as superseded (compaction output replaces it)."""
        if location not in self._live:
            raise KeyError(f"unknown location {location}")
        self._live[location] = False

    def gc(self, chunk_id: int) -> int:
        """Drop dead entries of a chunk; returns reclaimed bytes.

        Entries captured by a snapshot are retained even if dead.
        """
        log = self._chunks.get(chunk_id, [])
        pinned = {loc for snap in self._snapshots.values() for loc in snap}
        reclaimed = 0
        kept = []
        for record in log:
            if not self._live[record.location] and record.location not in pinned:
                reclaimed += record.size
                del self._by_location[record.location]
                del self._live[record.location]
            else:
                kept.append(record)
        self._chunks[chunk_id] = kept
        self._newest[chunk_id] = {record.block_id: record for record in kept}
        self.bytes_reclaimed += reclaimed
        return reclaimed

    def snapshot(self) -> int:
        """Pin the current live set; returns a snapshot id."""
        snap_id = next(self._snapshot_ids)
        self._snapshots[snap_id] = tuple(loc for loc, live in self._live.items() if live)
        return snap_id

    def snapshot_blocks(self, snap_id: int) -> list[StoredBlock]:
        """The blocks captured by a snapshot (still readable after GC)."""
        if snap_id not in self._snapshots:
            raise KeyError(f"unknown snapshot {snap_id}")
        return [self._by_location[loc] for loc in self._snapshots[snap_id]]

    def drop_snapshot(self, snap_id: int) -> None:
        """Release a snapshot's pins."""
        if snap_id not in self._snapshots:
            raise KeyError(f"unknown snapshot {snap_id}")
        del self._snapshots[snap_id]

    @property
    def live_bytes(self) -> int:
        """Bytes currently live across all chunks."""
        return sum(r.size for loc, r in self._by_location.items() if self._live[loc])

    def chunk_ids(self) -> typing.KeysView[int]:
        """All chunk ids ever written."""
        return self._chunks.keys()
