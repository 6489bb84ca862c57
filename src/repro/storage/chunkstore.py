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


@dataclasses.dataclass(frozen=True, slots=True)
class StoredBlock:
    """One log entry: an appended (usually compressed) block.

    A record carries its payload's attributes as fields, with no
    per-record dict: a store keeps one record per written replica for
    the whole run.
    """

    location: int  # store-unique id, stands in for (chunk offset)
    chunk_id: int
    block_id: int  # the block's logical id (e.g. LBA)
    size: int
    data: bytes | None = None
    sequence: int = 0  # append order within the chunk
    is_compressed: bool = False
    ratio: float = 1.0  # the payload's compression ratio
    original_size: int | None = None  # uncompressed size, when compressed

    @property
    def meta(self) -> dict:
        """The payload attributes as a dict (built on each access)."""
        return {
            "is_compressed": self.is_compressed,
            "ratio": self.ratio,
            "original_size": self.original_size,
        }


class ChunkStore:
    """An append-only log per chunk with GC and snapshots."""

    def __init__(self) -> None:
        self._locations = itertools.count(1)
        self._chunks: dict[int, list[StoredBlock]] = {}
        # Per chunk, each block's newest retained record, so `latest`
        # need not scan the log while that record is live.
        self._newest: dict[int, dict[int, StoredBlock]] = {}
        # Every retained record sits in exactly one of these, by location:
        # live, or dead (superseded) but not yet reclaimed by `gc`.
        self._live: dict[int, StoredBlock] = {}
        self._dead: dict[int, StoredBlock] = {}
        self._snapshots: dict[int, tuple[int, ...]] = {}
        # Locations some snapshot pins: GC keeps them.
        self._pinned: set[int] = set()
        self._snapshot_ids = itertools.count(1)
        self.bytes_appended = 0
        self.bytes_reclaimed = 0

    def append(
        self,
        chunk_id: int,
        block_id: int,
        size: int,
        data: bytes | None = None,
        *,
        is_compressed: bool = False,
        ratio: float = 1.0,
        original_size: int | None = None,
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
            is_compressed=is_compressed,
            ratio=ratio,
            original_size=original_size,
        )
        log.append(record)
        self._newest.setdefault(chunk_id, {})[block_id] = record
        self._live[record.location] = record
        self.bytes_appended += size
        return record

    def read(self, location: int) -> StoredBlock:
        """Fetch a stored block by location; raises KeyError if not live."""
        record = self._live.get(location)
        if record is None:
            raise KeyError(f"location {location} does not hold a live block")
        return record

    def latest(self, chunk_id: int, block_id: int) -> StoredBlock | None:
        """Most recent live version of a block in a chunk (None if absent)."""
        newest = self._newest.get(chunk_id, {}).get(block_id)
        if newest is None or newest.location in self._live:
            return newest
        # The newest version is dead (compaction superseded it, and it
        # stays in the log until GC, or while a snapshot pins it): an
        # older one may be live.
        for record in reversed(self._chunks[chunk_id]):
            if record.block_id == block_id and record.location in self._live:
                return record
        return None

    def live_blocks(self, chunk_id: int) -> list[StoredBlock]:
        """All live entries of a chunk, oldest first."""
        return [r for r in self._chunks.get(chunk_id, []) if r.location in self._live]

    def mark_dead(self, location: int) -> None:
        """Mark an entry as superseded (compaction output replaces it)."""
        record = self._live.pop(location, None)
        if record is not None:
            self._dead[location] = record
        elif location not in self._dead:
            raise KeyError(f"unknown location {location}")

    def gc(self, chunk_id: int) -> int:
        """Drop dead entries of a chunk; returns reclaimed bytes.

        Entries captured by a snapshot are retained even if dead. The
        walk covers the chunk's retained log only, whatever the number
        of snapshots.
        """
        log = self._chunks.get(chunk_id, [])
        dead = self._dead
        pinned = self._pinned
        reclaimed = 0
        kept = []
        for record in log:
            location = record.location
            if location in dead and location not in pinned:
                reclaimed += record.size
                del dead[location]
            else:
                kept.append(record)
        self._chunks[chunk_id] = kept
        self._newest[chunk_id] = {record.block_id: record for record in kept}
        self.bytes_reclaimed += reclaimed
        return reclaimed

    def snapshot(self) -> int:
        """Pin the current live set; returns a snapshot id."""
        snap_id = next(self._snapshot_ids)
        locations = tuple(self._live)
        self._pinned.update(locations)
        self._snapshots[snap_id] = locations
        return snap_id

    def snapshot_blocks(self, snap_id: int) -> list[StoredBlock]:
        """The blocks captured by a snapshot (still readable after GC)."""
        if snap_id not in self._snapshots:
            raise KeyError(f"unknown snapshot {snap_id}")
        live, dead = self._live, self._dead
        return [
            live[loc] if loc in live else dead[loc] for loc in self._snapshots[snap_id]
        ]

    def chunk_ids(self) -> typing.KeysView[int]:
        """All chunk ids ever written."""
        return self._chunks.keys()
