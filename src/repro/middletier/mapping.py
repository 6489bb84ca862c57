"""LBA -> segment -> chunk address mapping.

VMs address their virtual disks in logical block addressing; the middle
tier maps an LBA to a 32 GB segment, and segments are divided into
64 MB chunks (§2.1). Each I/O request targets one chunk; a chunk is the
unit of LSM-style compaction and garbage collection.
"""

from __future__ import annotations

import dataclasses

from repro.params import StorageSpec


@dataclasses.dataclass(frozen=True)
class BlockAddress:
    """Fully resolved location of one logical block."""

    lba: int
    segment_id: int
    chunk_id: int
    chunk_offset: int


class AddressMapper:
    """Pure address arithmetic for one virtual disk."""

    def __init__(self, spec: StorageSpec | None = None, block_size: int = 4096) -> None:
        self.spec = spec or StorageSpec()
        if block_size < 1:
            raise ValueError(f"block size must be positive, got {block_size}")
        if self.spec.chunk_bytes % block_size:
            raise ValueError("chunk size must be a multiple of the block size")
        if self.spec.segment_bytes % self.spec.chunk_bytes:
            raise ValueError("segment size must be a multiple of the chunk size")
        self.block_size = block_size

    @property
    def blocks_per_chunk(self) -> int:
        """4 KB blocks held by one 64 MB chunk."""
        return self.spec.chunk_bytes // self.block_size

    @property
    def chunks_per_segment(self) -> int:
        """64 MB chunks held by one 32 GB segment."""
        return self.spec.segment_bytes // self.spec.chunk_bytes

    def resolve(self, lba: int) -> BlockAddress:
        """Map a logical block address to its segment/chunk coordinates."""
        if lba < 0:
            raise ValueError(f"negative LBA {lba}")
        byte_offset = lba * self.block_size
        segment_id = byte_offset // self.spec.segment_bytes
        chunk_index_global = byte_offset // self.spec.chunk_bytes
        chunk_offset = byte_offset % self.spec.chunk_bytes
        return BlockAddress(
            lba=lba,
            segment_id=segment_id,
            chunk_id=chunk_index_global,
            chunk_offset=chunk_offset,
        )

    @property
    def blocks_per_segment(self) -> int:
        """4 KB blocks held by one 32 GB segment."""
        return self.spec.segment_bytes // self.block_size

    def segment_of(self, lba: int) -> int:
        """Segment id holding `lba` — the routing unit of the cluster
        directory (:mod:`repro.cluster`), so routing code never
        re-derives the segment arithmetic."""
        if lba < 0:
            raise ValueError(f"negative LBA {lba}")
        return (lba * self.block_size) // self.spec.segment_bytes
