"""Back-end storage substrate.

Storage servers hold the standalone back-end of the blocks (§2.1): each
runs an append-only chunk store on a flash block device, serves write
and read requests from the middle tier over RoCE, and participates in
3-way replica sets.
"""

from repro.storage.blockdev import BlockDevice
from repro.storage.chunkstore import ChunkStore, StoredBlock
from repro.storage.replication import ReplicationPolicy
from repro.storage.server import StorageServer

__all__ = [
    "BlockDevice",
    "ChunkStore",
    "ReplicationPolicy",
    "StorageServer",
    "StoredBlock",
]
