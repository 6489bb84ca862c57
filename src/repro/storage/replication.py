"""Replica placement.

Each write is replicated to several (usually three, §2.1) storage
servers chosen "according to disk usage, distribution of switches,
loads of storage servers, and disaster recovery strategy" (§2.2.1).
:class:`ReplicationPolicy` holds the replication factor and the ledger
of writes outstanding per server; ``MiddleTierServer._choose`` ranks
servers by it.
"""

from __future__ import annotations

import typing

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.storage.server import StorageServer


class ReplicationPolicy:
    """The replication factor and the writes outstanding on each server."""

    def __init__(self, servers: typing.Sequence["StorageServer"], replication: int = 3) -> None:
        if replication < 1:
            raise ValueError(f"replication factor must be >= 1, got {replication}")
        if len(servers) < replication:
            raise ValueError(
                f"need at least {replication} storage servers, got {len(servers)}"
            )
        self.replication = replication
        self._outstanding: dict[str, int] = {server.address: 0 for server in servers}

    def claim(self, server: "StorageServer") -> None:
        """Account one extra outstanding write on `server`."""
        if server.address not in self._outstanding:
            raise KeyError(f"{server.address} is not in this policy")
        self._outstanding[server.address] += 1

    def complete(self, server: "StorageServer") -> None:
        """Report that a write to `server` finished (for load accounting)."""
        if self._outstanding[server.address] <= 0:
            raise RuntimeError(f"no outstanding writes on {server.address}")
        self._outstanding[server.address] -= 1

    def outstanding(self, server: "StorageServer") -> int:
        """Writes currently in flight to `server`."""
        return self._outstanding[server.address]
