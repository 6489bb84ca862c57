"""Replica placement.

Each write is replicated to several (usually three, §2.1) storage
servers chosen "according to disk usage, distribution of switches,
loads of storage servers, and disaster recovery strategy" (§2.2.1).
:class:`ReplicationPolicy` implements a load-balanced chooser with a
fail-over path.
"""

from __future__ import annotations

import typing

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.storage.server import StorageServer


class ReplicationPolicy:
    """Chooses replica targets, balancing outstanding load across servers."""

    def __init__(self, servers: typing.Sequence["StorageServer"], replication: int = 3) -> None:
        if replication < 1:
            raise ValueError(f"replication factor must be >= 1, got {replication}")
        if len(servers) < replication:
            raise ValueError(
                f"need at least {replication} storage servers, got {len(servers)}"
            )
        self.servers = list(servers)
        self.replication = replication
        self._outstanding: dict[str, int] = {server.address: 0 for server in self.servers}

    def choose(self, exclude: typing.Collection[str] = ()) -> list["StorageServer"] | None:
        """Pick `replication` distinct servers, least-loaded first.

        `exclude` removes failed servers (fail-over re-replication).
        Returns ``None``, claiming nothing, when fewer than `replication`
        live servers remain.
        """
        candidates = [s for s in self.servers if s.address not in exclude and not s.failed]
        if len(candidates) < self.replication:
            return None
        candidates.sort(key=lambda s: (self._outstanding[s.address], s.address))
        chosen = candidates[: self.replication]
        for server in chosen:
            self._outstanding[server.address] += 1
        return chosen

    def claim(self, server: "StorageServer") -> None:
        """Account one extra outstanding write on `server` (fail-over path)."""
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
