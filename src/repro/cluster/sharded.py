"""A sharded middle tier: N servers behind one segment directory.

:class:`ShardedCluster` instantiates `ClusterSpec.n_shards` middle-tier
servers of any design flavor over a shared storage testbed, builds the
:class:`~repro.cluster.directory.SegmentDirectory` over their
addresses, and installs the shard-ownership guard on every tier so a
request routed with a stale map is bounced (``status="wrong_shard"``)
instead of silently served by the wrong shard (``docs/scaling.md``).

Two storage layouts:

- *shared* (default): one pool of storage servers; every shard's
  replication policy places over all of them;
- *partitioned*: each shard gets its own replica group (its own
  :class:`~repro.middletier.cluster.Testbed` view over a disjoint
  server subset), so "kill one shard's replicas" is a well-defined
  fault and the blast radius is exactly that shard's segments.
"""

from __future__ import annotations

import typing

from repro.cluster.directory import SegmentDirectory
from repro.middletier import (
    AcceleratorMiddleTier,
    BlueField2MiddleTier,
    CpuOnlyMiddleTier,
    NaiveFpgaMiddleTier,
    Testbed,
)
from repro.middletier.mapping import AddressMapper
from repro.net.message import Message
from repro.params import PlatformSpec
from repro.storage.server import StorageServer
from repro.telemetry.registry import registry_for

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.kernel import Simulator


class ShardedCluster:
    """N middle-tier shards, one directory, one (shared) testbed."""

    def __init__(
        self,
        sim: "Simulator",
        platform: PlatformSpec | None = None,
        design: str = "CPU-only",
        n_workers: int = 2,
        n_storage_servers: int | None = None,
        partition_storage: bool = False,
    ) -> None:
        self.sim = sim
        self.platform = platform or PlatformSpec()
        self.spec = self.platform.cluster
        self.design = design
        n_shards = self.spec.n_shards
        replication = self.platform.storage.replication
        self.mapper = AddressMapper(
            self.platform.storage, block_size=self.platform.workload.block_size
        )
        self.partition_storage = partition_storage

        # -- storage ---------------------------------------------------------
        self._storage_groups: dict[str, tuple[StorageServer, ...]] = {}
        if partition_storage:
            groups = [
                [
                    StorageServer(
                        sim, f"shard{i}.storage{j}", network_spec=self.platform.network
                    )
                    for j in range(replication)
                ]
                for i in range(n_shards)
            ]
            all_servers = [server for group in groups for server in group]
            #: The cluster-wide view (lookups, audits).
            self.testbed = Testbed(sim, self.platform, servers=all_servers)
            shard_testbeds = [
                Testbed(sim, self.platform, servers=group) for group in groups
            ]
        else:
            count = n_storage_servers or max(replication, 2 * n_shards)
            self.testbed = Testbed(sim, self.platform, n_storage_servers=count)
            shard_testbeds = [self.testbed] * n_shards

        # -- shards ----------------------------------------------------------
        self.tiers = [
            self._build_tier(shard_testbeds[i], f"shard{i}", n_workers)
            for i in range(n_shards)
        ]
        self._by_address = {tier.address: tier for tier in self.tiers}
        if not partition_storage:
            # Shared layout: block→replica locations are segment metadata
            # owned by the cluster (the directory service), not by one
            # tier's memory — a shard taking over a migrated segment must
            # still locate blocks its predecessor placed. One dict shared
            # by every tier models that. Partitioned layouts keep per-tier
            # maps: data is co-located with its shard, and moving a
            # segment there requires live migration (ROADMAP).
            shared_locations: dict = {}
            for tier in self.tiers:
                tier._block_locations = shared_locations
        if partition_storage:
            for tier, group in zip(self.tiers, groups):
                self._storage_groups[tier.address] = tuple(group)
        else:
            for tier in self.tiers:
                self._storage_groups[tier.address] = tuple(self.testbed.storage_servers)

        # -- directory and guards ---------------------------------------------
        self.directory = SegmentDirectory(
            [tier.address for tier in self.tiers],
            vnodes_per_shard=self.spec.vnodes_per_shard,
        )
        if not self.spec.directory_bypassed:
            for tier in self.tiers:
                tier.route_guard = self._guard_for(tier.address)

        registry = registry_for(sim)
        if registry is not None:
            for tier in self.tiers:
                # A shard removed from the directory reads 0.0: it owns nothing.
                registry.gauge_callable(
                    "cluster.shard_heat",
                    lambda address=tier.address: self.directory.shard_heat().get(address, 0.0),
                    component="cluster",
                    shard=tier.address,
                )
            registry.gauge_callable(
                "cluster.imbalance", self.directory.imbalance, component="cluster"
            )
            registry.gauge_callable(
                "cluster.map_version",
                lambda: float(self.directory.version),
                component="cluster",
            )

    def _build_tier(self, testbed: Testbed, address: str, n_workers: int) -> typing.Any:
        """Instantiate one shard of the configured design flavor."""
        design = self.design
        sim = self.sim
        if design.startswith("SmartDS-"):
            # Deferred import: repro.core pulls in the whole device model.
            from repro.core import SmartDsMiddleTier

            n_ports = int(design.split("-", 1)[1])
            return SmartDsMiddleTier(
                sim, testbed, n_ports=n_ports, n_workers=n_workers or None, address=address
            )
        if design == "CPU-only":
            return CpuOnlyMiddleTier(sim, testbed, n_workers=n_workers, address=address)
        if design == "Acc":
            return AcceleratorMiddleTier(sim, testbed, n_workers=n_workers, address=address)
        if design == "BF2":
            return BlueField2MiddleTier(sim, testbed, n_workers=n_workers, address=address)
        if design == "FPGA-only":
            return NaiveFpgaMiddleTier(sim, testbed, n_workers=n_workers, address=address)
        raise ValueError(
            f"unknown design {design!r}; have CPU-only, Acc, BF2, FPGA-only, SmartDS-<N>"
        )

    def _guard_for(self, address: str) -> typing.Callable[[Message], dict | None]:
        """The shard-ownership check installed as ``tier.route_guard``."""

        def guard(message: Message) -> dict | None:
            segment_id = self.segment_of(message)
            owner = self.directory.owner_of(segment_id)
            if owner == address:
                # Owned: serve it, and feed the heat/imbalance gauges.
                self.directory.record_heat(segment_id, message.size)
                return None
            return {"owner": owner, "map_version": self.directory.version}

        return guard

    # -- lookups -------------------------------------------------------------

    @property
    def addresses(self) -> tuple[str, ...]:
        """Shard addresses, in directory registration order."""
        return tuple(tier.address for tier in self.tiers)

    def tier(self, address: str) -> typing.Any:
        """Look a shard up by address."""
        try:
            return self._by_address[address]
        except KeyError:
            raise KeyError(f"no shard {address!r}") from None

    def storage_group(self, address: str) -> tuple[StorageServer, ...]:
        """The storage servers shard `address` replicates onto."""
        if address not in self._storage_groups:
            raise KeyError(f"no shard {address!r}")
        return self._storage_groups[address]

    def slo_verdicts(self) -> dict[str, dict]:
        """Per-shard SLO verdicts — the blast-radius view: a killed
        shard burns its own error budget while healthy shards' budgets
        stay intact (``docs/observability.md``)."""
        return {
            tier.address: tier.slo.verdict()
            for tier in self.tiers
            if tier.slo is not None
        }

    def segment_of(self, message: Message) -> int:
        """The segment a request addresses (header field or derived)."""
        segment_id = message.header.get("segment_id")
        if segment_id is None:
            segment_id = self.mapper.segment_of(message.header["block_id"])
        return segment_id

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Start every shard's worker pool (idempotent)."""
        for tier in self.tiers:
            tier.start()

    def _client_ports(self, tier: typing.Any) -> list:
        """The tier's unique client-facing network ports, any flavor."""
        ports, seen = [], set()
        for index in range(getattr(tier, "n_ports", 1)):
            port = tier._endpoint_for_port(index).port
            if id(port) not in seen:
                seen.add(id(port))
                ports.append(port)
        return ports

    def attach_ledger(self, ledger: typing.Any) -> typing.Any:
        """Attach a FlowLedger to every shard's client-facing port(s)."""
        for tier in self.tiers:
            for port in self._client_ports(tier):
                ledger.attach(port)
        return ledger

    def ingress_points(self, address: str) -> tuple:
        """The shard's FlowLedger rx point names — port naming is
        per-flavor (``shard0.port`` vs the SmartDS ``shard0.port0``), so
        conservation checks should ask rather than guess."""
        return tuple(
            f"{port.name}.rx" for port in self._client_ports(self.tier(address))
        )

    def fail_shard_storage(self, address: str) -> None:
        """Crash every storage server in `address`'s replica group."""
        for server in self.storage_group(address):
            server.fail()

    def recover_shard_storage(self, address: str) -> None:
        """Recover `address`'s replica group."""
        for server in self.storage_group(address):
            server.recover()

    def __repr__(self) -> str:
        return (
            f"<ShardedCluster {self.design!r} shards={len(self.tiers)} "
            f"storage={'partitioned' if self.partition_storage else 'shared'}>"
        )
