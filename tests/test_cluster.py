"""Tests for the sharded cluster: directory, routing, conservation.

Covers the ``docs/scaling.md`` subsystem end to end — consistent-hash
placement determinism and minimal disruption, versioned route maps with
overrides, the stale-map retry protocol (``wrong_shard`` replies),
1-shard equivalence with the undirected tier, per-shard FlowLedger
byte conservation under directory churn, and the partitioned-storage
blast-radius property.
"""

import dataclasses
import random

import pytest

from repro.cluster import RouteMap, SegmentDirectory, ShardedCluster, stable_hash
from repro.middletier import AddressMapper, CpuOnlyMiddleTier, Testbed
from repro.params import ClusterSpec, PlatformSpec
from repro.sim import Simulator
from repro.sim.debug import FlowLedger
from repro.storage.server import StorageServer
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.spans import SpanCollector
from repro.units import usec
from repro.workloads import ClientDriver, RoutingClient, WriteRequestFactory


def cluster_platform(n_shards, **overrides):
    return dataclasses.replace(
        PlatformSpec(), cluster=ClusterSpec(n_shards=n_shards, **overrides)
    )


def build_cluster(sim, n_shards, **kwargs):
    spec_kw = kwargs.pop("cluster_kw", {})
    platform = cluster_platform(n_shards, **spec_kw)
    return ShardedCluster(sim, platform, design="CPU-only", n_workers=2, **kwargs)


# ---------------------------------------------------------------------------
# SegmentDirectory
# ---------------------------------------------------------------------------


class TestSegmentDirectory:
    def test_stable_hash_is_process_independent(self):
        # blake2b, not salted hash(): fixed expectations hold across runs.
        assert stable_hash("segment:0") == stable_hash("segment:0")
        assert stable_hash("segment:0") != stable_hash("segment:1")

    def test_placement_is_deterministic_across_instances(self):
        shards = ["shard0", "shard1", "shard2"]
        a = SegmentDirectory(shards).route_map()
        b = SegmentDirectory(shards).route_map()
        segments = range(500)
        assert a.placement(segments) == b.placement(segments)

    def test_single_shard_owns_everything(self):
        directory = SegmentDirectory(["only"])
        assert all(directory.owner_of(s) == "only" for s in range(100))

    def test_vnodes_smooth_the_spread(self):
        directory = SegmentDirectory([f"shard{i}" for i in range(4)], vnodes_per_shard=128)
        route = directory.route_map()
        counts = {shard: 0 for shard in route.shards}
        n_segments = 4096
        for segment in range(n_segments):
            counts[route.owner_of(segment)] += 1
        mean = n_segments / 4
        # 128 vnodes/shard: relative arc-share error ~1/sqrt(128) ~ 9%.
        assert all(0.6 * mean < count < 1.4 * mean for count in counts.values())

    def test_remove_shard_moves_only_its_segments(self):
        # The minimal-disruption property, over seeded segment sets.
        rng = random.Random(17)
        shards = [f"shard{i}" for i in range(5)]
        directory = SegmentDirectory(shards)
        segments = sorted(rng.sample(range(100_000), 800))
        before = directory.route_map().placement(segments)
        directory.remove_shard("shard2")
        after = directory.route_map().placement(segments)
        for segment in segments:
            if before[segment] == "shard2":
                assert after[segment] != "shard2"
            else:
                assert after[segment] == before[segment]

    def test_add_shard_only_pulls_segments_to_the_newcomer(self):
        directory = SegmentDirectory(["shard0", "shard1", "shard2"])
        segments = range(2000)
        before = directory.route_map().placement(segments)
        directory.add_shard("shard3")
        after = directory.route_map().placement(segments)
        moved = {s for s in segments if after[s] != before[s]}
        assert moved  # the newcomer takes a share...
        assert all(after[s] == "shard3" for s in moved)  # ...and nothing else moves

    def test_every_mutation_bumps_the_version(self):
        directory = SegmentDirectory(["a", "b"])
        versions = [directory.version]
        directory.add_shard("c")
        versions.append(directory.version)
        directory.pin_segment(7, "a")
        versions.append(directory.version)
        directory.remove_shard("c")
        versions.append(directory.version)
        assert versions == sorted(set(versions))  # strictly increasing

    def test_route_map_snapshot_is_frozen_at_its_version(self):
        directory = SegmentDirectory(["a", "b"])
        stale = directory.route_map()
        directory.pin_segment(3, "b")
        assert stale.version < directory.version
        assert directory.owner_of(3) == "b"
        fresh = directory.route_map()
        assert fresh.overrides == {3: "b"}

    def test_overrides_beat_the_ring_and_vanish_with_their_shard(self):
        directory = SegmentDirectory(["a", "b", "c"])
        ring_owner = directory.owner_of(11)
        target = next(s for s in ("a", "b", "c") if s != ring_owner)
        directory.pin_segment(11, target)
        assert directory.owner_of(11) == target
        directory.remove_shard(target)
        assert directory.owner_of(11) != target  # pin dropped with the shard

    def test_noop_pin_does_not_churn_versions(self):
        directory = SegmentDirectory(["a", "b"])
        directory.pin_segment(5, "a")
        version = directory.version
        directory.pin_segment(5, "a")
        assert directory.version == version

    def test_rebalance_pins_round_robin(self):
        directory = SegmentDirectory(["a", "b", "c"])
        directory.rebalance(range(6))
        owners = [directory.owner_of(s) for s in range(6)]
        assert owners == ["a", "b", "c", "a", "b", "c"]

    def test_heat_and_imbalance(self):
        directory = SegmentDirectory(["a", "b"])
        directory.rebalance(range(2))  # segment 0 -> a, 1 -> b
        directory.record_heat(0, 3000)
        directory.record_heat(1, 1000)
        heat = directory.shard_heat()
        assert heat == {"a": 3000.0, "b": 1000.0}
        assert directory.imbalance() == pytest.approx(1.5)
        # Idle directory reads as balanced, and every member appears.
        idle = SegmentDirectory(["a", "b", "c"])
        assert idle.shard_heat() == {"a": 0.0, "b": 0.0, "c": 0.0}
        assert idle.imbalance() == 1.0

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            SegmentDirectory([])
        with pytest.raises(ValueError):
            SegmentDirectory(["a", "a"])
        with pytest.raises(ValueError):
            SegmentDirectory(["a"], vnodes_per_shard=0)
        directory = SegmentDirectory(["a", "b"])
        with pytest.raises(ValueError):
            directory.add_shard("a")
        with pytest.raises(ValueError):
            directory.remove_shard("zz")
        with pytest.raises(ValueError):
            directory.pin_segment(1, "zz")
        with pytest.raises(ValueError):
            directory.pin_segment(-1, "a")
        with pytest.raises(ValueError):
            directory.owner_of(-1)
        with pytest.raises(ValueError):
            directory.record_heat(0, -1)
        directory.remove_shard("b")
        with pytest.raises(ValueError):
            directory.remove_shard("a")  # never below one shard

    def test_route_map_repr_and_placement(self):
        route = SegmentDirectory(["a", "b"]).route_map()
        assert isinstance(route, RouteMap)
        assert set(route.placement([1, 2, 3]).values()) <= {"a", "b"}


# ---------------------------------------------------------------------------
# ClusterSpec
# ---------------------------------------------------------------------------


class TestClusterSpec:
    def test_defaults_bypass_the_directory(self):
        spec = ClusterSpec()
        assert spec.n_shards == 1 and spec.directory_bypassed

    def test_force_directory_disables_the_bypass(self):
        assert not ClusterSpec(force_directory=True).directory_bypassed
        assert not ClusterSpec(n_shards=2).directory_bypassed

    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterSpec(n_shards=0)
        with pytest.raises(ValueError):
            ClusterSpec(vnodes_per_shard=0)
        with pytest.raises(ValueError):
            ClusterSpec(map_fetch_latency=-1.0)
        with pytest.raises(ValueError):
            ClusterSpec(max_route_retries=0)


# ---------------------------------------------------------------------------
# AddressMapper segment arithmetic (routing unit)
# ---------------------------------------------------------------------------


class TestSegmentArithmetic:
    def test_segment_of_boundary_lbas(self):
        mapper = AddressMapper()
        per_segment = mapper.blocks_per_segment
        assert mapper.segment_of(0) == 0
        assert mapper.segment_of(per_segment - 1) == 0
        assert mapper.segment_of(per_segment) == 1
        assert mapper.segment_of(3 * per_segment - 1) == 2
        with pytest.raises(ValueError):
            mapper.segment_of(-1)

    def test_segment_of_matches_resolve(self):
        mapper = AddressMapper()
        for lba in (0, 1, mapper.blocks_per_segment, 5 * mapper.blocks_per_segment + 7):
            assert mapper.segment_of(lba) == mapper.resolve(lba).segment_id

    def test_blocks_per_segment_matches_paper(self):
        mapper = AddressMapper()
        assert mapper.blocks_per_segment == 32 * 1024**3 // 4096


# ---------------------------------------------------------------------------
# Testbed indexing (satellite: O(1) lookup, duplicate detection)
# ---------------------------------------------------------------------------


class TestTestbedIndex:
    def test_server_lookup_is_indexed(self):
        sim = Simulator()
        testbed = Testbed(sim, n_storage_servers=5)
        assert testbed.server("storage3") is testbed.storage_servers[3]
        with pytest.raises(KeyError):
            testbed.server("nope")

    def test_duplicate_addresses_rejected(self):
        sim = Simulator()
        platform = PlatformSpec()
        servers = [
            StorageServer(sim, "dup", network_spec=platform.network),
            StorageServer(sim, "dup", network_spec=platform.network),
            StorageServer(sim, "other", network_spec=platform.network),
        ]
        with pytest.raises(ValueError, match="duplicate storage server address"):
            Testbed(sim, platform, servers=servers)

    def test_explicit_servers_and_count_must_agree(self):
        sim = Simulator()
        platform = PlatformSpec()
        servers = [
            StorageServer(sim, f"s{i}", network_spec=platform.network) for i in range(3)
        ]
        with pytest.raises(ValueError, match="disagrees"):
            Testbed(sim, platform, n_storage_servers=4, servers=servers)
        testbed = Testbed(sim, platform, servers=servers)
        assert testbed.server("s1") is servers[1]


# ---------------------------------------------------------------------------
# End-to-end routing
# ---------------------------------------------------------------------------


def run_plain_driver(seed, n_requests=64, concurrency=8):
    sim = Simulator()
    testbed = Testbed(sim, PlatformSpec(), n_storage_servers=3)
    tier = CpuOnlyMiddleTier(sim, testbed, n_workers=2, address="shard0")
    driver = ClientDriver(
        sim, tier, WriteRequestFactory(PlatformSpec(), seed=seed), concurrency=concurrency
    )
    return sim.run(until=driver.run(n_requests))


def run_routed(seed, force, n_requests=64, concurrency=8):
    sim = Simulator()
    cluster = build_cluster(
        sim, 1, n_storage_servers=3, cluster_kw={"force_directory": force}
    )
    client = RoutingClient(
        sim,
        cluster,
        WriteRequestFactory(cluster.platform, seed=seed),
        concurrency=concurrency,
    )
    return sim.run(until=client.run(n_requests))


class TestSingleShardEquivalence:
    def test_bypassed_single_shard_is_byte_for_byte_identical(self):
        plain = run_plain_driver(seed=7)
        routed = run_routed(seed=7, force=False)
        assert routed.latency.samples == plain.latency.samples
        assert routed.payload_bytes == plain.payload_bytes
        assert routed.duration == plain.duration
        assert routed.failures == ()

    def test_forced_directory_single_shard_matches_to_float_precision(self):
        # The one startup map fetch shifts every request uniformly by
        # map_fetch_latency; per-request latency durations only differ
        # by float rounding of that offset.
        plain = run_plain_driver(seed=7)
        routed = run_routed(seed=7, force=True)
        assert len(routed.latency.samples) == len(plain.latency.samples)
        for ours, theirs in zip(routed.latency.samples, plain.latency.samples):
            assert ours == pytest.approx(theirs, abs=1e-12)

    def test_bypassed_mode_installs_no_guard(self):
        sim = Simulator()
        cluster = build_cluster(sim, 1, n_storage_servers=3)
        assert cluster.tiers[0].route_guard is None
        forced = ShardedCluster(
            Simulator(),
            cluster_platform(1, force_directory=True),
            design="CPU-only",
            n_workers=2,
            n_storage_servers=3,
        )
        assert forced.tiers[0].route_guard is not None


class TestRoutedCluster:
    def test_balanced_writes_spread_over_all_shards(self):
        sim = Simulator()
        registry = MetricsRegistry().attach(sim)
        cluster = build_cluster(sim, 4)
        cluster.directory.rebalance(range(16))
        factory = WriteRequestFactory(cluster.platform, seed=1, spread_segments=16)
        client = RoutingClient(sim, cluster, factory, concurrency=16)
        result = sim.run(until=client.run(128))
        assert result.failures == ()
        assert result.ok_requests == result.requests
        completed = {t.address: t.requests_completed.value for t in cluster.tiers}
        assert all(count > 0 for count in completed.values())
        assert cluster.directory.imbalance() == pytest.approx(1.0)
        # The cluster gauges are registered and sampleable.
        sample = registry.sample_now(sim.now)["gauges"]
        for address in cluster.addresses:
            assert sample[f"cluster.shard_heat{{component=cluster,shard={address}}}"] > 0
        assert sample["cluster.imbalance{component=cluster}"] == pytest.approx(1.0)

    def test_stale_map_retry_converges_after_directory_churn(self):
        sim = Simulator()
        collector = SpanCollector(sim)
        cluster = build_cluster(sim, 3)
        cluster.directory.rebalance(range(6))
        factory = WriteRequestFactory(cluster.platform, seed=2, spread_segments=6)
        client = RoutingClient(sim, cluster, factory, concurrency=4, warmup_fraction=0.0)

        def churn():
            yield sim.timeout(usec(30))
            cluster.directory.remove_shard(cluster.addresses[-1])
            yield sim.timeout(usec(60))
            cluster.directory.add_shard(cluster.addresses[-1])

        sim.process(churn(), daemon=True)
        result = sim.run(until=client.run(72))
        assert result.requests == 72
        assert result.failures == ()  # every bounced request converged
        assert client.stale_retries.value > 0
        assert client.map_fetches.value >= 2
        wrong = sum(t.wrong_shard_replies.value for t in cluster.tiers)
        assert wrong == client.stale_retries.value
        names = {span.name for span in collector.spans}
        assert "route.lookup" in names and "route.stale_retry" in names

    def test_per_shard_byte_conservation_under_churn(self):
        sim = Simulator()
        cluster = build_cluster(sim, 3)
        cluster.directory.rebalance(range(6))
        factory = WriteRequestFactory(cluster.platform, seed=4, spread_segments=6)
        client = RoutingClient(sim, cluster, factory, concurrency=4, warmup_fraction=0.0)
        ledger = FlowLedger(sim, name="shards")
        ledger.attach(client.port)
        cluster.attach_ledger(ledger)

        def churn():
            for _ in range(3):
                yield sim.timeout(usec(40))
                cluster.directory.remove_shard(cluster.addresses[-1])
                yield sim.timeout(usec(40))
                cluster.directory.add_shard(cluster.addresses[-1])

        sim.process(churn(), daemon=True)
        result = sim.run(until=client.run(72))
        assert result.failures == ()
        assert client.stale_retries.value > 0
        for address in cluster.addresses:
            flow = f"shard:{address}"
            sent = ledger.total(flow, f"{client.address}.port.tx")
            assert sent > 0
            points = cluster.ingress_points(address)
            assert points == (f"{address}.port.rx",)  # CPU-only naming
            ledger.assert_balanced(flow, [f"{client.address}.port.tx"], list(points))

    def test_route_budget_exhaustion_is_terminal_not_silent(self):
        sim = Simulator()
        cluster = build_cluster(sim, 2, cluster_kw={"max_route_retries": 2})
        # A guard that always disclaims ownership: every attempt bounces.
        for tier in cluster.tiers:
            other = next(a for a in cluster.addresses if a != tier.address)
            tier.route_guard = lambda message, owner=other: {
                "owner": owner,
                "map_version": cluster.directory.version,
            }
        factory = WriteRequestFactory(cluster.platform, seed=6, spread_segments=4)
        client = RoutingClient(
            sim, cluster, factory, concurrency=2, warmup_fraction=0.0
        )
        result = sim.run(until=client.run(4))
        assert result.requests == 4
        assert len(result.failures) == 4
        assert all(status == "wrong_shard" for _lba, status in result.failures)
        assert client.route_exhausted.value == 4
        assert client.stale_retries.value == 4 * 2  # max_route_retries per request

    @pytest.mark.parametrize("design", ["Acc", "BF2", "SmartDS-2"])
    def test_route_guard_covers_every_ingress_flavor(self, design):
        # Regression: SmartDS's AAMS mixed-recv (writes) and control
        # queue (reads) bypass the base _dispatch; both must still
        # consult the route guard or misrouted requests are silently
        # served off the stale map.
        sim = Simulator()
        platform = cluster_platform(2, max_route_retries=2)
        cluster = ShardedCluster(sim, platform, design=design, n_workers=2)
        for tier in cluster.tiers:
            other = next(a for a in cluster.addresses if a != tier.address)
            tier.route_guard = lambda message, owner=other: {
                "owner": owner,
                "map_version": 0,
            }
        factory = WriteRequestFactory(platform, seed=11, spread_segments=2)
        client = RoutingClient(sim, cluster, factory, concurrency=2, warmup_fraction=0.0)
        writes = sim.run(until=client.run(2))
        assert [status for _lba, status in writes.failures] == ["wrong_shard"] * 2
        reads = sim.run(until=client.run_reads([0, 1], concurrency=2))
        assert [status for _lba, status in reads.failures] == ["wrong_shard"] * 2
        wrong = sum(t.wrong_shard_replies.value for t in cluster.tiers)
        assert wrong == 4 * platform.cluster.max_route_retries

    def test_smartds_cluster_converges_after_churn(self):
        sim = Simulator()
        cluster = ShardedCluster(
            sim, cluster_platform(2), design="SmartDS-2", n_workers=2
        )
        cluster.directory.rebalance(range(4))
        factory = WriteRequestFactory(cluster.platform, seed=13, spread_segments=4)
        client = RoutingClient(sim, cluster, factory, concurrency=4, warmup_fraction=0.0)

        def churn():
            while True:
                yield sim.timeout(usec(15))
                cluster.directory.remove_shard("shard1")
                yield sim.timeout(usec(15))
                cluster.directory.add_shard("shard1")

        sim.process(churn(), daemon=True)
        ledger = FlowLedger(sim, name="smartds-churn")
        ledger.attach(client.port)
        cluster.attach_ledger(ledger)
        result = sim.run(until=client.run(48))
        assert result.requests == 48
        assert result.failures == ()
        assert client.stale_retries.value > 0
        # SmartDS port naming differs (`shard0.smartds.port0`, one point
        # per NIC port); ingress_points resolves it so conservation
        # still balances per shard.
        for address in cluster.addresses:
            points = cluster.ingress_points(address)
            assert points and all(p.startswith(f"{address}.") for p in points)
            ledger.assert_balanced(
                f"shard:{address}", [f"{client.address}.port.tx"], list(points)
            )

    def test_routed_reads_follow_the_directory(self):
        sim = Simulator()
        cluster = build_cluster(sim, 2)
        cluster.directory.rebalance(range(4))
        factory = WriteRequestFactory(cluster.platform, seed=8, spread_segments=4)
        client = RoutingClient(sim, cluster, factory, concurrency=4, warmup_fraction=0.0)
        sim.run(until=client.run(16))
        per_segment = cluster.mapper.blocks_per_segment
        written = [(i % 4) * per_segment + i // 4 for i in range(16)]
        reads = sim.run(until=client.run_reads(written, concurrency=4))
        assert reads.requests == 16
        assert reads.failures == ()
        assert reads.payload_bytes > 0


class TestPartitionedStorageBlastRadius:
    def test_killing_one_shards_replicas_only_degrades_its_segments(self):
        recovery = dataclasses.replace(
            PlatformSpec().recovery,
            read_max_attempts=2,
            read_attempt_timeout=usec(200),
            read_deadline=usec(500),
        )
        platform = dataclasses.replace(cluster_platform(2), recovery=recovery)
        sim = Simulator()
        cluster = ShardedCluster(
            sim, platform, design="CPU-only", n_workers=2, partition_storage=True
        )
        cluster.directory.rebalance(range(2))
        assert len(cluster.testbed.storage_servers) == 2 * platform.storage.replication
        assert set(cluster.storage_group("shard0")).isdisjoint(
            cluster.storage_group("shard1")
        )
        factory = WriteRequestFactory(platform, seed=9, spread_segments=2)
        client = RoutingClient(sim, cluster, factory, concurrency=4, warmup_fraction=0.0)
        sim.run(until=client.run(16))

        victim = "shard1"
        cluster.fail_shard_storage(victim)
        per_segment = cluster.mapper.blocks_per_segment
        written = [(i % 2) * per_segment + i // 2 for i in range(16)]
        reads = sim.run(until=client.run_reads(written, concurrency=4))
        cluster.recover_shard_storage(victim)

        victim_segment = next(
            s for s in range(2) if cluster.directory.owner_of(s) == victim
        )
        failed = dict(reads.failures)
        for lba in written:
            segment = cluster.mapper.segment_of(lba)
            if segment == victim_segment:
                assert failed.get(lba) == "unavailable"
            else:
                assert lba not in failed


class TestShardedClusterConstruction:
    def test_unknown_design_rejected(self):
        with pytest.raises(ValueError, match="unknown design"):
            ShardedCluster(Simulator(), cluster_platform(2), design="warp-drive")

    def test_lookup_helpers(self):
        sim = Simulator()
        cluster = build_cluster(sim, 2)
        assert cluster.tier("shard1") is cluster.tiers[1]
        with pytest.raises(KeyError):
            cluster.tier("shard9")
        with pytest.raises(KeyError):
            cluster.storage_group("shard9")
        assert cluster.addresses == ("shard0", "shard1")

    def test_wrong_shard_counter_registered(self):
        sim = Simulator()
        registry = MetricsRegistry().attach(sim)
        cluster = build_cluster(sim, 2)
        tier = cluster.tiers[0]
        series = registry.get(
            "tier.wrong_shard_replies",
            component="middletier",
            design=tier.design_name,
            address=tier.address,
        )
        assert series is tier.wrong_shard_replies

    def test_cluster_gauges_land_in_metrics_dump(self):
        sim = Simulator()
        registry = MetricsRegistry().attach(sim)
        cluster = build_cluster(sim, 2)
        cluster.directory.rebalance(range(4))
        entries = registry.to_dict()["series"]
        probes = {
            (entry["name"], tuple(sorted(entry["labels"].items()))): entry
            for entry in entries
            if entry["type"] == "probe"
        }
        for address in cluster.addresses:
            key = (
                "cluster.shard_heat",
                (("component", "cluster"), ("shard", address)),
            )
            assert key in probes
        assert probes[("cluster.imbalance", (("component", "cluster"),))][
            "value"
        ] == pytest.approx(cluster.directory.imbalance())
        assert probes[("cluster.map_version", (("component", "cluster"),))][
            "value"
        ] == float(cluster.directory.version)

    def test_departed_shard_heat_probe_reads_zero(self):
        # The churn cell of ext_cluster removes a shard while the gauge
        # sampler keeps reading every shard's probe.
        sim = Simulator()
        registry = MetricsRegistry().attach(sim)
        cluster = build_cluster(sim, 3)
        cluster.directory.rebalance(range(8))
        cluster.directory.remove_shard("shard2")
        gauges = registry.sample_now(sim.now)["gauges"]
        heat = {key: value for key, value in gauges.items() if "cluster.shard_heat" in key}
        assert len(heat) == 3
        departed = [value for key, value in heat.items() if "shard2" in key]
        assert departed == [0.0]
        assert sum(heat.values()) == pytest.approx(sum(cluster.directory.shard_heat().values()))

    def test_slo_accessors_without_platform_slos(self):
        sim = Simulator()
        cluster = build_cluster(sim, 2)
        assert cluster.slo_verdicts() == {}


class TestSpreadSegments:
    def test_factory_interleaves_lbas_across_segments(self):
        platform = PlatformSpec()
        factory = WriteRequestFactory(platform, spread_segments=4)
        per_segment = platform.storage.segment_bytes // platform.workload.block_size
        segments = [factory.make().header["segment_id"] for _ in range(8)]
        assert segments == [0, 1, 2, 3, 0, 1, 2, 3]
        factory2 = WriteRequestFactory(platform, spread_segments=4)
        lbas = [factory2.make().header["block_id"] for _ in range(8)]
        assert lbas == [0, per_segment, 2 * per_segment, 3 * per_segment, 1, per_segment + 1, 2 * per_segment + 1, 3 * per_segment + 1]

    def test_default_spread_is_the_sequential_stream(self):
        factory = WriteRequestFactory(PlatformSpec())
        assert [factory.make().header["block_id"] for _ in range(3)] == [0, 1, 2]
        with pytest.raises(ValueError):
            WriteRequestFactory(PlatformSpec(), spread_segments=0)
