"""Extension: sharded middle tier — scaling, churn, and blast radius.

The paper's testbed runs one middle-tier server (§5.1); this extension
scales the tier horizontally with the :mod:`repro.cluster` subsystem
(``docs/scaling.md``) and measures three things:

- **near-linear scaling**: a shard-count sweep (1 -> 8) of aggregate
  goodput under a segment-balanced write stream, with per-shard p99 and
  the cross-shard heat-imbalance metric per cell. Acceptance: >= 3.2x
  aggregate goodput at 4 shards vs 1, per-shard p99 within 2x of the
  single-shard baseline;
- **directory churn**: a write stream while shards leave and rejoin the
  directory and hot segments are re-pinned. Stale-map retries must
  converge — every request ends in a terminal status, and FlowLedger
  byte conservation holds per shard (client tx bytes for flow
  ``shard:<addr>`` equal that shard's rx bytes) — no lost or silently
  dropped requests;
- **blast radius**: with per-shard replica groups (partitioned
  storage), one shard's replicas are killed mid-sweep under an
  ``ext_chaos`` fault plan. Read availability must degrade *only* for
  that shard's segments while the other shards hold their p99.

Every cell is seeded and replayable.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.experiments.common import ExperimentResult
from repro.experiments.ext_chaos import build_fault_plan
from repro.params import DEFAULT_PLATFORM, ClusterSpec, PlatformSpec, SLOSpec
from repro.sim import Simulator
from repro.sim.debug import FlowLedger
from repro.telemetry.metrics import ratio
from repro.telemetry.reporting import format_table
from repro.telemetry.spans import REPLY_STATUSES
from repro.units import to_gbps, to_usec, usec
from repro.workloads import RoutingClient, WriteRequestFactory

#: Shard counts of the scale sweep.
SHARD_SWEEP = (1, 2, 4, 8)
#: Statuses a routed request is allowed to terminate with.
TERMINAL_STATUSES = REPLY_STATUSES
#: Acceptance bound: aggregate goodput at 4 shards vs 1 shard.
MIN_SPEEDUP_AT_4 = 3.2
#: Acceptance bound: per-shard p99 vs the single-shard baseline.
MAX_P99_RATIO = 2.0

#: Middle-tier flavor the cells run (any design name works).
DESIGN = "CPU-only"
N_WORKERS = 2
#: Active segments per shard; pinned round-robin so the sweep measures
#: scaling, not ring luck (the ring's own spread is reported alongside).
SEGMENTS_PER_SHARD = 4


def cluster_platform(
    n_shards: int, platform: PlatformSpec | None = None, **overrides: typing.Any
) -> PlatformSpec:
    """`platform` reconfigured for an `n_shards` cluster."""
    platform = platform or DEFAULT_PLATFORM
    spec = ClusterSpec(n_shards=n_shards, **overrides)
    return dataclasses.replace(platform, cluster=spec)


def _build_cluster(
    sim: Simulator,
    platform: PlatformSpec,
    partition_storage: bool = False,
):
    from repro.cluster import ShardedCluster

    return ShardedCluster(
        sim,
        platform,
        design=DESIGN,
        n_workers=N_WORKERS,
        partition_storage=partition_storage,
    )


def measure_scale_cell(n_shards: int, n_requests_per_shard: int, seed: int = 3) -> dict:
    """One sweep cell: balanced write stream over `n_shards` shards."""
    platform = cluster_platform(n_shards)
    sim = Simulator()
    cluster = _build_cluster(sim, platform)
    n_segments = SEGMENTS_PER_SHARD * n_shards
    ring_spread = cluster.directory.route_map().placement(range(n_segments))
    cluster.directory.rebalance(range(n_segments))
    factory = WriteRequestFactory(
        platform, seed=seed, spread_segments=n_segments
    )
    client = RoutingClient(
        sim, cluster, factory, concurrency=8 * n_shards, warmup_fraction=0.1
    )
    result = sim.run(until=client.run(n_requests_per_shard * n_shards))

    shard_p99_us = {
        address: to_usec(recorder.percentile(0.99))
        for address, recorder in client.shard_latency.items()
        if recorder.count
    }
    ring_counts = {address: 0 for address in cluster.addresses}
    for owner in ring_spread.values():
        ring_counts[owner] += 1
    return {
        "n_shards": n_shards,
        "requests": result.requests,
        "ok_requests": result.ok_requests,
        "goodput_gbps": to_gbps(result.throughput),
        "p99_us": to_usec(result.latency.percentile(0.99)),
        "shard_p99_us": shard_p99_us,
        "imbalance": cluster.directory.imbalance(),
        "ring_segments_per_shard": ring_counts,
        "stale_retries": client.stale_retries.value,
        "failures": len(result.failures),
    }


def measure_churn_cell(
    n_requests: int, seed: int = 5, n_shards: int = 4
) -> dict:
    """Writes under directory churn: shards leave/rejoin, segments re-pin.

    Proves convergence, terminal statuses, and per-shard byte
    conservation under stale-map retries.
    """
    platform = cluster_platform(n_shards)
    sim = Simulator()
    cluster = _build_cluster(sim, platform)
    n_segments = SEGMENTS_PER_SHARD * n_shards
    factory = WriteRequestFactory(platform, seed=seed, spread_segments=n_segments)
    client = RoutingClient(
        sim, cluster, factory, concurrency=8, warmup_fraction=0.0, seed=seed
    )
    ledger = FlowLedger(sim, name="cluster-churn")
    ledger.attach(client.port)
    cluster.attach_ledger(ledger)

    last = cluster.addresses[-1]
    hot = list(range(min(SEGMENTS_PER_SHARD, n_segments)))

    def churn() -> typing.Generator:
        for step in range(8):
            yield sim.timeout(usec(25))
            if step % 2 == 0:
                cluster.directory.remove_shard(last)
            else:
                cluster.directory.add_shard(last)
                # Migrate the hot segments to a rotating owner as well.
                target = cluster.addresses[(step // 2) % n_shards]
                for segment_id in hot:
                    cluster.directory.pin_segment(segment_id, target)

    sim.process(churn(), daemon=True)
    result = sim.run(until=client.run(n_requests))

    conserved = []
    for address in cluster.addresses:
        flow = f"shard:{address}"
        sent = ledger.total(flow, f"{client.address}.port.tx")
        received = ledger.total(flow, *cluster.ingress_points(address))
        conserved.append(sent == received)
    statuses_terminal = all(
        status in TERMINAL_STATUSES for _lba, status in result.failures
    )
    return {
        "n_shards": n_shards,
        "requests": result.requests,
        "ok_requests": result.ok_requests,
        "failures": len(result.failures),
        "stale_retries": client.stale_retries.value,
        "map_fetches": client.map_fetches.value,
        "route_exhausted": client.route_exhausted.value,
        "wrong_shard_replies": sum(
            tier.wrong_shard_replies.value for tier in cluster.tiers
        ),
        "directory_version": cluster.directory.version,
        "bytes_conserved_per_shard": all(conserved),
        "all_terminal": statuses_terminal,
    }


def measure_kill_cell(
    n_segments_per_shard: int = 2,
    blocks_per_segment: int = 8,
    seed: int = 11,
    n_shards: int = 4,
) -> dict:
    """Kill one shard's replica group mid-run; measure the blast radius.

    Storage is partitioned per shard. A healthy write phase places every
    block, then the victim shard's replicas crash (composed with an
    ``ext_chaos`` fault plan on its network endpoint) and every block is
    read back: reads of the victim's segments must degrade to
    ``unavailable`` (terminal) while every other shard's reads stay
    100% available with their p99 intact.

    Each shard carries its own read-availability SLO monitor
    (``platform.slos`` -> per-tier budgets, ``docs/observability.md``),
    so the blast radius shows up in the error-budget ledger too: the
    victim's budget is burned through while every healthy shard's
    budget stays fully intact.
    """
    # Shrink the read fail-over budget so the victim's reads give up in
    # simulated milliseconds, not the default 20 ms each.
    recovery = dataclasses.replace(
        DEFAULT_PLATFORM.recovery,
        read_max_attempts=2,
        read_attempt_timeout=usec(300),
        read_deadline=usec(900),
    )
    platform = dataclasses.replace(
        cluster_platform(n_shards),
        recovery=recovery,
        slos=(
            SLOSpec(
                name="read-availability",
                signal="availability",
                op="read",
                target=0.99,
            ),
        ),
    )
    sim = Simulator()
    cluster = _build_cluster(sim, platform, partition_storage=True)
    n_segments = n_segments_per_shard * n_shards
    cluster.directory.rebalance(range(n_segments))
    factory = WriteRequestFactory(platform, seed=seed, spread_segments=n_segments)
    client = RoutingClient(
        sim, cluster, factory, concurrency=8, warmup_fraction=0.0, seed=seed
    )
    n_blocks = n_segments * blocks_per_segment
    write_result = sim.run(until=client.run(n_blocks))

    victim = cluster.addresses[1]
    victim_segments = {
        segment_id
        for segment_id in range(n_segments)
        if cluster.directory.owner_of(segment_id) == victim
    }
    cluster.fail_shard_storage(victim)
    plan = build_fault_plan(seed, intensity=0.5)
    cluster.tier(victim).client_endpoint.fault_plan = plan

    written = sorted(
        lba for lba, _status in _written_lbas(factory, n_blocks, n_segments)
    )
    read_result = sim.run(until=client.run_reads(written, concurrency=8))
    cluster.recover_shard_storage(victim)

    by_shard: dict[str, dict[str, int]] = {
        address: {"reads": 0, "unavailable": 0} for address in cluster.addresses
    }
    failed_lbas = dict(read_result.failures)
    for lba in written:
        owner = cluster.directory.owner_of(cluster.mapper.segment_of(lba))
        by_shard[owner]["reads"] += 1
        if lba in failed_lbas:
            by_shard[owner]["unavailable"] += 1
    availability = {
        address: 1.0 - ratio(cell["unavailable"], cell["reads"])
        for address, cell in by_shard.items()
    }
    healthy_p99_us = {
        address: to_usec(recorder.percentile(0.99))
        for address, recorder in client.shard_latency.items()
        if address != victim and recorder.count
    }
    verdicts = cluster.slo_verdicts()
    healthy_budgets = {
        address: verdict["read-availability"]["budget_remaining"]
        for address, verdict in verdicts.items()
        if address != victim
    }
    return {
        "victim": victim,
        "victim_segments": sorted(victim_segments),
        "writes_ok": write_result.ok_requests,
        "reads": read_result.requests,
        "availability": availability,
        "victim_availability": availability[victim],
        "healthy_availability": min(
            value for address, value in availability.items() if address != victim
        ),
        "healthy_p99_us": healthy_p99_us,
        "slo_verdicts": verdicts,
        "victim_slo_violated": not verdicts[victim]["read-availability"]["met"],
        "healthy_slos_met": all(
            verdict["read-availability"]["met"]
            for address, verdict in verdicts.items()
            if address != victim
        ),
        "healthy_budget_min": min(healthy_budgets.values()),
        "fault_plan": plan.describe(),
    }


def _written_lbas(
    factory: WriteRequestFactory, n_blocks: int, n_segments: int
) -> list[tuple[int, str]]:
    """The LBAs a `spread_segments` factory placed for `n_blocks` writes."""
    blocks_per_segment = (
        factory.platform.storage.segment_bytes // factory.platform.workload.block_size
    )
    lbas = []
    for index in range(n_blocks):
        lba = (index % n_segments) * blocks_per_segment + index // n_segments
        lbas.append((lba, "ok"))
    return lbas


def run(quick: bool = False, platform: PlatformSpec | None = None) -> ExperimentResult:
    """Shard-count sweep + directory churn + blast-radius cell."""
    del platform  # cells derive their own cluster platforms
    shard_counts = SHARD_SWEEP[:3] if quick else SHARD_SWEEP
    per_shard = 64 if quick else 160

    cells = [measure_scale_cell(n, per_shard) for n in shard_counts]
    baseline = cells[0]
    rows = []
    for cell in cells:
        speedup = ratio(cell["goodput_gbps"], baseline["goodput_gbps"])
        worst_shard_p99 = max(cell["shard_p99_us"].values())
        rows.append(
            [
                cell["n_shards"],
                round(cell["goodput_gbps"], 2),
                f"{speedup:.2f}x",
                round(cell["p99_us"], 1),
                round(worst_shard_p99, 1),
                f"{cell['imbalance']:.2f}",
                cell["stale_retries"],
                cell["failures"],
            ]
        )
    sweep_table = format_table(
        [
            "shards",
            "goodput (Gb/s)",
            "speedup",
            "p99 (us)",
            "worst shard p99 (us)",
            "imbalance",
            "stale",
            "failures",
        ],
        rows,
    )

    four = next((cell for cell in cells if cell["n_shards"] == 4), None)
    speedup_at_4 = (
        ratio(four["goodput_gbps"], baseline["goodput_gbps"]) if four else None
    )
    p99_ratio_at_4 = (
        ratio(max(four["shard_p99_us"].values()), baseline["p99_us"]) if four else None
    )

    churn = measure_churn_cell(n_requests=96 if quick else 240)
    kill = measure_kill_cell(n_segments_per_shard=2, blocks_per_segment=4 if quick else 8)

    text = (
        f"{sweep_table}\n\n"
        f"aggregate goodput at 4 shards: {speedup_at_4:.2f}x of 1 shard "
        f"(bound: >= {MIN_SPEEDUP_AT_4}x); worst per-shard p99 at 4 shards: "
        f"{p99_ratio_at_4:.2f}x of the single-shard baseline "
        f"(bound: <= {MAX_P99_RATIO}x)\n\n"
        f"directory churn ({churn['stale_retries']} stale retries over "
        f"{churn['requests']} writes, directory v{churn['directory_version']}): "
        f"failures={churn['failures']}, route_exhausted={churn['route_exhausted']}, "
        f"per-shard byte conservation={'ok' if churn['bytes_conserved_per_shard'] else 'VIOLATED'}\n\n"
        f"blast radius (killed {kill['victim']}'s replicas): victim read "
        f"availability {kill['victim_availability']:.0%}, healthy shards "
        f"{kill['healthy_availability']:.0%}\n"
        f"per-shard SLO budgets: victim read-availability violated="
        f"{kill['victim_slo_violated']}, healthy shards met="
        f"{kill['healthy_slos_met']} "
        f"(min healthy budget remaining {kill['healthy_budget_min']:.0%})"
    )
    return ExperimentResult(
        experiment_id="ext_cluster",
        title="Sharded middle tier: scaling, churn, blast radius (docs/scaling.md)",
        text=text,
        data={
            "cells": cells,
            "speedup_at_4": speedup_at_4,
            "p99_ratio_at_4": p99_ratio_at_4,
            "churn": churn,
            "kill": kill,
        },
    )
