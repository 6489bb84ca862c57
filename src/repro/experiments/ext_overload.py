"""Extension: goodput plateaus (not cliffs) under sustained overload.

The DPU-datapath literature (PAPERS.md: Sun et al., Lovelock) shows
NIC-hosted services collapse non-linearly once their queues saturate:
every queued request blows its budget, times out, and the retry traffic
multiplies the very load that caused the problem. This extension drives
the SmartDS tier with an open-loop (Poisson) write stream swept past its
measured saturation point and shows that with the admission subsystem
(``repro.middletier.admission``, ``docs/robustness.md``) enabled:

- **goodput plateaus**: served bytes/s at 2x the saturation rate stays
  within 10% of the peak across the sweep, instead of collapsing;
- **p99-of-admitted stays bounded**: requests that are *not* shed
  complete within a small multiple of the configured latency budget —
  the tail is bounded by early shedding, not stretched by queueing;
- **every request terminates**: each offered request ends in exactly one
  of ok / shed / unavailable / not_found — no silent hangs (the drain
  auditor in the test suite re-checks this cell);
- **the tier recovers**: after an overload storm composed with an
  ``ext_chaos`` fault plan, a calm wave is served cleanly and the
  brownout ladder returns to full service.

Every cell is seeded and replayable.
"""

from __future__ import annotations

import dataclasses

from repro.core import SmartDsMiddleTier
from repro.experiments.common import ExperimentResult
from repro.experiments.ext_chaos import build_fault_plan
from repro.middletier import HeartbeatMonitor, Testbed
from repro.params import (
    DEFAULT_PLATFORM,
    AdmissionSpec,
    FlightSpec,
    PlatformSpec,
    SLOSpec,
)
from repro.sim import Simulator
from repro.telemetry.metrics import ratio
from repro.telemetry.reporting import format_table
from repro.telemetry.spans import REPLY_STATUSES, SpanCollector
from repro.units import msec, to_usec, usec
from repro.workloads import ClientDriver, OpenLoopDriver, WriteRequestFactory

#: Offered-load multipliers of the measured saturation rate.
MULTIPLIERS = (0.5, 0.75, 1.0, 1.5, 2.0)
#: Fault seed for the recovery leg (first of ext_chaos's FAULT_SEEDS).
FAULT_SEED = 11
#: Statuses a request is allowed to terminate with: this experiment is
#: unrouted, so a routing bounce is an error.
TERMINAL_STATUSES = REPLY_STATUSES - {"wrong_shard"}
#: Bounded-tail criterion: p99 of *admitted* requests must stay under
#: this multiple of the admission latency budget at 2x saturation.
P99_BUDGET_MULTIPLE = 3.0

#: The admission tuning this experiment runs under: a tight latency
#: budget and queue target so protection engages well inside the sweep.
EXPERIMENT_ADMISSION = dict(
    enabled=True,
    initial_credits=64,
    min_credits=8,
    max_credits=128,
    latency_budget=usec(500),
    adapt_interval=usec(200),
    queue_target=32,
)

#: The SLOs this experiment watches (``docs/observability.md``): write
#: availability and write p99-under-threshold (the admission latency
#: budget times the bounded-tail multiple), both with a 1 ms fast /
#: 5 ms slow burn window so the page-grade alert can fire inside a
#: sweep point. Every shed consumes error budget, so at 2x saturation
#: the fast-burn alert trips *while goodput is still on its plateau* —
#: the monitor pages before throughput degrades, not after.
EXPERIMENT_SLOS = (
    SLOSpec(
        name="write-availability",
        signal="availability",
        op="write",
        target=0.99,
        window=msec(20),
        fast_window=msec(1),
        slow_window=msec(5),
    ),
    SLOSpec(
        name="write-p99",
        signal="latency",
        op="write",
        target=0.99,
        latency_threshold=usec(1500),
        window=msec(20),
        fast_window=msec(1),
        slow_window=msec(5),
    ),
)


def overload_platform(
    platform: PlatformSpec | None = None, **overrides
) -> PlatformSpec:
    """`platform` with admission control, the experiment SLOs, and a
    flight recorder enabled (plus admission-spec `overrides`)."""
    platform = platform or DEFAULT_PLATFORM
    merged = dict(EXPERIMENT_ADMISSION)
    merged.update(overrides)
    return dataclasses.replace(
        platform,
        admission=AdmissionSpec(**merged),
        slos=EXPERIMENT_SLOS,
        flight=FlightSpec(enabled=True),
    )


def calibrate_saturation(
    platform: PlatformSpec, n_requests: int, seed: int = 3
) -> float:
    """The tier's saturation throughput in requests/second.

    Measured closed-loop (64 outstanding requests — past the knee where
    added concurrency buys only queueing, not throughput) on an
    admission-*disabled* twin of `platform`, so the sweep's multipliers
    are anchored to the raw service capacity, not to a shed-limited
    rate.
    """
    baseline = dataclasses.replace(
        platform, admission=AdmissionSpec(enabled=False), slos=(), flight=FlightSpec()
    )
    sim = Simulator()
    testbed = Testbed(sim, baseline, n_storage_servers=5)
    tier = SmartDsMiddleTier(sim, testbed, n_ports=1)
    driver = ClientDriver(
        sim,
        tier,
        WriteRequestFactory(baseline, seed=seed),
        concurrency=64,
        warmup_fraction=0.1,
    )
    result = sim.run(until=driver.run(n_requests))
    return result.requests / result.duration


def measure_point(
    offered_rate: float,
    n_requests: int,
    platform: PlatformSpec,
    fault_plan=None,
    seed: int = 7,
) -> dict:
    """One open-loop sweep point at `offered_rate` requests/second."""
    sim = Simulator()
    # The flight recorder and SLO trace capture need span trees; reuse
    # a TraceSession's collector when one is installed (runner --trace/
    # --flight), otherwise attach a private one.
    if getattr(sim, "_span_collector", None) is None:
        SpanCollector(sim)
    testbed = Testbed(sim, platform, n_storage_servers=5)
    tier = SmartDsMiddleTier(sim, testbed, n_ports=1, fault_plan=fault_plan)
    monitor = HeartbeatMonitor(sim, tier, interval=msec(1), timeout=msec(1), seed=seed)
    driver = OpenLoopDriver(
        sim,
        tier,
        WriteRequestFactory(platform, seed=seed),
        offered_rate=offered_rate,
        warmup_fraction=0.1,
        seed=seed,
    )
    result = sim.run(until=driver.run(n_requests))
    sim.run(until=sim.now + msec(5))  # drain recovery timers
    monitor.stop()
    admission = tier.admission
    statuses = {"ok"} if result.ok_requests else set()
    statuses.update(status for _lba, status in result.failures)
    summary = result.latency.maybe_summary()
    slo = tier.slo
    flight = tier.flight
    #: Root outcomes of the traces the availability alerts captured —
    #: the evidence a fast-burn page ships with.
    alert_trace_outcomes = (
        sorted(
            {
                record.outcome
                for alert in slo.alerts
                for record in alert.traces
            }
        )
        if slo is not None
        else []
    )
    return {
        "offered_rate": offered_rate,
        "offered": n_requests,
        "answered": len(driver._samples),
        "measured": result.requests,
        "ok": result.ok_requests,
        "goodput": result.throughput,
        "p99_us": to_usec(summary["p99"]) if summary else float("nan"),
        "shed": 0 if admission is None else admission.shed_total,
        "shed_fraction": ratio(
            sum(1 for _lba, status in result.failures if status == "shed"),
            result.requests,
        ),
        "statuses": sorted(statuses),
        "brownout_transitions": 0
        if admission is None
        else admission.brownout.transitions.value,
        "short_circuits": 0 if admission is None else admission.short_circuits.value,
        "fast_burn_alerts": 0
        if slo is None
        else len(slo.alerts_for("write-availability", "fast_burn")),
        "slow_burn_alerts": 0
        if slo is None
        else len(slo.alerts_for("write-availability", "slow_burn")),
        "slo_verdict": None if slo is None else slo.verdict(),
        "alert_trace_outcomes": alert_trace_outcomes,
        "flight_kept": 0 if flight is None else flight.traces_kept,
        "flight_anomalous": 0
        if flight is None
        else len(flight.anomalous_records()),
    }


def measure_recovery(
    saturation: float, n_requests: int, platform: PlatformSpec, seed: int = 7
) -> dict:
    """Overload storm composed with a chaos fault plan, then a calm wave.

    The storm offers 2x saturation while the ``ext_chaos`` fault plan
    injects loss bursts / PCIe stalls / an engine slowdown; after a
    settling gap, a calm wave at 0.5x saturation must be served cleanly
    and the brownout ladder must be back at full service.
    """
    plan = build_fault_plan(FAULT_SEED, 1.0)
    sim = Simulator()
    if getattr(sim, "_span_collector", None) is None:
        SpanCollector(sim)
    testbed = Testbed(sim, platform, n_storage_servers=5)
    tier = SmartDsMiddleTier(sim, testbed, n_ports=1, fault_plan=plan)
    monitor = HeartbeatMonitor(sim, tier, interval=msec(1), timeout=msec(1), seed=seed)
    factory = WriteRequestFactory(platform, seed=seed)
    storm_driver = OpenLoopDriver(
        sim,
        tier,
        factory,
        offered_rate=2.0 * saturation,
        address="storm",
        warmup_fraction=0.0,
        seed=seed,
    )
    storm = sim.run(until=storm_driver.run(n_requests))
    sim.run(until=sim.now + msec(3))  # let the storm drain and faults pass
    slo = tier.slo
    storm_fast_burn = (
        0 if slo is None else len(slo.alerts_for("write-availability", "fast_burn"))
    )
    #: Evidence the storm's page shipped: root outcomes of the traces
    #: captured by alerts that fired during the storm.
    storm_alert_outcomes = (
        sorted(
            {
                record.outcome
                for alert in slo.alerts
                for record in alert.traces
            }
        )
        if slo is not None
        else []
    )

    calm_driver = OpenLoopDriver(
        sim,
        tier,
        factory,
        offered_rate=0.5 * saturation,
        address="calm",
        warmup_fraction=0.0,
        seed=seed + 1,
    )
    calm = sim.run(until=calm_driver.run(max(16, n_requests // 4)))
    sim.run(until=sim.now + msec(5))
    monitor.stop()
    admission = tier.admission
    level_after = 0 if admission is None else admission.brownout.current_level()
    calm_ok_fraction = ratio(calm.ok_requests, calm.requests)
    flight = tier.flight
    return {
        "fault_plan": plan.describe(),
        "storm_fast_burn_alerts": storm_fast_burn,
        "storm_alert_trace_outcomes": storm_alert_outcomes,
        "slo_verdict": None if slo is None else slo.verdict(),
        "flight_kept": 0 if flight is None else flight.traces_kept,
        "flight_anomalous": 0 if flight is None else len(flight.anomalous_records()),
        "storm_ok": storm.ok_requests,
        "storm_requests": storm.requests,
        "storm_shed_fraction": ratio(
            sum(1 for _lba, status in storm.failures if status == "shed"),
            storm.requests,
        ),
        "calm_ok_fraction": calm_ok_fraction,
        "calm_requests": calm.requests,
        "level_after": level_after,
        "recovered": level_after == 0 and calm_ok_fraction >= 0.9,
    }


def run(quick: bool = False, platform: PlatformSpec | None = None) -> ExperimentResult:
    """Offered-load sweep past saturation + chaos-composed recovery."""
    platform = overload_platform(platform)
    # Long enough that sustained 2x load actually exceeds the latency
    # budget's Little's-law ceiling — a short burst is merely absorbed.
    n_requests = 600 if quick else 1500
    multipliers = (0.5, 1.0, 2.0) if quick else MULTIPLIERS

    saturation = calibrate_saturation(platform, max(96, n_requests // 2))

    points = []
    rows = []
    for multiplier in multipliers:
        point = measure_point(multiplier * saturation, n_requests, platform)
        point["multiplier"] = multiplier
        points.append(point)
        rows.append(
            [
                f"{multiplier:.2f}x",
                round(point["offered_rate"] / 1e3, 1),
                point["measured"],
                point["ok"],
                f"{point['goodput'] / 1e6:.1f}",
                round(point["p99_us"], 1),
                f"{point['shed_fraction']:.1%}",
                point["brownout_transitions"],
                f"{point['fast_burn_alerts']}/{point['slow_burn_alerts']}",
            ]
        )
    sweep_table = format_table(
        [
            "offered",
            "rate (kreq/s)",
            "measured",
            "ok",
            "goodput (MB/s)",
            "p99 adm (us)",
            "shed",
            "brownout",
            "burn alerts f/s",
        ],
        rows,
    )

    peak_goodput = max(point["goodput"] for point in points)
    at_2x = points[-1]
    plateau_ok = at_2x["goodput"] >= 0.9 * peak_goodput
    budget_us = to_usec(platform.admission.latency_budget)
    p99_bounded = at_2x["p99_us"] <= P99_BUDGET_MULTIPLE * budget_us
    all_terminal = all(
        set(point["statuses"]) <= TERMINAL_STATUSES for point in points
    )
    all_answered = all(point["answered"] == point["offered"] for point in points)

    # The storm must be long enough to overlap the fault plan's loss
    # bursts (they land ~1.7 ms in) or the recovery cell measures an
    # unperturbed tier; floor it even under --quick.
    recovery = measure_recovery(saturation, max(n_requests, 1500), platform)

    # SLO early warning (docs/observability.md). Two complementary
    # claims: (1) across the plain sweep, admission keeps both write
    # SLOs inside budget, so the page-grade fast-burn alert stays
    # *silent* — protected overload does not page; (2) when the tier
    # itself degrades (the chaos-composed storm sheds in earnest), the
    # fast-burn alert fires while goodput is still protected — the
    # operator hears about it from the burn rate, not from a
    # throughput collapse — and the page ships its evidence: the
    # flight-recorder ring captured at trip time holds the shed /
    # degraded traces that burned the budget.
    sweep_quiet = all(point["fast_burn_alerts"] == 0 for point in points)
    sweep_slos_met = all(
        all(entry["met"] for entry in point["slo_verdict"].values())
        for point in points
        if point["slo_verdict"] is not None
    )
    storm_pages = recovery["storm_fast_burn_alerts"] >= 1
    early_warning = storm_pages and plateau_ok and recovery["recovered"]
    alert_evidence = any(
        outcome in ("shed", "degraded", "failed")
        for outcome in recovery["storm_alert_trace_outcomes"]
    )

    text = (
        f"saturation (closed-loop, admission off): {saturation / 1e3:.1f} kreq/s\n\n"
        f"{sweep_table}\n\n"
        f"goodput at 2x saturation vs peak: "
        f"{ratio(at_2x['goodput'], peak_goodput):.1%} (plateau >= 90%: {plateau_ok})\n"
        f"p99 of admitted at 2x: {at_2x['p99_us']:.1f} us "
        f"(bound {P99_BUDGET_MULTIPLE:.0f}x budget = {P99_BUDGET_MULTIPLE * budget_us:.0f} us: "
        f"{p99_bounded})\n"
        f"every request answered with a terminal status: "
        f"{all_answered and all_terminal}\n"
        f"SLOs met across the sweep with zero fast-burn pages: "
        f"{sweep_slos_met and sweep_quiet} (protected overload does not page)\n"
        f"fast-burn pages during the degraded storm, goodput still "
        f"protected: {early_warning} "
        f"({recovery['storm_fast_burn_alerts']} page(s))\n"
        f"page shipped shed/degraded trace evidence: {alert_evidence} "
        f"(outcomes: {', '.join(recovery['storm_alert_trace_outcomes']) or 'none'}; "
        f"flight kept {recovery['flight_kept']} trace(s), "
        f"{recovery['flight_anomalous']} anomalous)\n\n"
        f"recovery after a chaos-composed storm "
        f"(plan: {recovery['fault_plan']}):\n"
        f"  storm shed fraction: {recovery['storm_shed_fraction']:.1%}, "
        f"calm ok fraction: {recovery['calm_ok_fraction']:.1%}, "
        f"ladder level after: {recovery['level_after']} "
        f"-> recovered: {recovery['recovered']}"
    )
    return ExperimentResult(
        experiment_id="ext_overload",
        title="Overload protection: goodput plateau, bounded tails, recovery",
        text=text,
        data={
            "saturation": saturation,
            "points": points,
            "peak_goodput": peak_goodput,
            "plateau_ok": plateau_ok,
            "p99_bounded": p99_bounded,
            "all_terminal": all_terminal,
            "all_answered": all_answered,
            "sweep_quiet": sweep_quiet,
            "sweep_slos_met": sweep_slos_met,
            "early_warning": early_warning,
            "alert_evidence": alert_evidence,
            "recovery": recovery,
        },
    )
