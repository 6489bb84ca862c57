"""Command-line runner: regenerate any (or all) paper artifacts.

Usage::

    smartds-repro all --quick
    smartds-repro fig7
    python -m repro.experiments.runner table1 fig10
"""

from __future__ import annotations

import argparse
import sys
import time
import typing

from repro.experiments import (
    ablations,
    ext_bluefield3,
    ext_cache,
    ext_chaos,
    ext_cluster,
    ext_load_latency,
    ext_maintenance,
    ext_multitenancy,
    ext_overload,
    ext_read_path,
    fig4_memory_interference,
    fig7_throughput_latency,
    fig8_bandwidth,
    fig9_interference,
    fig10_multiport,
    sec55_multi_nic,
    table1_pcie,
    table3_resources,
    validation,
)

EXPERIMENTS: dict[str, typing.Any] = {
    "ablations": ablations,
    "ext-bf3": ext_bluefield3,
    "ext_cache": ext_cache,
    "ext_chaos": ext_chaos,
    "ext_cluster": ext_cluster,
    "ext-load": ext_load_latency,
    "ext-maint": ext_maintenance,
    "ext-tenants": ext_multitenancy,
    "ext_overload": ext_overload,
    "ext-reads": ext_read_path,
    "table1": table1_pcie,
    "table3": table3_resources,
    "fig4": fig4_memory_interference,
    "fig7": fig7_throughput_latency,
    "fig8": fig8_bandwidth,
    "fig9": fig9_interference,
    "fig10": fig10_multiport,
    "sec55": sec55_multi_nic,
    "validate": validation,
}


def main(argv: typing.Sequence[str] | None = None) -> int:
    """Entry point for the ``smartds-repro`` script."""
    parser = argparse.ArgumentParser(
        prog="smartds-repro",
        description="Regenerate the SmartDS paper's tables and figures "
        "on the simulated testbed.",
    )
    # No argparse `choices`: with nargs="*" pre-3.12 argparse rejects an
    # empty selection against them, breaking the bare `--list` form.
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="experiment",
        help=f"which artifacts to regenerate: {', '.join(sorted(EXPERIMENTS))}, all",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="print the experiment registry with one-line descriptions and exit",
    )
    parser.add_argument(
        "--chart",
        action="store_true",
        help="also render ASCII charts for results that carry series data",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smaller sweeps and request counts (for smoke runs)",
    )
    parser.add_argument(
        "--json",
        metavar="FILE",
        help="dump all selected results to FILE as JSON (for external plotting)",
    )
    parser.add_argument(
        "--trace",
        metavar="FILE",
        help="record request spans for every simulator the selected experiments "
        "create and write a Chrome trace_event JSON to FILE (open in Perfetto); "
        "also prints the critical path of the most interesting request",
    )
    parser.add_argument(
        "--metrics",
        metavar="FILE",
        help="with --trace: also dump every registered metric series "
        "(counters, gauges + periodic samples, histograms) to FILE as JSON",
    )
    parser.add_argument(
        "--flight",
        metavar="FILE",
        help="arm a tail-sampling flight recorder on every simulator and write "
        "the kept (anomalous + sampled-healthy) traces to FILE as JSON "
        "(docs/observability.md)",
    )
    parser.add_argument(
        "--slo",
        metavar="FILE",
        help="watch the stock SLOs (availability, read p99) on every simulator "
        "and write error budgets, burn-rate alerts, and captured traces to FILE",
    )
    parser.add_argument(
        "--profile",
        metavar="FILE",
        help="fold every recorded span tree into component-level time "
        "attribution and write the collapsed-stack profile to FILE; also "
        "prints the latency-attribution table",
    )
    args = parser.parse_args(argv)

    if args.list:
        print(list_experiments())
        return 0
    if not args.experiments:
        parser.error("no experiments selected (try --list to see the registry)")
    unknown = [name for name in args.experiments if name != "all" and name not in EXPERIMENTS]
    if unknown:
        parser.error(
            f"unknown experiment(s): {', '.join(unknown)} (try --list to see the registry)"
        )

    if args.metrics and not args.trace:
        parser.error("--metrics requires --trace (the trace session owns the registries)")

    session = None
    if args.trace or args.flight or args.slo or args.profile:
        from repro.telemetry.spans import TraceSession

        flight_spec = None
        if args.flight or args.slo:
            # --slo implies a recorder so alerts can capture traces.
            from repro.params import FlightSpec

            flight_spec = FlightSpec(enabled=True)
        slo_specs = None
        if args.slo:
            from repro.telemetry.slo import DEFAULT_SLOS

            slo_specs = DEFAULT_SLOS
        session = TraceSession(flight=flight_spec, slo_specs=slo_specs).install()

    selected = sorted(EXPERIMENTS) if "all" in args.experiments else args.experiments
    results = []
    try:
        for name in selected:
            started = time.time()
            result = EXPERIMENTS[name].run(quick=args.quick)
            results.append(result)
            print(result.render())
            if args.chart:
                charts = render_charts(result)
                if charts:
                    print("\n" + charts)
            print(f"[{name} completed in {time.time() - started:.1f}s]\n")
    finally:
        if session is not None:
            session.uninstall()
    if args.json:
        from repro.experiments.export import dump_results

        dump_results(results, args.json)
        print(f"[wrote {len(results)} result(s) to {args.json}]")
    if session is not None:
        if args.trace:
            session.write_chrome_trace(args.trace)
            print(
                f"[wrote {session.total_spans} span(s) across {session.total_traces} "
                f"request trace(s) to {args.trace}]"
            )
            interesting = session.interesting_trace()
            if interesting is not None:
                collector, trace_id = interesting
                print("critical path of the most interesting request:")
                print(collector.format_critical_path(trace_id))
        if args.metrics:
            from repro.experiments.export import dump_metrics

            dump_metrics(session.registries, args.metrics)
            print(f"[wrote {len(session.registries)} metric registr(ies) to {args.metrics}]")
        if args.flight:
            from repro.experiments.export import dump_flight

            dump_flight(session.flights, args.flight)
            kept = sum(recorder.traces_kept for recorder in session.flights)
            print(f"[wrote {kept} kept trace(s) from {len(session.flights)} "
                  f"flight recorder(s) to {args.flight}]")
        if args.slo:
            from repro.experiments.export import dump_slo

            dump_slo(session.monitors, args.slo)
            alerts = sum(len(monitor.alerts) for monitor in session.monitors)
            print(f"[wrote {len(session.monitors)} SLO monitor(s), "
                  f"{alerts} alert(s) to {args.slo}]")
        if args.profile:
            from repro.experiments.export import dump_profile
            from repro.telemetry.profiler import SimProfile

            profile = SimProfile.from_session(session)
            dump_profile(profile, args.profile)
            print(f"[wrote profile of {profile.n_traces} trace(s) to {args.profile}]")
            print(profile.attribution_table())
    return 0


def list_experiments() -> str:
    """The registry, one line per experiment: key + docstring headline."""
    lines = []
    width = max(len(name) for name in EXPERIMENTS)
    for name in sorted(EXPERIMENTS):
        doc = (EXPERIMENTS[name].__doc__ or "").strip().splitlines()
        headline = doc[0].strip() if doc else "(no description)"
        lines.append(f"  {name:<{width}}  {headline}")
    return "available experiments:\n" + "\n".join(lines)


def render_charts(result: typing.Any) -> str:
    """Render ASCII charts for any Series the result's data carries,
    plus a bar chart for per-design peak dictionaries."""
    from repro.telemetry.charts import bar_chart, line_chart
    from repro.telemetry.reporting import Series

    pieces = []
    series = [value for value in result.data.values() if isinstance(value, Series)]
    by_x: dict[tuple, list[Series]] = {}
    for one in series:
        by_x.setdefault(one.x, []).append(one)
    for group in by_x.values():
        pieces.append(line_chart(group, title=result.title))
    peaks = result.data.get("peaks_gbps")
    if isinstance(peaks, dict) and peaks:
        pieces.append(
            bar_chart(list(peaks), list(peaks.values()), title="peak throughput", unit="Gb/s")
        )
    return "\n\n".join(pieces)


if __name__ == "__main__":
    sys.exit(main())
