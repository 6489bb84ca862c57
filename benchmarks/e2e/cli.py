"""Command line of the end-to-end benchmark.

    python -m benchmarks.e2e [--workloads a,b] [--seed N] [--runs K | --seconds S]
                             [--trace 0|1] [--trace-dir DIR] [--out FILE]
    python -m benchmarks.e2e compare A.jsonl B.jsonl

Each repetition of each workload runs in its own fresh interpreter
(``benchmarks.e2e.worker``), one after another. The metric names, units
and bounds come from ``BENCHMARK.json`` at the repository root; the seed-1
digests and the recorded baseline from ``baseline.json`` beside this file.
The last line printed for a workload is its result as one JSON object.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = ROOT / "BENCHMARK.json"
BASELINE = HERE / "baseline.json"

#: Seconds of measured time one repetition takes, roughly; ``--seconds``
#: is turned into a repetition count with it.
REPETITION_SECONDS = 3.5
MIN_RUNS = 3

#: Repetitions whose reference kernel ran this much slower than in the
#: run's fastest repetition are left out of the host-time metrics.
HEAVY_SLOWDOWN = 1.25

#: A worker that takes longer than this is killed and the run fails.
WORKER_TIMEOUT = 150


class BenchmarkError(Exception):
    """The benchmark could not run (as opposed to: outputs were wrong)."""


def spawn(workload: str, seed: int, profile: pathlib.Path | None = None) -> dict:
    """Run one repetition in a fresh interpreter; returns its record."""
    command = [sys.executable, "-m", "benchmarks.e2e.worker", workload, str(seed)]
    if profile is not None:
        command += ["--profile", str(profile)]
    try:
        done = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT
        )
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{workload}: worker ran over {WORKER_TIMEOUT} s") from None
    if done.returncode != 0:
        raise BenchmarkError(
            f"{workload}: worker exited {done.returncode}\n{done.stderr.strip()[-3000:]}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def steady(runs: list[dict]) -> list[dict]:
    """The repetitions that ran within `HEAVY_SLOWDOWN` of the run's
    fastest reference-kernel speed.

    In a heavy slowdown the reference kernel and the simulator slow by
    different amounts, so scaling such a repetition would misstate its
    speed.
    """
    fastest = max(run["to_reference"] for run in runs)
    return [run for run in runs if run["to_reference"] * HEAVY_SLOWDOWN >= fastest]


def host_seconds(runs: list[dict]) -> float:
    """Host seconds of the measured phase, at the reference speed.

    Each repetition's slices are scaled to the reference speed (see
    ``measure.reference_kernel``); then, for each slice of identical
    work, the fastest repetition counts. The scaling removes drifts of
    the whole host; the slice-wise minimum removes stalls shorter than a
    run, without dropping any of the work.
    """
    slices = [[s * run["to_reference"] for s in run["slices"]] for run in runs]
    if len({len(s) for s in slices}) != 1:
        raise BenchmarkError("repetitions split into different slice counts")
    return sum(min(column) for column in zip(*slices))


def summarize(runs: list[dict], traced: dict | None = None, digest: str | None = None) -> dict:
    """Fold repetition records (and an optional traced one) into metrics.

    End-to-end timings come from the untraced `runs` only; the traced
    record contributes the per-layer profile fold. `digest` is the
    expected ``sim_digest``, when one is recorded for this seed.
    """
    errors = [error for run in runs for error in run["errors"]]
    exact = runs[0]["exact"]
    for other in runs[1:] + ([traced] if traced else []):
        if other["exact"] != exact:
            errors.append("exact metrics differ between repetitions of one seed")
            break
    if digest is not None and exact["sim_digest"] != digest:
        errors.append(f"sim_digest {exact['sim_digest']} differs from the recorded {digest}")
    timed = steady(runs)
    wall = host_seconds(timed)
    first = runs[0]
    end_to_end = {
        "sim_req_per_s": first["requests"] / wall,
        "setup_s": statistics.median(run["setup_s"] * run["to_reference"] for run in timed),
        "peak_rss_mb": statistics.median(run["peak_rss_mb"] for run in runs),
        **{key: value for key, value in exact.items() if key not in ("samples", "sim_digest")},
    }
    layers = {}
    if traced is not None:
        layers = {
            **first["counters"],
            **traced["layers"],
            "sim.host_ns_per_event": wall / max(1, first["events"]) * 1e9,
            "trace.overhead": traced["measured_s"] / first["measured_s"],
        }
    return {
        "end_to_end": end_to_end,
        "host_speed": statistics.median(run["to_reference"] for run in runs),
        "layers": layers,
        "exact": exact,
        "errors": errors,
        "attempted": sum(run["attempted"] for run in runs),
    }


def select(values: dict, declared: list[dict]) -> dict:
    """The declared metrics, each with its unit, in declaration order."""
    missing = [entry["name"] for entry in declared if entry["name"] not in values]
    if missing:
        raise BenchmarkError(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    return {
        entry["name"]: {"value": values[entry["name"]], "unit": entry["unit"]}
        for entry in declared
    }


def provenance(seed: int) -> dict:
    """What produced a result, well enough to run it again."""
    revision = "unknown"
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            )
            revision = done.stdout.strip() or revision
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "seed": seed,
        "git": revision,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "env": {key: value for key, value in sorted(os.environ.items()) if key.startswith("REPRO_")},
    }


def report(workload: str, summary: dict, spec: dict, meta: dict, runs: int) -> None:
    """Human-readable lines for one workload."""
    print(f"{workload}: seed {meta['seed']}, {runs} run(s), git {meta['git'][:12]}, "
          f"Python {meta['python']}, {meta['platform']}, env {meta['env'] or '{}'}")
    print(f"  host speed {summary['host_speed']:.3f} of the reference; host times below "
          f"are scaled to the reference speed")
    values = summary["end_to_end"]
    for entry in spec["end_to_end"]:
        name = entry["name"]
        note = f"  ({summary['exact']['samples']} samples)" if name.endswith("_us") else ""
        print(f"  {name:<18} {values[name]:>14.6g} {entry['unit']:<10} "
              f"bound {entry['bound']:.0%}{note}")
    print(f"  {'fail_frac':<18} {values['fail_frac']:>14.6g}")
    print(f"  {'sim_digest':<18} {summary['exact']['sim_digest']}")
    for name, value in summary["layers"].items():
        print(f"  {name:<36} {value:>14.6g}")
    for error in summary["errors"][:20]:
        print(f"  CHECK FAILED: {error}")


def run_benchmark(args: argparse.Namespace) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        raise BenchmarkError(f"no repro sources under {ROOT / 'src'}")
    # Workers then load bytecode, whether or not the environment lets
    # imports write it, so set-up time does not include compiling.
    for package in (ROOT / "src" / "repro", HERE):
        compileall.compile_dir(package, quiet=1)
    spec = json.loads(SPEC.read_text())
    baseline = json.loads(BASELINE.read_text())
    known = [entry["name"] for entry in spec["workloads"]]
    names = args.workloads.split(",") if args.workloads else known
    unknown = [name for name in names if name not in known]
    if unknown:
        raise BenchmarkError(f"unknown workloads {unknown}; have {', '.join(known)}")
    runs = args.runs
    if args.seconds is not None:
        runs = max(MIN_RUNS, round(args.seconds / REPETITION_SECONDS))
    trace_dir = pathlib.Path(args.trace_dir)
    if args.trace:
        trace_dir.mkdir(parents=True, exist_ok=True)
    meta = provenance(args.seed)
    digests = baseline["digests"] if args.seed == baseline["seed"] else {}
    failed_any = False
    for name in names:
        if args.trace:
            # One untraced repetition for the host-time base, one traced.
            records = [spawn(name, args.seed)]
            traced = spawn(name, args.seed, profile=trace_dir / f"{name}.pstats")
        else:
            records = [spawn(name, args.seed) for _ in range(runs)]
            traced = None
        summary = summarize(records, traced, digests.get(name))
        if traced is not None:
            (trace_dir / f"{name}.layers.json").write_text(
                json.dumps({"workload": name, "meta": meta, "layers": summary["layers"]}, indent=1)
            )
        report(name, summary, spec, meta, len(records))
        if args.out:
            with open(args.out, "a") as out:
                out.write(json.dumps({
                    "workload": name,
                    "runs": len(records),
                    "meta": meta,
                    "metrics": summary["end_to_end"],
                    "exact": summary["exact"],
                    "layers": summary["layers"],
                    "errors": summary["errors"],
                }) + "\n")
        values = summary["layers"] if args.trace else summary["end_to_end"]
        declared = spec["per_layer"] if args.trace else spec["end_to_end"]
        failed_any |= bool(summary["errors"])
        print(json.dumps({
            "correct": not summary["errors"],
            "attempted": summary["attempted"],
            "failed": len(summary["errors"]),
            "metrics": select(values, declared),
        }), flush=True)
    return 1 if failed_any else 0


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e",
        description="End-to-end benchmark of the simulated SmartDS datapath "
        "(`python -m benchmarks.e2e compare A.jsonl B.jsonl` compares two --out files).",
    )
    parser.add_argument("--workloads", "--workload", help="comma-separated (default: all five)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--runs", type=int, default=MIN_RUNS, help="repetitions per workload")
    parser.add_argument(
        "--seconds",
        type=float,
        help=f"measured seconds to spend per workload; sets --runs to one per "
        f"{REPETITION_SECONDS} s, at least {MIN_RUNS}",
    )
    parser.add_argument(
        "--trace",
        type=int,
        choices=(0, 1),
        default=0,
        help="1: one untraced and one cProfile-traced repetition; print per-layer metrics",
    )
    parser.add_argument(
        "--trace-dir",
        default=str(ROOT / ".e2e_trace"),
        help="where --trace 1 writes the .pstats and folded per-layer JSON",
    )
    parser.add_argument("--out", help="append one JSON record per workload to this file")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be >= 1")
    return args


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        if argv[:1] == ["compare"]:
            from benchmarks.e2e.compare import compare

            if len(argv) != 3:
                print("usage: python -m benchmarks.e2e compare A.jsonl B.jsonl", file=sys.stderr)
                return 2
            return compare(pathlib.Path(argv[1]), pathlib.Path(argv[2]), json.loads(SPEC.read_text()))
        return run_benchmark(parse_args(argv))
    except (BenchmarkError, OSError, ValueError) as error:
        print(f"e2e benchmark: {error}", file=sys.stderr)
        return 2
