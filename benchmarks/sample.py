"""Where a workload's measured phase spends CPU time, and what a run holds.

Run from the repository root (``src/`` is found without PYTHONPATH)::

    python -m benchmarks.sample write_corpus              # layer and function shares
    python -m benchmarks.sample write_corpus --runs 3     # pool three fresh processes
    python -m benchmarks.sample write_synth --footprint   # peak RSS by phase, top allocation sites

The default mode samples the measured phase untraced: it asks for a
``SIGPROF`` tick every 1 ms of the process's own CPU time
(``ITIMER_PROF``), and each tick charges the frame that was running.
Time in the standard library, builtins and numpy goes to the nearest
frame of a layer (``benchmarks.e2e.measure.layer_of``). Each sample runs
in a fresh process, because a second measured phase in one interpreter
would find the compression memo warm; ``--runs`` pools several.

``--footprint`` prints the process's ``ru_maxrss`` after the imports,
after set-up and after the measured phase, then the allocation sites
that hold the most memory at the end of the phase. The sites come from
a second process run under ``tracemalloc``, which slows the run and
grows it, so the first process's figures stay untraced.
"""

from __future__ import annotations

import argparse
import collections
import json
import pathlib
import resource
import signal
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: Asked-for tick interval; some kernels deliver a tick only every few ms.
INTERVAL = 0.001
#: Functions or allocation sites listed.
TOP = 10
#: Workload seed, the one the recorded figures use.
SEED = 1


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def sample_once(workload: str, scale: float) -> dict:
    """Sample one measured phase in this process."""
    from benchmarks.e2e.measure import layer_of
    from benchmarks.e2e.workloads import WORKLOADS

    prepared = WORKLOADS[workload](SEED, scale)  # set-up runs unsampled
    layers: collections.Counter = collections.Counter()
    functions: collections.Counter = collections.Counter()

    def on_tick(_signum, frame):
        code = frame.f_code
        functions[getattr(code, "co_qualname", code.co_name)] += 1
        while frame is not None and layer_of(frame.f_code.co_filename) is None:
            frame = frame.f_back
        layers[layer_of(frame.f_code.co_filename) if frame else "other"] += 1

    signal.signal(signal.SIGPROF, on_tick)
    cpu = _cpu_s()
    signal.setitimer(signal.ITIMER_PROF, INTERVAL, INTERVAL)
    try:
        prepared.measure()
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
    return {"layers": layers, "functions": functions, "cpu_s": _cpu_s() - cpu}


def footprint_once(workload: str, scale: float) -> dict:
    """Peak RSS after the imports, after set-up and after the measured phase."""
    from benchmarks.e2e.workloads import WORKLOADS

    imports = _rss_mb()
    prepared = WORKLOADS[workload](SEED, scale)
    setup = _rss_mb()
    prepared.measure()
    return {
        "imports": imports,
        "setup": setup,
        "measured": _rss_mb(),
        "numpy_loaded": "numpy" in sys.modules,
    }


def allocations_once(workload: str, scale: float) -> dict:
    """The sites holding the most memory at the end of the measured phase."""
    import tracemalloc

    tracemalloc.start()
    from benchmarks.e2e.workloads import WORKLOADS

    prepared = WORKLOADS[workload](SEED, scale)
    prepared.measure()
    snapshot = tracemalloc.take_snapshot()
    tracemalloc.stop()
    stats = snapshot.statistics("lineno")
    sites = [
        {
            "site": f"{_short(stat.traceback[0].filename)}:{stat.traceback[0].lineno}",
            "kib": stat.size / 1024,
            "blocks": stat.count,
        }
        for stat in stats[:TOP]
    ]
    return {"total_kib": sum(stat.size for stat in stats) / 1024, "sites": sites}


def _short(filename: str) -> str:
    """A source path relative to the repository (or to site-packages)."""
    for anchor in (str(SRC) + "/", str(ROOT) + "/", "site-packages/"):
        head, sep, tail = filename.partition(anchor)
        if sep:
            return tail
    return filename


def _child(mode: str, args: argparse.Namespace) -> dict:
    """Run one `mode` measurement in a fresh interpreter."""
    command = [
        sys.executable,
        "-m",
        "benchmarks.sample",
        args.workload,
        "--scale",
        str(args.scale),
        "--child",
        mode,
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise SystemExit(done.stderr)
    return json.loads(done.stdout)


def _print_samples(runs: list[dict]) -> None:
    layers: collections.Counter = collections.Counter()
    functions: collections.Counter = collections.Counter()
    for run in runs:
        layers.update(run["layers"])
        functions.update(run["functions"])
    total = sum(layers.values()) or 1
    cpu = ", ".join(f"{run['cpu_s']:.2f}" for run in runs)
    print(f"{total} samples from {len(runs)} process(es); CPU s per phase: {cpu}")
    for name, count in layers.most_common():
        print(f"{name:12s} {count / total:6.1%}")
    for name, count in functions.most_common(TOP):
        print(f"  {name:48s} {count / total:6.1%}")


def _print_footprint(runs: list[dict], allocations: dict) -> None:
    print(f"peak RSS (ru_maxrss), MiB, {len(runs)} process(es)")
    for phase in ("imports", "setup", "measured"):
        values = " ".join(f"{run[phase]:8.2f}" for run in runs)
        print(f"  after {phase:9s} {values}")
    print(f"  numpy loaded: {' '.join(str(run['numpy_loaded']) for run in runs)}")
    print(
        "top sites held at the end of the phase (tracemalloc, separate run; "
        f"{allocations['total_kib'] / 1024:.2f} MiB traced)"
    )
    for site in allocations["sites"]:
        print(f"  {site['site']:56s} {site['kib']:9.1f} KiB {site['blocks']:8d} blocks")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.sample", description=__doc__.split("\n")[0]
    )
    parser.add_argument("workload")
    parser.add_argument("--scale", type=float, default=1.0, help="workload size factor")
    parser.add_argument("--runs", type=int, default=1, help="fresh processes to pool")
    parser.add_argument("--footprint", action="store_true", help="peak RSS and allocation sites")
    parser.add_argument("--child", choices=("sample", "rss", "alloc"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be >= 1")
    if args.child is not None:
        sys.path.insert(0, str(SRC))
        if args.child == "sample":
            record = sample_once(args.workload, args.scale)
        elif args.child == "rss":
            record = footprint_once(args.workload, args.scale)
        else:
            record = allocations_once(args.workload, args.scale)
        print(json.dumps(record))
        return 0
    if args.footprint:
        rss = [_child("rss", args) for _ in range(args.runs)]
        _print_footprint(rss, _child("alloc", args))
    else:
        _print_samples([_child("sample", args) for _ in range(args.runs)])
    return 0


if __name__ == "__main__":
    sys.exit(main())
