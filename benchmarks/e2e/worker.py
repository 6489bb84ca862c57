"""One measured repetition of one workload, in a fresh interpreter.

``python -m benchmarks.e2e.worker WORKLOAD SEED [--profile FILE]`` sets
up the workload, measures it once, and prints one JSON record on
stdout. The orchestrator (``python -m benchmarks.e2e``) starts one of
these per repetition, one after another.
"""

import time

#: Set-up time counts from here: before ``repro`` is imported.
STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import sys  # noqa: E402

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e.worker")
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("--profile", help="run under cProfile and dump pstats here")
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from benchmarks.e2e import measure

    record = measure.run(
        args.workload, args.seed, trace=args.profile is not None, started=STARTED
    )
    stats = record.pop("profile", None)
    if stats is not None:
        stats.dump_stats(args.profile)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
