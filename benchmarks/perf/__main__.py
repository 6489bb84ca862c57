"""CLI: run the perf harness and emit a schema-validated BENCH_*.json.

Usage (from the repository root)::

    PYTHONPATH=src python -m benchmarks.perf --output BENCH_10.json
    PYTHONPATH=src python -m benchmarks.perf --quick   # CI-sized run
"""

from __future__ import annotations

import argparse
import json
import sys

from benchmarks.perf.harness import BENCH_ISSUE, run_benchmarks
from benchmarks.perf.schema import validate_bench


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks.perf",
        description="Run the SmartDS-repro speed program and write BENCH_<issue>.json",
    )
    parser.add_argument(
        "--output",
        metavar="FILE",
        default=f"BENCH_{BENCH_ISSUE}.json",
        help="where to write the benchmark document (default: %(default)s)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smaller inputs and fewer repeats (noisier numbers, ~6x faster)",
    )
    args = parser.parse_args(argv)

    document = run_benchmarks(quick=args.quick)
    validate_bench(document)  # refuse to write a malformed document
    with open(args.output, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)

    summary = document["summary"]
    print(f"wrote {args.output}")
    print(f"  kernel             {summary['kernel_events_per_sec']:,.0f} events/s")
    print(
        f"  resource deep-queue {document['resource']['current_ops_per_sec']:,.0f} ops/s"
        f"  ({summary['resource_deep_queue_speedup']:.1f}x vs seed)"
    )
    lz4 = document["lz4"]
    print(
        f"  lz4 corpus          {lz4['compress_corpus_blocks']['current_mb_per_sec']:.2f} MB/s"
        f"  ({summary['lz4_compress_corpus_speedup']:.2f}x vs seed)"
    )
    print(
        f"  lz4 text            {lz4['compress_text_blocks']['current_mb_per_sec']:.2f} MB/s"
        f"  ({summary['lz4_compress_text_speedup']:.2f}x vs seed)"
    )
    print(
        f"  lz4 decompress      {lz4['decompress_corpus_blocks']['mb_per_sec']:.2f} MB/s"
        f"  ({summary['lz4_decompress_speedup']:.2f}x vs seed)"
    )
    print(f"  harness time        {summary['harness_seconds']:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
