"""CLI: run the perf harness and emit a schema-validated BENCH_*.json.

Usage (from the repository root)::

    PYTHONPATH=src python -m benchmarks.perf --output BENCH_10.json
    PYTHONPATH=src python -m benchmarks.perf --quick   # CI-sized run

    # Print per-metric deltas of a fresh run against an older report:
    PYTHONPATH=src python -m benchmarks.perf --quick --compare BENCH_6.json

    # Compare two existing reports without re-running anything:
    PYTHONPATH=src python -m benchmarks.perf --input BENCH_10.json --compare BENCH_6.json
"""

from __future__ import annotations

import argparse
import json
import sys
import typing

from benchmarks.perf.harness import BENCH_ISSUE, run_benchmarks
from benchmarks.perf.schema import validate_bench


def _numeric_leaves(document: typing.Any, prefix: str = "") -> dict[str, float]:
    """Flatten a BENCH document to ``section.path -> number`` leaves."""
    leaves: dict[str, float] = {}
    if isinstance(document, dict):
        for key, value in document.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            leaves.update(_numeric_leaves(value, path))
    elif isinstance(document, (int, float)) and not isinstance(document, bool):
        leaves[prefix] = float(document)
    return leaves


def print_comparison(old: dict, new: dict, stream: typing.TextIO = sys.stdout) -> None:
    """Print per-metric deltas between two BENCH documents.

    Every numeric leaf present in both documents (``meta`` excluded) is
    printed as ``old -> new`` with the new/old ratio, so regressions in
    any section — including ones without a legacy twin baked into the
    harness, like decompress before schema v2 — are visible at a glance.
    """
    old_issue = old.get("meta", {}).get("issue", "?")
    new_issue = new.get("meta", {}).get("issue", "?")
    stream.write(f"comparing BENCH issue {old_issue} -> issue {new_issue}\n")
    old_leaves = _numeric_leaves({k: v for k, v in old.items() if k != "meta"})
    new_leaves = _numeric_leaves({k: v for k, v in new.items() if k != "meta"})
    shared = [path for path in new_leaves if path in old_leaves]
    if not shared:
        stream.write("  (no shared numeric metrics)\n")
        return
    width = max(len(path) for path in shared)
    for path in shared:
        before, after = old_leaves[path], new_leaves[path]
        ratio = f"{after / before:7.2f}x" if before else "      - "
        stream.write(f"  {path:<{width}}  {before:>14,.2f} -> {after:>14,.2f}  {ratio}\n")
    only_new = sorted(set(new_leaves) - set(old_leaves))
    if only_new:
        stream.write(f"  new metrics (no baseline): {', '.join(only_new)}\n")


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
    parser.add_argument(
        "--compare",
        metavar="OLD.json",
        help="after the run, print per-metric deltas against this older report",
    )
    parser.add_argument(
        "--input",
        metavar="NEW.json",
        help="skip the run; load this report instead (requires --compare)",
    )
    args = parser.parse_args(argv)

    if args.input:
        if not args.compare:
            parser.error("--input only makes sense together with --compare")
        with open(args.input) as handle:
            document = json.load(handle)
        with open(args.compare) as handle:
            old = json.load(handle)
        print_comparison(old, document)
        return 0

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
    for name, events_per_sec in summary["macro_events_per_sec"].items():
        print(f"  macro {name:<13} {events_per_sec:,.0f} events/s")
    print(f"  harness time        {summary['harness_seconds']:.1f}s")

    if args.compare:
        with open(args.compare) as handle:
            old = json.load(handle)
        print()
        print_comparison(old, document)
    return 0


if __name__ == "__main__":
    sys.exit(main())
