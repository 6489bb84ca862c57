"""The repeatable speed program: microbenchmarks emitting BENCH_*.json.

Run locally with::

    PYTHONPATH=src python -m benchmarks.perf --output BENCH_6.json

See ``docs/performance.md`` for how to read the output and the baseline
numbers recorded by the PR that introduced this harness.
"""

from benchmarks.perf.harness import BENCH_ISSUE, run_benchmarks
from benchmarks.perf.schema import validate_bench

__all__ = ["BENCH_ISSUE", "run_benchmarks", "validate_bench"]
