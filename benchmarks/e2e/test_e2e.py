"""Smoke tests of the end-to-end benchmark: ``pytest benchmarks/e2e``.

Each workload runs in-process at a tiny scale, once plainly and once
under the profiler, so the whole suite takes seconds.
"""

import ast
import json
import pathlib
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from benchmarks.e2e import cli, measure  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: A few dozen requests per workload.
SCALE = 0.02


@pytest.fixture(scope="module", params=[entry["name"] for entry in SPEC["workloads"]])
def runs(request):
    plain = measure.run(request.param, seed=3, scale=SCALE)
    traced = measure.run(request.param, seed=3, scale=SCALE, trace=True)
    traced.pop("profile")
    return plain, traced


def test_every_declared_metric_is_emitted_with_its_unit(runs):
    plain, traced = runs
    summary = cli.summarize([plain], traced)
    assert summary["errors"] == []
    for values, declared in (
        (summary["end_to_end"], SPEC["end_to_end"]),
        (summary["layers"], SPEC["per_layer"]),
    ):
        emitted = cli.select(values, declared)
        assert list(emitted) == [entry["name"] for entry in declared]
        for entry in declared:
            assert emitted[entry["name"]]["unit"] == entry["unit"]
            assert isinstance(emitted[entry["name"]]["value"], (int, float))


def test_exact_metrics_and_digest_repeat(runs):
    plain, traced = runs
    assert plain["exact"] == traced["exact"]
    assert plain["counters"] == traced["counters"]
    assert plain["events"] == traced["events"]


def test_profile_fold_covers_the_measured_phase(runs):
    assert runs[1]["layers"]["trace.share_sum"] >= 0.95


def test_benchmark_uses_only_public_repro_names():
    for path in sorted(HERE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro"):
                names = [*node.module.split("."), *(alias.name for alias in node.names)]
            elif isinstance(node, ast.Import):
                names = [part for alias in node.names for part in alias.name.split(".")]
            elif isinstance(node, ast.Attribute):
                names = [node.attr.removeprefix("__")]
            else:
                continue
            private = [name for name in names if name.startswith("_")]
            assert not private, f"{path.name}:{node.lineno} uses {private}"
