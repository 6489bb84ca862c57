"""Smoke tests: the fast examples must run end to end.

These are the functional examples, which finish in about a second
each. The slower sweep examples (compare_middle_tiers, multiport_scaling,
interference_isolation) run in CI's ``sweep-examples`` job instead.
"""

import importlib.util
import pathlib
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"


def run_example(name):
    spec = importlib.util.spec_from_file_location(f"example_{name}", EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        module.main()
    finally:
        sys.modules.pop(spec.name, None)


@pytest.mark.parametrize(
    "name", ["quickstart", "custom_engine", "maintenance_services", "full_cloud"]
)
def test_example_runs_clean(name, capsys):
    run_example(name)
    out = capsys.readouterr().out
    assert out.strip(), f"{name} produced no output"
    # Every functional example self-verifies its data integrity.
    assert "verif" in out or "restored" in out or "replicas" in out
