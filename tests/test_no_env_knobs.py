"""No module under ``src/repro`` reads ``os.environ`` or calls ``os.getenv``.

Behaviour is chosen by spec fields, not hidden environment variables.
Tests and benchmark scripts may still read their own variables
(``REPRO_DRAIN_AUDIT``, ``REPRO_FAULT_SEED``).
"""

import ast
import pathlib

import repro

_ENV_NAMES = {"environ", "environb", "getenv", "getenvb"}


def _env_reads(path: pathlib.Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in _ENV_NAMES
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
        ):
            found.append(f"{path}:{node.lineno}: os.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            for alias in node.names:
                if alias.name in _ENV_NAMES:
                    found.append(f"{path}:{node.lineno}: from os import {alias.name}")
    return found


def test_no_module_under_src_repro_reads_the_environment():
    package = pathlib.Path(repro.__file__).parent
    modules = sorted(package.rglob("*.py"))
    assert modules, f"no modules found under {package}"
    offenders = [hit for path in modules for hit in _env_reads(path)]
    assert not offenders, "environment reads in src/repro:\n  " + "\n  ".join(offenders)
