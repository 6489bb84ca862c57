"""Module rules for everything under ``src/repro``.

- No module reads ``os.environ`` or calls ``os.getenv``: behaviour is
  chosen by spec fields, not hidden environment variables. Tests and
  benchmark scripts may still read their own variables
  (``REPRO_DRAIN_AUDIT``, ``REPRO_FAULT_SEED``).
- No module imports ``benchmarks``: the benchmarks drive the library,
  never the other way round.
"""

import ast
import pathlib

import repro

_ENV_NAMES = {"environ", "environb", "getenv", "getenvb"}


def _modules() -> list[tuple[pathlib.Path, ast.Module]]:
    package = pathlib.Path(repro.__file__).parent
    paths = sorted(package.rglob("*.py"))
    assert paths, f"no modules found under {package}"
    return [(path, ast.parse(path.read_text(), filename=str(path))) for path in paths]


def _env_reads(path: pathlib.Path, tree: ast.Module) -> list[str]:
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


def _benchmark_imports(path: pathlib.Path, tree: ast.Module) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        for name in names:
            if name.split(".")[0] == "benchmarks":
                found.append(f"{path}:{node.lineno}: imports {name}")
    return found


def test_no_module_under_src_repro_reads_the_environment():
    offenders = [hit for path, tree in _modules() for hit in _env_reads(path, tree)]
    assert not offenders, "environment reads in src/repro:\n  " + "\n  ".join(offenders)


def test_no_module_under_src_repro_imports_benchmarks():
    offenders = [hit for path, tree in _modules() for hit in _benchmark_imports(path, tree)]
    assert not offenders, "src/repro imports benchmarks:\n  " + "\n  ".join(offenders)
