"""Every public name under ``src/repro`` earns its place.

- Every public module-level function and class, and every public method
  of such a class, is referenced by name from ``src``, ``examples`` or
  ``benchmarks`` (the tests under ``benchmarks``, ``test_*.py`` and
  ``conftest.py``, do not count), unless :data:`ALLOWED` names it with its reason. A reference
  is a name or attribute load, or a string constant spelling the name
  (a dotted leg such as ``"fpga_pcie.dma_read"``, a ``getattr`` key). An
  import, an ``__all__`` entry or a docstring is not a reference: a name
  only tests call is code nothing runs.
- One replica chooser: only ``MiddleTierServer._choose``
  (``middletier/base.py``) ranks storage servers by their outstanding
  writes.
"""

import ast
import pathlib
import re

import repro

_PACKAGE = pathlib.Path(repro.__file__).parent
_REPO = _PACKAGE.parent.parent
_DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")

#: Public names nothing outside tests references, each kept on purpose.
ALLOWED = {
    # The debugging API (docs/debugging.md), for tests and throwaway drivers.
    "DrainAuditor": "drain audit of leaked slots and stuck processes (docs/debugging.md)",
    "AuditReport.by_kind": "groups a drain audit's findings (docs/debugging.md)",
    "FlowLedger.assert_balanced": "one-shot byte-conservation check (docs/debugging.md)",
    "FlowLedger.flows": "lists the flows a ledger saw (docs/debugging.md's FlowLedger)",
    "Tracer": "the event tracer (docs/debugging.md, docs/api.md)",
    "Tracer.between": "the event tracer's time-window query",
    "Tracer.format": "the event tracer's text dump",
    "live_simulators": "the drain-audit fixture in tests/conftest.py finds each test's simulators",
    # Reads the tests use to observe state that the model keeps.
    "Simulator.peek": "next live event time; kernel tests check withdrawn timers through it",
    "BandwidthServer.busy_lanes": "lane occupancy; the lane-scheduler tests read it",
    "ChunkStore.snapshot_blocks": "the one reader of a snapshot; tests check it survives GC",
    "SkewedReadFactory.expected_frequency": "the Zipf law the sampler tests compare against",
    # Documented library API with no caller in the experiments yet.
    "SegmentDirectory.segment_heat": "input of the heat-driven rebalancer (ROADMAP item 12)",
    "FlightRecorder.arm_auto_dump": "dump-on-exit of the flight recorder (docs/observability.md)",
    "format_series": "series twin of format_table (docs/api.md)",
    "generate_trace": "bursty trace source for OpenLoopDriver.replay (docs/api.md)",
}


def _trees(root: pathlib.Path) -> list[tuple[pathlib.Path, ast.Module]]:
    paths = sorted(root.rglob("*.py"))
    assert paths, f"no modules found under {root}"
    return [(path, ast.parse(path.read_text(), filename=str(path))) for path in paths]


def _public_definitions() -> dict[str, str]:
    """``{qualified name: "path:line"}`` of every public def under src/repro."""
    found = {}
    for path, tree in _trees(_PACKAGE):
        where = path.relative_to(_REPO)
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name[0] == "_":
                continue
            found[node.name] = f"{where}:{node.lineno}"
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef) and member.name[0] != "_":
                        found[f"{node.name}.{member.name}"] = f"{where}:{member.lineno}"
    return found


def _referenced_names() -> set[str]:
    names = set()
    roots = [_REPO / "src", _REPO / "examples", _REPO / "benchmarks"]
    for root in roots:
        for path, tree in _trees(root):
            if path.name.startswith("test_") or path.name == "conftest.py":
                continue
            # ``__all__`` entries and docstrings (bare string statements).
            skipped = {
                id(constant)
                for node in ast.walk(tree)
                if isinstance(node, ast.Assign)
                and any(getattr(target, "id", None) == "__all__" for target in node.targets)
                for constant in ast.walk(node.value)
            } | {
                id(node.value)
                for node in ast.walk(tree)
                if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            }
            for node in ast.walk(tree):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    names.add(node.attr)
                elif (
                    isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and id(node) not in skipped
                    and _DOTTED.fullmatch(node.value)
                ):
                    names.update(node.value.split("."))
    return names


def test_every_public_name_is_referenced_outside_tests():
    definitions = _public_definitions()
    referenced = _referenced_names()
    unused = [
        f"{where}: {name}"
        for name, where in sorted(definitions.items(), key=lambda item: item[1])
        if name.rpartition(".")[2] not in referenced and name not in ALLOWED
    ]
    assert not unused, (
        "public names only tests reach (delete them, or allowlist one with a reason):\n  "
        + "\n  ".join(unused)
    )


def test_the_allowlist_names_live_unreferenced_definitions():
    definitions = _public_definitions()
    referenced = _referenced_names()
    stale = [
        name
        for name in sorted(ALLOWED)
        if name not in definitions or name.rpartition(".")[2] in referenced
    ]
    assert not stale, f"allowlist entries that are gone or now referenced: {stale}"


_RANKING_CALLS = {"sorted", "sort", "min", "max", "nsmallest", "nlargest"}


def _rankers(tree: ast.Module) -> list[str]:
    """Functions and methods that sort or take min/max while reading an
    outstanding-write count (nested helpers fold into their parent)."""
    units = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            units.append((node.name, node))
        elif isinstance(node, ast.ClassDef):
            units.extend(
                (f"{node.name}.{member.name}", member)
                for member in node.body
                if isinstance(member, ast.FunctionDef)
            )
    found = []
    for name, unit in units:
        nodes = list(ast.walk(unit))
        ranks = any(
            isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) in _RANKING_CALLS
            for node in nodes
        )
        reads_load = any(
            getattr(node, "attr", getattr(node, "id", None)) in ("outstanding", "_outstanding")
            for node in nodes
        )
        if ranks and reads_load:
            found.append(name)
    return found


def test_only_the_tier_chooser_ranks_storage_servers():
    rankers = sorted(
        f"{path.relative_to(_PACKAGE)}: {name}"
        for path, tree in _trees(_PACKAGE)
        for name in _rankers(tree)
    )
    assert rankers == ["middletier/base.py: MiddleTierServer._choose"], rankers
