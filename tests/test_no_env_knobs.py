"""Module rules for everything under ``src/repro``.

- No module reads ``os.environ`` or calls ``os.getenv``: behaviour is
  chosen by spec fields, not hidden environment variables. Tests and
  benchmark scripts may still read their own variables
  (``REPRO_DRAIN_AUDIT``, ``REPRO_FAULT_SEED``).
- No module imports ``benchmarks``: the benchmarks drive the library,
  never the other way round.
- One request issuer: ``RequestClient`` (``repro/workloads/generators.py``)
  is the only place that matches replies to requests. No other module
  under ``src/repro``, ``tests`` or ``examples`` touches its
  ``_reply_events``, and no other module in ``repro.workloads`` or
  ``repro.compute`` opens a port or endpoint or runs a reply loop.
- One reply matcher on the tier: in ``repro.core`` and
  ``repro.middletier`` only ``ResponseMatcher`` reads ``in_reply_to``.
- One way out of the tier: in ``repro.core`` and ``repro.middletier``
  only ``MiddleTierServer._reply`` builds a ``write_reply`` or
  ``read_reply``.
- One replicated-write path: no module in ``repro.middletier`` builds a
  ``write_request`` message (only VMs send those), and only
  ``middletier/base.py`` assigns an entry of ``_block_locations``.
- Every field of every spec dataclass in ``repro.params`` is read
  somewhere under ``src/repro``: a field nothing reads is a knob that
  changes nothing.
- Designs as data: the write front half (``_handle_write``) and the leg
  runner live in ``middletier/base.py``; no design defines
  ``_engine_compress`` or ``_decompress_cost``, and only SmartDS
  (``core/server.py``) overrides ``_compress_and_complete``. The 7x
  decompression figure is spelled only in ``compression/model.py``.
"""

import ast
import dataclasses
import pathlib

import pytest

import repro
import repro.params

_ENV_NAMES = {"environ", "environb", "getenv", "getenvb"}


_PACKAGE = pathlib.Path(repro.__file__).parent
_REPO = _PACKAGE.parent.parent
_REQUEST_ISSUER = _PACKAGE / "workloads" / "generators.py"


def _modules(*roots: pathlib.Path) -> list[tuple[pathlib.Path, ast.Module]]:
    paths = sorted(path for root in roots or (_PACKAGE,) for path in root.rglob("*.py"))
    assert paths, f"no modules found under {roots or _PACKAGE}"
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


def _references(path: pathlib.Path, tree: ast.Module, names: set[str]) -> list[str]:
    """Every attribute (``x.name``) or bare name in `names` the module uses."""
    return [
        f"{path}:{node.lineno}: {name}"
        for node in ast.walk(tree)
        if (name := getattr(node, "attr", getattr(node, "id", None))) in names
    ]


@pytest.mark.parametrize(
    "roots,names",
    [
        # Reply matching: no hand-made round trip anywhere.
        (("src/repro", "tests", "examples"), {"_reply_events"}),
        # Transport set-up and reply loops of the request issuers.
        (("src/repro/workloads", "src/repro/compute"), {"NetworkPort", "RoceEndpoint", "recv"}),
    ],
    ids=["reply-matching", "transport"],
)
def test_only_the_request_client_issues_requests(roots, names):
    modules = _modules(*(_REPO / root for root in roots))
    offenders = [
        hit
        for path, tree in modules
        if path != _REQUEST_ISSUER
        for hit in _references(path, tree, names)
    ]
    assert not offenders, "outside RequestClient:\n  " + "\n  ".join(offenders)


def test_only_the_response_matcher_reads_in_reply_to():
    modules = _modules(_PACKAGE / "core", _PACKAGE / "middletier")
    hits = [
        f"{path}:{node.lineno}"
        for path, tree in modules
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and node.value == "in_reply_to"
    ]
    assert len(hits) == 1 and "middletier/base.py" in hits[0], (
        "tier-side in_reply_to reads:\n  " + "\n  ".join(hits)
    )


def test_only_the_tier_reply_routine_builds_client_replies():
    kinds = {"write_reply", "read_reply"}
    base = _PACKAGE / "middletier" / "base.py"
    hits = []
    for path, tree in _modules(_PACKAGE / "core", _PACKAGE / "middletier"):
        allowed = {
            id(node)
            for function in ast.walk(tree)
            if path == base and isinstance(function, ast.FunctionDef) and function.name == "_reply"
            for node in ast.walk(function)
        }
        hits += [
            f"{path}:{node.lineno}: {node.value!r}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and node.value in kinds and id(node) not in allowed
        ]
    assert not hits, "client replies built outside _reply:\n  " + "\n  ".join(hits)


def _write_request_builds(path: pathlib.Path, tree: ast.Module) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if getattr(func, "id", getattr(func, "attr", None)) != "Message":
            continue
        kinds = [keyword.value for keyword in node.keywords if keyword.arg == "kind"]
        kinds += node.args[:1]
        if any(isinstance(kind, ast.Constant) and kind.value == "write_request" for kind in kinds):
            found.append(f"{path}:{node.lineno}: Message(kind='write_request')")
    return found


def _block_location_writes(path: pathlib.Path, tree: ast.Module) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            if (
                isinstance(target, ast.Subscript)
                and getattr(target.value, "attr", getattr(target.value, "id", None))
                == "_block_locations"
            ):
                found.append(f"{path}:{node.lineno}: _block_locations[...] =")
    return found


def test_no_tier_module_builds_a_write_request():
    offenders = [
        hit
        for path, tree in _modules(_PACKAGE / "middletier")
        for hit in _write_request_builds(path, tree)
    ]
    assert not offenders, "tier-built write requests:\n  " + "\n  ".join(offenders)


def test_only_the_tier_base_records_block_locations():
    offenders = [
        hit
        for path, tree in _modules()
        if path != _PACKAGE / "middletier" / "base.py"
        for hit in _block_location_writes(path, tree)
    ]
    assert not offenders, "_block_locations writes outside base.py:\n  " + "\n  ".join(
        offenders
    )


def test_every_spec_field_is_read():
    """A field counts as read when some module under ``src/repro`` loads
    an attribute of its name; ``params.py``'s own properties count."""
    read = {
        node.attr
        for _path, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    specs = [
        cls
        for cls in vars(repro.params).values()
        if isinstance(cls, type)
        and dataclasses.is_dataclass(cls)
        and cls.__module__ == repro.params.__name__
    ]
    assert specs
    unread = [
        f"{cls.__name__}.{field.name}"
        for cls in specs
        for field in dataclasses.fields(cls)
        if field.name not in read
    ]
    assert not unread, "spec fields nothing reads:\n  " + "\n  ".join(unread)


def _function_defs(tree: ast.Module, names: set[str]) -> list[ast.FunctionDef]:
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name in names
    ]


def test_designs_declare_legs_instead_of_writing_the_write_path():
    base = _PACKAGE / "middletier" / "base.py"
    server = _PACKAGE / "core" / "server.py"
    offenders = []
    for path, tree in _modules(_PACKAGE / "middletier", _PACKAGE / "core"):
        # One write front half and one leg runner, both in the base.
        banned = {"_engine_compress", "_decompress_cost"}
        if path != base:
            banned.add("_handle_write")
        # SmartDS keeps its split-specific completion.
        if path not in (base, server):
            banned.add("_compress_and_complete")
        offenders += [
            f"{path}:{node.lineno}: def {node.name}" for node in _function_defs(tree, banned)
        ]
    assert not offenders, "per-design write/decompress hooks:\n  " + "\n  ".join(offenders)


def _sevenfold_literals(path: pathlib.Path, tree: ast.Module) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Mult, ast.Div)):
            operands = [node.left, node.right]
        elif isinstance(node, ast.Assign) and any(
            "DECOMPRESS" in getattr(target, "id", "").upper() for target in node.targets
        ):
            operands = [node.value]
        else:
            continue
        found += [
            f"{path}:{node.lineno}: {ast.unparse(node)}"
            for operand in operands
            if isinstance(operand, ast.Constant) and operand.value == 7
        ]
    return found


def test_the_decompression_speedup_is_spelled_once():
    """The §2.2.3 "decompression is ~7x faster" figure lives only in
    ``compression/model.py`` (``DECOMPRESSION_SPEEDUP``)."""
    model = _PACKAGE / "compression" / "model.py"
    offenders = [
        hit for path, tree in _modules() if path != model for hit in _sevenfold_literals(path, tree)
    ]
    assert not offenders, "7x decompression figure outside model.py:\n  " + "\n  ".join(
        offenders
    )
    assert _sevenfold_literals(model, ast.parse(model.read_text()))
