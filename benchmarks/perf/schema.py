"""Schema validation for ``BENCH_*.json`` documents.

A small hand-rolled structural checker (the container deliberately has
no ``jsonschema`` dependency): the spec below mirrors JSON Schema's
``type``/``properties``/``required`` vocabulary closely enough that CI
and tests can reject malformed or truncated benchmark documents with a
precise path in the error message.
"""

from __future__ import annotations

import typing

_NUMBER = (int, float)

#: Leaf specs are type tuples; dict specs map key -> spec. Keys listed in
#: ``__optional__`` may be absent; all other keys are required. A spec of
#: ``dict`` (the type) admits any object — used for sections whose keys
#: are data-dependent.
_TIMING = {"events": _NUMBER, "seconds": _NUMBER, "events_per_sec": _NUMBER}

_COMPRESS_CLASS = {
    "input_bytes": _NUMBER,
    "current_mb_per_sec": _NUMBER,
    "legacy_mb_per_sec": _NUMBER,
    "speedup": _NUMBER,
    "compression_ratio": _NUMBER,
}

BENCH_SPEC: dict = {
    "meta": {
        "issue": (int,),
        "schema_version": (int,),
        "quick": (bool,),
        "python": (str,),
        "platform": (str,),
        "unix_time": _NUMBER,
    },
    "kernel": {
        "timeout_fanout": _TIMING,
        "process_chain": _TIMING,
    },
    "resource": {
        "depth": (int,),
        "queue_ops": (int,),
        "current_ops_per_sec": _NUMBER,
        "legacy_ops_per_sec": _NUMBER,
        "speedup": _NUMBER,
    },
    "store": {"items": (int,), "seconds": _NUMBER, "ops_per_sec": _NUMBER},
    "bandwidth": {
        "transfers": (int,),
        "fast_on_events": (int,),
        "fast_off_events": (int,),
        "event_reduction": _NUMBER,
        "fast_on_transfers_per_sec": _NUMBER,
        "fast_off_transfers_per_sec": _NUMBER,
        "wall_speedup": _NUMBER,
    },
    "lz4": {
        "block_size": (int,),
        "compress_text_blocks": _COMPRESS_CLASS,
        "compress_low_redundancy_blocks": _COMPRESS_CLASS,
        "compress_corpus_blocks": _COMPRESS_CLASS,
        "compress_stream": _COMPRESS_CLASS,
        "decompress_corpus_blocks": {
            "output_bytes": _NUMBER,
            "mb_per_sec": _NUMBER,
            "legacy_mb_per_sec": _NUMBER,
            "speedup": _NUMBER,
        },
    },
    "macro": dict,
    "summary": {
        "resource_deep_queue_speedup": _NUMBER,
        "lz4_compress_low_redundancy_speedup": _NUMBER,
        "lz4_compress_corpus_speedup": _NUMBER,
        "lz4_compress_text_speedup": _NUMBER,
        "lz4_decompress_speedup": _NUMBER,
        "bandwidth_event_reduction": _NUMBER,
        "kernel_events_per_sec": _NUMBER,
        "macro_events_per_sec": dict,
        "harness_seconds": _NUMBER,
    },
}


def _check(value: typing.Any, spec: typing.Any, path: str, problems: list[str]) -> None:
    if spec is dict:
        if not isinstance(value, dict):
            problems.append(f"{path}: expected object, got {type(value).__name__}")
        return
    if isinstance(spec, dict):
        if not isinstance(value, dict):
            problems.append(f"{path}: expected object, got {type(value).__name__}")
            return
        optional = spec.get("__optional__", ())
        for key, sub in spec.items():
            if key == "__optional__":
                continue
            if key not in value:
                if key not in optional:
                    problems.append(f"{path}.{key}: missing")
                continue
            _check(value[key], sub, f"{path}.{key}", problems)
        return
    # Leaf: a tuple of accepted types. bool is an int subclass — reject it
    # where a number is expected unless bool is listed explicitly.
    if isinstance(value, bool) and bool not in spec:
        problems.append(f"{path}: expected {_names(spec)}, got bool")
    elif not isinstance(value, spec):
        problems.append(f"{path}: expected {_names(spec)}, got {type(value).__name__}")


def _names(spec: tuple) -> str:
    return "/".join(t.__name__ for t in spec)


def validate_bench(document: typing.Any, spec: dict | None = None) -> None:
    """Raise ``ValueError`` listing every way `document` deviates from the spec."""
    problems: list[str] = []
    _check(document, spec or BENCH_SPEC, "$", problems)
    if problems:
        raise ValueError("invalid BENCH document:\n  " + "\n  ".join(problems))
