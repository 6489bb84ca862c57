"""Schema validation for the runner's telemetry artifacts.

A hand-rolled structural checker (the project deliberately does not
depend on ``jsonschema``) with a list form: a one-element list spec
``[sub]`` means "array whose every item matches ``sub``".
``runner --flight/--slo/--profile`` refuse to write a document that
fails validation, and CI re-validates the artifacts it collects
(``.github/workflows/ci.yml``).
"""

from __future__ import annotations

import typing

_NUMBER = (int, float)

_SPAN = {
    "name": (str,),
    "span_id": (int,),
    "parent_id": (int, type(None)),
    "start_us": _NUMBER,
    "duration_us": _NUMBER,
    "outcome": (str,),
    "bytes": (int,),
}

_TRACE_RECORD = {
    "trace_id": (int,),
    "op": (str,),
    "start_us": _NUMBER,
    "duration_us": _NUMBER,
    "outcome": (str,),
    "reasons": [(str,)],
    "spans": [_SPAN],
}

FLIGHT_SPEC: dict = {
    "recorders": [
        {
            "capacity": (int,),
            "seen": (int,),
            "kept": (int,),
            "evicted": (int,),
            "kept_by_reason": dict,
            "records": [_TRACE_RECORD],
        }
    ],
}

_ALERT = {
    "t_us": _NUMBER,
    "slo": (str,),
    "kind": (str,),
    "window_us": _NUMBER,
    "burn_rate": _NUMBER,
    "threshold": _NUMBER,
    "bad_fraction": _NUMBER,
    "budget_remaining": _NUMBER,
    "traces": [_TRACE_RECORD],
}

SLO_SPEC: dict = {
    "monitors": [
        {
            "monitor": (str,),
            "slos": [
                {
                    "name": (str,),
                    "signal": (str,),
                    "op": (str,),
                    "target": _NUMBER,
                    "good": (int,),
                    "bad": (int,),
                    "bytes": (int,),
                    "budget_remaining": _NUMBER,
                }
            ],
            "verdict": dict,
            "alerts": [_ALERT],
        }
    ],
}

PROFILE_SPEC: dict = {
    "n_traces": (int,),
    "n_spans": (int,),
    "total_exclusive_us": _NUMBER,
    "components": [
        {
            "component": (str,),
            "spans": (int,),
            "inclusive_us": _NUMBER,
            "exclusive_us": _NUMBER,
            "share": _NUMBER,
        }
    ],
    "collapsed": [(str,)],
}


def _check(value: typing.Any, spec: typing.Any, path: str, problems: list[str]) -> None:
    if spec is dict:
        if not isinstance(value, dict):
            problems.append(f"{path}: expected object, got {type(value).__name__}")
        return
    if isinstance(spec, list):
        if not isinstance(value, list):
            problems.append(f"{path}: expected array, got {type(value).__name__}")
            return
        for index, item in enumerate(value):
            _check(item, spec[0], f"{path}[{index}]", problems)
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


def _validate(document: typing.Any, spec: dict, label: str) -> None:
    problems: list[str] = []
    _check(document, spec, "$", problems)
    if problems:
        raise ValueError(f"invalid {label} document:\n  " + "\n  ".join(problems))


def validate_flight(document: typing.Any) -> None:
    """Raise ``ValueError`` when `document` is not a valid --flight dump."""
    _validate(document, FLIGHT_SPEC, "flight")


def validate_slo(document: typing.Any) -> None:
    """Raise ``ValueError`` when `document` is not a valid --slo dump."""
    _validate(document, SLO_SPEC, "SLO")


def validate_profile(document: typing.Any) -> None:
    """Raise ``ValueError`` when `document` is not a valid --profile dump."""
    _validate(document, PROFILE_SPEC, "profile")
