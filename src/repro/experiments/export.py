"""JSON export of experiment results.

Experiment data holds dataclasses (`Measurement`, `ScaleUpPoint`,
`ClaimCheck`), `Series`, and nested containers; this module converts any
result to plain JSON so external plotting/analysis pipelines can
consume ``smartds-repro ... --json out.json`` output.
"""

from __future__ import annotations

import dataclasses
import json
import typing

from repro.experiments.common import ExperimentResult
from repro.telemetry.reporting import Series


def jsonable(value: typing.Any) -> typing.Any:
    """Recursively convert experiment data into JSON-serializable form."""
    if isinstance(value, Series):
        return {"label": value.label, "x": list(value.x), "y": list(value.y)}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: jsonable(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {str(key): jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [jsonable(item) for item in value]
    if isinstance(value, float) and value in (float("inf"), float("-inf")):
        return None  # JSON has no infinities; sweep sentinels become null
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    # Anything exotic degrades to its repr rather than crashing the dump.
    return repr(value)


def result_to_dict(result: ExperimentResult) -> dict:
    """One experiment result as a JSON-ready dictionary."""
    return {
        "experiment_id": result.experiment_id,
        "title": result.title,
        "text": result.text,
        "data": jsonable(result.data),
    }


def dump_results(results: typing.Sequence[ExperimentResult], path: str) -> None:
    """Write results to `path` as a JSON document keyed by experiment id."""
    document = {result.experiment_id: result_to_dict(result) for result in results}
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)


def metrics_to_dict(registries: typing.Sequence[typing.Any]) -> dict:
    """Flat dump of every registry a :class:`TraceSession` collected.

    One entry per simulator the traced run created, in creation order;
    each is the registry's :meth:`~repro.telemetry.registry.MetricsRegistry.to_dict`
    (series values plus the periodic gauge samples).
    """
    return {"registries": [jsonable(registry.to_dict()) for registry in registries]}


def dump_metrics(registries: typing.Sequence[typing.Any], path: str) -> None:
    """Write :func:`metrics_to_dict` to `path` as JSON."""
    with open(path, "w") as handle:
        json.dump(metrics_to_dict(registries), handle, indent=2, sort_keys=True)


def dump_flight(recorders: typing.Sequence[typing.Any], path: str) -> None:
    """Write every flight recorder's ring to `path`, schema-validated.

    One entry per simulator's recorder, in creation order. The dump
    refuses to write a malformed document (``repro.telemetry.schemas``).
    """
    from repro.telemetry.schemas import validate_flight

    document = {"recorders": [recorder.to_dict() for recorder in recorders]}
    validate_flight(document)
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)


def dump_slo(monitors: typing.Sequence[typing.Any], path: str) -> None:
    """Write every SLO monitor's budgets/alerts to `path`, schema-validated."""
    from repro.telemetry.schemas import validate_slo

    document = {"monitors": [monitor.to_dict() for monitor in monitors]}
    validate_slo(document)
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)


def dump_profile(profile: typing.Any, path: str) -> None:
    """Write a :class:`~repro.telemetry.profiler.SimProfile` dump to `path`,
    schema-validated."""
    from repro.telemetry.schemas import validate_profile

    document = profile.to_dict()
    validate_profile(document)
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
