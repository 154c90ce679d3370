"""JSON serialisation of models (schema ``qmu-model/1``).

The file mirrors the in-memory structures: state labels, per-transition
rows of ``{"to": [[index, probability], ...], "payoff_weight": w}``,
expectation and predicate vectors, and transition-set name lists.
Probabilities are written as plain decimals, which round-trip exactly.

The loader flattens each transition's rows into edge arrays and builds it
with :func:`~qmu.core.transition_from_edges`; it makes no per-edge
tuples.  A file whose sections are not JSON objects, whose rows are not
objects, whose edges are not ``[target, probability]`` pairs, whose targets
are not JSON integers, or whose probabilities and weights are not finite
JSON numbers (``true`` and ``"0.5"`` are neither) is malformed; one that
parses but breaks an invariant of :func:`~qmu.core.validate` fails
validation.  Both raise :class:`ModelFileError`.
"""

from __future__ import annotations

import json
from itertools import chain, repeat

import numpy as np

from .core import (
    Model, ModelError, StateSpace, Transition, Valuation, expectation,
    predicate, transition_from_edges, validate,
)

MODEL_SCHEMA = "qmu-model/1"


class ModelFileError(ValueError):
    """A model file is malformed or fails validation."""


def _rows_to_list(t: Transition) -> list[dict]:
    bounds = t.indptr.tolist()
    edges = [list(e) for e in zip(t.indices.tolist(), t.probs.tolist())]
    return [{"to": edges[a:b], "payoff_weight": w}
            for a, b, w in zip(bounds, bounds[1:], t.weights.tolist())]


def model_to_dict(model: Model) -> dict:
    v = model.valuation
    return {
        "schema": MODEL_SCHEMA,
        "states": list(model.space.labels),
        "transitions": {name: _rows_to_list(t) for name, t in v.transitions.items()},
        "transition_sets": {name: list(members)
                            for name, members in v.transition_sets.items()},
        "expectations": {name: [float(x) for x in arr]
                         for name, arr in v.expectations.items()},
        "predicates": {name: [bool(x) for x in arr]
                       for name, arr in v.predicates.items()},
    }


def _section(data: dict, key: str) -> dict:
    value = data.get(key, {})
    if not isinstance(value, dict):
        raise ModelFileError(f"malformed model file: {key!r} must be an object")
    return value


def _require(values: list, kinds: set, name: str, rule: str) -> None:
    """Raise unless every value's type is in ``kinds`` (``bool`` is not ``int``)."""
    if not set(map(type, values)) <= kinds:
        bad = next(v for v in values if type(v) not in kinds)
        raise ModelFileError(
            f"malformed model file: transition {name!r}: {rule}, got {bad!r}")


def _transition_from_rows(name: str, rows) -> Transition:
    """Build one transition from its file rows, through flat edge arrays."""
    if not isinstance(rows, list):
        raise ModelFileError(
            f"malformed model file: transition {name!r} must be a list of rows")
    _require(rows, {dict}, name, "rows must be objects")
    tos = list(map(dict.get, rows, repeat("to"), repeat([])))
    weights = list(map(dict.get, rows, repeat("payoff_weight"), repeat(0.0)))
    _require(tos, {list}, name, "each row's \"to\" must be a list of edges")
    edges = list(chain.from_iterable(tos))
    try:
        paired = set(map(len, edges)) <= {2}
    except TypeError:  # an edge with no length, such as a number
        paired = False
    if not paired:
        raise ModelFileError(f"malformed model file: transition {name!r}: "
                             "edges must be [target, probability] pairs")
    flat = list(chain.from_iterable(edges))
    targets, probs = flat[0::2], flat[1::2]
    _require(targets, {int}, name, "edge targets must be integers")
    _require(probs, {int, float}, name, "probabilities must be numbers")
    _require(weights, {int, float}, name, "payoff weights must be numbers")
    try:
        return transition_from_edges(
            np.fromiter(map(len, tos), dtype=np.int64, count=len(tos)),
            np.fromiter(targets, dtype=np.int64, count=len(targets)),
            np.fromiter(probs, dtype=np.float64, count=len(probs)),
            np.fromiter(weights, dtype=np.float64, count=len(weights)))
    except ModelError as exc:
        raise ModelFileError(
            f"malformed model file: transition {name!r}: {exc}") from exc


def model_from_dict(data: dict) -> Model:
    if not isinstance(data, dict):
        raise ModelFileError("model file must be a JSON object")
    if data.get("schema") != MODEL_SCHEMA:
        raise ModelFileError(f"unsupported model schema {data.get('schema')!r}")
    try:
        space = StateSpace(tuple(str(s) for s in data["states"]))
        transitions = {name: _transition_from_rows(name, rows)
                       for name, rows in _section(data, "transitions").items()}
        valuation = Valuation(
            expectations={name: expectation(arr, space.size)
                          for name, arr in _section(data, "expectations").items()},
            transitions=transitions,
            transition_sets={name: tuple(str(m) for m in members)
                             for name, members in
                             _section(data, "transition_sets").items()},
            predicates={name: predicate(arr, space.size)
                        for name, arr in _section(data, "predicates").items()},
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        if isinstance(exc, ModelFileError):
            raise
        raise ModelFileError(f"malformed model file: {exc}") from exc
    model = Model(space, valuation)
    problems = validate(model)
    if problems:
        details = "; ".join(str(d) for d in problems[:5])
        raise ModelFileError(f"model fails validation: {details}")
    return model


def save_model(path, model: Model) -> None:
    with open(path, "w") as fh:
        json.dump(model_to_dict(model), fh, indent=2)
        fh.write("\n")


def load_model(path) -> Model:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ModelFileError(f"{path}: invalid JSON: {exc}") from exc
    return model_from_dict(data)
