"""JSON serialisation of models (schema ``qmu-model/1``).

The file mirrors the in-memory structures: state labels, per-transition
rows of ``{"to": [[index, probability], ...], "payoff_weight": w}``,
expectation and predicate vectors, and transition-set name lists.
Probabilities are written as plain decimals, which round-trip exactly.
"""

from __future__ import annotations

import json

from .core import (
    Model, StateSpace, Transition, Valuation, expectation, predicate,
    transition, validate,
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


def model_from_dict(data: dict) -> Model:
    if not isinstance(data, dict):
        raise ModelFileError("model file must be a JSON object")
    if data.get("schema") != MODEL_SCHEMA:
        raise ModelFileError(f"unsupported model schema {data.get('schema')!r}")
    try:
        space = StateSpace(tuple(str(s) for s in data["states"]))
        transitions = {}
        for name, rows in data.get("transitions", {}).items():
            succ_rows = []
            weights = []
            for row in rows:
                succ_rows.append([(int(t), float(p)) for t, p in row.get("to", [])])
                weights.append(float(row.get("payoff_weight", 0.0)))
            transitions[name] = transition(succ_rows, weights)
        valuation = Valuation(
            expectations={name: expectation(arr, space.size)
                          for name, arr in data.get("expectations", {}).items()},
            transitions=transitions,
            transition_sets={name: tuple(str(m) for m in members)
                             for name, members in
                             data.get("transition_sets", {}).items()},
            predicates={name: predicate(arr, space.size)
                        for name, arr in data.get("predicates", {}).items()},
        )
    except (KeyError, TypeError, ValueError) as exc:
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
