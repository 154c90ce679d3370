"""JSON serialisation of models (schema ``qmu-model/1``).

The file mirrors the in-memory structures: state labels, per-transition
rows of ``{"to": [[index, probability], ...], "payoff_weight": w}``,
expectation and predicate vectors, and transition-set name lists.
Probabilities are written as plain decimals, which round-trip exactly.
:func:`save_model` writes the document as one compact line, encoded
whole by ``json.dumps``: a streaming ``json.dump`` or an indent would run
the standard library's pure-Python encoder, several times slower than its
C encoder.  The loader accepts any whitespace, and ``python -m json.tool``
pretty-prints a file.

The loader flattens each transition's rows into edge arrays and builds it
with :func:`~qmu.core.transition_from_edges`; it makes no per-edge
tuples.  A file is malformed if it lacks ``states``, a section is not an
object, a row not an object, an edge not a ``[target, probability]`` pair,
a target not a JSON integer, a probability, weight or expectation entry not
a finite JSON number (``true`` and ``"0.5"`` are not), a number too large
for its array, an expectation entry outside [0, 1] (the message names the
expectation and the first such state), a predicate entry not a boolean, or
a state label or set member not a string; one that parses but breaks an
invariant of :func:`~qmu.core.validate` fails validation.  Both raise
:class:`ModelFileError`, as does a file :func:`read_json` cannot decode.

Decoding and encoding run with the cyclic garbage collector paused
(:func:`_collector_paused`).  Both allocate one list per edge and one dict
per state, which sets off a collector pass every few hundred containers,
and the older passes scan every container the process holds: a
6,000-state file started 102 passes per load, a sixth of its time in a bare
process and more in one that holds more objects.  Those passes can free
nothing, because a JSON tree holds no reference cycle: reference counting
frees it either way.  The loader frees the tree before the collector is
back on, so no pass scans it; cyclic garbage the caller already has is
collected at the first pass after the block.
"""

from __future__ import annotations

import gc
import json
from contextlib import contextmanager
from itertools import chain, repeat

import numpy as np

from .core import (
    Model, ModelError, StateSpace, Transition, Valuation, expectation,
    predicate, transition_from_edges, validate,
)

MODEL_SCHEMA = "qmu-model/1"


class ModelFileError(ValueError):
    """A model file is malformed or fails validation."""


@contextmanager
def _collector_paused():
    """Run the block with the cyclic garbage collector off, then restore
    its state: a collector the caller had switched off stays off."""
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


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
        "expectations": {name: arr.tolist() for name, arr in v.expectations.items()},
        "predicates": {name: arr.tolist() for name, arr in v.predicates.items()},
    }


def _section(data: dict, key: str) -> dict:
    value = data.get(key, {})
    if not isinstance(value, dict):
        raise ModelFileError(f"malformed model file: {key!r} must be an object")
    return value


def _require(values, kinds: set, where: str, noun: str, kind: str) -> list:
    """``values`` if it is a list of types in ``kinds`` (``bool`` is not ``int``)."""
    if not isinstance(values, list):
        raise ModelFileError(f"malformed model file: {where} must be a list of {noun}")
    if not set(map(type, values)) <= kinds:
        bad = next(v for v in values if type(v) not in kinds)
        raise ModelFileError(
            f"malformed model file: {where}: {noun} must be {kind}, got {bad!r}")
    return values


def _array(values, kinds: set, where: str, noun: str, kind: str) -> np.ndarray:
    """``values``, checked by :func:`_require`, as an int64 array if they
    must be integers, float64 otherwise; an integer too large for it is out
    of range."""
    _require(values, kinds, where, noun, kind)
    dtype = np.int64 if kinds == {int} else np.float64
    try:
        return np.fromiter(values, dtype=dtype, count=len(values))
    except OverflowError:
        raise ModelFileError(
            f"malformed model file: {where}: {noun} out of range") from None


def _lists(data: dict, key: str, kinds: set, noun: str, kind: str, build) -> dict:
    """Section ``key``, every entry checked by :func:`_require` and built
    by ``build(where, values)``."""
    label = key.rstrip("s").replace("_", " ")
    built = {}
    for name, values in _section(data, key).items():
        where = f"{label} {name!r}"
        built[name] = build(where, _require(values, kinds, where, noun, kind))
    return built


def _expectation(name: str, values, size: int):
    """Expectation ``name`` read through :func:`_array`; its first entry
    outside [0, 1], NaN included, is named with its state."""
    where = f"expectation {name!r}"
    arr = _array(values, {int, float}, where, "entries", "numbers")
    bad = np.flatnonzero(~((arr >= 0.0) & (arr <= 1.0)))
    if bad.size:
        s = int(bad[0])
        raise ModelFileError(f"malformed model file: {where}, state {s}: "
                             f"entry {arr[s]} outside [0, 1]")
    return expectation(arr, size)


def _transition_from_rows(name: str, rows) -> Transition:
    """Build one transition from its file rows, through flat edge arrays."""
    where = f"transition {name!r}"
    _require(rows, {dict}, where, "rows", "objects")
    tos = list(map(dict.get, rows, repeat("to"), repeat([])))
    weights = list(map(dict.get, rows, repeat("payoff_weight"), repeat(0.0)))
    _require(tos, {list}, where, "each row's \"to\"", "a list of edges")
    edges = list(chain.from_iterable(tos))
    try:
        paired = set(map(len, edges)) <= {2}
    except TypeError:  # an edge with no length, such as a number
        paired = False
    if not paired:
        raise ModelFileError(f"malformed model file: transition {name!r}: "
                             "edges must be [target, probability] pairs")
    flat = list(chain.from_iterable(edges))
    targets = _array(flat[0::2], {int}, where, "edge targets", "integers")
    probs = _array(flat[1::2], {int, float}, where, "probabilities", "numbers")
    weights = _array(weights, {int, float}, where, "payoff weights", "numbers")
    try:
        return transition_from_edges(
            np.fromiter(map(len, tos), dtype=np.int64, count=len(tos)),
            targets, probs, weights)
    except ModelError as exc:
        raise ModelFileError(
            f"malformed model file: transition {name!r}: {exc}") from exc


def model_from_dict(data: dict) -> Model:
    if not isinstance(data, dict):
        raise ModelFileError("model file must be a JSON object")
    if data.get("schema") != MODEL_SCHEMA:
        raise ModelFileError(f"unsupported model schema {data.get('schema')!r}")
    if "states" not in data:
        raise ModelFileError("malformed model file: missing key 'states'")
    try:
        space = StateSpace(tuple(_require(data["states"], {str}, "states",
                                          "labels", "strings")))
        transitions = {name: _transition_from_rows(name, rows)
                       for name, rows in _section(data, "transitions").items()}
        valuation = Valuation(
            expectations={name: _expectation(name, values, space.size) for name, values
                          in _section(data, "expectations").items()},
            transitions=transitions,
            transition_sets=_lists(data, "transition_sets", {str}, "members",
                                   "strings", lambda where, members: tuple(members)),
            predicates=_lists(data, "predicates", {bool}, "entries", "true or false",
                              lambda where, arr: predicate(arr, space.size)),
        )
    except ModelError as exc:
        raise ModelFileError(f"malformed model file: {exc}") from exc
    model = Model(space, valuation)
    problems = validate(model)
    if problems:
        details = "; ".join(str(d) for d in problems[:5])
        raise ModelFileError(f"model fails validation: {details}")
    return model


def read_json(path, error: type[ValueError]):
    """The JSON tree in the UTF-8 file at ``path`` (RFC 8259, whatever the
    locale).  A file that does not decode raises ``error`` naming ``path``."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise error(f"{path}: invalid JSON: {exc}") from exc
        except RecursionError as exc:
            raise error(f"{path}: invalid JSON: nested too deeply") from exc


def write_json(path, document) -> None:
    """Write ``document`` to ``path`` as one compact JSON line.

    The whole text is encoded before the file is opened, so an error while
    encoding it leaves an existing file as it was.
    """
    text = json.dumps(document, separators=(",", ":"))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def save_model(path, model: Model) -> None:
    """Write ``model`` to ``path`` with :func:`write_json`."""
    with _collector_paused():
        write_json(path, model_to_dict(model))


def load_model(path) -> Model:
    # the tree is a temporary, freed before the collector is back on, so
    # the first pass after the block does not scan it
    with _collector_paused():
        return model_from_dict(read_json(path, ModelFileError))
