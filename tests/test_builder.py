"""The flat-array transition builder against the row builder it replaced.

``transition_from_edges`` must store exactly the arrays the former
dict-merge builder stored, kept here as a reference: values, strategy
tables and ``FixpointStats`` all depend on edge order, so equal values are
not enough and every array is compared byte for byte.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import futures_reference
import qmu.examples
import qmu.oracle
from qmu.core import (
    ModelError, Transition, pre_expectation_all, transition,
    transition_from_edges,
)
from qmu.examples import vardi_model
from qmu.modelio import MODEL_SCHEMA, model_from_dict, model_to_dict
from qmu.oracle import random_instance


def reference_transition(rows, weights=None) -> Transition:
    """The former per-row builder: merge duplicates in a dict, then sort."""
    indptr = [0]
    targets: list[int] = []
    probs: list[float] = []
    for row in rows:
        merged: dict[int, float] = {}
        for target, prob in row:
            if prob < 0.0:
                raise ModelError(f"negative probability {prob} to state {target}")
            if prob > 0.0:
                merged[int(target)] = merged.get(int(target), 0.0) + float(prob)
        for target in sorted(merged):
            targets.append(target)
            probs.append(merged[target])
        indptr.append(len(targets))
    n = len(indptr) - 1
    w = [0.0] * n if weights is None else [float(x) for x in weights]
    if len(w) != n:
        raise ModelError("payoff weights must have one entry per state")
    return Transition(indptr, targets, probs, w)


def assert_same_arrays(got: Transition, want: Transition) -> None:
    for name in ("indptr", "indices", "probs", "weights"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


def as_edges(rows):
    """Flatten ``[(target, prob), ...]`` rows into the builder's arrays."""
    counts = [len(row) for row in rows]
    targets = [t for row in rows for t, _ in row]
    probs = [p for row in rows for _, p in row]
    return counts, targets, probs


class TestBitIdentity:
    def test_futures(self, futures):
        # the array-built model against the state-by-state Fraction build
        model = futures[0]
        v = model.valuation
        assert model.space.labels == futures_reference.labels()
        want = reference_transition(futures_reference.month_rows())
        assert_same_arrays(v.transitions["month"], want)
        for got, ref in ((v.expectations, futures_reference.expectations()),
                         (v.predicates, futures_reference.predicates())):
            assert got.keys() == ref.keys()
            for name, arr in ref.items():
                assert got[name].dtype == arr.dtype, name
                assert got[name].tobytes() == arr.tobytes(), name
        assert v.transition_sets == {"month": ("month",)}
        # and through the model file
        data = model_to_dict(model)
        rows = data["transitions"]["month"]
        assert_same_arrays(model_from_dict(data).valuation.transitions["month"],
                           reference_transition([[tuple(e) for e in r["to"]]
                                                 for r in rows]))

    def test_vardi(self, monkeypatch):
        built, _ = vardi_model()
        monkeypatch.setattr(qmu.examples, "transition", reference_transition)
        want, _ = vardi_model()
        assert_same_arrays(built.valuation.transitions["k"],
                           want.valuation.transitions["k"])
        again = model_from_dict(json.loads(json.dumps(model_to_dict(built))))
        assert_same_arrays(again.valuation.transitions["k"],
                           want.valuation.transitions["k"])

    def test_random_instances(self, monkeypatch):
        # the generator's raw rows are unsorted, as drawn
        built = [random_instance([53, trial]) for trial in range(300)]
        monkeypatch.setattr(qmu.oracle, "transition", reference_transition)
        checked = 0
        for trial, inst in enumerate(built):
            want = random_instance([53, trial])
            assert inst.model.space.labels == want.model.space.labels
            for name, t in inst.model.valuation.transitions.items():
                assert_same_arrays(t, want.model.valuation.transitions[name])
                checked += 1
        assert checked >= 600

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_random_rows(self, data):
        # duplicate targets, zero and negative-zero edges, unsorted targets
        # and empty rows, through both entry points and the model file
        n = data.draw(st.integers(1, 6), label="n")
        prob = st.sampled_from([0.0, -0.0, 0.1, 0.05, 0.125, 1 / 30, 0.0625, 1e-17])
        edge = st.tuples(st.integers(0, n - 1), prob)
        rows = data.draw(st.lists(st.lists(edge, max_size=6), min_size=n, max_size=n),
                         label="rows")
        weights = data.draw(st.lists(st.sampled_from([0.0, 0.1, 0.2]),
                                     min_size=n, max_size=n), label="weights")
        want = reference_transition(rows, weights)
        assert_same_arrays(transition(rows, weights), want)
        assert_same_arrays(transition_from_edges(*as_edges(rows), weights), want)
        doc = {"schema": MODEL_SCHEMA, "states": [f"s{i}" for i in range(n)],
               "transitions": {"k": [{"to": [list(e) for e in row], "payoff_weight": w}
                                     for row, w in zip(rows, weights)]}}
        loaded = model_from_dict(json.loads(json.dumps(doc)))
        assert_same_arrays(loaded.valuation.transitions["k"], want)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(st.tuples(st.integers(-2 ** 62, 2 ** 62),
                                       st.sampled_from([0.0, 0.25, 0.5])),
                             max_size=4), max_size=5))
    def test_out_of_range_targets_kept_for_validate(self, rows):
        # the builder leaves range checks to validate, far targets included
        assert_same_arrays(transition(rows), reference_transition(rows))


class TestScale:
    def test_million_states_from_arrays(self):
        n, k = 10 ** 6, 3
        rng = np.random.default_rng(97)
        targets = rng.integers(0, n, n * k)
        targets[: 3 * k] = [5, 5, 1, 0, 7, 7, 2, 2, 2]  # duplicates up front
        probs = rng.random(n * k) * 0.3
        probs[rng.integers(0, n * k, 1000)] = 0.0
        weights = rng.random(n) * 0.05
        t = transition_from_edges(np.full(n, k), targets, probs, weights)
        assert t.n_states == n and len(t.indices) < n * k

        m = 1000
        rows = [list(zip(targets[k * s:k * s + k].tolist(),
                         probs[k * s:k * s + k].tolist())) for s in range(m)]
        ref = reference_transition(rows, weights[:m])
        end = t.indptr[m]
        assert t.indptr[: m + 1].tobytes() == ref.indptr.tobytes()
        assert t.indices[:end].tobytes() == ref.indices.tobytes()
        assert t.probs[:end].tobytes() == ref.probs.tobytes()
        # one product: the slice's rows sum the same edges in the same order
        x = rng.random(n)
        assert pre_expectation_all(t, x)[:m].tobytes() == \
            pre_expectation_all(ref, x).tobytes()


class TestBuilderErrors:
    def test_negative_probability_named(self):
        with pytest.raises(ModelError, match="negative probability -0.1 to state 2"):
            transition([[(0, 0.5)], [(1, 0.2), (2, -0.1)], []])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_probability_rejected(self, bad):
        # NaN used to be dropped as a "zero" edge
        with pytest.raises(ModelError, match="non-finite probability"):
            transition([[(0, 0.5), (1, bad)]])
        with pytest.raises(ModelError, match="non-finite probability"):
            transition_from_edges([2], [0, 1], [0.5, bad], [0.0])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_weight_rejected(self, bad):
        with pytest.raises(ModelError, match="non-finite payoff weight"):
            transition([[(0, 0.5)], []], [0.0, bad])

    def test_inconsistent_edge_arrays_rejected(self):
        with pytest.raises(ModelError, match="do not match"):
            transition_from_edges([1, 1], [0], [0.5], [0.0, 0.0])
        with pytest.raises(ModelError, match="do not match"):
            transition_from_edges([2, -1], [0], [0.5], [0.0, 0.0])
        with pytest.raises(ModelError, match="do not match"):
            transition_from_edges([1], [0, 1], [0.5], [0.0])
        with pytest.raises(ModelError, match="one entry per state"):
            transition_from_edges([1], [0], [0.5], [0.0, 0.0])

    @pytest.mark.parametrize("bad", [0.7, -0.5, float("nan"), float("inf"),
                                     float("-inf")])
    def test_non_integer_targets_rejected(self, bad):
        # a cast would truncate them to other states, which validate accepts;
        # the first of two is named
        message = f"edge target {bad} is not an integer"
        with pytest.raises(ModelError, match=message):
            transition([[(bad, 0.5)], [(1.9, 1.0)]])
        with pytest.raises(ModelError, match=message):
            transition_from_edges([1, 1], [bad, 1.9], [0.5, 1.0], [0.0, 0.0])
        with pytest.raises(ModelError, match=f"transition indices entry {bad} "):
            Transition([0, 1, 2], [bad, 1.9], [0.5, 1.0], [0.0, 0.0])

    def test_non_integer_counts_and_offsets_rejected(self):
        with pytest.raises(ModelError, match="edge count 1.5 is not an integer"):
            transition_from_edges([1.5, 0.5], [0, 1], [0.5, 1.0], [0.0, 0.0])
        with pytest.raises(ModelError, match="transition indptr entry 0.5 "):
            Transition([0, 0.5, 2], [0, 1], [0.5, 1.0], [0.0, 0.0])

    def test_integral_floats_are_targets(self):
        rows = [[(1.0, 0.5), (0, 0.25)], [(0.0, 1.0)]]
        want = transition([[(1, 0.5), (0, 0.25)], [(0, 1.0)]])
        assert_same_arrays(transition(rows), want)
        assert_same_arrays(transition_from_edges(
            np.array([2.0, 1.0]), np.array([1.0, 0.0, 0.0]), [0.5, 0.25, 1.0],
            [0.0, 0.0]), want)
        assert_same_arrays(Transition(np.array([0.0, 2.0, 3.0]), [0.0, 1.0, 0.0],
                                      want.probs, want.weights), want)

    def test_empty_transition(self):
        assert_same_arrays(transition([]), reference_transition([]))
        assert_same_arrays(transition([[], []], [0.5, 0.0]),
                           reference_transition([[], []], [0.5, 0.0]))
