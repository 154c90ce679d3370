"""Transition, expectation and validation primitives."""

import os
import re
import subprocess
import sys

import numpy as np
import pytest

import qmu
from qmu.core import (
    EPS_REPR, Model, ModelError, StateSpace, Transition, Valuation,
    expectation, halt_payoff, pre_expectation,
    pre_expectation_all, predicate, transition, transition_from_edges, validate,
)
from qmu.oracle import random_instance

from product_reference import bincount_product

TOL = 1e-12


@pytest.fixture
def coin_payoff():
    # one state feeding heads/tails at 1/4 each, deficit 1/2 paying 0.80
    space = StateSpace(("s", "H", "T"))
    t = transition([[(1, 0.25), (2, 0.25)], [], []], [0.4, 0.0, 0.0])
    return space, t


class TestPreExpectation:
    def test_zero_post(self, coin_payoff):
        _, t = coin_payoff
        assert pre_expectation(t, 0, np.zeros(3)) == pytest.approx(0.4, abs=TOL)

    def test_one_post(self, coin_payoff):
        _, t = coin_payoff
        assert pre_expectation(t, 0, np.ones(3)) == pytest.approx(0.9, abs=TOL)

    def test_empty_transition(self):
        t = transition([[]], [0.0])
        assert pre_expectation(t, 0, np.array([1.0])) == 0.0

    def test_index_out_of_range(self, coin_payoff):
        _, t = coin_payoff
        with pytest.raises(IndexError):
            pre_expectation(t, 3, np.zeros(3))

    def test_bounded_monotone_affine(self):
        # random sub-distributions; pre-expectation stays one-bounded,
        # monotone in the post-expectation, and exactly affine
        rng = np.random.default_rng(11)
        for trial in range(300):
            inst = random_instance([11, trial])
            n = inst.model.space.size
            t = inst.model.valuation.transitions["t0"]
            a = rng.random(n)
            b = rng.random(n)
            lam = rng.random()
            for s in range(n):
                pa = pre_expectation(t, s, a)
                pb = pre_expectation(t, s, b)
                assert -TOL <= pa <= 1.0 + TOL
                mix = pre_expectation(t, s, lam * a + (1 - lam) * b)
                assert mix == pytest.approx(lam * pa + (1 - lam) * pb, abs=TOL)
                hi = pre_expectation(t, s, np.minimum(a + 0.1, 1.0))
                assert hi >= pa - TOL


class TestHaltPayoff:
    def test_prediv_weight_recovered(self, coin_payoff):
        _, t = coin_payoff
        assert halt_payoff(t, 0) == pytest.approx(0.8, abs=TOL)

    def test_total_distribution_pays_zero(self):
        t = transition([[(0, 1.0)]], [0.0])
        assert halt_payoff(t, 0) == 0.0

    def test_no_successors(self):
        t = transition([[]], [0.3])
        assert halt_payoff(t, 0) == pytest.approx(0.3, abs=TOL)

    def test_index_out_of_range(self, coin_payoff):
        _, t = coin_payoff
        for s in (-1, t.n_states):
            with pytest.raises(IndexError, match=f"state index {s} out of range"):
                halt_payoff(t, s)

    def test_cached_rows_add_edges_in_order(self):
        # rows of up to 12 edges: numpy's pairwise sum regroups from 8 on
        rng = np.random.default_rng(5)
        for trial in range(50):
            rows = [[(j, p) for j, p in enumerate(rng.dirichlet(np.ones(k)) * m)]
                    for k, m in zip(rng.integers(1, 13, 13), rng.random(13))]
            t = transition(rows + [[]], rng.random(14) * 0.5)
            for s in range(t.n_states):
                acc, sums = 0.0, []
                for p in t.row(s)[1]:
                    acc += p
                    sums.append(acc)
                a, b = t.indptr[s], t.indptr[s + 1]
                assert t.cumulative[a:b].tolist() == sums
                residual = 1.0 - acc
                expected = (0.0 if residual <= EPS_REPR else
                            min(1.0, max(0.0, t.weights.item(s) / residual)))
                assert halt_payoff(t, s) == t.halt_payoffs[s] == expected

    def test_weight_identity(self):
        # halt payoff times halt probability recovers the stored weight
        for trial in range(200):
            inst = random_instance([23, trial])
            t = inst.model.valuation.transitions["t1"]
            for s in range(t.n_states):
                mass = sum(t.row(s)[1])
                if mass < 1.0 - EPS_REPR:
                    recovered = halt_payoff(t, s) * (1.0 - mass)
                    assert recovered == pytest.approx(t.weights.item(s), abs=TOL)


class TestValidate:
    def test_futures_is_clean(self, futures):
        model, _ = futures
        assert validate(model) == []

    def test_probability_sum_names_state(self):
        space = StateSpace(("a", "b"))
        bad = transition([[(0, 0.6), (1, 0.6)], [(0, 1.0)]])
        model = Model(space, Valuation(transitions={"k": bad}))
        problems = validate(model)
        assert any(d.rule == "mass-bounded" and d.state == 0 and d.symbol == "k"
                   for d in problems)

    def test_weight_must_be_zero_when_total(self):
        space = StateSpace(("a",))
        bad = Model(space, Valuation(
            transitions={"k": transition([[(0, 1.0)]], [0.1])}))
        problems = validate(bad)
        assert any(d.rule == "weight-zero-when-total" and
                   "payoff weight must be zero" in d.message
                   for d in problems)

    def test_set_rules(self):
        space = StateSpace(("a",))
        model = Model(space, Valuation(
            transitions={"k": transition([[]], [0.0])},
            transition_sets={"K": (), "L": ("missing",)}))
        rules = {d.rule for d in validate(model)}
        assert "set-nonempty" in rules and "set-member-exists" in rules

    def test_expectation_shape_and_range(self):
        space = StateSpace(("a", "b"))
        with pytest.raises(ModelError):
            expectation([0.2, 1.4])
        model = Model(space, Valuation(expectations={"A": np.array([0.5])}))
        assert any(d.rule == "expectation-length" for d in validate(model))

    def test_predicate_and_transition_length(self):
        model = Model(StateSpace(("a", "b")), Valuation(
            predicates={"g": np.array([True])},
            transitions={"k": transition([[(0, 1.0)]])}))
        assert [(d.rule, d.symbol, d.message) for d in validate(model)] == [
            ("predicate-length", "g", "1 entries, expected 2"),
            ("transition-length", "k", "1 rows, expected 2"),
        ]

    @pytest.mark.parametrize("labels, message", [
        ((), "state space must be non-empty"),
        (("a", "b", "a"), "state labels must be unique"),
    ], ids=["empty", "duplicate"])
    def test_state_space_labels(self, labels, message):
        with pytest.raises(ModelError, match=message):
            StateSpace(labels)

    def test_unknown_label(self):
        with pytest.raises(ModelError, match="unknown state label 'c'"):
            StateSpace(("a", "b")).index("c")

    @pytest.mark.parametrize("build, kind", [(expectation, "expectation"),
                                             (predicate, "predicate")])
    def test_vector_sized_unlike_the_states(self, build, kind):
        with pytest.raises(ModelError, match=f"{kind} has 1 entries, expected 2"):
            build([True], 2)

    @pytest.mark.parametrize("build, kind", [(expectation, "expectation"),
                                             (predicate, "predicate")])
    @pytest.mark.parametrize("values, shape", [(0.5, "()"),
                                               ([[0.5], [0.5]], r"\(2, 1\)")])
    def test_vectors_only(self, build, kind, values, shape):
        with pytest.raises(ModelError, match=f"{kind} must be a vector, "
                                             f"got shape {shape}"):
            build(values)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_expectation_rejects_non_finite_in_memory(self, bad):
        with pytest.raises(ModelError, match=r"\[0, 1\]"):
            expectation([bad, 0.5])

    def test_expectation_range_order_pinned(self):
        # each expectation's bad entries in state order, NaN included
        model = Model(StateSpace(("a", "b", "c", "d")), Valuation(expectations={
            "A": np.array([0.5, np.nan, 1.5, -0.25]),
            "B": np.array([2.0, 0.0, 1.0, np.nan]),
            "C": np.array([0.5]),
            "D": np.array([0.0, 1.0, 0.5, 0.25]),
        }))
        assert [(d.rule, d.symbol, d.state, d.message) for d in validate(model)] == [
            ("expectation-range", "A", 1, "value nan outside [0, 1]"),
            ("expectation-range", "A", 2, "value 1.5 outside [0, 1]"),
            ("expectation-range", "A", 3, "value -0.25 outside [0, 1]"),
            ("expectation-range", "B", 0, "value 2.0 outside [0, 1]"),
            ("expectation-range", "B", 3, "value nan outside [0, 1]"),
            ("expectation-length", "C", None, "1 entries, expected 4"),
        ]

    def test_non_finite_transition_in_memory_caught(self):
        # a NaN fails every comparison, so the rules are negated tests
        t = Transition([0, 1, 2], [0, 1], [np.nan, 0.5], [0.0, np.nan])
        problems = validate(Model(StateSpace(("a", "b")),
                                  Valuation(transitions={"k": t})))
        assert [(d.rule, d.state, d.message) for d in problems] == [
            ("probability-positive", 0, "stored probability nan must be > 0"),
            ("weight-nonnegative", 1, "payoff weight nan must be >= 0")]

    def test_generator_instances_validate(self):
        for trial in range(100):
            inst = random_instance([31, trial])
            assert validate(inst.model) == []


class TestIntegerRange:
    """A target, count or offset that int64 cannot hold is named, not wrapped
    to -2 ** 63 by the cast."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("targets, shown", [
        ([1e300, 0.0], "1e+300"),
        ([-1e300, 0.0], "-1e+300"),
        ([2.0 ** 63, 0.0], "9.223372036854776e+18"),
        ([2.0 ** 64, 0.0], "1.8446744073709552e+19"),
        (np.array([2 ** 63, 0], dtype=np.uint64), "9223372036854775808"),
        ([2 ** 63, 0], "9.223372036854776e+18"),  # int64 and uint64: float64
        ([2 ** 64, 0], "18446744073709551616"),  # an object array
        ([-2 ** 63 - 1, 0], "-9223372036854775809"),
        ([0.5, 2 ** 64], "0.5"),  # a float among Python ints
        ([10 ** 30, 2 ** 64], str(10 ** 30)),
    ], ids=["float", "negative-float", "float-2**63", "float-2**64", "uint64",
            "int-2**63", "int-2**64", "int-below", "object-float", "object-int"])
    def test_targets_beyond_int64_rejected(self, targets, shown):
        message = re.escape(f" {shown} is not an integer in the int64 range")
        rows = [[(targets[0], 0.5)], [(targets[1], 0.5)]]
        with pytest.raises(ModelError, match="edge target" + message):
            transition(rows)
        with pytest.raises(ModelError, match="edge target" + message):
            transition_from_edges([1, 1], targets, [0.5, 0.5], [0.0, 0.0])
        with pytest.raises(ModelError, match="transition indices entry" + message):
            Transition([0, 1, 2], targets, [0.5, 0.5], [0.0, 0.0])

    @pytest.mark.filterwarnings("error")
    def test_counts_and_offsets_beyond_int64_rejected(self):
        with pytest.raises(ModelError, match=re.escape("edge count 9.223372036854776e+18 ")):
            transition_from_edges([2.0 ** 63, 0], [0], [0.5], [0.0, 0.0])
        with pytest.raises(ModelError, match="edge count 18446744073709551616 "):
            transition_from_edges([2 ** 64, 0], [0], [0.5], [0.0, 0.0])
        with pytest.raises(ModelError, match="transition indptr entry 9223372036854775808 "):
            Transition(np.array([0, 2 ** 63], dtype=np.uint64), [0], [0.5], [0.0])

    def test_the_int64_bounds_are_kept(self):
        for targets in ([-2 ** 63, 2 ** 63 - 1], [-2.0 ** 63, 0.0],
                        np.array([2 ** 63 - 1, 0], dtype=np.uint64)):
            t = Transition([0, 1, 2], targets, [0.5, 0.5], [0.0, 0.0])
            assert t.indices.tolist() == [int(x) for x in targets]


class TestCanonicalStorage:
    def test_zero_edges_dropped_and_merged(self):
        t = transition([[(1, 0.0), (0, 0.25), (0, 0.25)], []], [0.0, 0.0])
        assert t.row(0) == ([0], [0.5])

    def test_predicate_roundtrip(self):
        arr = predicate([True, False, True])
        assert arr.dtype == bool and not arr.flags.writeable


class TestSparseStorage:
    def test_product_matches_scalar_pre_expectation(self, futures, vardi):
        cases = [
            futures[0].valuation.transitions["month"],
            *vardi[0].valuation.transitions.values(),
            transition([[]], [0.3]),  # n = 1, empty row
            transition([[(0, 0.5)]], [0.25]),  # n = 1
            # merged duplicate targets and an empty row
            transition([[(1, 0.2), (1, 0.3), (0, 0.1)], [], [(2, 1.0)]],
                       [0.1, 0.6, 0.0]),
        ]
        for trial in range(200):
            cases.extend(random_instance([41, trial]).model.valuation.transitions.values())
        assert any(t.n_states == 1 for t in cases[5:])
        rng = np.random.default_rng(41)
        for t in cases:
            x = rng.random(t.n_states)
            vec = pre_expectation_all(t, x)
            assert vec.shape == (t.n_states,)
            for s in range(t.n_states):
                assert abs(vec[s] - pre_expectation(t, s, x)) <= 1e-15

    def test_product_matches_the_bincount_reference(self, futures):
        rng = np.random.default_rng(43)
        cases = [futures[0].valuation.transitions["month"]]
        for trial in range(300):
            n = 1 if trial % 10 == 5 else int(rng.integers(1, 60))
            counts = np.minimum(rng.integers(0, 5, n), n)  # some rows empty
            if trial % 10 == 7:
                counts[:] = 0
            if trial % 3 == 0:
                counts[rng.integers(n)] = n  # a hub row
            targets = np.concatenate(
                [rng.permutation(n)[:c] for c in counts.tolist()] + [[]])
            weights = rng.random(n) / 4 if trial % 5 else np.zeros(n)
            cases.append(transition_from_edges(
                counts, targets, rng.random(len(targets)) / 4, weights))
        assert any(t.n_states == 1 for t in cases)
        assert any(len(t.indices) == 0 for t in cases)
        assert sum(len(t._slots[2][0]) > 0 for t in cases) >= 100
        for t in cases:
            post = rng.random(t.n_states)
            assert pre_expectation_all(t, post).tobytes() == \
                bincount_product(t, post).tobytes()
        # signed zeros: each sum starts from +0.0, as a bincount bin does
        t = transition_from_edges([2, 0, 1], [0, 2, 1], [0.5, 0.25, 1.0],
                                  np.full(3, -0.0))
        post = np.full(3, -0.0)
        assert pre_expectation_all(t, post).tobytes() == \
            bincount_product(t, post).tobytes()

    def test_slot_table_fits_the_degrees(self, futures):
        idx, pr, tail = futures[0].valuation.transitions["month"]._slots
        assert idx.shape == pr.shape == (8, 1331) and len(tail[0]) == 0
        # one hub row of degree n beside rows of degree 3: the hub's edges
        # past slot K go to the tail instead of widening every state's column
        n = 10_000
        rng = np.random.default_rng(44)
        counts = np.full(n, 3)
        counts[17] = n
        rows = [(s + np.arange(1, 4)) % n for s in range(n)]
        rows[17] = rng.permutation(n)
        targets = np.concatenate(rows)
        t = transition_from_edges(counts, targets, rng.random(len(targets)) / n,
                                  np.zeros(n))
        idx, pr, (sources, _, _) = t._slots
        assert idx.shape == (3, n) and len(sources) == n - 3
        assert (sources == 17).all()
        assert idx.size <= 4 * len(t.indices)
        for arr in (idx, pr, sources):
            assert not arr.flags.writeable
        post = rng.random(n)
        assert pre_expectation_all(t, post).tobytes() == \
            bincount_product(t, post).tobytes()

    def test_rows_are_views_of_the_arrays(self):
        t = transition([[(2, 0.25), (0, 0.5)], [], [(1, 1.0)]], [0.25, 0.5, 0.0])
        assert t.indptr.tolist() == [0, 2, 2, 3]
        assert t.indices.tolist() == [0, 2, 1]
        assert [t.row(s) for s in range(3)] == [([0, 2], [0.5, 0.25]), ([], []),
                                                ([1], [1.0])]
        for arr in (t.indptr, t.indices, t.probs, t.weights):
            assert not arr.flags.writeable
        with pytest.raises(IndexError):
            t.row(3)

    def test_inconsistent_arrays_rejected(self):
        with pytest.raises(ModelError):
            Transition([0, 2], [0], [0.5], [0.0])
        with pytest.raises(ModelError):
            Transition([0, 1], [0], [0.5], [0.0, 0.0])
        with pytest.raises(ModelError, match="transition indptr must be a vector"):
            Transition([[0, 1]], [0], [0.5], [0.0])

    def test_transitions_compare_by_arrays(self):
        t = transition([[(0, 0.5)]], [0.25])
        assert t == transition([[(0, 0.5)]], [0.25]) != transition([[(0, 0.5)]])
        assert t != 1 and t.__eq__(1) is NotImplemented

    def test_directly_built_rows_checked_once_per_state(self):
        # state 0 has two targets out of range, state 1 a zero probability
        t = Transition([0, 2, 3], [5, -1, 0], [0.2, 0.3, 0.0], [0.0, 0.0])
        problems = validate(Model(StateSpace(("a", "b")),
                                  Valuation(transitions={"k": t})))
        assert [(d.rule, d.state) for d in problems] == [
            ("successor-range", 0), ("probability-positive", 1)]
        assert "target index 5" in problems[0].message

    def test_import_leaves_scipy_out(self):
        src = os.path.dirname(os.path.dirname(qmu.__file__))
        code = ("import sys, qmu, qmu.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, timeout=60,
                             env=dict(os.environ, PYTHONPATH=src))
        assert out.stdout.strip() == "[]"


def test_every_public_name_resolves():
    missing = [name for name in qmu.__all__ if not hasattr(qmu, name)]
    assert not missing
    assert len(set(qmu.__all__)) == len(qmu.__all__)
