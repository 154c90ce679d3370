"""The support pass: the states it decides are exactly 0.

A closed binder containing a ``nu`` is held at 0 on the states the pass
decides.  Each decision is checked against the brute-force value of that
binder, over a pool of single-transition instances built to have zeros:
about half the constant entries are 0, most rows keep their whole mass, and
the templates include the futures nest's shape.  Hand-built cases show the
pass declining where the transient rule does not hold.
"""

import numpy as np
import pytest

from qmu.core import (
    Model, StateSpace, Transition, Valuation, expectation, predicate, transition,
)
from qmu.evaluator import EvalConfig, _Plan, _pointwise, evaluate, evaluate_fix
from qmu.formula import (
    Fix, Mu, Nu, assign_sites, check_entry, parse, reduce, subformulae,
)
from qmu.oracle import TinyInstance, brute_minimax

#: Closed nu templates over one transition; {a} and {b} are constants.
TEMPLATES = [
    "nu Y . mu X . ({a} /\\ <t> Y) \\/ <t> X",  # the futures nest's shape
    "nu Y . {a} /\\ <t> Y",
    "nu Y . <t> Y",
    "nu Y . if g then <t> Y else {a} /\\ <t> Y",
    "nu Y . ({a} /\\ <t> Y) \\/ ({b} /\\ <t> <t> Y)",
    "nu Y . mu X . <t> (({a} /\\ Y) \\/ X)",
    "nu Y . mu X . <t> (({a} /\\ Y) \\/ ({b} /\\ X))",
    "mu X . nu Y . <t> Y /\\ ({a} \\/ <t> X)",
    "mu X . {a} \\/ <t> X \\/ <t> (nu Y . {b} /\\ <t> Y)",
]

POOL = 2000


def pool_instance(seed):
    """A model of at most 4 states with one transition ``t``, and a closed
    reduced formula over it."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    rows, weights = [], []
    for _ in range(n):
        targets = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
        share = rng.random(len(targets)) + 0.05
        mass = 1.0 if rng.random() < 0.6 else rng.uniform(0.2, 0.95)
        rows.append(list(zip(targets.tolist(), (mass * share / share.sum()).tolist())))
        paid = mass < 1.0 and rng.random() < 0.5
        weights.append(float((1.0 - mass) * rng.uniform(0.3, 1.0)) if paid else 0.0)

    def constant():
        return expectation(np.where(rng.random(n) < 0.5, 0.0, rng.random(n)))

    model = Model(StateSpace(tuple(f"s{i}" for i in range(n))), Valuation(
        expectations={"a0": constant(), "a1": constant()},
        transitions={"t": transition(rows, weights)},
        predicates={"g": predicate(rng.random(n) < 0.5)}))
    text = TEMPLATES[int(rng.integers(len(TEMPLATES)))].format(
        a=("a0", "a1")[int(rng.integers(2))], b=("a0", "a1")[int(rng.integers(2))])
    return model, reduce(parse(text), model.valuation)


def decisions(phi, model, fix_policy="reject"):
    """Each deciding binder's node with the states the pass fixed at 0."""
    plan = _Plan(phi, model, check_entry(phi, model, fix_policy).forced)
    binders = {node.var: node for node in subformulae(phi)
               if isinstance(node, (Mu, Nu, Fix))}
    return [(binders[loop.var], states)
            for loop, states in plan.decide(_pointwise).items()]


def brute_value(node, model):
    inst = TinyInstance(model=model, phi=assign_sites(node), text="",
                        free_var="W0", alternating=False, template="")
    return brute_minimax(inst).minimax


def decided_counts(seeds):
    """Check every decision of the pool against the brute force; returns
    the number of decided states.

    Kleene iteration of a nest over rows that keep their whole mass can be
    slow, and the decisions do not depend on it, so ``evaluate`` runs a few
    iterations only, to read the decided counts and the held zeros.
    """
    short = EvalConfig(max_iterations=20)
    total = 0
    for seed in seeds:
        model, phi = pool_instance(seed)
        found = decisions(phi, model)
        report = evaluate(phi, model, short)
        for node, states in found:
            value = brute_value(node, model)
            assert value[states].max() <= 1e-12, (seed, node)
            assert report.fixpoints[node.var].decided == np.count_nonzero(states)
            if node is phi:
                assert not report.result[states].any()
            total += int(np.count_nonzero(states))
    return total


class TestSoundness:
    def test_every_decided_state_is_zero(self):
        assert decided_counts(range(POOL)) >= 2000

    def test_the_transient_rule_decides_more(self, monkeypatch):
        # with no closed bottom states known, each nu keeps its
        # finite-stage support, which decides fewer states
        def decided():
            return sum(np.count_nonzero(states) for model, phi in
                       map(pool_instance, range(0, POOL, 4))
                       for _, states in decisions(phi, model))

        with_rule = decided()
        monkeypatch.setattr(Transition, "_recurrent", property(lambda t: None))
        assert with_rule - decided() >= 200

    def test_futures_play_ends_where_no_claim_pays(self, futures):
        # why the futures nest is decided everywhere: the month transition
        # has one bottom component, of 11 states, and no atLeast6 state in it
        model, _ = futures
        bottom = model.valuation.transitions["month"]._recurrent
        assert np.count_nonzero(bottom) == 11
        assert not model.valuation.expectations["atLeast6"][bottom].any()


def chain_model(rows, weights=None, **expectations):
    """A model over one transition ``t`` with the given rows."""
    n = len(rows)
    return Model(StateSpace(tuple(f"s{i}" for i in range(n))), Valuation(
        expectations={name: expectation(v) for name, v in expectations.items()},
        transitions={"t": transition(rows, weights)}))


class TestDeclines:
    """Where the transient rule does not hold the pass keeps finite-stage
    supports, which here decide nothing, and the values stay positive."""

    @staticmethod
    def assert_declines(phi, model):
        assert decisions(phi, model) == []
        report = evaluate(phi, model)
        assert all(st.decided == 0 for st in report.fixpoints.values())
        value = brute_value(phi, model)
        assert np.abs(report.result - value).max() <= 1e-8
        return value

    def test_unguarded_variable(self):
        # s0 moves to s1, which loops; a is 0 everywhere.  Y \/ ... is 1,
        # but treating s0 as transient would give it 0
        model = chain_model([[(1, 1.0)], [(1, 1.0)]], a=[0.0, 0.0])
        phi = reduce(parse("nu Y . Y \\/ (a /\\ <t> Y)"), model.valuation)
        assert self.assert_declines(phi, model).tolist() == [1.0, 1.0]

    def test_two_transitions(self):
        # t0's bottom state s1 is left by t1, and t1's bottom state s0 by
        # t0, so neither transition's bottom components bound the play
        model = Model(StateSpace(("s0", "s1")), Valuation(transitions={
            "t0": transition([[(1, 1.0)], [(1, 1.0)]]),
            "t1": transition([[(0, 1.0)], [(0, 1.0)]])}))
        phi = reduce(parse("nu Y . <t0> <t1> Y /\\ <t1> <t0> Y"), model.valuation)
        assert self.assert_declines(phi, model).tolist() == [1.0, 1.0]

    @pytest.mark.parametrize("stay, weight, value", [
        (1.0 - 1e-13, 0.0, 1.0),  # closed under EPS_REPR: a bottom state
        (0.5, 0.25, 0.5),         # leaking, and halting pays
    ], ids=["within-eps-repr", "leaking-with-payoff"])
    def test_bottom_component_that_leaks(self, stay, weight, value):
        # s0 moves to s1, which stays with probability ``stay``
        model = chain_model([[(1, 1.0)], [(1, stay)]], [0.0, weight])
        phi = reduce(parse("nu Y . <t> Y"), model.valuation)
        assert self.assert_declines(phi, model) == pytest.approx([value] * 2,
                                                                  abs=1e-12)

    def test_leaking_bottom_component_without_payoff_is_decided(self):
        # play there halts with probability one and halting pays 0
        model = chain_model([[(1, 1.0)], [(1, 0.5)]])
        phi = reduce(parse("nu Y . <t> Y"), model.valuation)
        (_, states), = decisions(phi, model)
        assert states.tolist() == [True, True]
        assert brute_value(phi, model).tolist() == [0.0, 0.0]

    def test_fix(self):
        # fix(1) Z . Y is Y, yet a closed binder containing a fix gets no
        # decisions; without it the pass decides s0
        model = chain_model([[(1, 1.0)], [(1, 1.0)]], a=[0.0, 1.0])
        plain = reduce(parse("nu Y . a /\\ <t> Y"), model.valuation)
        (_, states), = decisions(plain, model)
        assert states.tolist() == [True, False]
        phi = reduce(parse("nu Y . a /\\ <t> (fix(1) Z . Y)"), model.valuation)
        assert decisions(phi, model, "pure") == []
        report = evaluate_fix(phi, model)
        assert all(st.decided == 0 for st in report.fixpoints.values())
        assert report.result.tolist() == evaluate(plain, model).result.tolist()
