"""Denotational evaluation: fixpoints, junctions, fix(x), strategy semantics."""

import numpy as np
import pytest

from qmu.core import Model, StateSpace, Valuation, expectation, predicate, transition
from qmu.evaluator import (
    DivergenceError, EvalConfig, FixNotSupportedError,
    NondeterministicFixBodyError, NotConvergedError, PathStrategy,
    UnresolvedSymbolError, _Masked, _run,
    evaluate, evaluate_fix, evaluate_with_strategies,
)
from qmu.formula import (
    Fix, MaxJ, MinJ, Mu, Nu, Var, assign_sites, check_entry, choice_sites, parse,
    reduce,
)
from qmu.oracle import InstanceBounds, random_instance
from qmu.strategy import MemorilessStrategy, synthesize
from generators import random_probabilistic_body
from specialize_reference import specialize, specialized_model

TOL = 1e-9


@pytest.fixture
def two_state():
    space = StateSpace(("u", "w"))
    valuation = Valuation(
        expectations={"e": expectation([0.25, 0.75])},
        transitions={"k": transition([[(0, 0.5), (1, 0.3)], [(0, 0.9)]],
                                     [0.1, 0.0]),
                     "swap": transition([[(1, 1.0)], [(0, 1.0)]])},
        transition_sets={},
        predicates={"g": predicate([True, False])},
    )
    return Model(space, valuation)


class TestFixpoints:
    def test_identity_bodies(self, two_state):
        assert np.array_equal(evaluate(Mu("X", Var("X")), two_state).result,
                              np.zeros(2))
        assert np.array_equal(evaluate(Nu("X", Var("X")), two_state).result,
                              np.ones(2))

    def test_mu_below_nu(self):
        for trial in range(100):
            inst = random_instance([57, trial])
            lo = evaluate(Mu(inst.free_var, inst.open_body), inst.model).result
            hi = evaluate(Nu(inst.free_var, inst.open_body), inst.model).result
            assert (lo <= hi + 10 * TOL).all()

    def test_non_convergence_reported(self, two_state):
        phi = reduce(parse("mu X . e \\/ <swap> X"), two_state.valuation)
        report = evaluate(phi, two_state, EvalConfig(max_iterations=1))
        assert not report.converged
        assert report.fixpoints["X"].iterations == 1

    def test_reports_are_bit_identical(self, two_state):
        phi = reduce(parse("mu X . e \\/ <k> (X /\\ <k> X)"), two_state.valuation)
        a = evaluate(phi, two_state)
        b = evaluate(phi, two_state)
        assert a == b
        assert np.array_equal(a.result, b.result)

    def test_unresolved_symbols(self, two_state):
        with pytest.raises(UnresolvedSymbolError):
            evaluate(parse("nothere"), two_state)
        with pytest.raises(UnresolvedSymbolError):
            evaluate(Var("X"), two_state)

    def test_set_modalities_rejected(self, two_state):
        with pytest.raises(Exception):
            evaluate(parse("<k> e"), two_state)  # unreduced set modality

    @pytest.mark.xfail(strict=True, reason="step-residual stop; ROADMAP direction 2")
    def test_slow_one_state_chain_reaches_its_fixpoint(self):
        # stays put with probability p, pays w: the least fixpoint is w / (1 - p)
        t = transition([[(0, 1.0 - 1e-10)]], [1e-10])
        model = Model(StateSpace(("s",)), Valuation(transitions={"k": t}))
        report = evaluate(reduce(parse("mu X . <k> X"), model.valuation), model)
        exact = t.weights[0] / (1.0 - t.probs[0])
        assert abs(report.result[0] - exact) <= EvalConfig().tolerance

    @pytest.mark.xfail(strict=True, reason="step-residual stop; ROADMAP direction 2")
    def test_fair_gamblers_ruin_reaches_its_fixpoint(self):
        # a fair walk on 0..N absorbed at both ends wins from i with chance i/N
        n = 100
        rows = [[]] + [[(i - 1, 0.5), (i + 1, 0.5)] for i in range(1, n)] + [[]]
        model = Model(StateSpace(tuple(f"s{i}" for i in range(n + 1))), Valuation(
            expectations={"win": expectation(np.arange(n + 1) == n)},
            transitions={"step": transition(rows)}))
        phi = reduce(parse("mu X . win \\/ <step> X"), model.valuation)
        report = evaluate(phi, model)
        gap = np.abs(report.result - np.arange(n + 1) / n).max()
        assert gap <= EvalConfig().tolerance


    def test_reports_compare_by_value(self, two_state):
        phi = reduce(parse("mu X . e \\/ <k> X"), two_state.valuation)
        report = evaluate(phi, two_state)
        assert report == evaluate(phi, two_state)
        assert report != 1 and report.__eq__(1) is NotImplemented


class TestJunctionLaws:
    def test_exact_pointwise_min_max(self):
        for trial in range(60):
            inst = random_instance([91, trial])
            base = evaluate(inst.phi, inst.model).result
            a0 = inst.model.valuation.expectations["a0"]
            combined = assign_sites(MaxJ(inst.phi, parse("a0")))
            assert np.array_equal(evaluate(combined, inst.model).result,
                                  np.maximum(base, a0))
            dual = assign_sites(MinJ(inst.phi, parse("a0")))
            assert np.array_equal(evaluate(dual, inst.model).result,
                                  np.minimum(base, a0))

    def test_monotone_in_constants(self):
        for trial in range(60):
            inst = random_instance([113, trial])
            v = inst.model.valuation
            base = evaluate(inst.phi, inst.model).result
            raised = Valuation(
                expectations={**v.expectations,
                              "a0": expectation(np.minimum(
                                  v.expectations["a0"] + 0.25, 1.0))},
                transitions=v.transitions,
                transition_sets=v.transition_sets,
                predicates=v.predicates,
            )
            lifted = evaluate(inst.phi, Model(inst.model.space, raised)).result
            assert (lifted >= base - 10 * TOL).all()


class TestEvaluateFix:
    def test_identity_body_returns_seed(self, two_state):
        report = evaluate_fix(Fix(0.37, "X", Var("X")), two_state)
        assert np.allclose(report.result, 0.37, atol=TOL)

    def test_fix_zero_one_match_mu_nu(self):
        for trial in range(20):
            model, var, body = random_probabilistic_body([131, trial])
            mu_val = evaluate(Mu(var, body), model).result
            nu_val = evaluate(Nu(var, body), model).result
            f0 = evaluate_fix(Fix(0.0, var, body), model).result
            f1 = evaluate_fix(Fix(1.0, var, body), model).result
            assert np.abs(f0 - mu_val).max() <= 2 * TOL
            assert np.abs(f1 - nu_val).max() <= 2 * TOL

    def test_plain_evaluate_rejects_fix(self, two_state):
        with pytest.raises(FixNotSupportedError):
            evaluate(Fix(0.5, "X", Var("X")), two_state)

    def test_nondeterministic_body_rejected(self, two_state):
        phi = reduce(parse("fix(0.5) X . <swap> X \\/ e"), two_state.valuation)
        with pytest.raises(NondeterministicFixBodyError):
            evaluate_fix(phi, two_state)

    def test_entry_errors_come_before_the_first_product(self, vardi,
                                                         monkeypatch):
        import qmu.evaluator
        model, _ = vardi
        products = []
        product = qmu.evaluator.pre_expectation_all

        def counted(t, post):
            products.append(1)
            return product(t, post)

        monkeypatch.setattr(qmu.evaluator, "pre_expectation_all", counted)
        phi = reduce(parse("mu Y . <k> Y /\\ (fix(0.5) X . <k> X \\/ atB)"),
                     model.valuation)
        with pytest.raises(NondeterministicFixBodyError):
            evaluate_fix(phi, model)
        with pytest.raises(FixNotSupportedError):
            evaluate(phi, model)
        phi = reduce(parse("mu X . <k> X \\/ <k> nope"), model.valuation)
        with pytest.raises(UnresolvedSymbolError, match="nope"):
            evaluate(phi, model)
        assert products == []

    def test_force_converging_junction_body(self, two_state):
        phi = reduce(parse("fix(0.5) X . <swap> X \\/ e"), two_state.valuation)
        report = evaluate_fix(phi, two_state, force=True)
        assert report.converged
        # from the constant seed the iterates settle on max(e-wave, e)
        assert np.allclose(report.result, [0.75, 0.75], atol=1e-6)

    def test_force_divergence_detector(self):
        # ring of 60 states: a value wave travels one step per iterate, so
        # the residual stays flat longer than the detector window
        n = 60
        space = StateSpace(tuple(f"r{i}" for i in range(n)))
        shift = transition([[((i + 1) % n, 1.0)] for i in range(n)])
        e = np.full(n, 0.5)
        e[0] = 0.9
        model = Model(space, Valuation(
            expectations={"e": expectation(e)},
            transitions={"shift": shift},
            transition_sets={},
            predicates={"g": predicate([i != 0 for i in range(n)])},
        ))
        phi = reduce(
            parse("fix(0.5) X . if g then (<shift> X \\/ <shift> X) else e"),
            model.valuation)
        with pytest.raises(DivergenceError):
            evaluate_fix(phi, model, force=True)


class TestStrategySemantics:
    @staticmethod
    def masked_and_rewritten(phi, model, strategy):
        """The reports of the strategy applied as junction masks and by the
        rewrite reference, after checking that the masked report's values
        are those of :func:`evaluate_with_strategies`."""
        n = model.space.size
        sigma_min, sigma_max = strategy.sides()
        masked = _run(phi, model, None, check_entry(phi, model, "reject"), _Masked(*(
            None if choices is None else np.array(choices, dtype=bool)
            for choices in (strategy.min_choices, strategy.max_choices))))
        values = evaluate_with_strategies(phi, model, sigma_min, sigma_max)
        assert np.array_equal(values, masked.result)
        phi2, ext = specialize(phi, strategy, n)
        return masked, evaluate(phi2, specialized_model(model, ext))

    def test_memoriless_matches_specialised_evaluation(self):
        for trial in range(40):
            inst = random_instance([151, trial])
            mins, maxs = choice_sites(inst.phi)
            rng = np.random.default_rng(trial)
            n = inst.model.space.size
            strategy = MemorilessStrategy(
                min_choices=tuple(rng.random(n) < 0.5 for _ in range(mins)),
                max_choices=tuple(rng.random(n) < 0.5 for _ in range(maxs)))
            for side in (strategy,
                         MemorilessStrategy(min_choices=strategy.min_choices),
                         MemorilessStrategy(max_choices=strategy.max_choices)):
                masked, rewritten = self.masked_and_rewritten(
                    inst.phi, inst.model, side)
                assert masked == rewritten

    def test_futures_fixed_strategies_match_rewrite(self, futures,
                                                    futures_strategy):
        from qmu.examples import atleast6_formula
        model, game = futures
        chance = reduce(atleast6_formula(), model.valuation)
        strategy, _ = futures_strategy
        predicates = model.valuation.predicates
        cases = [(game, strategy),
                 (game, MemorilessStrategy(max_choices=strategy.max_choices)),
                 (game, MemorilessStrategy(min_choices=strategy.min_choices)),
                 (game, MemorilessStrategy(
                     max_choices=(predicates["reserveAtCap"],))),
                 (chance, MemorilessStrategy(max_choices=(predicates["intuitive"],))),
                 (chance, synthesize(chance, model)[0])]
        for phi, side in cases:
            masked, rewritten = self.masked_and_rewritten(phi, model, side)
            assert masked == rewritten and masked.converged

    def test_one_sided_fixed_max_adversarial_min(self, futures):
        # fixing only the reserve-when-value-meets-cap rule for the
        # maximiser, with the minimiser left adversarial, reproduces the
        # fixed-strategy yield at v=0
        from qmu.examples import futures_index
        model, game = futures
        sigma_max = PathStrategy.from_choices(
            [model.valuation.predicates["reserveAtCap"]])
        values = evaluate_with_strategies(game, model, None, sigma_max)
        value = 10 * float(values[futures_index(0, 5, 10)])
        assert value == pytest.approx(3.68, abs=0.01)

    def test_choice_masks_of_tables_and_constants(self):
        tables = [np.array([True, False]), np.array([False, False])]
        assert np.array_equal(PathStrategy.from_choices(tables).choice_masks(2, 2),
                              np.array(tables))
        assert np.array_equal(PathStrategy.constant(False).choice_masks(3, 2),
                              np.zeros((3, 2), bool))
        for sigma in (PathStrategy.from_choices([]), PathStrategy.constant(True)):
            assert sigma.choice_masks(0, 2).shape == (0, 2)

    def test_both_sides_none_is_plain_evaluation(self):
        for trial in range(10):
            inst = random_instance([163, trial])
            values = evaluate_with_strategies(inst.phi, inst.model, None, None)
            assert np.array_equal(values, evaluate(inst.phi, inst.model).result)

    def test_constant_left_on_junction_free_formula(self, two_state):
        phi = reduce(parse("mu X . if g then e else <k> X"), two_state.valuation)
        values = evaluate_with_strategies(phi, two_state,
                                          PathStrategy.constant(True),
                                          PathStrategy.constant(True))
        base = evaluate(phi, two_state).result
        assert np.abs(values - base).max() <= 10 * TOL

    def test_memoriless_non_convergence_raises(self, futures, futures_strategy):
        model, game = futures
        sigma_min, sigma_max = futures_strategy[0].path_strategies()
        cfg = EvalConfig(max_iterations=3)
        assert not evaluate(game, model, cfg).converged
        with pytest.raises(NotConvergedError):
            evaluate_with_strategies(game, model, sigma_min, sigma_max, cfg)

    def test_unresolved_symbols_in_every_branch(self, vardi):
        model, _ = vardi
        phi = reduce(parse("if nope then atB else <k> atB"), model.valuation)
        history = PathStrategy(decide=lambda site, path, s: True)
        for sigma, depth in ((None, None), (history, 4)):
            with pytest.raises(UnresolvedSymbolError, match="nope"):
                evaluate_with_strategies(phi, model, sigma, sigma, depth=depth)

    def test_depth_zero_truncation_defaults(self, two_state):
        history = PathStrategy(decide=lambda site, path, s: len(path) % 2 == 0)
        mu_values = evaluate_with_strategies(
            Mu("X", Var("X")), two_state, history, history, depth=0)
        assert np.array_equal(mu_values, np.zeros(2))
        nu_values = evaluate_with_strategies(
            Nu("X", Var("X")), two_state, history, history, depth=0)
        assert np.array_equal(nu_values, np.ones(2))

    def test_unfolding_against_an_open_side_on_contracting_instances(self):
        # Every re-entry crosses a modality of mass at most 1/4, so cutting
        # the unfolding at depth d moves a value by at most 4^-d (the bound
        # is reached: a one-state nu loop that never pays unfolds to 4^-d).
        # The history-flagged max side reads the tables of the memoriless
        # reference, and min stays open on both sides of the comparison.
        depth = 3
        bounds = InstanceBounds(max_continue_mass=0.25)
        kinds = set()
        for trial in range(40):
            inst = random_instance([91, trial], bounds)
            mins, maxs = choice_sites(inst.phi)
            n = inst.model.space.size
            rng = np.random.default_rng(trial)
            tables = tuple(rng.random(n) < 0.5 for _ in range(maxs))
            history = PathStrategy(
                decide=lambda site, path, s, tables=tables: bool(tables[site][s]))
            assert not history.memoriless
            got = evaluate_with_strategies(inst.phi, inst.model, None, history,
                                           depth=depth)
            reference = evaluate_with_strategies(
                inst.phi, inst.model, None, PathStrategy.from_choices(tables))
            assert np.abs(got - reference).max() <= 0.25 ** depth + 10 * TOL
            kinds |= {"min site"} if mins else set()
            kinds |= {"conditional"} if " if " in f" {inst.text}" else set()
            kinds |= {"binder"} if inst.text.startswith(("mu", "nu")) else set()
        assert kinds == {"min site", "conditional", "binder"}

    def test_history_strategies_need_a_depth(self, two_state):
        history = PathStrategy(decide=lambda site, path, s: True)
        phi = reduce(parse("e \\/ <k> e"), two_state.valuation)
        with pytest.raises(TypeError):
            evaluate_with_strategies(phi, two_state, history, history)
        with pytest.raises(ValueError, match="depth must be non-negative"):
            evaluate_with_strategies(phi, two_state, history, history, depth=-1)


class TestConfig:
    def test_rejects_bad_parameters(self):
        # no step between expectations in [0, 1] exceeds 1, so a tolerance
        # of 1 or more would call any first iterate converged
        for tol in (0.0, -1e-9, 1.0, float("inf"), float("nan")):
            with pytest.raises(ValueError):
                EvalConfig(tolerance=tol)
        with pytest.raises(ValueError):
            EvalConfig(max_iterations=0)


def test_reachability_on_a_200000_state_ring():
    # storage and products grow with edges: a dense matrix of this size
    # would take 320 GB
    n = 200_000
    ring = transition([[((s + 1) % n, 0.5)] for s in range(n)])
    payoff = np.zeros(n)
    payoff[0] = 1.0
    model = Model(StateSpace(tuple(f"s{s}" for s in range(n))),
                  Valuation(expectations={"P": expectation(payoff)},
                            transitions={"a": ring}))
    rep = evaluate(reduce(parse("mu X . P \\/ <a> X"), model.valuation), model)
    assert rep.converged
    distance = (-np.arange(n)) % n
    assert np.max(np.abs(rep.result - 0.5 ** distance)) <= TOL
