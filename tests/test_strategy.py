"""Strategy synthesis, verification and advice, and the rewrite reference."""

import json

import numpy as np
import pytest

import qmu.strategy
from qmu.core import Model, StateSpace, Valuation, expectation
from qmu.evaluator import (
    EvalConfig, NotConvergedError, evaluate, evaluate_with_strategies,
)
from qmu.examples import futures_index, one_step_advice
from qmu.formula import Cond, Modal, Mu, Var, alpha_equal, parse, reduce
from qmu.oracle import random_instance
from qmu.strategy import (
    FingerprintMismatchError, MemorilessStrategy, StrategyError,
    load_strategy, save_strategy, synthesize, verify_strategy,
)
from specialize_reference import specialize, specialized_model


def rewrite_residual(phi, model, strategy):
    """The verify residual with the strategy applied by the formula rewrite."""
    phi2, ext = specialize(phi, strategy, model.space.size)
    base = evaluate(phi, model).result
    fixed = evaluate(phi2, specialized_model(model, ext)).result
    return float(np.max(np.abs(fixed - base)))


class TestSynthesize:
    def test_futures_reserve_set(self, futures, futures_strategy):
        model, _ = futures
        strategy, _value = futures_strategy
        picks = strategy.max_choices[0]
        for v in range(11):
            expected = v >= 6
            assert bool(picks[futures_index(v, 5, 10)]) == expected, v

    def test_vardi_picks_the_committing_state(self, vardi):
        model, phi = vardi
        strategy, value = synthesize(phi, model)
        assert np.array_equal(strategy.max_choices[0],
                              model.valuation.predicates["atA"])
        assert np.allclose(value, 0.5, atol=1e-9)

    def test_junction_free_formula_gives_empty_strategy(self, vardi):
        model, _ = vardi
        phi = reduce(parse("<k> atB"), model.valuation)
        strategy, value = synthesize(phi, model)
        assert strategy.min_choices == ()
        assert strategy.max_choices == ()
        assert np.array_equal(value, evaluate(phi, model).result)

    def test_ties_break_left(self):
        space_model = Model(
            space=StateSpace(("a",)),
            valuation=Valuation(expectations={"e": expectation([0.5])}))
        phi = parse("e \\/ e")
        strategy, _ = synthesize(phi, space_model)
        assert strategy.max_choices[0].all()
        phi2 = parse("e /\\ e")
        strategy2, _ = synthesize(phi2, space_model)
        assert strategy2.min_choices[0].all()


    def test_synthesis_solves_once(self, futures, monkeypatch):
        import qmu.evaluator
        model, game = futures
        product = qmu.evaluator.pre_expectation_all
        calls = [0]

        def counting(t, post):
            calls[0] += 1
            return product(t, post)

        monkeypatch.setattr(qmu.evaluator, "pre_expectation_all", counting)
        evaluate(game, model)
        evaluated, calls[0] = calls[0], 0
        synthesize(game, model)
        assert calls[0] == evaluated > 0


class TestSpecialize:
    """The formula rewrite kept in ``specialize_reference``."""

    def test_vardi_committed_formula_shape(self, vardi):
        model, phi = vardi
        strategy = MemorilessStrategy(
            max_choices=(model.valuation.predicates["atA"],))
        phi2, ext = specialize(phi, strategy, model.space.size)
        assert isinstance(phi2, Mu)
        cond = phi2.body
        assert isinstance(cond, Cond)
        assert cond.then_branch == Modal("k", parse("atB"))
        assert cond.else_branch == Modal("k", Var(phi2.var))
        assert set(ext) == {"_max0"}
        # committed value stays the game value
        value = evaluate(phi2, specialized_model(model, ext)).result
        assert np.allclose(value, 0.5, atol=1e-9)

    def test_empty_strategy_leaves_formula_alone(self, vardi):
        model, phi = vardi
        phi2, ext = specialize(phi, MemorilessStrategy(), model.space.size)
        assert alpha_equal(phi2, phi)
        assert ext == {}

    def test_site_count_mismatch(self, vardi):
        model, phi = vardi
        bad = MemorilessStrategy(max_choices=(np.array([True, False]),) * 2)
        with pytest.raises(StrategyError):
            specialize(phi, bad, model.space.size)

    def test_choice_masks_count_sites_and_entries(self, vardi):
        model, phi = vardi
        n = model.space.size

        def max_masks(strategy):
            return strategy.sides()[1].choice_masks("max", 1, n)

        fits = MemorilessStrategy(max_choices=(np.array([True, False]),))
        assert np.array_equal(max_masks(fits), [[True, False]])
        verify_strategy(phi, model, fits)
        short = MemorilessStrategy(max_choices=(np.array([True]),))
        with pytest.raises(StrategyError, match="entries"):
            max_masks(short)
        with pytest.raises(StrategyError, match="entries"):
            verify_strategy(phi, model, short)
        square = MemorilessStrategy(max_choices=(np.ones((2, 2), bool),))
        with pytest.raises(StrategyError, match=r"shape \(2, 2\), model has 2"):
            max_masks(square)
        with pytest.raises(StrategyError, match=r"shape \(2, 2\), model has 2"):
            verify_strategy(phi, model, square)
        two_sites = MemorilessStrategy(max_choices=(np.array([True, False]),) * 2)
        with pytest.raises(StrategyError, match="sites"):
            max_masks(two_sites)
        with pytest.raises(StrategyError, match="sites"):
            specialize(phi, two_sites, n)
        with pytest.raises(StrategyError, match="sites"):
            verify_strategy(phi, model, two_sites)

    def test_neutral_extension_does_not_move_values(self, vardi):
        model, phi = vardi
        strategy = MemorilessStrategy(
            max_choices=(model.valuation.predicates["atA"],))
        _, ext = specialize(phi, strategy, model.space.size)
        base = evaluate(phi, model).result
        extended = evaluate(phi, specialized_model(model, ext)).result
        assert np.array_equal(base, extended)


class TestVerify:
    def test_synthesized_strategy_is_tight(self, futures, futures_strategy):
        model, game = futures
        strategy, _ = futures_strategy
        assert verify_strategy(game, model, strategy) <= 1e-8

    def test_one_sided_fixing_is_tight(self, futures, futures_strategy):
        model, game = futures
        strategy, _ = futures_strategy
        for side in (MemorilessStrategy(max_choices=strategy.max_choices),
                     MemorilessStrategy(min_choices=strategy.min_choices)):
            assert verify_strategy(game, model, side) <= 1e-8

    def test_always_wait_forfeits_everything(self, futures, futures_report):
        model, game = futures
        n = model.space.size
        always_wait = MemorilessStrategy(max_choices=(np.zeros(n, bool),))
        residual = verify_strategy(game, model, always_wait)
        assert residual >= 0.05
        wait_value = evaluate_with_strategies(game, model, *always_wait.sides())
        i = futures_index(10, 5, 10)
        gap = futures_report.result[i] - wait_value[i]
        # never reserving never sells: the whole 0.95 is forfeited at v=10
        assert gap == pytest.approx(0.95, abs=1e-6)

    def test_random_synthesis_verifies(self):
        for trial in range(40):
            inst = random_instance([271, trial])
            strategy, _ = synthesize(inst.phi, inst.model)
            assert verify_strategy(inst.phi, inst.model, strategy) <= 1e-8

    def test_residuals_equal_the_rewrite(self, futures, futures_strategy):
        model, game = futures
        strategy, _ = futures_strategy
        n = model.space.size
        cases = [(game, model, side) for side in (
            strategy,
            MemorilessStrategy(max_choices=strategy.max_choices),
            MemorilessStrategy(min_choices=strategy.min_choices),
            MemorilessStrategy(max_choices=(np.zeros(n, bool),)),
            MemorilessStrategy(
                max_choices=(model.valuation.predicates["reserveAtCap"],)))]
        for trial in range(40):
            inst = random_instance([271, trial])
            full, _ = synthesize(inst.phi, inst.model)
            rng = np.random.default_rng(trial)
            n = inst.model.space.size
            drawn = MemorilessStrategy(
                min_choices=tuple(rng.random(n) < 0.5 for _ in full.min_choices),
                max_choices=tuple(rng.random(n) < 0.5 for _ in full.max_choices))
            cases += [(inst.phi, inst.model, side) for side in (
                full, drawn, MemorilessStrategy(min_choices=drawn.min_choices),
                MemorilessStrategy(max_choices=drawn.max_choices))]
        for phi, m, side in cases:
            assert verify_strategy(phi, m, side) == rewrite_residual(phi, m, side)

    def test_given_base_skips_the_evaluation(self, futures, futures_strategy,
                                             monkeypatch):
        model, game = futures
        strategy, value = futures_strategy
        cases = [(game, model, strategy, value)]
        for trial in range(20):
            inst = random_instance([271, trial])
            cases.append((inst.phi, inst.model,
                          *synthesize(inst.phi, inst.model)))
        without = [verify_strategy(phi, m, sigma) for phi, m, sigma, _ in cases]
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(qmu.strategy, "evaluate", counted)
        with_base = [verify_strategy(phi, m, sigma, base=base)
                     for phi, m, sigma, base in cases]
        assert calls == []
        # the residual is bit-identical either way
        assert [np.float64(r).tobytes() for r in with_base] == \
            [np.float64(r).tobytes() for r in without]
        verify_strategy(game, model, strategy)
        assert len(calls) == 1

    @pytest.mark.xfail(strict=True, reason="tie rule; ROADMAP direction 13")
    def test_synthesized_strategy_is_optimal_on_a_tie(self):
        # mu X . a0 \/ (<t0> X \/ <t1> X) on 2 states: synthesize returns
        # the brute-force value [0.3369, 0.4473].  At s0, <t0> X is a
        # self-loop that ties with <t1> X; ties break left, so the strategy
        # loops at s0 forever, which mu values at 0
        inst = random_instance([11, 166])
        cfg = EvalConfig()
        strategy, _ = synthesize(inst.phi, inst.model, cfg)
        assert verify_strategy(inst.phi, inst.model, strategy,
                               cfg) <= 10 * cfg.tolerance

    def test_not_converged_raises(self, vardi):
        model, phi = vardi
        strategy = MemorilessStrategy(
            max_choices=(model.valuation.predicates["atA"],))
        with pytest.raises(NotConvergedError):
            verify_strategy(phi, model, strategy, EvalConfig(max_iterations=1))


class TestOneStepAdvice:
    @pytest.mark.parametrize("v,expected", [(6, True), (3, False), (10, True)])
    def test_boundary_share_values(self, futures, futures_report, v, expected):
        model, _ = futures
        s = futures_index(v, 5, 10)
        assert one_step_advice(model, futures_report.result, s) is expected

    def test_reserve_set_matches_table_comparison(self, futures, futures_report):
        model, _ = futures
        reserve = {v for v in range(11)
                   if one_step_advice(model, futures_report.result,
                                      futures_index(v, 5, 10))}
        assert reserve == {6, 7, 8, 9, 10}


class TestStrategyFiles:
    def test_round_trip(self, tmp_path, vardi):
        model, phi = vardi
        strategy, _ = synthesize(phi, model)
        path = tmp_path / "vardi.strategy.json"
        save_strategy(path, strategy, phi)
        loaded = load_strategy(path, phi)
        assert np.array_equal(loaded.max_choices[0], strategy.max_choices[0])
        assert loaded.min_choices == ()

    def test_fingerprint_mismatch_rejected(self, tmp_path, vardi):
        model, phi = vardi
        strategy, _ = synthesize(phi, model)
        path = tmp_path / "vardi.strategy.json"
        save_strategy(path, strategy, phi)
        other = reduce(parse("mu X . <k> (atB \\/ X)"), model.valuation)
        with pytest.raises(FingerprintMismatchError):
            load_strategy(path, other)

    def test_file_is_one_compact_line(self, tmp_path, futures, futures_strategy):
        model, game = futures
        strategy, _ = futures_strategy
        path = tmp_path / "futures.strategy.json"
        save_strategy(path, strategy, game)
        text = path.read_text()
        assert text.count("\n") == 1 and text.endswith("}\n")
        assert json.loads(text) == qmu.strategy.strategy_to_dict(strategy, game)
        loaded = load_strategy(path, game)
        for ours, theirs in ((strategy.min_choices, loaded.min_choices),
                             (strategy.max_choices, loaded.max_choices)):
            assert len(ours) == len(theirs)
            assert all(map(np.array_equal, ours, theirs))

    def test_failed_save_leaves_the_old_file(self, tmp_path, vardi, monkeypatch):
        model, phi = vardi
        strategy, _ = synthesize(phi, model)
        path = tmp_path / "vardi.strategy.json"
        save_strategy(path, strategy, phi)
        before = path.read_text()

        def broken(strategy, phi):
            raise RuntimeError("no document")

        monkeypatch.setattr(qmu.strategy, "strategy_to_dict", broken)
        with pytest.raises(RuntimeError, match="no document"):
            save_strategy(path, strategy, phi)
        assert path.read_text() == before

    def test_partial_strategy_round_trip(self, tmp_path, vardi):
        model, phi = vardi
        partial = MemorilessStrategy(
            max_choices=(model.valuation.predicates["atA"],))
        path = tmp_path / "partial.json"
        save_strategy(path, partial, phi)
        loaded = load_strategy(path, phi)
        assert loaded.min_choices is None
        assert np.array_equal(loaded.max_choices[0], partial.max_choices[0])
        with pytest.raises(StrategyError, match="both sides are needed"):
            loaded.path_strategies()

    @pytest.mark.parametrize("edit, match", [
        (lambda d: d["max_choices"].update(x=d["max_choices"].pop("0")),
         "^malformed max choice map: key 'x' is not a site number$"),
        (lambda d: d["max_choices"].update({"00": d["max_choices"].pop("0")}),
         "^malformed max choice map: key '00' is not a site number$"),
        (lambda d: d["max_choices"].update({"-0": d["max_choices"].pop("0")}),
         "^malformed max choice map: key '-0' is not a site number$"),
        (lambda d: d["max_choices"].update({" 0": d["max_choices"].pop("0")}),
         "^malformed max choice map: key ' 0' is not a site number$"),
        (lambda d: d["max_choices"].update({"1": d["max_choices"].pop("0")}),
         r"^max choice map sites are not 0\.\.0$"),
        (lambda d: d.update(schema="qmu-strategy/99"),
         "^unsupported strategy schema 'qmu-strategy/99'$"),
    ], ids=["key-not-an-integer", "key-00", "key-minus-0", "key-space-0",
            "sites-not-0-to-k", "schema"])
    def test_malformed_document_rejected(self, vardi, edit, match):
        model, phi = vardi
        strategy, _ = synthesize(phi, model)
        data = qmu.strategy.strategy_to_dict(strategy, phi)
        edit(data)
        with pytest.raises(StrategyError, match=match):
            qmu.strategy.strategy_from_dict(data, phi)
