"""Built-in futures and two-state models."""

import numpy as np
import pytest

from qmu.core import EPS_REPR, pre_expectation, validate
from qmu.evaluator import (
    EvalConfig, NotConvergedError, evaluate, evaluate_with_strategies,
)
from qmu.examples import (
    TABLE_LABELS, _profile, atleast6_formula, futures_index, futures_label,
    case_study_tables, round_half_up,
)
from qmu.formula import choice_sites, parse, reduce
from qmu.strategy import MemorilessStrategy
from specialize_reference import specialize, specialized_model


class TestFuturesModel:
    def test_month_rows_are_exact_distributions(self, futures):
        model, _ = futures
        month = model.valuation.transitions["month"]
        ptr = month.indptr
        sums = np.array([month.probs[a:b].sum() for a, b in zip(ptr[:-1], ptr[1:])])
        assert np.abs(sums - 1.0).max() <= EPS_REPR
        assert month.weights.max() == 0.0
        assert np.diff(ptr).max() <= 8

    def test_validates_clean(self, futures):
        model, _ = futures
        assert validate(model) == []

    def test_state_indexing(self, futures):
        model, _ = futures
        assert model.space.size == 1331
        assert futures_index(6, 5, 10) == 6 * 121 + 5 * 11 + 10
        assert model.space.labels[futures_index(6, 5, 10)] == "v6_p5_c10"
        assert model.space.index(futures_label(0, 0, 0)) == 0
        with pytest.raises(ValueError, match=r"futures state \(11, 0, 0\) out of range"):
            futures_index(11, 0, 0)

    def test_one_month_spot_values(self, futures):
        model, _ = futures
        month = model.valuation.transitions["month"]
        sold = model.valuation.expectations["Sold"]
        one = 10 * pre_expectation(month, futures_index(1, 5, 10), sold)
        ten = 10 * pre_expectation(month, futures_index(10, 5, 10), sold)
        assert one == pytest.approx(1.00, abs=5e-3)
        assert ten == pytest.approx(9.50, abs=5e-3)

    def test_game_formula_sites(self, futures):
        _, game = futures
        assert choice_sites(game) == (1, 1)


@pytest.fixture(scope="module")
def chance_value(futures):
    model, _ = futures
    phi = reduce(atleast6_formula(), model.valuation)
    return evaluate(phi, model).result


@pytest.fixture(scope="module")
def tables(futures):
    model, _ = futures
    return case_study_tables(model=model)


class TestChanceVariant:
    def test_at_six_and_five(self, futures, chance_value):
        assert chance_value[futures_index(6, 5, 10)] == pytest.approx(0.56, abs=0.01)
        assert chance_value[futures_index(5, 5, 10)] == pytest.approx(0.50, abs=0.01)


class TestVardi:
    def test_value_is_half(self, vardi):
        model, phi = vardi
        result = evaluate(phi, model).result
        assert np.allclose(result, 0.5, atol=1e-6)

    def test_committed_variant_is_half(self, vardi):
        model, phi = vardi
        strategy = MemorilessStrategy(
            max_choices=(model.valuation.predicates["atA"],))
        result = evaluate_with_strategies(phi, model, *strategy.sides())
        assert np.allclose(result, 0.5, atol=1e-6)

    def test_decide_after_stepping_variant_is_one(self, vardi):
        model, _ = vardi
        after = reduce(parse("mu X . <k> (atB \\/ X)"), model.valuation)
        result = evaluate(after, model).result
        assert np.allclose(result, 1.0, atol=1e-6)


class TestTables:
    def test_optimal_row(self, tables):
        [row] = tables["optimal"].rows.values()
        expected = [4.16, 4.30, 4.55, 4.88, 5.24, 5.52, 6.00,
                    7.00, 8.00, 9.00, 9.50]
        assert np.abs(np.array(row) - expected).max() <= 0.01 + 1e-12

    def test_yield_row(self, tables):
        [row] = tables["yield"].rows.values()
        expected = [3.68, 3.79, 3.97, 4.17, 4.29, 4.17, 4.16,
                    4.65, 5.61, 6.78, 9.50]
        assert np.abs(np.array(row) - expected).max() <= 0.01 + 1e-12

    def test_onemonth_row(self, tables):
        [row] = tables["onemonth"].rows.values()
        expected = [0.50, 1.00, 2.00, 3.00, 4.00, 5.00, 6.00,
                    7.00, 8.00, 9.00, 9.50]
        assert np.abs(np.array(row) - expected).max() <= 0.005 + 1e-12

    def test_probability_rows(self, tables):
        opt, intuitive = tables["probability"].rows.values()
        assert np.abs(np.array(opt) -
                      [0.25, 0.29, 0.34, 0.41, 0.46, 0.50, 0.56,
                       1.00, 1.00, 1.00, 1.00]).max() <= 0.01 + 1e-12
        assert np.abs(np.array(intuitive) -
                      [0.25, 0.28, 0.33, 0.37, 0.42, 0.50, 0.50,
                       1.00, 1.00, 1.00, 1.00]).max() <= 0.01 + 1e-12

    def test_rounding_is_half_up(self):
        assert round_half_up(4.155) == 4.16
        assert round_half_up(4.154) == 4.15

    def test_fixed_strategy_rows_equal_the_rewrite(self, futures, tables):
        model, game = futures
        chance = reduce(atleast6_formula(), model.valuation)

        def rewritten(phi, name):
            strategy = MemorilessStrategy(
                max_choices=(model.valuation.predicates[name],))
            phi2, ext = specialize(phi, strategy, model.space.size)
            return evaluate(phi2, specialized_model(model, ext)).result

        assert tables["yield"].rows == {
            TABLE_LABELS["yield"]: _profile(rewritten(game, "reserveAtCap"), 10.0)}
        assert tables["probability"].rows[TABLE_LABELS["probability"][1]] == (
            _profile(rewritten(chance, "intuitive"), 1.0))

    def test_not_converged_raises(self, futures):
        model, _ = futures
        with pytest.raises(NotConvergedError):
            case_study_tables(EvalConfig(max_iterations=1), model)
