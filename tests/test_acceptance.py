"""Acceptance criteria: every check prints one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.
"""

import time

import numpy as np
import pytest

from qmu.core import pre_expectation
from qmu.evaluator import (
    EvalConfig, evaluate, evaluate_fix, evaluate_with_strategies,
)
from qmu.examples import atleast6_formula, futures_index
from qmu.formula import Fix, Mu, Nu, alpha_equal, assign_sites, choice_sites, reduce
from qmu.formula import MaxJ, MinJ, parse
from qmu.game import estimate, expand_tree
from qmu.oracle import InstanceBounds, brute_minimax, random_instance
from qmu.strategy import MemorilessStrategy, synthesize, verify_strategy
from generators import random_probabilistic_body

TOL = 1e-6


def report(name: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def oracle_pool():
    """The 100 seeded instances shared by the equivalence criteria."""
    start = time.monotonic()
    instances = [random_instance([2026, i]) for i in range(100)]
    assert any(inst.alternating for inst in instances)
    return instances, time.monotonic() - start


@pytest.fixture(scope="module")
def brute_results(oracle_pool):
    instances, gen_elapsed = oracle_pool
    start = time.monotonic()
    results = [brute_minimax(inst) for inst in instances]
    return results, gen_elapsed + (time.monotonic() - start)


@pytest.fixture(scope="module")
def property_pool():
    return [random_instance([31337, i]) for i in range(1000)]


def test_optimal_sale_table(futures):
    model, game = futures
    start = time.monotonic()
    values = evaluate(game, model).result
    row = [10 * float(values[futures_index(v, 5, 10)]) for v in range(11)]
    expected = [4.16, 4.30, 4.55, 4.88, 5.24, 5.52, 6.00, 7.00, 8.00, 9.00, 9.50]
    gap = max(abs(a - b) for a, b in zip(row, expected))
    elapsed = time.monotonic() - start
    report("optimal-sale-table", gap <= 0.01 and elapsed < 60.0,
           f"(max deviation {gap:.4f}, {elapsed:.1f}s)")


def test_fixed_strategy_yield_table(futures):
    model, game = futures
    fixed_max = MemorilessStrategy(
        max_choices=(model.valuation.predicates["reserveAtCap"],))
    values = evaluate_with_strategies(game, model, *fixed_max.sides())
    row = [10 * float(values[futures_index(v, 5, 10)]) for v in range(11)]
    expected = [3.68, 3.79, 3.97, 4.17, 4.29, 4.17, 4.16, 4.65, 5.61, 6.78, 9.50]
    gap = max(abs(a - b) for a, b in zip(row, expected))
    report("fixed-strategy-yield-table", gap <= 0.01, f"(max deviation {gap:.4f})")


def test_one_month_table(futures):
    model, _ = futures
    month = model.valuation.transitions["month"]
    sold = model.valuation.expectations["Sold"]
    row = [10 * pre_expectation(month, futures_index(v, 5, 10), sold)
           for v in range(11)]
    expected = [0.50, 1.00, 2.00, 3.00, 4.00, 5.00, 6.00, 7.00, 8.00, 9.00, 9.50]
    gap = max(abs(a - b) for a, b in zip(row, expected))
    report("one-month-table", gap <= 0.005, f"(max deviation {gap:.4f})")


def test_reach_probability_tables(futures):
    model, _ = futures
    chance = reduce(atleast6_formula(), model.valuation)
    optimal = evaluate(chance, model).result
    fixed = MemorilessStrategy(
        max_choices=(model.valuation.predicates["intuitive"],))
    intuitive = evaluate_with_strategies(chance, model, *fixed.sides())
    opt_row = [float(optimal[futures_index(v, 5, 10)]) for v in range(11)]
    int_row = [float(intuitive[futures_index(v, 5, 10)]) for v in range(11)]
    opt_expected = [0.25, 0.29, 0.34, 0.41, 0.46, 0.50, 0.56, 1.00, 1.00, 1.00, 1.00]
    int_expected = [0.25, 0.28, 0.33, 0.37, 0.42, 0.50, 0.50, 1.00, 1.00, 1.00, 1.00]
    gap = max(max(abs(a - b) for a, b in zip(opt_row, opt_expected)),
              max(abs(a - b) for a, b in zip(int_row, int_expected)))
    split = (abs(opt_row[6] - 0.56) <= 0.01 and abs(int_row[6] - 0.50) <= 0.01)
    report("reach-probability-tables", gap <= 0.01 and split,
           f"(max deviation {gap:.4f}, v=6 split {opt_row[6]:.3f} vs {int_row[6]:.3f})")


def test_two_state_example(vardi):
    model, phi = vardi
    value = evaluate(phi, model).result
    strategy, _ = synthesize(phi, model)
    committed_value = evaluate_with_strategies(
        phi, model, *MemorilessStrategy(max_choices=strategy.max_choices).sides())
    ok = (np.abs(value - 0.5).max() <= TOL
          and np.array_equal(strategy.max_choices[0],
                             model.valuation.predicates["atA"])
          and np.abs(committed_value - 0.5).max() <= TOL)
    report("two-state-example", ok,
           f"(value {value.tolist()}, predicate {strategy.max_choices[0].tolist()})")


def test_minimax_equals_maximin_equals_denotation(oracle_pool, brute_results):
    instances, _ = oracle_pool
    results, setup_elapsed = brute_results
    start = time.monotonic()
    worst_mm = worst_de = 0.0
    for inst, result in zip(instances, results):
        deno = evaluate(inst.phi, inst.model).result
        worst_mm = max(worst_mm, float(np.abs(result.minimax - result.maximin).max()))
        worst_de = max(worst_de, float(np.abs(result.minimax - deno).max()))
    elapsed = setup_elapsed + (time.monotonic() - start)
    n_alt = sum(inst.alternating for inst in instances)
    report("minimax-equals-maximin-equals-denotation",
           worst_mm <= TOL and worst_de <= TOL and elapsed < 300.0,
           f"(|mm-mx| {worst_mm:.2e}, |mm-eval| {worst_de:.2e}, "
           f"{n_alt} alternating, {elapsed:.1f}s)")


def test_memoriless_sufficiency(oracle_pool, brute_results):
    instances, _ = oracle_pool
    results, _ = brute_results
    worst_residual = worst_side = 0.0
    for inst, result in zip(instances, results):
        strategy, value = synthesize(inst.phi, inst.model)
        worst_residual = max(worst_residual,
                             verify_strategy(inst.phi, inst.model, strategy))
        for side in (MemorilessStrategy(max_choices=strategy.max_choices),
                     MemorilessStrategy(min_choices=strategy.min_choices)):
            worst_side = max(worst_side,
                             verify_strategy(inst.phi, inst.model, side))
    report("memoriless-sufficiency",
           worst_residual <= TOL and worst_side <= TOL,
           f"(full residual {worst_residual:.2e}, one-sided {worst_side:.2e})")


def test_game_agrees_with_denotation(futures, futures_strategy):
    model, game = futures
    strategy, value = futures_strategy
    sigma_min, sigma_max = strategy.path_strategies()
    s0 = futures_index(6, 5, 10)
    result = estimate(game, model, s0, sigma_min, sigma_max,
                      n_paths=100_000, max_depth=200, seed=2026)
    lo = result.mean_low - 3.5 * result.std_error
    hi = result.mean_high + 3.5 * result.std_error
    denotation = float(value[s0])
    truncated_fraction = result.n_truncated / 100_000
    report("game-agrees-with-denotation",
           lo <= denotation <= hi and truncated_fraction < 0.01,
           f"(value {denotation:.4f} in [{lo:.4f}, {hi:.4f}], "
           f"truncated {100 * truncated_fraction:.3f}%)")


def test_tree_expansion_agrees_with_strategy_evaluator():
    bounds = InstanceBounds(max_states=3, max_continue_mass=0.25)
    worst = 0.0
    for trial in range(20):
        inst = random_instance([424242, trial], bounds)
        mins, maxs = choice_sites(inst.phi)
        rng = np.random.default_rng(trial)
        n = inst.model.space.size
        strategy = MemorilessStrategy(
            min_choices=tuple(rng.random(n) < 0.5 for _ in range(mins)),
            max_choices=tuple(rng.random(n) < 0.5 for _ in range(maxs)))
        sigma_min, sigma_max = strategy.path_strategies()
        reference = evaluate_with_strategies(inst.phi, inst.model,
                                             sigma_min, sigma_max)
        for s0 in range(n):
            value = expand_tree(inst.phi, inst.model, s0, sigma_min,
                                sigma_max, depth=12)
            worst = max(worst, abs(value - float(reference[s0])))
    report("tree-vs-strategy-evaluator", worst <= TOL, f"(max gap {worst:.2e})")


def test_intermediate_fixpoint_consistency():
    cfg = EvalConfig()
    worst = 0.0
    for trial in range(20):
        model, var, body = random_probabilistic_body([515151, trial])
        mu_val = evaluate(Mu(var, body), model, cfg).result
        nu_val = evaluate(Nu(var, body), model, cfg).result
        f0 = evaluate_fix(Fix(0.0, var, body), model, cfg).result
        f1 = evaluate_fix(Fix(1.0, var, body), model, cfg).result
        fmid = evaluate_fix(Fix(0.5, var, body), model, cfg).result
        worst = max(worst, float(np.abs(f0 - mu_val).max()),
                    float(np.abs(f1 - nu_val).max()))
        assert (mu_val - 10 * cfg.tolerance <= fmid).all()
        assert (fmid <= nu_val + 10 * cfg.tolerance).all()
    report("intermediate-fixpoint-consistency", worst <= 2 * cfg.tolerance,
           f"(max gap {worst:.2e})")


class TestPropertySuites:
    def test_boundedness(self, property_pool):
        ok = True
        for inst in property_pool:
            result = evaluate(inst.phi, inst.model).result
            ok = ok and bool((result >= 0.0).all() and (result <= 1.0).all())
        report("property-boundedness", ok, "(1000 instances)")

    def test_monotonicity_in_constants(self, property_pool):
        from qmu.core import Model, Valuation, expectation
        ok = True
        for inst in property_pool:
            v = inst.model.valuation
            base = evaluate(inst.phi, inst.model).result
            raised = Valuation(
                expectations={**v.expectations,
                              "a0": expectation(np.minimum(
                                  v.expectations["a0"] + 0.2, 1.0))},
                transitions=v.transitions,
                transition_sets=v.transition_sets,
                predicates=v.predicates)
            lifted = evaluate(inst.phi, Model(inst.model.space, raised)).result
            ok = ok and bool((lifted >= base - 1e-8).all())
        report("property-monotonicity", ok, "(1000 instances)")

    def test_mu_below_nu(self, property_pool):
        ok = True
        for inst in property_pool:
            lo = evaluate(Mu(inst.free_var, inst.open_body), inst.model).result
            hi = evaluate(Nu(inst.free_var, inst.open_body), inst.model).result
            ok = ok and bool((lo <= hi + 1e-8).all())
        report("property-mu-below-nu", ok, "(1000 instances)")

    def test_junction_laws(self, property_pool):
        ok = True
        for inst in property_pool:
            base = evaluate(inst.phi, inst.model).result
            a0 = inst.model.valuation.expectations["a0"]
            maxed = evaluate(assign_sites(MaxJ(inst.phi, parse("a0"))),
                             inst.model).result
            minned = evaluate(assign_sites(MinJ(inst.phi, parse("a0"))),
                              inst.model).result
            ok = ok and np.array_equal(maxed, np.maximum(base, a0)) \
                and np.array_equal(minned, np.minimum(base, a0))
        report("property-junction-laws", ok, "(1000 instances)")

    def test_seed_determinism(self, property_pool):
        from qmu.evaluator import PathStrategy
        ok = True
        left = PathStrategy.constant(True)
        for i, inst in enumerate(property_pool):
            again = random_instance([31337, i])
            ok = ok and alpha_equal(inst.phi, again.phi)
            ok = ok and evaluate(inst.phi, inst.model) == \
                evaluate(again.phi, again.model)
            a = estimate(inst.phi, inst.model, 0, left, left,
                         n_paths=5, max_depth=12, seed=i)
            b = estimate(inst.phi, inst.model, 0, left, left,
                         n_paths=5, max_depth=12, seed=i)
            ok = ok and a == b
        report("property-seed-determinism", ok, "(1000 instances)")
