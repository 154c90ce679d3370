"""Playouts, seeded estimation and exact tree expansion."""

import re
import sys
from dataclasses import replace

import numpy as np
import pytest

from qmu.core import Model, StateSpace, Valuation, expectation, predicate, transition
from qmu import game
from qmu.evaluator import (
    EvaluationError, FixNotSupportedError, NondeterministicFixBodyError,
    PathStrategy, StrategyError, UnresolvedSymbolError, evaluate, evaluate_fix,
    evaluate_with_strategies,
)
from qmu.formula import (
    Angelic, Cond, Const, Fix, MaxJ, MinJ, Modal, Mu, Nu, Var, assign_sites,
    check_entry, choice_sites, parse, reduce,
)
from qmu.examples import VARDI_TEXT
from qmu.game import GameError, TreeBudgetError, estimate, expand_tree, play
from qmu.oracle import InstanceBounds, TinyInstance, brute_minimax, random_instance
from qmu.strategy import MemorilessStrategy, synthesize, verify_strategy
from playout_reference import Colour, GamePath, path_bracket, walk_playout

LEFT = PathStrategy.constant(True)
RIGHT = PathStrategy.constant(False)


def rng_for(seed: int, index: int = 0):
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(seed).spawn(index + 1)[index]))


def estimate_rng(seed: int):
    """The one generator that ``estimate(..., seed=seed)`` draws from."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


@pytest.fixture
def simple():
    space = StateSpace(("u", "w"))
    valuation = Valuation(
        expectations={"e": expectation([0.25, 0.75])},
        transitions={"k": transition([[(0, 0.5), (1, 0.3)], [(0, 0.9)]],
                                     [0.1, 0.0])},
        transition_sets={},
        predicates={"g": predicate([True, False])},
    )
    return Model(space, valuation)


@pytest.fixture
def ping_pong():
    """A fair coin between two states and a max table under which a
    memoriless play of ``mu X . nu Y . <k> (Y \\/ X)`` rebinds ``Y`` at each
    re-entry of ``X``, resetting its colour count: such plays can end by
    either colour or by the step budget."""
    k = transition([[(0, 0.5), (1, 0.5)]] * 2)
    model = Model(StateSpace(("a", "b")), Valuation(transitions={"k": k}))
    phi = reduce(parse("mu X . nu Y . <k> (Y \\/ X)"), model.valuation)
    return model, phi, PathStrategy.from_choices([[True, False]])


class TestPlay:
    def test_constant_formula_two_steps(self, simple):
        result = play(parse("e"), simple, 1, LEFT, LEFT, max_depth=5,
                      rng=rng_for(0))
        assert result.terminated
        assert result.value_low == result.value_high == 0.75
        assert result.steps == 2
        assert result.truncating_colour_kind is None

    def test_mu_self_loop_truncates_to_zero(self, simple):
        for depth in (1, 3, 10):
            result = play(parse("mu X . X"), simple, 0, LEFT, LEFT,
                          max_depth=depth, rng=rng_for(1))
            assert (result.value_low, result.value_high) == (0.0, 0.0)
            assert not result.terminated
            assert result.truncating_colour_kind == "mu"

    def test_nu_self_loop_truncates_to_one(self, simple):
        result = play(parse("nu X . X"), simple, 0, LEFT, LEFT, max_depth=4,
                      rng=rng_for(2))
        assert (result.value_low, result.value_high) == (1.0, 1.0)
        assert result.truncating_colour_kind == "nu"

    def test_colours_are_fresh(self, simple):
        phi = reduce(parse("mu X . nu Y . <k> (X /\\ Y) \\/ e"),
                     simple.valuation)
        path = walk_playout(phi, simple, 0, RIGHT, LEFT, max_depth=6,
                            rng=rng_for(3))
        colours = [lbl for kind, lbl, *_ in
                   (p if len(p) == 3 else (p[0], None) for p in path.positions)
                   if kind == "colour"]
        created = [c.created_at for c in colours]
        assert len(set(created)) == len(set(colours))
        # distinct bindings of the same binder get distinct colours
        by_binder = {}
        for c in set(colours):
            by_binder.setdefault(c.binder, []).append(c)

    def test_strategies_never_see_colours(self, simple):
        seen = []

        def spy(site, path, s):
            seen.extend(path)
            return True

        phi = reduce(parse("mu X . e \\/ <k> X"), simple.valuation)
        play(phi, simple, 0, LEFT, PathStrategy(decide=spy), max_depth=4,
             rng=rng_for(4))
        assert seen
        for label, _state in seen:
            assert not isinstance(label, Colour)
        # re-entry positions are presented by binder name
        assert any(isinstance(label, str) for label, _ in seen)

    def test_colour_counters_match_recorded_positions(self, simple):
        phi = reduce(parse("mu X . e \\/ <k> (X /\\ (nu Y . <k> Y))"),
                     simple.valuation)
        path = walk_playout(phi, simple, 0, RIGHT, RIGHT, max_depth=4,
                            rng=rng_for(11))
        occurrences = {}
        for pos in path.positions:
            if pos[0] == "colour":
                occurrences[pos[1]] = occurrences.get(pos[1], 0) + 1
        assert occurrences == path.colour_counts
        payoffs = [i for i, pos in enumerate(path.positions)
                   if pos[0] == "payoff"]
        assert payoffs in ([], [len(path.positions) - 1])

    def test_play_is_the_reference_walk(self, ping_pong):
        # memoriless sides read from tables; a history side decides by its
        # table, flipped every fourth position, and records what it is asked.
        # With both sides memoriless, estimate plays the same path as well.
        def sides(tables, history, calls):
            def recording(table):
                def decide(site, path, s):
                    calls.append((site, s, list(path)))
                    return bool(table[site][s]) != (len(path) % 4 == 0)
                return PathStrategy(decide=decide)
            return [recording(t) if h else PathStrategy.from_choices(t)
                    for t, h in zip(tables, history)]

        model, phi, sigma_max = ping_pong
        cases = [(phi, model, ([], sigma_max.tables))]
        for trial in range(40):
            inst = random_instance([5150, trial])
            mins, maxs = choice_sites(inst.phi)
            n = inst.model.space.size
            rng = np.random.default_rng(trial)
            cases.append((inst.phi, inst.model,
                          tuple([rng.random(n) < 0.5 for _ in range(sites)]
                                for sites in (mins, maxs))))
        seen, asked = set(), 0
        for k, (phi, model, tables) in enumerate(cases):
            s0 = k % model.space.size
            for history in ((False, False), (True, False), (False, True),
                            (True, True)):
                for seed in range(3):
                    for depth in (1, 3, 12):
                        calls, reference_calls = [], []
                        result = play(phi, model, s0, *sides(tables, history, calls),
                                      depth, rng=estimate_rng(seed))
                        path = walk_playout(
                            phi, model, s0, *sides(tables, history, reference_calls),
                            depth, rng=estimate_rng(seed))
                        assert result == path_bracket(path, depth), (k, seed, depth)
                        assert calls == reference_calls, (k, seed, depth)
                        asked += len(calls)
                        if not any(history):
                            # one path of estimate is play with its generator
                            est = estimate(phi, model, s0, *sides(tables, history, []),
                                           n_paths=1, max_depth=depth, seed=seed)
                            assert (est.mean_low, est.mean_high, est.max_steps,
                                    est.mean_steps, ending(est)) == (
                                result.value_low, result.value_high, result.steps,
                                result.steps, ending(result)), (k, seed, depth)
                            assert est.n_truncated == (not result.terminated)
                            how = ending(result)
                            if how == "payoff" and isinstance(path.positions[-2][1],
                                                              Modal):
                                how = "halt"
                            seen.add(how)
        # the memoriless cases, which estimate plays too, reach every ending
        assert seen == {"payoff", "halt", "mu", "nu", "budget"}
        assert asked > 1000

    def test_sampling_only_from_supplied_stream(self, simple):
        phi = reduce(parse("<k> e"), simple.valuation)
        a = play(phi, simple, 0, LEFT, LEFT, max_depth=3, rng=rng_for(9))
        b = play(phi, simple, 0, LEFT, LEFT, max_depth=3, rng=rng_for(9))
        assert a == b


class TestPathBracket:
    def test_prefix_insensitivity(self, simple):
        phi = reduce(parse("mu X . e \\/ <k> X"), simple.valuation)
        path = walk_playout(phi, simple, 0, LEFT, LEFT, max_depth=3,
                            rng=rng_for(5))
        base = path_bracket(path, 3)
        prefixed = GamePath(
            positions=[("node", parse("e"), 0), ("node", parse("e"), 1)]
            + list(path.positions),
            colour_counts=dict(path.colour_counts))
        shifted = path_bracket(prefixed, 3)
        assert (shifted.value_low, shifted.value_high) == \
            (base.value_low, base.value_high)
        assert shifted.terminated == base.terminated

    def test_step_budget_bracket_is_uninformative(self):
        path = GamePath(positions=[("node", parse("mu X . X"), 0)],
                        colour_counts={})
        result = path_bracket(path, 5)
        assert (result.value_low, result.value_high) == (0.0, 1.0)
        assert result.truncating_colour_kind is None

    def test_step_budget_fires_on_colour_ping_pong(self, simple):
        # revisiting the inner binder thrice per outer re-entry keeps every
        # colour under the cap while the step count outruns the budget
        def alternate(site, path, s):
            x = sum(1 for lbl, _ in path if lbl == "X")
            y = sum(1 for lbl, _ in path if lbl == "Y")
            return 3 * x < y  # left operand is X

        phi = reduce(parse("mu X . nu Y . X /\\ Y"), simple.valuation)
        result = play(phi, simple, 0,
                      PathStrategy(decide=alternate), LEFT,
                      max_depth=10, rng=rng_for(6))
        assert (result.value_low, result.value_high) == (0.0, 1.0)
        assert result.truncating_colour_kind is None
        assert not result.terminated


class TestEstimate:
    def test_single_path_reproduces_play(self, simple):
        phi = reduce(parse("<k> e"), simple.valuation)
        est = estimate(phi, simple, 0, LEFT, LEFT, n_paths=1, max_depth=3,
                       seed=12)
        direct = play(phi, simple, 0, LEFT, LEFT, max_depth=3,
                      rng=estimate_rng(12))
        assert est.mean_low == direct.value_low
        assert est.mean_high == direct.value_high
        assert est.std_error == 0.0

    def test_same_seed_same_result(self, simple):
        phi = reduce(parse("mu X . e \\/ <k> X"), simple.valuation)
        a = estimate(phi, simple, 0, LEFT, RIGHT, 500, 50, seed=77)
        b = estimate(phi, simple, 0, LEFT, RIGHT, 500, 50, seed=77)
        assert a == b
        c = estimate(phi, simple, 0, LEFT, RIGHT, 500, 50, seed=78)
        assert a != c

    def test_vardi_estimate_near_half(self, vardi):
        model, phi = vardi
        smax = PathStrategy.from_choices([np.array([True, False])])
        est = estimate(phi, model, 0, LEFT, smax, n_paths=100_000,
                       max_depth=100, seed=5)
        assert est.mean_low - 3.5 * est.std_error <= 0.5
        assert 0.5 <= est.mean_high + 3.5 * est.std_error
        assert est.n_truncated == 0


def ending(result) -> str:
    """How an estimate of one path, or a playout, ended."""
    if isinstance(result, game.EstimateResult):
        return ("mu" if result.truncated_mu else "nu" if result.truncated_nu
                else "budget" if result.truncated_budget else "payoff")
    if result.terminated:
        return "payoff"
    return result.truncating_colour_kind or "budget"


class TestBlockEngine:
    def test_draws_on_a_running_sum_and_in_float_dust(self):
        # u equal to a running sum takes that edge; u above a total within
        # float dust of one keeps the last edge instead of halting
        class Draws:
            def __init__(self, values):
                self.values = list(values)

            def random(self, size=None):
                if size is None:
                    return self.values.pop(0)
                taken, self.values = self.values[:size], self.values[size:]
                return np.array(taken)

        model = Model(StateSpace(("a", "b", "c")), Valuation(
            expectations={"e": expectation([0.25, 0.5, 0.75])},
            transitions={"k": transition([[(1, 0.5), (2, 0.5 - 1e-13)],
                                          [(0, 1.0)], [(0, 1.0)]])}))
        phi = Modal("k", Const("e"))
        draws = [0.5, 0.99999999999995, 0.2]
        table, _ = game._compile(phi, model, 0, LEFT, LEFT, 3)
        low, high, steps, _ = table.play_block(0, 3, 3, 6, Draws(draws))
        for i, u in enumerate(draws):
            direct = play(phi, model, 0, LEFT, LEFT, 3, rng=Draws([u]))
            assert (low[i], high[i], steps[i]) == (
                direct.value_low, direct.value_high, direct.steps)
        assert low.tolist() == [0.5, 0.75, 0.5]

    def test_one_path_blocks_play_in_turn_on_one_generator(self, ping_pong,
                                                            monkeypatch):
        model, phi, sigma_max = ping_pong
        monkeypatch.setattr(game, "BLOCK_PATHS", 1)
        est = estimate(phi, model, 0, LEFT, sigma_max, n_paths=300,
                       max_depth=3, seed=21)
        rng = estimate_rng(21)
        plays = [play(phi, model, 0, LEFT, sigma_max, 3, rng) for _ in range(300)]
        highs = np.array([p.value_high for p in plays])
        endings = [ending(p) for p in plays]
        assert est.mean_low == pytest.approx(np.mean([p.value_low for p in plays]),
                                             abs=1e-12)
        assert est.mean_high == pytest.approx(highs.mean(), abs=1e-12)
        assert est.std_error == pytest.approx(np.std(highs, ddof=1) / np.sqrt(300),
                                              rel=1e-9)
        assert (est.truncated_mu, est.truncated_nu, est.truncated_budget) == (
            endings.count("mu"), endings.count("nu"), endings.count("budget"))
        assert est.mean_steps == np.mean([p.steps for p in plays])
        assert est.max_steps == max(p.steps for p in plays)

    def test_truncation_causes_and_steps(self, ping_pong):
        model, phi, sigma_max = ping_pong
        est = estimate(phi, model, 0, LEFT, sigma_max, n_paths=1000,
                       max_depth=3, seed=1)
        assert (est.n_truncated, est.truncated_mu, est.truncated_nu,
                est.truncated_budget) == (1000, 116, 196, 688)
        assert (est.mean_steps, est.max_steps) == (17.907, 19)
        # mu truncations score (0, 0), nu (1, 1), the step budget (0, 1)
        assert est.mean_low == pytest.approx(196 / 1000, abs=1e-12)
        assert est.mean_high == pytest.approx((196 + 688) / 1000, abs=1e-12)

    def test_history_strategy_rejected_before_any_move(self, vardi):
        model, phi = vardi
        calls = []
        history = PathStrategy(decide=lambda site, path, s: calls.append(s) or True)
        for sigma_min, sigma_max in ((history, LEFT), (LEFT, history)):
            with pytest.raises(GameError, match="memoriless"):
                estimate(phi, model, 0, sigma_min, sigma_max, n_paths=5,
                         max_depth=5, seed=0)
        assert calls == []

    def test_tables_it_cannot_build_are_rejected(self, simple):
        with pytest.raises(EvaluationError, match="assign_sites"):
            estimate(MaxJ(Const("e"), Const("e")), simple, 0, LEFT, LEFT,
                     n_paths=5, max_depth=3, seed=0)
        short = Model(simple.space, Valuation(
            expectations=simple.valuation.expectations,
            transitions={"k": transition([[(0, 1.0)]])}))
        with pytest.raises(EvaluationError, match="has 1 rows, model has 2 states"):
            estimate(Modal("k", Const("e")), short, 0, LEFT, LEFT, n_paths=5,
                     max_depth=3, seed=0)

    def test_constant_strategies_play_as_their_tables(self):
        for trial in range(30):
            inst = random_instance([808, trial])
            mins, maxs = choice_sites(inst.phi)
            n = inst.model.space.size
            for left in (True, False):
                constant = PathStrategy.constant(left)
                tables = [PathStrategy.from_choices([np.full(n, left)] * sites)
                          for sites in (mins, maxs)]
                assert estimate(inst.phi, inst.model, 0, constant, constant,
                                200, 5, seed=trial) == estimate(
                    inst.phi, inst.model, 0, *tables, 200, 5, seed=trial)

    def test_a_shared_subtree_plays_as_an_unshared_copy(self, simple):
        # every occurrence of a subtree gets its own positions, so a body
        # that two binders share plays as two equal bodies do
        def loop():
            return Cond("g", Modal("k", Var("X")), Const("e"))

        body = loop()
        shared = MaxJ(Mu("X", body), Nu("X", body), site=0)
        unshared = MaxJ(Mu("X", loop()), Nu("X", loop()), site=0)
        assert shared == unshared and shared.left.body is shared.right.body
        endings = set()
        for sigma_max in (LEFT, RIGHT):
            for s0 in range(2):
                for depth in (1, 3, 12):
                    plays = [play(phi, simple, s0, LEFT, sigma_max, depth,
                                  rng=estimate_rng(depth)) for phi in (shared, unshared)]
                    assert plays[0] == plays[1], (sigma_max, s0, depth)
                    endings.add(ending(plays[0]))
                    estimates = [estimate(phi, simple, s0, LEFT, sigma_max, n_paths=200,
                                          max_depth=depth, seed=depth)
                                 for phi in (shared, unshared)]
                    assert estimates[0] == estimates[1], (sigma_max, s0, depth)
        assert endings == {"payoff", "mu", "nu"}


class TestExpandTree:
    def test_single_transition_exact(self):
        space = StateSpace(("s", "H", "T"))
        t = transition([[(1, 0.25), (2, 0.25)], [], []], [0.4, 0.0, 0.0])
        model = Model(space, Valuation(
            expectations={"A": expectation([0.0, 0.3, 0.9])},
            transitions={"t": t}, transition_sets={}, predicates={}))
        phi = reduce(parse("<t> A"), model.valuation)
        assert expand_tree(phi, model, 0, LEFT, LEFT, depth=4) == pytest.approx(
            0.4 + 0.25 * 0.3 + 0.25 * 0.9, abs=1e-12)

    def test_converges_to_strategy_evaluator(self):
        # memoriless pairs: deep tree values approach the fixpoint values
        for trial in range(8):
            inst = random_instance([211, trial])
            from qmu.formula import choice_sites
            mins, maxs = choice_sites(inst.phi)
            rng = np.random.default_rng(trial)
            n = inst.model.space.size
            from qmu.strategy import MemorilessStrategy
            strat = MemorilessStrategy(
                min_choices=tuple(rng.random(n) < 0.5 for _ in range(mins)),
                max_choices=tuple(rng.random(n) < 0.5 for _ in range(maxs)))
            sigma_min, sigma_max = strat.path_strategies()
            values = evaluate_with_strategies(inst.phi, inst.model,
                                              sigma_min, sigma_max)
            gaps = []
            for depth in (8, 16, 32):
                value = expand_tree(inst.phi, inst.model, 0, sigma_min,
                                    sigma_max, depth=depth)
                gaps.append(abs(value - values[0]))
            assert gaps[-1] <= 1e-6 or gaps[-1] <= gaps[0] + 1e-12

    def test_history_strategies_match_unfolding_exactly(self, vardi):
        model, phi = vardi

        def wiggle(site, path, s):
            return (len(path) * 7 + s) % 3 != 1

        hist = PathStrategy(decide=wiggle)
        values = evaluate_with_strategies(phi, model, hist, hist, depth=9)
        for s0 in range(model.space.size):
            value = expand_tree(phi, model, s0, hist, hist, depth=9)
            assert value == pytest.approx(float(values[s0]), abs=1e-9)

    def test_binders_sharing_a_name_stay_apart(self, vardi):
        # built directly: the parser would rename the second binder
        model, _ = vardi
        loop = Modal("k", Var("X"))
        phi = assign_sites(MaxJ(Mu("X", loop), Nu("X", loop)))
        history = PathStrategy(decide=lambda site, path, s: True)
        for sigma, expected in ((LEFT, 0.0), (RIGHT, 1.0)):
            assert expand_tree(phi, model, 0, LEFT, sigma, depth=6) == expected
        assert expand_tree(phi, model, 0, history, history, depth=6) == 0.0

    def test_shared_subtrees_change_no_value(self):
        # the same choice tables, typed once as memoriless (subtrees shared)
        # and once as history-dependent (every path expanded)
        compared = capped = 0
        for trial in range(60):
            inst = random_instance([607, trial])
            mins, maxs = choice_sites(inst.phi)
            n = inst.model.space.size
            rng = np.random.default_rng(trial)
            sigma_min = PathStrategy.from_choices(
                [rng.random(n) < 0.5 for _ in range(mins)])
            sigma_max = PathStrategy.from_choices(
                [rng.random(n) < 0.5 for _ in range(maxs)])
            hist_min = PathStrategy(decide=sigma_min.decide, memoriless=False)
            hist_max = PathStrategy(decide=sigma_max.decide, memoriless=False)
            for depth in (0, 3, 9):
                shared = expand_tree(inst.phi, inst.model, 0, sigma_min,
                                     sigma_max, depth)
                try:
                    literal = expand_tree(inst.phi, inst.model, 0, hist_min,
                                          hist_max, depth, node_cap=200_000)
                except TreeBudgetError:
                    capped += 1  # no literal value to compare
                    continue
                assert shared == literal, (trial, depth)
                compared += 1
        assert compared >= 170 and compared + capped == 180

    def test_node_cap_raises(self, simple):
        phi = reduce(parse("mu X . e \\/ <k> X"), simple.valuation)
        with pytest.raises(TreeBudgetError):
            expand_tree(phi, simple, 0,
                        PathStrategy(decide=lambda *a: True),
                        PathStrategy(decide=lambda *a: False),
                        depth=30, node_cap=50)

    def test_node_cap_raises_memoriless(self, simple):
        phi = reduce(parse("mu X . e \\/ <k> X"), simple.valuation)
        with pytest.raises(TreeBudgetError):
            expand_tree(phi, simple, 0, LEFT, RIGHT, depth=30, node_cap=50)

    def test_fix_not_playable(self, simple):
        with pytest.raises(Exception):
            play(parse("fix(0.5) X . X"), simple, 0, LEFT, LEFT, 3, rng_for(8))


def deep_chain(length: int):
    """``<k>^length (p \\/ q)`` on one state, which ``k`` keeps."""
    model = Model(StateSpace(("s",)), Valuation(
        expectations={"p": expectation([0.25]), "q": expectation([0.5])},
        transitions={"k": transition([[(0, 1.0)]])}))
    phi = MaxJ(Const("p"), Const("q"), 0)
    for _ in range(length):
        phi = Modal("k", phi)
    return model, phi


class TestDeepChains:
    """The strategy unfolding and the tree expansion run on explicit stacks:
    a chain far deeper than the recursion limit runs, and a strategy sees
    the caller's limit."""

    @pytest.mark.parametrize("depth", [0, 1])
    @pytest.mark.parametrize("walker", ["evaluate_with_strategies", "expand_tree"])
    def test_a_10000_deep_chain_runs_at_the_callers_limit(self, walker, depth):
        model, phi = deep_chain(10_000)
        seen = []

        def decide(site, path, s):
            seen.append((sys.getrecursionlimit(), len(path)))
            return True

        history = PathStrategy(decide=decide)
        if walker == "expand_tree":
            value = expand_tree(phi, model, 0, LEFT, history, depth)
        else:
            value, = evaluate_with_strategies(phi, model, None, history,
                                              depth=depth)
        assert value == 0.25
        # the view holds every modality, then the junction
        assert seen == [(sys.getrecursionlimit(), 10_001)]


UNBOUND_IN_VARDI = ["if nope then atB else <k> atB", "mu X . <k> nope \\/ <k> X"]

#: What every entry point must reject before any move in the vardi game (two
#: states): formulae with an unbound name, and start states outside the
#: model, each with the error it must raise.
NOT_PLAYABLE_IN_VARDI = (
    [pytest.param(text, 0, UnresolvedSymbolError, "nope", id=text)
     for text in UNBOUND_IN_VARDI]
    + [pytest.param(VARDI_TEXT, s0, GameError, f"start state {s0} is not",
                    id=f"s0={s0}") for s0 in (-1, 2, 1.5)])

#: Max-side tables that do not fit the vardi game (one max site, two
#: states), with the error each must raise.
TABLES_NOT_FOR_VARDI = [
    ([[True]], "max strategy table for site 0 has 1 entries, model has 2 states"),
    ([[True, False, True]],
     "max strategy table for site 0 has 3 entries, model has 2 states"),
    ([], "max strategy has 0 site tables, formula has 1 max sites"),
    ([[True, False]] * 2, "max strategy has 2 site tables, formula has 1 max sites"),
    ([[[True, False], [True, False]]],
     r"max strategy table for site 0 has shape \(2, 2\), model has 2 states"),
]

#: Vardi models with one symbol sized unlike the model, or a formula with an
#: unsited junction: (table, name, replacement, formula, message).
MISFITS_IN_VARDI = [
    pytest.param("transitions", "k", transition([[(0, 1.0)]]), VARDI_TEXT,
                 "transition 'k' has 1 rows, model has 2 states", id="short-k"),
    pytest.param("expectations", "atB", expectation([0.0, 1.0, 0.0]), VARDI_TEXT,
                 "expectation 'atB' has 3 entries, model has 2 states",
                 id="long-atB"),
    pytest.param("expectations", "atB", expectation([1.0]), VARDI_TEXT,
                 "expectation 'atB' has 1 entries, model has 2 states",
                 id="short-atB"),
    pytest.param("predicates", "atA", predicate([True, False, True]),
                 "mu X . if atA then <k> X \\/ atB else atB",
                 "predicate 'atA' has 3 entries, model has 2 states",
                 id="long-atA"),
    pytest.param(None, None, None,
                 Mu("X", MaxJ(Modal("k", Const("atB")), Modal("k", Var("X")))),
                 "junction has no choice site; number the sites with assign_sites",
                 id="unsited"),
]

HISTORY = PathStrategy(decide=lambda site, path, s: len(path) % 2 == 0)


def vardi_strategy(model) -> MemorilessStrategy:
    """A memoriless max strategy for the vardi game: left at ``atA``."""
    return MemorilessStrategy(max_choices=(model.valuation.predicates["atA"],))


#: Every entry point that takes a formula and a model.
ENTRY_POINTS = [
    pytest.param(lambda phi, model: evaluate(phi, model), id="evaluate"),
    pytest.param(lambda phi, model: evaluate_fix(phi, model), id="evaluate_fix"),
    pytest.param(lambda phi, model: synthesize(phi, model), id="synthesize"),
    pytest.param(lambda phi, model: evaluate_with_strategies(phi, model, LEFT, RIGHT),
                 id="memoriless"),
    pytest.param(lambda phi, model: evaluate_with_strategies(
        phi, model, HISTORY, HISTORY, depth=3), id="history"),
    pytest.param(lambda phi, model: play(phi, model, 0, LEFT, RIGHT, 5, rng_for(9)),
                 id="play"),
    pytest.param(lambda phi, model: estimate(phi, model, 0, LEFT, RIGHT, n_paths=5,
                                             max_depth=5, seed=9), id="estimate"),
    pytest.param(lambda phi, model: expand_tree(phi, model, 0, LEFT, RIGHT, depth=5),
                 id="expand_tree"),
    pytest.param(lambda phi, model: brute_minimax(TinyInstance(
        model, phi, "", "W0", False, "")), id="brute_minimax"),
]


#: A formula's entry faults in the order ``check_entry`` reports them, each
#: as (subformula, error class, message); a junction with no site ranks
#: with a missized symbol, the first in preorder winning.
ENTRY_FAULTS = [
    (Var("Z"), UnresolvedSymbolError, "unresolved variable symbol 'Z'"),
    (Angelic("k", Const("atB")), EvaluationError,
     "formula contains set modalities; reduce it first"),
    (Const("nothere"), UnresolvedSymbolError, "unresolved expectation symbol 'nothere'"),
    (Const("short"), EvaluationError,
     "expectation 'short' has 1 entries, model has 2 states"),
    (MaxJ(Const("atB"), Const("atB")), EvaluationError,
     "junction has no choice site; number the sites with assign_sites"),
    (Fix(0.5, "F", MinJ(Var("F"), Const("atB"), 0)), FixNotSupportedError,
     "formula contains fix(x) binders; only evaluate_fix covers them"),
]


def counting_walks(monkeypatch) -> list:
    """Wrap ``formula.subformulae`` and ``formula.rebuild`` in every qmu
    module that holds them; return the list each call appends to."""
    import qmu.formula
    calls: list = []
    modules = [module for name, module in sys.modules.items()
               if name == "qmu" or name.startswith("qmu.")]
    for name in ("subformulae", "rebuild"):
        original = getattr(qmu.formula, name)

        def counted(*args, _f=original, **kwargs):
            calls.append(_f)
            return _f(*args, **kwargs)

        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return calls


class TestEntryCheck:
    @pytest.mark.parametrize("entry, walks", [
        (lambda phi, model, fix, insts: check_entry(phi, model, "reject"), 1),
        (lambda phi, model, fix, insts: check_entry(fix, model, "pure"), 1),
        (lambda phi, model, fix, insts: evaluate(phi, model), 2),
        (lambda phi, model, fix, insts: synthesize(phi, model), 2),
        (lambda phi, model, fix, insts: evaluate_with_strategies(phi, model, LEFT,
                                                                 RIGHT), 2),
        (lambda phi, model, fix, insts: estimate(phi, model, 0, LEFT, RIGHT,
                                                 n_paths=50, max_depth=20,
                                                 seed=4), 2),
        (lambda phi, model, fix, insts: play(phi, model, 0, LEFT, RIGHT, 20,
                                             rng_for(4)), 2),
        (lambda phi, model, fix, insts: brute_minimax(insts[0]), 2),
        (lambda phi, model, fix, insts: brute_minimax(insts[1]), 5),
        (lambda phi, model, fix, insts: verify_strategy(
            phi, model, vardi_strategy(model)), 4),
        (lambda phi, model, fix, insts: verify_strategy(
            phi, model, vardi_strategy(model), base=np.zeros(2)), 2),
    ], ids=["check_entry", "check_entry-fix", "evaluate", "synthesize",
            "memoriless", "estimate", "play", "brute_minimax",
            "brute_minimax-slices", "verify_strategy", "verify_strategy-base"])
    def test_formula_walks_per_call(self, vardi, monkeypatch, entry, walks):
        # one walk checks the formula and counts its sites and nodes, and
        # each compile is one fold more: the evaluator's plan, the game's
        # position table and the brute force's affine forms, once per slice
        # of PAIRS_PER_BATCH strategy pairs (4,096 pairs make four slices);
        # verify_strategy runs one strategy evaluation, plus one evaluation
        # without ``base``
        model, phi = vardi
        fix = reduce(parse("fix(0.5) X . <k> X"), model.valuation)
        insts = (random_instance([0, 0]),
                 random_instance([5, 12], InstanceBounds(max_states=4)))
        calls = counting_walks(monkeypatch)
        entry(phi, model, fix, insts)
        assert len(calls) == walks

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    @pytest.mark.parametrize("first", range(len(ENTRY_FAULTS)),
                             ids=["free-variable", "set-modality", "unbound-symbol",
                                  "size", "site", "fix"])
    def test_every_entry_point_reports_the_first_fault_in_order(
            self, vardi, entry, first):
        model, _ = vardi
        model = Model(model.space, replace(model.valuation, expectations={
            **model.valuation.expectations, "short": expectation([0.5])}))
        phi = ENTRY_FAULTS[-1][0]
        for part, _, _ in reversed(ENTRY_FAULTS[first:-1]):
            phi = Cond("atA", part, phi)
        _, error, message = ENTRY_FAULTS[first]
        # evaluate_fix admits a fix(x) binder whose body has no choice
        if entry is ENTRY_POINTS[1].values[0] and error is FixNotSupportedError:
            error = NondeterministicFixBodyError
            message = ("fix body of 'F' contains min/max choice; "
                       "pass force=True to iterate anyway")
        with pytest.raises(error) as raised:
            entry(phi, model)
        assert type(raised.value) is error
        assert str(raised.value) == message

    def test_formula_errors_come_before_table_and_budget_errors(self, vardi):
        model, _ = vardi
        phi = reduce(parse("mu X . <k> nope \\/ <k> X"), model.valuation)
        no_tables = PathStrategy.from_choices([])
        history = PathStrategy(decide=lambda site, path, s: True)
        for sigma_min, depth in ((None, None), (history, 4)):
            with pytest.raises(UnresolvedSymbolError, match="'nope'"):
                evaluate_with_strategies(phi, model, sigma_min, no_tables,
                                         depth=depth)
        # 12 max sites over 2 states: 2^24 strategy tuples, over the budget
        wide = reduce(parse("atB \\/ " * 12 + "nope"), model.valuation)
        with pytest.raises(UnresolvedSymbolError, match="'nope'"):
            brute_minimax(TinyInstance(model, wide, "", "W0", False, ""))

    def test_estimate_checks_the_formula_once(self, vardi, monkeypatch):
        model, phi = vardi
        calls = {"_check_playable": 0, "check_entry": 0}
        for name in calls:
            def counted(*args, _name=name, _f=getattr(game, name)):
                calls[_name] += 1
                return _f(*args)
            monkeypatch.setattr(game, name, counted)
        estimate(phi, model, 0, LEFT, RIGHT, n_paths=50, max_depth=20, seed=4)
        assert calls == {"_check_playable": 1, "check_entry": 1}

    @pytest.mark.parametrize("text, error", [
        ("<k> e", EvaluationError), ("fix(0.5) X . X", FixNotSupportedError),
    ], ids=["unreduced", "fix"])
    @pytest.mark.parametrize("entry", [
        lambda phi, model: evaluate(phi, model),
        lambda phi, model: play(phi, model, 0, LEFT, LEFT, 5, rng_for(9)),
        lambda phi, model: estimate(phi, model, 0, LEFT, LEFT, n_paths=5,
                                    max_depth=5, seed=9),
        lambda phi, model: expand_tree(phi, model, 0, LEFT, LEFT, depth=5),
    ], ids=["evaluate", "play", "estimate", "expand_tree"])
    def test_every_entry_point_rejects_a_formula_as_evaluate_does(
            self, simple, text, error, entry):
        phi = parse(text)
        with pytest.raises(error) as expected:
            evaluate(phi, simple)
        with pytest.raises(error) as raised:
            entry(phi, simple)
        assert type(raised.value) is type(expected.value) is error
        assert str(raised.value) == str(expected.value)

    @pytest.mark.parametrize("table, name, value, formula, match", MISFITS_IN_VARDI)
    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_every_entry_point_rejects_a_misfit_symbol_or_an_unsited_junction(
            self, vardi, table, name, value, formula, match, entry):
        model, _ = vardi
        if table is not None:
            symbols = {**getattr(model.valuation, table), name: value}
            model = Model(model.space, replace(model.valuation, **{table: symbols}))
        phi = (reduce(parse(formula), model.valuation) if isinstance(formula, str)
               else formula)
        with pytest.raises(EvaluationError, match=match):
            entry(phi, model)

    @pytest.mark.parametrize("entry, match", [
        (lambda phi, model: play(phi, model, 0, LEFT, RIGHT, 0, rng_for(9)),
         "max_depth must be at least 1"),
        (lambda phi, model: estimate(phi, model, 0, LEFT, RIGHT, n_paths=5,
                                     max_depth=0, seed=9),
         "max_depth must be at least 1"),
        (lambda phi, model: estimate(phi, model, 0, LEFT, RIGHT, n_paths=0,
                                     max_depth=5, seed=9),
         "n_paths must be at least 1"),
        (lambda phi, model: expand_tree(phi, model, 0, LEFT, RIGHT, depth=-1),
         "depth must be non-negative"),
    ], ids=["play-max_depth", "estimate-max_depth", "estimate-n_paths",
            "expand_tree-depth"])
    def test_arguments_out_of_range_are_rejected(self, vardi, entry, match):
        model, phi = vardi
        with pytest.raises(GameError, match=match):
            entry(phi, model)

    @pytest.mark.parametrize("tables, match", TABLES_NOT_FOR_VARDI)
    def test_tables_must_fit_the_formula_and_model(self, vardi, tables, match,
                                                   monkeypatch):
        # every entry point raises the one StrategyError, before any product
        # or move
        import qmu.evaluator
        model, phi = vardi
        sigma_max = PathStrategy.from_choices(tables)
        products = []
        monkeypatch.setattr(qmu.evaluator, "pre_expectation_all",
                            lambda t, post: products.append(1))
        history = PathStrategy(decide=lambda site, path, s: True)
        rng = rng_for(9)
        state = rng.bit_generator.state
        calls = [
            *(lambda sigma_min=sigma_min, depth=depth: evaluate_with_strategies(
                phi, model, sigma_min, sigma_max, depth=depth)
              for sigma_min, depth in ((None, None), (LEFT, None), (history, 4))),
            lambda: play(phi, model, 0, LEFT, sigma_max, 5, rng),
            lambda: estimate(phi, model, 0, LEFT, sigma_max, n_paths=5,
                             max_depth=5, seed=9),
            lambda: expand_tree(phi, model, 0, LEFT, sigma_max, depth=5),
            lambda: verify_strategy(phi, model, MemorilessStrategy(
                max_choices=tuple(np.asarray(t, dtype=bool) for t in tables))),
        ]
        for call in calls:
            with pytest.raises(StrategyError) as raised:
                call()
            assert type(raised.value) is StrategyError
            assert re.fullmatch(match, str(raised.value))
        assert products == []
        assert rng.bit_generator.state == state

    def test_verify_strategy_reports_a_formula_error_before_a_misfit_table(
            self, vardi):
        model, _ = vardi
        phi = reduce(parse("mu X . <k> nope \\/ <k> X"), model.valuation)
        misfit = MemorilessStrategy(max_choices=(np.array([True]),) * 2)
        with pytest.raises(UnresolvedSymbolError, match="'nope'"):
            verify_strategy(phi, model, misfit)
        with pytest.raises(UnresolvedSymbolError, match="'nope'"):
            verify_strategy(phi, model, misfit, base=np.zeros(2))

    @pytest.mark.parametrize("text, s0, error, match", NOT_PLAYABLE_IN_VARDI)
    def test_unbound_symbol_or_bad_start_raises_before_any_move(
            self, vardi, text, s0, error, match):
        model, _ = vardi
        phi = reduce(parse(text), model.valuation)
        with pytest.raises(error, match=match):
            play(phi, model, s0, LEFT, LEFT, max_depth=5, rng=rng_for(9))
        with pytest.raises(error, match=match):
            estimate(phi, model, s0, LEFT, LEFT, n_paths=5, max_depth=5, seed=9)
        with pytest.raises(error, match=match):
            expand_tree(phi, model, s0, LEFT, LEFT, depth=5)
