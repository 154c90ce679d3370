"""The compiled evaluation plan: hoisting, equivalence and depth.

The plan must give the values and ``FixpointStats`` of the recursive tree
walk it replaced, which is kept here as a reference.  The one allowed
difference is that a binder with no free occurrence of its enclosing
binder's variable is solved once per enclosing iterate, not once per inner
one, so its ``solves`` and ``total_iterations`` (and those of the binders
inside it) count fewer solves, and in a batched evaluation its
``iterations`` and ``residual`` are those of its slowest row.
"""

import sys
from collections import deque

import numpy as np
import pytest

import qmu.evaluator
import qmu.oracle
from qmu.core import Model, StateSpace, Valuation, expectation, predicate, transition
from qmu.evaluator import (
    _ENTER, _TEST, DivergenceError, EvalConfig, EvalReport, FixpointStats,
    _Frame, _Masked, _Plan, _pointwise, evaluate, evaluate_batch, evaluate_fix,
)
from qmu.examples import case_study_tables
from qmu.formula import (
    Cond, Const, Fix, MaxJ, MinJ, Modal, Mu, Nu, Var, check_entry, children,
    choice_sites, free_variables, parse, pretty_print, reduce,
)
from qmu.oracle import _TEMPLATES, random_instance
from qmu.strategy import synthesize, verify_strategy
import brute_reference
from generators import random_formula

NEST = "nu Y . mu X . (atLeast6 /\\ <month> Y) \\/ <month> X"


class RecursiveWalker:
    """The evaluator's former recursive tree walk, as a reference."""

    def __init__(self, model, cfg, choose, batch, forced):
        self.v = model.valuation
        n = model.space.size
        self.shape = (n,) if batch is None else (batch, n)
        self._live = np.ones(self.shape[:-1], dtype=bool)
        self.cfg = cfg
        self.forced = forced
        self.choose = choose
        self.stats = {}

    def eval(self, node, env):
        if isinstance(node, Modal):
            return qmu.evaluator.pre_expectation_all(
                self.v.transitions[node.transition], self.eval(node.body, env))
        if isinstance(node, (MaxJ, MinJ)):
            return self.choose(node, self.eval(node.left, env),
                               self.eval(node.right, env))
        if isinstance(node, Var):
            return env[node.name]
        if isinstance(node, Const):
            return self.v.expectations[node.name]
        if isinstance(node, Cond):
            return np.where(self.v.predicates[node.predicate],
                            self.eval(node.then_branch, env),
                            self.eval(node.else_branch, env))
        return self.solve_fixpoint(node, env)

    def solve_fixpoint(self, node, env):
        detect_divergence = id(node) in self.forced
        if isinstance(node, Mu):
            cur = np.zeros(self.shape)
        elif isinstance(node, Nu):
            cur = np.ones(self.shape)
        else:
            cur = np.full(self.shape, float(node.start))
        var = node.var
        outer = env.get(var)
        outer_live = self._live
        live = self._live = outer_live.copy()
        steps = np.where(live, np.inf, 0.0)
        tol = self.cfg.tolerance
        residual = np.inf
        iterations = 0
        window = deque(maxlen=51)
        try:
            for iterations in range(1, self.cfg.max_iterations + 1):
                env[var] = cur
                new = np.clip(self.eval(node.body, env), 0.0, 1.0)
                step = np.abs(new - cur).max(axis=-1)
                cur = np.where(live[..., None], new, cur)
                steps = np.where(live, step, steps)
                live &= step > tol
                residual = float(steps.max())
                if residual <= tol:
                    break
                if detect_divergence:
                    window.append(residual)
                    if (len(window) == 51
                            and all(b >= a for a, b in zip(window, list(window)[1:]))):
                        raise DivergenceError("non-decreasing residual")
        finally:
            self._live = outer_live
            if outer is None:
                env.pop(var, None)
            else:
                env[var] = outer
        prev = self.stats.get(var)
        self.stats[var] = FixpointStats(
            binder=var, iterations=iterations, residual=residual,
            converged=residual <= tol and (prev.converged if prev else True),
            solves=(prev.solves if prev else 0) + 1,
            total_iterations=(prev.total_iterations if prev else 0) + iterations)
        return cur


def walk(phi, model, cfg=None, fix_policy="reject", choose=_pointwise,
         batch=None):
    forced = check_entry(phi, model.valuation, fix_policy)
    walker = RecursiveWalker(model, cfg or EvalConfig(), choose, batch, forced)
    result = np.clip(np.broadcast_to(walker.eval(phi, {}), walker.shape), 0.0, 1.0)
    return EvalReport(result=result, fixpoints=dict(walker.stats),
                      converged=all(st.converged for st in walker.stats.values()))


def hoisted_binders(phi):
    """Names of the binders solved fewer times by the plan: those with no
    free occurrence of their enclosing binder's variable, and every binder
    inside one of them.  Binder names must be unique."""
    hoisted = set()
    stack = [(phi, None, False)]
    while stack:
        node, enclosing, inside = stack.pop()
        if isinstance(node, (Mu, Nu, Fix)):
            inside = inside or (enclosing is not None
                                and enclosing not in free_variables(node))
            if inside:
                hoisted.add(node.var)
            enclosing = node.var
        stack.extend((child, enclosing, inside) for child in children(node))
    return hoisted


def assert_same(plan, reference, hoisted=frozenset()):
    assert np.array_equal(plan.result, reference.result)
    assert plan.converged == reference.converged
    assert list(plan.fixpoints) == list(reference.fixpoints)
    for name, ref in reference.fixpoints.items():
        got = plan.fixpoints[name]
        if name in hoisted:
            assert got.solves <= ref.solves
            assert got.total_iterations <= ref.total_iterations
            got = FixpointStats(got.binder, got.iterations, got.residual,
                                got.converged, ref.solves, ref.total_iterations)
        assert got == ref, name


@pytest.fixture
def products(monkeypatch):
    count = [0]
    product = qmu.evaluator.pre_expectation_all

    def counted(t, post):
        count[0] += 1
        return product(t, post)

    monkeypatch.setattr(qmu.evaluator, "pre_expectation_all", counted)
    return count


class TestHoisting:
    def test_futures_product_counts(self, futures, futures_strategy, products):
        # 46 iterations of two products, plus <month> Sold once
        model, game = futures
        evaluate(game, model)
        assert products[0] == 93
        products[0] = 0
        synthesize(game, model)
        assert products[0] == 93
        products[0] = 0
        verify_strategy(game, model, futures_strategy[0])
        assert products[0] == 190
        products[0] = 0
        case_study_tables(model=model)
        assert products[0] == 360

    def test_nest_hoists_the_outer_modality(self, futures, products):
        # <month> Y once per outer iterate, <month> X once per inner one
        model, _ = futures
        report = evaluate(reduce(parse(NEST), model.valuation), model)
        assert report.converged
        x, y = report.fixpoints["X"], report.fixpoints["Y"]
        assert (y.iterations, y.solves, y.total_iterations) == (43, 1, 43)
        assert (x.iterations, x.solves, x.total_iterations) == (1, 43, 896)
        assert products[0] == x.total_iterations + y.total_iterations == 939

    def test_closed_inner_binder_is_solved_once(self, vardi):
        model, _ = vardi
        phi = reduce(parse("mu Y . <k> Y \\/ (fix(0.25) X . "
                           "if atA then <k> X else atB)"), model.valuation)
        plan = evaluate_fix(phi, model)
        reference = walk(phi, model, fix_policy="pure")
        assert_same(plan, reference, hoisted={"X"})
        assert plan.fixpoints["X"].solves == 1
        assert reference.fixpoints["X"].solves == plan.fixpoints["Y"].iterations


class TestMatchesTheRecursiveWalk:
    def test_case_study(self, futures, vardi):
        model, game = futures
        for phi in (game, reduce(parse(NEST), model.valuation),
                    reduce(parse("mu X . <month> atLeast6 \\/ "
                                 "<month> (X /\\ <month> X)"), model.valuation)):
            assert_same(evaluate(phi, model), walk(phi, model))
        short = EvalConfig(max_iterations=3)
        assert_same(evaluate(game, model, short), walk(game, model, short))
        model, psi = vardi
        assert_same(evaluate(psi, model), walk(psi, model))

    def test_random_instances(self):
        for i in range(200):
            inst = random_instance([0, i])
            assert_same(evaluate(inst.phi, inst.model),
                        walk(inst.phi, inst.model))

    def test_batch(self):
        inst = next(i for i in (random_instance([0, t]) for t in range(200))
                    if i.alternating and choice_sites(i.phi) == (1, 1))
        n = inst.model.space.size
        rng = np.random.default_rng(5)
        min_masks = rng.random((1, 9, n)) < 0.5
        max_masks = rng.random((1, 9, n)) < 0.5
        assert_same(evaluate_batch(inst.phi, inst.model, min_masks, max_masks),
                    walk(inst.phi, inst.model, choose=_Masked(min_masks, max_masks),
                         batch=9))

    def test_batched_closed_inner_binder_reports_its_slowest_row(self):
        # Solved once, with every row live, a hoisted binder reports the
        # slowest row of all; the walk reported its last solve, made with
        # only the rows still live in the enclosing loop.
        for i in range(20):
            inst = random_instance([3, i])
            model = inst.model
            phi = reduce(parse("mu Y . <t0> Y \\/ (a0 /\\ (mu X . a1 \\/ <t1> X))"),
                         model.valuation)
            n = model.space.size
            rng = np.random.default_rng(i)
            min_masks = rng.random((1, 6, n)) < 0.5
            max_masks = rng.random((2, 6, n)) < 0.5
            batch = evaluate_batch(phi, model, min_masks, max_masks)
            reference = walk(phi, model, choose=_Masked(min_masks, max_masks),
                             batch=6)
            assert np.array_equal(batch.result, reference.result)
            assert batch.fixpoints["Y"] == reference.fixpoints["Y"]
            rows = [evaluate_batch(phi, model, min_masks[:, [b]], max_masks[:, [b]])
                    for b in range(6)]
            x = batch.fixpoints["X"]
            assert x.solves == 1
            assert x.iterations == max(row.fixpoints["X"].iterations for row in rows)
            assert x.residual == max(row.fixpoints["X"].residual for row in rows)

    def test_random_formulae_with_fix(self):
        cfg = EvalConfig(tolerance=1e-6, max_iterations=40)
        compared = 0
        for i in range(200):
            model = _formula_model([0, i])
            # reparse so that every binder has its own name
            phi = reduce(parse(pretty_print(random_formula(i))), model.valuation)
            try:
                reference = walk(phi, model, cfg, "force")
            except DivergenceError:
                with pytest.raises(DivergenceError):
                    evaluate_fix(phi, model, cfg, force=True)
                continue
            assert_same(evaluate_fix(phi, model, cfg, force=True), reference,
                        hoisted_binders(phi))
            compared += 1
        assert compared >= 190

    def test_shadowed_names_resolve_to_the_nearest_binder(self, vardi):
        model, _ = vardi
        # the inner X shadows the outer one, which stays bound after it
        phi = Mu("X", MaxJ(Modal("k", Nu("X", MinJ(Var("X"), Const("atB"), 0))),
                           Modal("k", Var("X")), 0))
        plan = evaluate(phi, model)
        assert np.array_equal(plan.result, walk(phi, model).result)


def enclosing_loops(phi, model):
    """Each binder's enclosing loop in the compiled plan, None at the top."""
    enclosing, running = {}, []
    for step in _Plan(phi, model, frozenset()).steps:
        if step[0] == _ENTER:
            enclosing[step[1].var] = running[-1] if running else None
            running.append(step[1].var)
        elif step[0] == _TEST:
            running.pop()
    return enclosing


def count_rows(patch):
    """Count from now on the rows fed to batched (2-D) products."""
    rows = [0]
    product = qmu.evaluator.pre_expectation_all

    def counted(t, post):
        if post.ndim == 2:
            rows[0] += post.shape[0]
        return product(t, post)

    patch.setattr(qmu.evaluator, "pre_expectation_all", counted)
    return rows


def assert_rows_alone(phi, model, min_masks, max_masks):
    """Solve the batch of pairs and return its report.

    Each row is its strategy pair's value solved alone, the batch feeds the
    batched products exactly the rows its pairs feed solved alone, and each
    binder reports the slowest row of its last solve: the rows that ran
    every enclosing loop's last solve longest."""
    with pytest.MonkeyPatch.context() as patch:
        fed = count_rows(patch)
        batch = evaluate_batch(phi, model, min_masks, max_masks)
        in_batch, fed[0] = fed[0], 0
        rows = [evaluate_batch(phi, model, min_masks[:, [b]], max_masks[:, [b]])
                for b in range(min_masks.shape[1])]
        assert in_batch == fed[0]
    for b, row in enumerate(rows):
        assert np.array_equal(batch.result[b], row.result[0]), b
    enclosing = enclosing_loops(phi, model)

    def last_solve(var):
        outer = enclosing[var]
        if outer is None:
            return range(len(rows))
        members = last_solve(outer)
        longest = max(rows[b].fixpoints[outer].iterations for b in members)
        return [b for b in members if rows[b].fixpoints[outer].iterations == longest]

    for var, got in batch.fixpoints.items():
        members = last_solve(var)
        assert got.iterations == max(rows[b].fixpoints[var].iterations
                                     for b in members), var
        assert got.residual == max(rows[b].fixpoints[var].residual
                                   for b in members), var
        assert got.converged == all(row.fixpoints[var].converged for row in rows)
    return batch


def walk_batch(phi, model, min_masks, max_masks, cfg=None):
    """The batch solved by the recursive walk, which never narrows."""
    return walk(phi, model, cfg, choose=_Masked(min_masks, max_masks),
                batch=min_masks.shape[1])


def assert_walk_agrees(phi, model, min_masks, max_masks, report):
    """``report`` has the walk's values, ``converged`` and statistics of the
    binders it solves as often as the walk does."""
    reference = walk_batch(phi, model, min_masks, max_masks)
    assert np.array_equal(report.result, reference.result)
    assert report.converged == reference.converged
    hoisted = hoisted_binders(phi)
    for var, ref in reference.fixpoints.items():
        if var not in hoisted:
            assert report.fixpoints[var] == ref, var


class TestCompaction:
    """A row leaves a batched loop at the iterate where it stops; no value
    or statistic may change."""

    def test_crosscheck_batches(self, monkeypatch):
        batches = []
        batched = brute_reference.evaluate_batch

        def captured(phi, model, min_masks, max_masks, cfg=None):
            report = batched(phi, model, min_masks, max_masks, cfg)
            batches.append((phi, model, min_masks, max_masks, report))
            return report

        monkeypatch.setattr(qmu.oracle, "brute_minimax",
                            brute_reference.brute_minimax)
        monkeypatch.setattr(brute_reference, "evaluate_batch", captured)
        for block in range(9):
            assert qmu.oracle.crosscheck(10, block).ok
        monkeypatch.undo()
        assert len(batches) == 90
        for phi, model, min_masks, max_masks, report in batches:
            assert_walk_agrees(phi, model, min_masks, max_masks, report)
            width = min_masks.shape[1]
            if width <= 64:
                assert report == assert_rows_alone(phi, model, min_masks,
                                                   max_masks)
            else:
                for b in range(0, width, width // 16):
                    alone = evaluate_batch(phi, model, min_masks[:, [b]],
                                           max_masks[:, [b]])
                    assert np.array_equal(report.result[b], alone.result[0])

    def test_nests_under_random_masks(self, monkeypatch):
        narrowed = set()
        narrow = _Frame.narrow

        def spy(frame, loop, *args):
            narrowed.add(loop.var)
            return narrow(frame, loop, *args)

        monkeypatch.setattr(_Frame, "narrow", spy)
        alternating = [text for text, *_, alt in _TEMPLATES if alt]
        texts = {text: [] for text in alternating}
        cases = []
        for i in range(60):
            inst = random_instance([3, i])
            if inst.template in texts:
                texts[inst.template].append(inst)
            if i < 5:
                cases.append((inst.model, "mu Y . <t0> Y \\/ "
                              "(a0 /\\ (mu X . a1 \\/ <t1> X))"))
                cases.append((inst.model, "nu Y . mu X . (a0 /\\ <t0> Y) "
                              "\\/ (a1 /\\ <t1> X)"))
        for text in alternating:
            assert texts[text], text
            cases.extend((inst.model, inst.phi) for inst in texts[text][:3])
        for i, (model, phi) in enumerate(cases):
            if isinstance(phi, str):
                phi = reduce(parse(phi), model.valuation)
            mins, maxs = choice_sites(phi)
            rng = np.random.default_rng(i)
            n = model.space.size
            min_masks = rng.random((mins, 37, n)) < 0.5
            max_masks = rng.random((maxs, 37, n)) < 0.5
            report = assert_rows_alone(phi, model, min_masks, max_masks)
            assert_walk_agrees(phi, model, min_masks, max_masks, report)
        # both the inner and the outer loops dropped stopped rows
        assert {"X", "Y"} <= narrowed

    def test_loop_whose_test_reads_a_register_from_outside(self):
        # X's body does not mention X, so its test reads the hoisted
        # junction; rows taking the zero everywhere stop after one step
        model = Model(StateSpace(("u", "w")), Valuation(
            expectations={"zero": expectation([0.0, 0.0])},
            transitions={"k": transition([[(1, 0.5)], [(0, 0.5)]])}))
        phi = reduce(parse("nu Y . mu X . zero /\\ <k> Y"), model.valuation)
        min_masks = np.ones((1, 9, 2), dtype=bool)
        min_masks[0, ::3] = False
        max_masks = np.ones((0, 9, 2), dtype=bool)
        report = assert_rows_alone(phi, model, min_masks, max_masks)
        assert_walk_agrees(phi, model, min_masks, max_masks, report)

    def test_fewer_rows_reach_the_products(self, monkeypatch):
        inst = random_instance([2, 5])
        monkeypatch.setattr(brute_reference, "evaluate_batch", walk_batch)
        walked = count_rows(monkeypatch)
        full = brute_reference.brute_minimax(inst)
        monkeypatch.undo()
        rows = count_rows(monkeypatch)
        result = brute_reference.brute_minimax(inst)
        # the rows its 4,096 pairs feed the products solved one at a time
        assert rows[0] == 113_152 < walked[0]
        assert np.array_equal(result.table, full.table)
        assert np.array_equal(result.minimax, full.minimax)
        assert np.array_equal(result.maximin, full.maximin)
        for got, want in ((result.min_witness.min_choices,
                           full.min_witness.min_choices),
                          (result.max_witness.max_choices,
                           full.max_witness.max_choices)):
            assert np.array_equal(got, want)
        assert (result.min_witness_gap, result.max_witness_gap) == (
            full.min_witness_gap, full.max_witness_gap)


def _formula_model(seed):
    """A model binding every symbol :func:`random_formula` draws."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))

    def rows():
        # at most half the mass continues, so nested binders stop quickly
        return [[(int(t), float(rng.uniform(0.1, 0.25)))
                 for t in rng.choice(n, size=min(n, 2), replace=False)]
                for _ in range(n)]

    return Model(StateSpace(tuple(f"s{i}" for i in range(n))), Valuation(
        expectations={f"c{j}": expectation(rng.random(n)) for j in range(3)},
        transitions={"t0": transition(rows(), rng.random(n) * 0.5),
                     "t1": transition(rows())},
        transition_sets={"K0": ("t0", "t1"), "K1": ("t1",), "t0": ("t0",)},
        predicates={f"g{j}": predicate(rng.random(n) < 0.5) for j in range(2)}))


class TestDepth:
    """Compiling and running the plan use no recursion."""

    def test_deep_modality_chain(self, vardi):
        assert sys.getrecursionlimit() <= 1000
        model, _ = vardi
        phi = Const("atB")
        for _ in range(3000):
            phi = Modal("k", phi)
        expected = model.valuation.expectations["atB"]
        for _ in range(3000):
            expected = qmu.evaluator.pre_expectation_all(
                model.valuation.transitions["k"], expected)
        assert np.array_equal(evaluate(phi, model).result,
                              np.clip(expected, 0.0, 1.0))

    def test_deep_binder_chain(self, vardi):
        # mu X0 . <k> X0 \/ (mu X1 . <k> X1 \/ (... (mu X2999 . <k> X2999 \/ atB)))
        # Every level reaches B with probability one.  Each inner binder is
        # closed, so it is solved once: the recursive walk solved the
        # innermost one about 30 ** 3000 times.
        assert sys.getrecursionlimit() <= 1000
        model, _ = vardi
        phi = Const("atB")
        for depth in reversed(range(3000)):
            var = f"X{depth}"
            phi = Mu(var, MaxJ(Modal("k", Var(var)), phi, depth))
        report = evaluate(phi, model)
        assert report.converged and len(report.fixpoints) == 3000
        assert all(st.solves == 1 for st in report.fixpoints.values())
        assert np.abs(report.result - 1.0).max() <= 1e-6
