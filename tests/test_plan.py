"""The compiled evaluation plan: hoisting, equivalence and depth.

The plan must give the values and ``FixpointStats`` of the recursive tree
walk it replaced, which is kept here as a reference.  The one allowed
difference is that a binder with no free occurrence of its enclosing
binder's variable is solved once per enclosing iterate, not once per inner
one, so its ``solves`` and ``total_iterations`` (and those of the binders
inside it) count fewer solves.  The walk takes the states the plan's support
pass decides and holds them at 0 as the plan does, so it checks the plan's
loops, not the pass.
"""

import dataclasses
import sys
from collections import deque

import numpy as np
import pytest

import qmu.evaluator
from qmu.core import Model, StateSpace, Valuation, expectation, predicate, transition
from qmu.evaluator import (
    _ENTER, _TEST, DivergenceError, EvalConfig, EvalReport, FixpointStats, _Masked,
    _Plan, _pointwise, _run, evaluate, evaluate_fix,
)
from qmu.examples import case_study_tables
from qmu.formula import (
    Cond, Const, Fix, MaxJ, MinJ, Modal, Mu, Nu, Var, check_entry, children,
    choice_sites, free_variables, parse, pretty_print, reduce, subformulae,
)
from qmu.oracle import _TEMPLATES, random_instance
from qmu.strategy import synthesize, verify_strategy
from generators import random_formula

NEST = "nu Y . mu X . (atLeast6 /\\ <month> Y) \\/ <month> X"
UNDECIDED_NEST = ("nu Y . mu X . (atLeast6 /\\ <month> (fix(1) Z . Y)) "
                  "\\/ <month> X")


class RecursiveWalker:
    """The evaluator's former recursive tree walk, as a reference.

    ``zeros`` maps the id of a binder node to the states held at 0 in its
    solves.
    """

    def __init__(self, model, cfg, choose, forced, zeros):
        self.v = model.valuation
        self.n = model.space.size
        self.cfg = cfg
        self.forced = forced
        self.choose = choose
        self.zeros = zeros
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
            cur = np.zeros(self.n)
        elif isinstance(node, Nu):
            cur = np.ones(self.n)
        else:
            cur = np.full(self.n, float(node.start))
        var = node.var
        zeros = self.zeros.get(id(node))
        if zeros is not None:
            cur[zeros] = 0.0
        outer = env.get(var)
        tol = self.cfg.tolerance
        residual = np.inf
        iterations = 0
        window = deque(maxlen=51)
        try:
            for iterations in range(1, self.cfg.max_iterations + 1):
                env[var] = cur
                new = np.clip(self.eval(node.body, env), 0.0, 1.0)
                if zeros is not None:
                    new[zeros] = 0.0
                residual = float(np.abs(new - cur).max())
                cur = new
                if residual <= tol:
                    break
                if detect_divergence:
                    window.append(residual)
                    if (len(window) == 51
                            and all(b >= a for a, b in zip(window, list(window)[1:]))):
                        raise DivergenceError("non-decreasing residual")
        finally:
            if outer is None:
                env.pop(var, None)
            else:
                env[var] = outer
        prev = self.stats.get(var)
        self.stats[var] = FixpointStats(
            binder=var, iterations=iterations, residual=residual,
            converged=residual <= tol and (prev.converged if prev else True),
            solves=(prev.solves if prev else 0) + 1,
            total_iterations=(prev.total_iterations if prev else 0) + iterations,
            decided=0 if zeros is None else int(zeros.sum()))
        return cur


def walk(phi, model, cfg=None, fix_policy="reject", choose=_pointwise):
    forced = check_entry(phi, model, fix_policy).forced
    plan = _Plan(phi, model, forced)
    decided = plan.decide(choose)
    # binder registers are allocated in preorder
    loops = sorted((step[1] for step in plan.steps if step[0] == _ENTER),
                   key=lambda loop: loop.register)
    binders = [node for node in subformulae(phi) if isinstance(node, (Mu, Nu, Fix))]
    zeros = {id(node): decided[loop] for node, loop in zip(binders, loops)
             if loop in decided}
    walker = RecursiveWalker(model, cfg or EvalConfig(), choose, forced, zeros)
    result = np.clip(walker.eval(phi, {}), 0.0, 1.0)
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
            got = dataclasses.replace(got, solves=ref.solves,
                                      total_iterations=ref.total_iterations)
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
        # <month> Y once per outer iterate, <month> X once per inner one.
        # The fix(1) Z . Y is Y itself, and a closed binder containing a fix
        # gets no decisions, so this nest is iterated as the plan's loops
        # alone would iterate the futures nest.
        model, _ = futures
        phi = reduce(parse(UNDECIDED_NEST), model.valuation)
        report = evaluate_fix(phi, model)
        assert report.converged
        x, y = report.fixpoints["X"], report.fixpoints["Y"]
        assert (y.iterations, y.solves, y.total_iterations) == (43, 1, 43)
        assert (x.iterations, x.solves, x.total_iterations) == (1, 43, 896)
        assert y.decided == x.decided == 0
        assert products[0] == x.total_iterations + y.total_iterations == 939

    def test_futures_nest_is_decided(self, futures, products):
        # Every state is 0: the pass decides them all, so the outer loop
        # stops after one step and each loop runs one product
        model, _ = futures
        report = evaluate(reduce(parse(NEST), model.valuation), model)
        assert report.converged
        assert not report.result.any()
        x, y = report.fixpoints["X"], report.fixpoints["Y"]
        assert (y.iterations, y.solves, y.decided) == (1, 1, 1331)
        assert (x.iterations, x.solves, x.decided) == (1, 1, 0)
        assert products[0] == 2

    def test_closed_inner_binder_is_solved_once(self, vardi):
        model, _ = vardi
        phi = reduce(parse("mu Y . <k> Y \\/ (fix(0.25) X . "
                           "if atA then <k> X else atB)"), model.valuation)
        plan = evaluate_fix(phi, model)
        reference = walk(phi, model, fix_policy="pure")
        assert_same(plan, reference, hoisted={"X"})
        assert plan.fixpoints["X"].solves == 1
        assert reference.fixpoints["X"].solves == plan.fixpoints["Y"].iterations


class TestRegisters:
    """Every constant, binder and value step has a register of its own, and
    a run leaves every register holding a vector."""

    @pytest.mark.parametrize("text", [None, NEST, UNDECIDED_NEST],
                             ids=["game", "nest", "undecided-nest"])
    def test_one_register_per_step(self, futures, text):
        model, game = futures
        phi = game if text is None else reduce(parse(text), model.valuation)
        plan = _Plan(phi, model, check_entry(phi, model, "pure").forced)
        steps = [step for step in plan.steps if step[0] not in (_ENTER, _TEST)]
        loops = [step[1] for step in plan.steps if step[0] == _ENTER]
        written = [step[1] for step in steps] + [loop.register for loop in loops]
        assert len(set(written)) == len(written)
        nodes = list(subformulae(phi))
        consts = {node.name for node in nodes if isinstance(node, Const)}
        assert len(loops) == sum(isinstance(node, (Mu, Nu, Fix)) for node in nodes)
        assert len(steps) == sum(isinstance(node, (Modal, MaxJ, MinJ, Cond))
                                 for node in nodes)
        assert len(plan.registers) == len(consts) + len(loops) + len(steps)
        assert sum(r is not None for r in plan.registers) == len(consts)

        def test(loop, frame, body, old):
            frame[0] += 1
            return body.clip(0.0, 1.0), frame[0] < 3

        regs = list(plan.registers)
        plan.execute(regs, qmu.evaluator.pre_expectation_all, _pointwise,
                     lambda loop, outer: (np.full(plan.n, loop.seed), [0]), test)
        assert all(isinstance(r, np.ndarray) and r.shape == (plan.n,) for r in regs)


def _ring(n):
    """The divergence ring of ``tests/test_evaluator.py`` with ``n`` states:
    a value wave travels one step per iterate, so the residual stays flat
    for about ``n`` iterates."""
    e = np.full(n, 0.5)
    e[0] = 0.9
    return Model(StateSpace(tuple(f"r{i}" for i in range(n))), Valuation(
        expectations={"e": expectation(e)},
        transitions={"shift": transition([[((i + 1) % n, 1.0)] for i in range(n)])},
        predicates={"g": predicate([i != 0 for i in range(n)])}))


class TestDivergenceDetector:
    def test_ring_family_matches_the_window(self, products):
        # the plan counts the residuals in a row that did not fall; the
        # reference keeps the last 51 in a window.  Rings of 51 states or
        # more raise, at the same iterate (two products each); shorter
        # ones converge with the same stats
        raised = 0
        for n in range(46, 56):
            model = _ring(n)
            for start in (0.5, 0.25, 1.0):
                phi = reduce(parse(f"fix({start}) X . if g then "
                                   "(<shift> X \\/ <shift> X) else e"), model.valuation)
                outcomes = []
                for run in (lambda: evaluate_fix(phi, model, force=True),
                            lambda: walk(phi, model, fix_policy="force")):
                    products[0] = 0
                    try:
                        outcomes.append(run())
                    except DivergenceError:
                        outcomes.append(products[0])
                plan, reference = outcomes
                assert type(plan) is type(reference), (n, start)
                if isinstance(reference, int):
                    assert plan == reference == 102, (n, start)
                    raised += 1
                else:
                    assert_same(plan, reference)
        assert raised == 15


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

    def test_nests_under_random_masks(self):
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
            for _ in range(5):
                choose = _Masked(rng.random((mins, n)) < 0.5,
                                 rng.random((maxs, n)) < 0.5)
                assert_same(_run(phi, model, None,
                                 check_entry(phi, model, "reject"), choose),
                            walk(phi, model, choose=choose),
                            hoisted_binders(phi))

    def test_loop_whose_test_reads_a_register_from_outside(self):
        # X's body does not mention X, so its test reads the hoisted
        # junction; a pair taking the zero everywhere stops after one step
        model = Model(StateSpace(("u", "w")), Valuation(
            expectations={"zero": expectation([0.0, 0.0])},
            transitions={"k": transition([[(1, 0.5)], [(0, 0.5)]])}))
        phi = reduce(parse("nu Y . mu X . zero /\\ <k> Y"), model.valuation)
        for left in ([True, True], [False, False], [True, False]):
            choose = _Masked(np.array([left]), None)
            assert_same(_run(phi, model, None, check_entry(phi, model, "reject"),
                             choose),
                        walk(phi, model, choose=choose), hoisted_binders(phi))

    def test_shadowed_names_resolve_to_the_nearest_binder(self, vardi):
        model, _ = vardi
        # the inner X shadows the outer one, which stays bound after it
        phi = Mu("X", MaxJ(Modal("k", Nu("X", MinJ(Var("X"), Const("atB"), 0))),
                           Modal("k", Var("X")), 0))
        plan = evaluate(phi, model)
        assert np.array_equal(plan.result, walk(phi, model).result)


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
