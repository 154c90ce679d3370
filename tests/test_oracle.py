"""Brute-force enumeration oracle and random instance generation."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

import brute_reference
from qmu.core import (
    EPS_REPR, Model, StateSpace, Valuation, halt_payoff, transition, validate,
)
from qmu.evaluator import (
    EvalConfig, EvalReport, EvaluationError, FixNotSupportedError,
    NotConvergedError, UnresolvedSymbolError, evaluate,
)
from qmu.formula import (
    Cond, Const, Fix, MaxJ, MinJ, Modal, Mu, Nu, Var, alpha_equal,
    choice_sites, parse, reduce,
)
from qmu.modelio import load_model
from qmu.oracle import (
    _TEMPLATES, InstanceBounds, StrategySpaceError, TinyInstance, _solve_pairs,
    _tuple_choices, brute_minimax, crosscheck, random_instance,
)
from qmu.strategy import MemorilessStrategy
from specialize_reference import specialize, specialized_model


def _choices(bits, n_sites, n_states):
    return tuple(np.array(bits[site * n_states:(site + 1) * n_states], dtype=bool)
                 for site in range(n_sites))


def _pair_value(inst, min_bits, max_bits):
    """One strategy pair's value: evaluate of the specialised formula."""
    n = inst.model.space.size
    mins, maxs = choice_sites(inst.phi)
    strategy = MemorilessStrategy(min_choices=_choices(min_bits, mins, n),
                                  max_choices=_choices(max_bits, maxs, n))
    phi2, ext = specialize(inst.phi, strategy, n)
    return evaluate(phi2, specialized_model(inst.model, ext)).result


def per_pair_brute_minimax(inst):
    """The brute force with one evaluate per strategy pair, as reference.

    Returns the table, both witnesses' choices and both witness gaps.
    """
    n = inst.model.space.size
    mins, maxs = choice_sites(inst.phi)
    min_tuples = list(itertools.product((False, True), repeat=mins * n))
    max_tuples = list(itertools.product((False, True), repeat=maxs * n))
    table = np.array([[_pair_value(inst, a, b) for b in max_tuples]
                      for a in min_tuples])
    max_first = table.max(axis=1)
    minimax = max_first.min(axis=0)
    min_first = table.min(axis=0)
    maximin = min_first.max(axis=0)
    min_gaps = (max_first - minimax[None, :]).max(axis=1)
    max_gaps = (maximin[None, :] - min_first).max(axis=1)
    i0, j0 = int(np.argmin(min_gaps)), int(np.argmin(max_gaps))
    return (table, _choices(min_tuples[i0], mins, n), _choices(max_tuples[j0], maxs, n),
            float(min_gaps[i0]), float(max_gaps[j0]))


def _affine_sum(terms):
    """The sum of ``(scale, form)`` terms, forms being ``{key: Fraction}``."""
    out = {}
    for scale, form in terms:
        for key, value in form.items():
            out[key] = out.get(key, 0) + scale * value
    return out


def exact_pair_value(inst, min_bits, max_bits):
    """One strategy pair's value in exact rationals over the stored floats.

    Each subformula is, at every state, an affine form ``{key: Fraction}``
    in the binder variables (key ``(var, state)``) plus a constant (key
    ``None``).  A binder's rows that cannot reach a row whose own
    coefficients sum below ``1 - EPS_REPR`` take 0 under mu and 1 under nu;
    the rest are solved by Gauss-Jordan elimination.
    """
    model, phi = inst.model, inst.phi
    v, n = model.valuation, model.space.size
    mins, maxs = choice_sites(phi)
    choices = {MinJ: _choices(min_bits, mins, n), MaxJ: _choices(max_bits, maxs, n)}
    top = 1 - Fraction(EPS_REPR)

    def go(node):
        if isinstance(node, Const):
            return [{None: Fraction(float(x))} for x in v.expectations[node.name]]
        if isinstance(node, Var):
            return [{(node.name, s): Fraction(1)} for s in range(n)]
        if isinstance(node, Modal):
            t, body = v.transitions[node.transition], go(node.body)
            return [_affine_sum([(1, {None: Fraction(t.weights.item(s))})]
                                + [(Fraction(p), body[j]) for j, p in zip(*t.row(s))])
                    for s in range(n)]
        if isinstance(node, (MinJ, MaxJ)):
            left, right = go(node.left), go(node.right)
            mask = choices[type(node)][node.site]
            return [left[s] if mask[s] else right[s] for s in range(n)]
        if isinstance(node, Cond):
            then, other = go(node.then_branch), go(node.else_branch)
            return [then[s] if v.predicates[node.predicate][s] else other[s]
                    for s in range(n)]
        body, x = go(node.body), node.var
        coef = [[body[s].pop((x, j), Fraction(0)) for j in range(n)]
                for s in range(n)]
        reach = {s for s in range(n) if sum(coef[s]) < top}  # the open rows
        grown = True
        while grown:
            grown = False
            for s in set(range(n)) - reach:
                if any(coef[s][j] and j in reach for j in range(n)):
                    reach.add(s)
                    grown = True
        default = {None: Fraction(int(isinstance(node, Nu)))}
        rows = sorted(reach)
        # [I - A | rest] over the open rows, closed columns moved right
        system = [[int(s == j) - coef[s][j] for j in rows]
                  + [_affine_sum([(1, body[s])] + [(coef[s][j], default)
                                                   for j in range(n)
                                                   if j not in reach])]
                  for s in rows]
        for c in range(len(rows)):
            pivot = next(r for r in range(c, len(rows)) if system[r][c])
            system[c], system[pivot] = system[pivot], system[c]
            scale = system[c][c]
            system[c] = [a / scale for a in system[c][:-1]] + [
                _affine_sum([(1 / scale, system[c][-1])])]
            for r in range(len(rows)):
                if r != c and system[r][c]:
                    f = system[r][c]
                    system[r] = [a - f * b for a, b in zip(system[r][:-1],
                                                           system[c][:-1])] + [
                        _affine_sum([(1, system[r][-1]), (-f, system[c][-1])])]
        solved = dict(zip(rows, (row[-1] for row in system)))
        return [solved.get(s, default) for s in range(n)]

    return np.clip([float(form.get(None, 0)) for form in go(phi)], 0.0, 1.0)


def bit_identity_cases(vardi):
    """Vardi's formula and the first instance of each template."""
    model, phi = vardi
    cases = [TinyInstance(model=model, phi=phi, text="",
                          free_var="W0", alternating=False, template="")]
    first = {}
    for trial in range(400):
        inst = random_instance([77, trial])
        first.setdefault(inst.template, inst)
    assert len(first) == len(_TEMPLATES)
    assert sum(inst.alternating for inst in first.values()) == 2
    cases.extend(first.values())
    return cases


def one_state_chain(stay, weight):
    """``mu X . <k> X`` on one state that stays with ``stay`` and pays ``weight``."""
    model = Model(StateSpace(("s",)), Valuation(
        transitions={"k": transition([[(0, stay)]], [weight])}))
    phi = reduce(parse("mu X . <k> X"), model.valuation)
    return TinyInstance(model=model, phi=phi, text="mu X . <k> X",
                        free_var="W0", alternating=False, template="")


class TestRandomInstance:
    def test_deterministic_in_seed(self):
        a = random_instance(99)
        b = random_instance(99)
        assert a.text == b.text
        assert alpha_equal(a.phi, b.phi)
        for name, t in a.model.valuation.transitions.items():
            assert t == b.model.valuation.transitions[name]
        for name, arr in a.model.valuation.expectations.items():
            assert np.array_equal(arr, b.model.valuation.expectations[name])

    def test_thousand_instances_validate(self):
        for trial in range(1000):
            inst = random_instance([7001, trial])
            assert validate(inst.model) == [], trial

    def test_bounds_are_respected(self):
        bounds = InstanceBounds(max_states=2, max_min_sites=1,
                                max_max_sites=1, max_binders=1)
        for trial in range(100):
            inst = random_instance([311, trial], bounds)
            mins, maxs = choice_sites(inst.phi)
            assert inst.model.space.size <= 2
            assert mins <= 1 and maxs <= 1

    def test_zero_site_bounds_give_constant_formulae(self):
        bounds = InstanceBounds(max_states=1, max_min_sites=0, max_max_sites=0,
                                max_binders=0)
        inst = random_instance(3, bounds)
        assert choice_sites(inst.phi) == (0, 0)
        report = evaluate(inst.phi, inst.model)
        assert report.result.shape == (1,)

    def test_template_metadata_matches_reality(self):
        seen = set()
        for trial in range(400):
            inst = random_instance([999, trial])
            meta = {text: (m, x, b, alt) for text, m, x, b, alt in _TEMPLATES}
            mins, maxs, binders, alternating = meta[inst.template]
            assert choice_sites(inst.phi) == (mins, maxs), inst.template
            assert inst.alternating == alternating
            seen.add(inst.template)
        assert len(seen) == len(_TEMPLATES)

    def test_alternating_templates_in_the_mix(self):
        flags = [random_instance([55, i]).alternating for i in range(60)]
        assert any(flags)

    @pytest.mark.parametrize("field, value", [
        ("max_min_sites", -1), ("max_max_sites", -1), ("max_binders", -1),
        ("max_strategy_bits", -1), ("max_continue_mass", -0.5),
        ("max_continue_mass", 1.5), ("max_continue_mass", float("nan")),
        ("max_states", 0), ("max_strategy_bits", 21),
    ])
    def test_rejects_bounds_that_check_nothing(self, field, value):
        with pytest.raises(ValueError, match=field):
            InstanceBounds(**{field: value})

    def test_continue_mass_cap(self):
        bounds = InstanceBounds(max_continue_mass=0.25)
        for trial in range(50):
            inst = random_instance([777, trial], bounds)
            for t in inst.model.valuation.transitions.values():
                for s in range(t.n_states):
                    assert sum(t.row(s)[1]) <= 0.25 + 1e-12


class TestBruteMinimax:
    def test_vardi_is_half_everywhere(self, vardi):
        model, phi = vardi
        inst = TinyInstance(model=model, phi=phi, text="",
                            free_var="W0", alternating=False, template="")
        result = brute_minimax(inst)
        assert np.allclose(result.minimax, 0.5, atol=1e-9)
        assert np.allclose(result.maximin, 0.5, atol=1e-9)

    def test_zero_sites_equals_evaluation(self):
        bounds = InstanceBounds(max_min_sites=0, max_max_sites=0)
        inst = random_instance(17, bounds)
        result = brute_minimax(inst)
        base = evaluate(inst.phi, inst.model).result
        assert np.array_equal(result.minimax, base)
        assert np.array_equal(result.maximin, base)

    def test_order_insensitivity(self):
        inst = random_instance(23)
        result = brute_minimax(inst)
        table = result.table
        via_min_first = table.min(axis=0).max(axis=0)
        via_max_first = table.max(axis=1).min(axis=0)
        assert np.array_equal(via_max_first, result.minimax)
        assert np.array_equal(via_min_first, result.maximin)

    def test_witnesses_achieve_the_value(self):
        for trial in range(20):
            inst = random_instance([401, trial])
            result = brute_minimax(inst)
            assert result.min_witness_gap <= 1e-6
            assert result.max_witness_gap <= 1e-6

    def test_synthesized_strategy_matches_witness_value(self):
        from qmu.strategy import synthesize
        for trial in range(20):
            inst = random_instance([433, trial])
            result = brute_minimax(inst)
            strategy, value = synthesize(inst.phi, inst.model)
            assert np.abs(value - result.minimax).max() <= 1e-6
            phi2, ext = specialize(inst.phi, strategy, inst.model.space.size)
            achieved = evaluate(phi2, specialized_model(inst.model, ext)).result
            assert np.abs(achieved - result.minimax).max() <= 1e-6

    def test_bit_identical_to_per_pair_evaluation(self, vardi):
        # the Kleene reference: every table row is that pair evaluated alone
        for inst in bit_identity_cases(vardi):
            table, min_choices, max_choices, min_gap, max_gap = (
                per_pair_brute_minimax(inst))
            result = brute_reference.brute_minimax(inst)
            assert np.array_equal(result.table, table), inst.template
            for got, want in ((result.min_witness.min_choices, min_choices),
                              (result.max_witness.max_choices, max_choices)):
                assert len(got) == len(want)
                assert all(np.array_equal(a, b) for a, b in zip(got, want))
            assert result.min_witness_gap == min_gap
            assert result.max_witness_gap == max_gap

    def test_within_the_tolerance_of_the_kleene_reference(self, vardi):
        for inst in bit_identity_cases(vardi):
            table = brute_reference.brute_minimax(inst).table
            assert np.abs(brute_minimax(inst).table - table).max() <= 1e-6, (
                inst.template)

    def test_rows_match_an_exact_rational_solve(self, vardi):
        rng = np.random.default_rng(15)
        for inst in bit_identity_cases(vardi):
            n = inst.model.space.size
            mins, maxs = choice_sites(inst.phi)
            table = brute_minimax(inst).table
            for _ in range(4):
                i = int(rng.integers(table.shape[0]))
                j = int(rng.integers(table.shape[1]))
                min_bits = _tuple_choices(i, 1, mins * n)[0].tolist()
                max_bits = _tuple_choices(j, 1, maxs * n)[0].tolist()
                exact = exact_pair_value(inst, min_bits, max_bits)
                assert np.abs(table[i, j] - exact).max() <= 1e-12, inst.template

    @pytest.mark.parametrize("stay, weight, kleene", [
        (1.0 - 1e-4, 0.5e-4, 0.49999), (1.0 - 1e-10, 1e-10, 1e-10),
    ])
    def test_slow_chain_solved_where_kleene_stops_early(self, stay, weight, kleene):
        inst = one_state_chain(stay, weight)
        t = inst.model.valuation.transitions["k"]
        exact = t.weights[0] / (1.0 - t.probs[0])
        result = brute_minimax(inst)
        assert abs(result.minimax[0] - exact) <= 1e-12
        assert abs(result.maximin[0] - exact) <= 1e-12
        # the step-residual stop: evaluate reports convergence far from
        # the fixpoint, and the crosscheck comparison now sees the gap
        report = evaluate(inst.phi, inst.model)
        assert report.converged
        assert abs(report.result[0] - kleene) <= 1e-5 * kleene
        assert abs(report.result[0] - result.minimax[0]) > 1e-6

    def test_row_within_eps_repr_of_total_is_closed(self):
        # validate and the game count this row as total: it never halts,
        # so the least fixpoint is 0 and the greatest 1
        inst = one_state_chain(1.0 - 1e-13, 1e-13)
        t = inst.model.valuation.transitions["k"]
        assert validate(inst.model) == [] and halt_payoff(t, 0) == 0.0
        assert brute_minimax(inst).table.tolist() == [[[0.0]]]
        phi = reduce(parse("nu X . <k> X"), inst.model.valuation)
        greatest = TinyInstance(model=inst.model, phi=phi, text="",
                                free_var="W0", alternating=False, template="")
        assert brute_minimax(greatest).table.tolist() == [[[1.0]]]
        for case, value in ((inst, 0.0), (greatest, 1.0)):
            assert abs(evaluate(case.phi, case.model).result[0] - value) <= 1e-9

    def test_sixteen_bit_instance_in_slices(self):
        inst = next(c for c in (random_instance([5, i], InstanceBounds(max_states=4))
                                for i in range(100)) if c.model.space.size == 4)
        text = "mu X . (a0 \\/ <t0> X) /\\ (a1 \\/ <t1> X) /\\ <t0> X"
        phi = reduce(parse(text), inst.model.valuation)
        assert choice_sites(phi) == (2, 2)
        big = TinyInstance(model=inst.model, phi=phi, text=text,
                           free_var="W0", alternating=False, template="")
        result = brute_minimax(big)
        assert result.table.shape == (256, 256, 4)
        assert np.abs(result.minimax - result.maximin).max() <= 1e-6
        assert np.abs(result.minimax - evaluate(phi, inst.model).result).max() <= 1e-6
        rng = np.random.default_rng(16)
        for i, j in rng.integers(0, 256, size=(16, 2)).tolist():
            alone = _solve_pairs(phi, inst.model, _tuple_choices([i], 2, 4),
                                 _tuple_choices([j], 2, 4))
            assert np.array_equal(result.table[i, j], alone[0])
            bits = [bool(int(c)) for c in f"{i:08b}{j:08b}"]
            assert np.abs(result.table[i, j]
                          - _pair_value(big, bits[:8], bits[8:])).max() <= 1e-6

    def test_non_convergence_raises(self):
        inst = random_instance([0, 0])
        with pytest.raises(NotConvergedError, match="did not converge"):
            brute_reference.brute_minimax(inst, EvalConfig(max_iterations=2))

    @pytest.mark.parametrize("phi, error", [
        (Modal("t0", Var("W")), UnresolvedSymbolError),
        (parse("<K0> a0"), EvaluationError),
        (Modal("nope", Const("a0")), UnresolvedSymbolError),
        (Fix(0.5, "X", Modal("t0", Var("X"))), FixNotSupportedError),
    ], ids=["free-variable", "set-modality", "unbound-symbol", "fix-binder"])
    def test_entry_errors_as_before(self, phi, error):
        model = random_instance(7).model
        inst = TinyInstance(model=model, phi=phi, text="",
                            free_var="W0", alternating=False, template="")
        with pytest.raises(error) as before:
            brute_reference.brute_minimax(inst)
        with pytest.raises(error) as now:
            brute_minimax(inst)
        assert type(now.value) is type(before.value)
        assert str(now.value) == str(before.value)

    def test_budget_exceeded(self):
        # 3 min + 3 max sites over 4 states needs 2^24 tuples
        inst = random_instance(5, InstanceBounds(max_states=4))
        text = ("(a0 \\/ <t0> a1) /\\ (a1 \\/ <t1> a0) /\\ "
                "(a0 \\/ a1) /\\ (<t0> a0 \\/ <t0> a1)")
        phi = reduce(parse(text), inst.model.valuation)
        big = TinyInstance(model=inst.model, phi=phi, text=text,
                           free_var="W0", alternating=False,
                           template="")
        if inst.model.space.size * sum(choice_sites(phi)) > 20:
            with pytest.raises(StrategySpaceError):
                brute_minimax(big)


class TestCrosscheck:
    def test_small_run_passes(self):
        report = crosscheck(10, seed=61)
        assert report.ok and report.checked == 10

    def test_count_zero_passes(self):
        report = crosscheck(0, seed=1)
        assert report.ok and report.checked == 0

    def test_negative_count_is_rejected(self):
        with pytest.raises(ValueError, match="count"):
            crosscheck(-5, seed=1)

    @pytest.mark.parametrize("tolerance", [float("nan"), float("inf"), 0.0, -1.0])
    def test_meaningless_tolerance_is_rejected(self, tolerance):
        # a NaN tolerance passed every instance, even under this evaluator
        calls = []

        def half(phi, model, cfg=None):
            calls.append(phi)
            return EvalReport(np.full(model.space.size, 0.5), {}, True)

        with pytest.raises(ValueError, match="tolerance"):
            crosscheck(20, seed=2, evaluate_fn=half, tolerance=tolerance)
        assert calls == []

    def test_short_iteration_cap_fails_only_the_denotation(self):
        # the brute force solves each pair directly, so the cap binds
        # evaluate alone
        short = EvalConfig(max_iterations=2)
        report = crosscheck(5, 0, cfg=short)
        assert report.failures
        for failure in report.failures:
            assert "evaluate did not converge" in failure.message
        for i in range(5):
            inst = random_instance([0, i])
            assert np.array_equal(brute_minimax(inst, short).table,
                                  brute_minimax(inst).table)

    def test_unconverged_denotation_is_reported_as_such(self):
        short = EvalConfig(max_iterations=1)

        def truncated(phi, model, cfg=None):
            return evaluate(phi, model, short)

        instances = [random_instance([3, i]) for i in range(10)]
        unconverged = {i for i, inst in enumerate(instances)
                       if not truncated(inst.phi, inst.model).converged}
        assert unconverged
        report = crosscheck(10, 3, evaluate_fn=truncated)
        assert {f.index for f in report.failures} == unconverged
        for failure in report.failures:
            assert "evaluate did not converge" in failure.message

    def test_faulty_evaluator_is_caught_and_dumped(self, tmp_path):
        def flipped(phi, model, cfg=None):
            def swap(node):
                if isinstance(node, MaxJ):
                    return MinJ(swap(node.left), swap(node.right), node.site)
                if isinstance(node, MinJ):
                    return MaxJ(swap(node.left), swap(node.right), node.site)
                if isinstance(node, Mu):
                    return Mu(node.var, swap(node.body))
                if isinstance(node, Nu):
                    return Nu(node.var, swap(node.body))
                from qmu.formula import Cond, Modal
                if isinstance(node, Modal):
                    return Modal(node.transition, swap(node.body))
                if isinstance(node, Cond):
                    return Cond(node.predicate, swap(node.then_branch),
                                swap(node.else_branch))
                return node

            return evaluate(swap(phi), model, cfg)

        report = crosscheck(30, seed=8, dump_dir=tmp_path, evaluate_fn=flipped)
        assert not report.ok
        failure = report.failures[0]
        assert failure.dump_paths
        # the dump round-trips through the model loader for replay
        replayed = load_model(failure.dump_paths[0])
        assert validate(replayed) == []
        with open(failure.dump_paths[1]) as fh:
            text = fh.read().strip()
        reparsed = reduce(parse(text), replayed.valuation)
        assert choice_sites(reparsed) == choice_sites(
            random_instance([8, failure.index]).phi)
