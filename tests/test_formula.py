"""Parser, printer, reduction and structural checks."""

import dataclasses
import hashlib
import sys
from typing import get_args

import numpy as np
import pytest

from qmu.examples import (
    AT_LEAST_6_TEXT, GAME_TEXT, VARDI_TEXT, futures_model, vardi_model,
)
from qmu.formula import (
    Angelic, Cond, Const, Demonic, EvaluationError, Fix, FixNotSupportedError,
    MaxJ, MinJ, Modal, Mu, Node, NondeterministicFixBodyError, Nu, ParseError,
    UnboundVariableError, UnresolvedSymbolError, Var, alpha_equal, canonical,
    check_entry, children, choice_sites, fingerprint, free_variables,
    map_children, parse, pretty_print, rebuild, reduce, subformulae,
)
from generators import random_formula

#: The alternating nest that the benchmark evaluates on the futures model.
NEST_TEXT = "nu Y . mu X . (atLeast6 /\\ <month> Y) \\/ <month> X"


class TestParse:
    def test_game_formula_shape(self):
        phi = parse(GAME_TEXT)
        assert isinstance(phi, Mu)
        body = phi.body
        assert isinstance(body, MaxJ)
        assert isinstance(body.left, Angelic) and body.left.set_name == "month"
        assert body.left.body == Const("Sold")
        wait = body.right
        assert isinstance(wait, Angelic)
        inner = wait.body
        assert isinstance(inner, MinJ)
        assert inner.left == Var(phi.var)
        assert isinstance(inner.right, Angelic)
        assert inner.right.body == Var(phi.var)

    def test_smallest_fixpoint(self):
        phi = parse("mu X . X")
        assert phi == Mu("X", Var("X"))

    def test_unbound_variable_with_symbol_table(self):
        with pytest.raises(UnboundVariableError) as excinfo:
            parse("mu X . Y", known_symbols=())
        assert "Y" in str(excinfo.value)
        assert excinfo.value.line == 1 and excinfo.value.col == 8

    def test_out_of_scope_ident_defaults_to_constant(self):
        phi = parse("mu X . Y")
        assert phi.body == Const("Y")

    def test_fix_parameter_range(self):
        phi = parse("fix(0.25) X . X")
        assert phi.start == 0.25
        with pytest.raises(ParseError) as excinfo:
            parse("fix(1.5) X . X")
        assert excinfo.value.col == 5

    def test_lexical_error_position(self):
        with pytest.raises(ParseError) as excinfo:
            parse("mu X .\n  X ? X")
        assert excinfo.value.line == 2 and excinfo.value.col == 5

    def test_precedence_and_over_or(self):
        phi = parse("a \\/ b /\\ c")
        assert isinstance(phi, MaxJ) and isinstance(phi.right, MinJ)
        same = parse("a max b min c")
        assert alpha_equal(phi, same)

    def test_binder_body_extends_right(self):
        phi = parse("mu X . a \\/ <k> X")
        assert isinstance(phi, Mu) and isinstance(phi.body, MaxJ)

    def test_conditional(self):
        phi = parse("if g then a else b")
        assert phi == Cond("g", Const("a"), Const("b"))

    def test_alpha_renaming_keeps_binders_distinct(self):
        phi = parse("mu X . (mu X . X) \\/ X")
        inner = phi.body.left
        assert isinstance(inner, Mu)
        assert inner.var != phi.var
        assert inner.body == Var(inner.var)
        assert phi.body.right == Var(phi.var)

    def test_renaming_skips_a_name_in_use(self):
        # X_2 is taken, so the inner X becomes X_3
        phi = parse("mu X . X_2 \\/ (mu X . X)")
        assert phi.body.left == Const("X_2")
        assert phi.body.right == Mu("X_3", Var("X_3"))

    def test_trailing_input_rejected(self):
        with pytest.raises(ParseError):
            parse("a b")


class TestSites:
    def test_game_counts(self):
        model = futures_model()
        reduced = reduce(parse(GAME_TEXT), model.valuation)
        assert choice_sites(reduced) == (1, 1)

    def test_vardi_counts(self):
        model, psi = vardi_model()
        assert choice_sites(reduce(psi, model.valuation)) == (0, 1)

    def test_junction_free(self):
        assert choice_sites(parse("mu X . <k> X")) == (0, 0)

    def test_preorder_numbering_per_kind(self):
        phi = parse("(a \\/ b) /\\ (c \\/ d) /\\ (e /\\ f)")
        mins, maxs = [], []

        def collect(node):
            if isinstance(node, MinJ):
                mins.append(node.site)
            if isinstance(node, MaxJ):
                maxs.append(node.site)
            for attr in ("left", "right", "body", "then_branch", "else_branch"):
                child = getattr(node, attr, None)
                if child is not None and not isinstance(child, (str, float)):
                    collect(child)

        collect(phi)
        assert sorted(mins) == list(range(len(mins)))
        assert sorted(maxs) == list(range(len(maxs)))
        assert choice_sites(phi) == (3, 2)


class TestReduce:
    @pytest.fixture
    def vardi_valuation(self):
        model, _ = vardi_model()
        return model.valuation

    def test_singleton_set_becomes_bare_modality(self, vardi_valuation):
        phi = reduce(parse("<k> atB"), vardi_valuation)
        assert phi == Modal("k", Const("atB"))

    def test_pair_set_expands(self):
        inst_model = futures_model()
        # craft a two-member set over the same transition
        valuation = inst_model.valuation
        val2 = type(valuation)(
            expectations=valuation.expectations,
            transitions=valuation.transitions,
            transition_sets={"K": ("month", "month")},
            predicates=valuation.predicates,
        )
        phi = reduce(parse("<K> Sold"), val2)
        assert isinstance(phi, MaxJ)
        assert phi.left == Modal("month", Const("Sold"))
        assert phi.right == Modal("month", Const("Sold"))
        demonic = reduce(parse("[K] Sold"), val2)
        assert isinstance(demonic, MinJ)

    def test_idempotent_on_reduced_input(self, vardi_valuation):
        phi = reduce(parse(VARDI_TEXT), vardi_valuation)
        assert reduce(phi, vardi_valuation) == phi

    def test_unknown_set_symbol(self, vardi_valuation):
        from qmu.formula import ReduceError
        with pytest.raises(ReduceError):
            reduce(parse("<nowhere> atB"), vardi_valuation)
        # the outermost unknown set is the one reported
        with pytest.raises(ReduceError, match="'outer'"):
            reduce(parse("<outer> [inner] atB"), vardi_valuation)
        empty = dataclasses.replace(vardi_valuation, transition_sets={"none": ()})
        with pytest.raises(ReduceError, match="transition set 'none' is empty"):
            reduce(parse("<none> atB"), empty)

    def test_reduce_preserves_set_modality_semantics(self):
        # the expansion must agree with the defining pointwise best-response
        # over the set's members, computed here without going through reduce
        import numpy as np

        from qmu.core import pre_expectation_all
        from qmu.evaluator import evaluate
        from qmu.oracle import random_instance

        for trial in range(50):
            inst = random_instance([611, trial])
            v = inst.model.valuation
            body_value = evaluate(inst.phi, inst.model).result
            members = v.transition_sets["K0"]
            stacked = [pre_expectation_all(v.transitions[k], body_value)
                       for k in members]
            angelic = evaluate(reduce(Angelic("K0", inst.phi), v),
                               inst.model).result
            assert np.abs(angelic - np.max(stacked, axis=0)).max() <= 1e-12
            demonic = evaluate(reduce(Demonic("K0", inst.phi), v),
                               inst.model).result
            assert np.abs(demonic - np.min(stacked, axis=0)).max() <= 1e-12

    def test_cloned_binders_stay_unique(self):
        model, _ = vardi_model()
        val = type(model.valuation)(
            expectations=model.valuation.expectations,
            transitions=model.valuation.transitions,
            transition_sets={"K": ("k", "k")},
            predicates=model.valuation.predicates,
        )
        phi = reduce(parse("<K> (mu X . atB \\/ <k> X)"), val)
        names = []

        def walk(node):
            if isinstance(node, (Mu, Nu)):
                names.append(node.var)
            for attr in ("left", "right", "body", "then_branch", "else_branch"):
                child = getattr(node, attr, None)
                if child is not None and not isinstance(child, (str, float)):
                    walk(child)

        walk(phi)
        assert len(names) == 2 and len(set(names)) == 2

    def test_cloned_binders_never_capture_a_constant(self):
        from qmu.core import (
            Model, StateSpace, Valuation, expectation, transition,
        )
        from qmu.evaluator import evaluate
        valuation = Valuation(
            expectations={"X_2": expectation([0.2, 0.7])},
            transitions={"t0": transition([[(0, 0.5)], [(1, 0.5)]]),
                         "t1": transition([[(1, 0.9)], [(0, 0.9)]])},
            transition_sets={"K": ("t0", "t1")},
        )
        model = Model(StateSpace(("s0", "s1")), valuation)
        phi = reduce(parse("<K> (mu X . X_2 \\/ <t0> X)"), valuation)
        assert free_variables(phi) == set()
        assert "X_2" not in {n.var for n in subformulae(phi) if isinstance(n, Mu)}
        again = reduce(parse(pretty_print(phi)), valuation)
        assert alpha_equal(again, phi)
        assert np.array_equal(evaluate(again, model).result,
                              evaluate(phi, model).result)


class TestPrettyPrint:
    def test_smallest(self):
        assert pretty_print(parse("mu X . X")) == "mu X . X"

    def test_game_round_trip(self):
        phi = parse(GAME_TEXT)
        assert alpha_equal(parse(pretty_print(phi)), phi)

    def test_random_round_trips(self):
        for seed in range(200):
            phi = random_formula(seed)
            printed = pretty_print(phi)
            again = parse(printed)
            assert alpha_equal(again, phi), printed

    def test_reduced_round_trips_through_reduce(self):
        # bare modalities print as set modalities; reduction restores them
        from qmu.oracle import random_instance
        for seed in range(50):
            inst = random_instance([404, seed])
            printed = pretty_print(inst.phi)
            again = reduce(parse(printed), inst.model.valuation)
            assert alpha_equal(again, inst.phi), printed

    @pytest.mark.parametrize("a, b", [
        (Mu("Y", Var("X")), Mu("X", Var("X"))),
        (Nu("X", Modal("k", Var("Y"))), Nu("Y", Modal("k", Var("Y")))),
        (Mu("X", Mu("Y", Var("X"))), Mu("X", Mu("Y", Var("Y")))),
    ])
    def test_alpha_equal_keeps_bound_and_free_apart(self, a, b):
        assert not alpha_equal(a, b)
        assert not alpha_equal(b, a)

    def test_alpha_equal_is_symmetric_under_renaming(self):
        a = Mu("X", Nu("Y", MaxJ(Var("X"), Var("F"), 0)))
        b = Mu("Y", Nu("X", MaxJ(Var("Y"), Var("F"), 0)))
        assert alpha_equal(a, b) and alpha_equal(b, a)
        shadowed = Mu("X", Nu("X", Var("X")))
        assert alpha_equal(shadowed, Mu("A", Nu("B", Var("B"))))
        assert not alpha_equal(shadowed, Mu("A", Nu("B", Var("A"))))
        assert not alpha_equal(Mu("X", Var("X")), Nu("X", Var("X")))
        assert not alpha_equal(Fix(0.5, "X", Var("X")), Fix(0.25, "X", Var("X")))

    def test_fingerprint_alpha_insensitive(self):
        a = parse("mu X . <k> X")
        b = parse("mu Other . <k> Other")
        assert fingerprint(a) == fingerprint(b)
        assert fingerprint(a) != fingerprint(parse("nu X . <k> X"))

    @pytest.mark.parametrize("taken, bound", [
        (parse("mu X . _v0 \\/ <k> X"), parse("mu X . X \\/ <k> X")),
        (Mu("X", MaxJ(Var("_v0"), Var("X"), 0)), Mu("X", MaxJ(Var("X"), Var("X"), 0))),
        (Mu("X", Nu("Y", MinJ(Const("_v1"), Var("Y"), 0))),
         Mu("X", Nu("Y", MinJ(Var("Y"), Var("Y"), 0)))),
    ])
    def test_fingerprint_skips_names_the_formula_takes(self, taken, bound):
        assert not alpha_equal(taken, bound)
        assert fingerprint(taken) != fingerprint(bound)
        assert alpha_equal(canonical(taken), taken)


ONE_OF_EACH_KIND = [
    Var("X"), Const("P"), Modal("k", Const("P")), Angelic("K", Var("X")),
    Demonic("K", Const("P")), MinJ(Const("P"), Var("X"), 0),
    MaxJ(Var("X"), Const("P"), 1), Cond("p", Const("P"), Var("X")),
    Mu("X", Var("X")), Nu("X", Const("P")), Fix(0.5, "X", Var("X")),
]


class TestRebuild:
    def test_every_node_kind_listed(self):
        assert {type(n) for n in ONE_OF_EACH_KIND} == set(get_args(Node))

    @pytest.mark.parametrize("node", ONE_OF_EACH_KIND,
                             ids=lambda n: type(n).__name__)
    def test_map_children_rebuilds_each_kind(self, node):
        assert map_children(node, lambda c: c) == node
        swapped = map_children(node, lambda c: Const("Q"))
        assert type(swapped) is type(node)
        assert children(swapped) == (Const("Q"),) * len(children(node))

    @pytest.mark.parametrize("bad", [None, "mu X . X", (Var("X"),)])
    def test_non_node_rejected(self, bad):
        with pytest.raises(TypeError):
            children(bad)
        with pytest.raises(TypeError):
            map_children(bad, lambda c: c)
        with pytest.raises(TypeError):
            rebuild(bad, lambda n, kids: n)


class TestAnalyses:
    def test_subformulae_preorder_left_to_right(self):
        phi = Mu("X", MaxJ(Modal("k", Var("X")), Cond("p", Const("A"), Const("B"))))
        assert list(subformulae(phi)) == [
            phi, phi.body, phi.body.left, Var("X"), phi.body.right,
            Const("A"), Const("B")]

    def test_free_variables_leave_scope_with_their_binder(self):
        phi = MaxJ(Mu("X", Var("X")), Nu("Y", MinJ(Var("X"), Var("Y"), 0)), 0)
        assert free_variables(phi) == {"X"}
        assert free_variables(Mu("X", Mu("X", Var("X")))) == set()

    def test_unbound_symbol_first_in_preorder(self):
        model = vardi_model()[0]
        phi = reduce(parse("mu X . <k> atB \\/ <k> X"), model.valuation)
        assert check_entry(phi, model, "reject") == (frozenset(), 0, 1, 6)
        phi = Cond("nope", Const("nothere"), Modal("j", Const("atB")))
        for node, kind, name in ((phi, "predicate", "nope"),
                                 (phi.else_branch, "transition", "j"),
                                 (phi.then_branch, "expectation", "nothere")):
            with pytest.raises(UnresolvedSymbolError) as raised:
                check_entry(node, model, "reject")
            assert (raised.value.kind, raised.value.name) == (kind, name)

    def test_deep_modal_chain_without_recursion(self):
        phi = Const("atB")
        for _ in range(5000):
            phi = Modal("k", phi)
        model = vardi_model()[0]
        assert check_entry(phi, model, "reject") == (frozenset(), 0, 0, 5001)
        assert free_variables(phi) == set()
        assert choice_sites(phi) == (0, 0)
        with pytest.raises(UnresolvedSymbolError,
                           match="^unresolved transition symbol 'j'$"):
            check_entry(Modal("j", phi), model, "reject")
        with pytest.raises(UnresolvedSymbolError,
                           match="^unresolved expectation symbol 'c'$"):
            check_entry(Modal("k", Const("c")), model, "reject")

    def test_deep_binder_chain_without_recursion(self):
        depth = 3000
        model = vardi_model()[0]

        def chain(left, wrap):
            phi = MinJ(Var("X0"), MaxJ(left, wrap(Var(f"X{depth - 1}")), site=0),
                       site=0)
            fixes = []
            for i in range(depth):
                phi = (Mu(f"X{i}", phi), Nu(f"X{i}", phi),
                       Fix(0.5, f"X{i}", phi))[i % 3]
                fixes += [phi] if i % 3 == 2 else []
            return phi, fixes

        phi, _ = chain(Var("Y"), lambda body: Angelic("K", body))
        assert free_variables(phi) == {"Y"}
        with pytest.raises(UnresolvedSymbolError,
                           match="^unresolved variable symbol 'Y'$"):
            check_entry(phi, model, "force")
        phi, _ = chain(Const("atB"), lambda body: Angelic("K", body))
        with pytest.raises(EvaluationError, match="set modalities"):
            check_entry(phi, model, "force")
        phi, fixes = chain(Const("atB"), lambda body: Modal("k", body))
        assert choice_sites(phi) == (1, 1)
        with pytest.raises(FixNotSupportedError):
            check_entry(phi, model, "reject")
        # the outermost fix(x) binder is the first in preorder
        with pytest.raises(NondeterministicFixBodyError, match=f"'X{depth - 1}'"):
            check_entry(phi, model, "pure")
        assert check_entry(phi, model, "force") == (
            frozenset(map(id, fixes)), 1, 1, depth + 6)


DEPTH = 10_000

#: Formula texts nested ``DEPTH`` deep over the symbols of the vardi model.
DEEP_TEXTS = {
    "modal chain": "<k> " * DEPTH + "atB",
    "or chain": " \\/ ".join(["atB"] * DEPTH),
    "parentheses": "(<k> " * DEPTH + "atB" + ")" * DEPTH,
    "if else": "if atA then " * DEPTH + "atB" + " else atB" * DEPTH,
    # every binder shadows one of the same name, so the parser renames each
    "alternating": "mu X . X \\/ (nu Y . Y /\\ (" * (DEPTH // 2) + "<k> atB"
                   + ")" * DEPTH,
}


class TestDepth:
    """Formulae far deeper than the interpreter's recursion limit."""

    @pytest.mark.parametrize("name", DEEP_TEXTS)
    def test_text_round_trip(self, name):
        assert sys.getrecursionlimit() < DEPTH
        valuation = vardi_model()[0].valuation
        phi = reduce(parse(DEEP_TEXTS[name]), valuation)
        assert check_entry(phi, vardi_model()[0], "reject").size > DEPTH
        binders = [n for n in subformulae(phi) if isinstance(n, (Mu, Nu))]
        assert len({n.var for n in binders}) == len(binders)
        again = reduce(parse(pretty_print(phi)), valuation)
        assert alpha_equal(again, phi)
        assert fingerprint(again) == fingerprint(phi)

    def test_modal_chain_evaluates(self):
        from qmu.evaluator import evaluate
        model = vardi_model()[0]
        phi = reduce(parse(DEEP_TEXTS["modal chain"]), model.valuation)
        # k's stationary distribution puts 1/3 on B
        assert np.allclose(evaluate(phi, model).result, 1 / 3, atol=1e-12)


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _transform_outputs():
    """Every text transform's output on random, generated and built-in
    formulae: the printed text, its parse, the canonical form, the
    fingerprint, the reduction and alpha-equality verdicts."""
    from qmu.examples import AT_LEAST_6_TEXT, futures_model
    from qmu.oracle import random_instance
    base = random_instance([5, 0]).model.valuation
    sets = dataclasses.replace(base, transition_sets={
        "K0": ("t0", "t1"), "K1": ("t1", "t0", "t1")})
    futures = futures_model().valuation
    cases = [(random_formula(seed), sets) for seed in range(1000)]
    cases += [(inst.phi, inst.model.valuation)
              for inst in map(random_instance, ([5, s] for s in range(300)))]
    cases += [(parse(text), futures) for text in (GAME_TEXT, AT_LEAST_6_TEXT, NEST_TEXT)]
    cases.append((parse(VARDI_TEXT), vardi_model()[0].valuation))
    previous = cases[-1][0]
    for phi, valuation in cases:
        text = pretty_print(phi)
        again = parse(text)
        reduced = reduce(phi, valuation)
        yield text
        yield repr(again)
        yield repr(canonical(phi))
        yield fingerprint(phi)
        yield repr(reduced)
        yield pretty_print(reduced)
        yield fingerprint(reduced)
        yield repr((alpha_equal(again, phi), alpha_equal(phi, previous),
                    alpha_equal(canonical(phi), phi), alpha_equal(reduced, phi)))
        previous = phi


_VOCABULARY = ("mu", "nu", "fix", "(", ")", ".", "<", ">", "[", "]", "if",
               "then", "else", "\\/", "/\\", "min", "max", "X", "Y", "X_2",
               "a", "b", "k", "0.5", "1.5", "?", "\n")


def _parse_outputs():
    """Parse results and error texts on seeded random token strings: half
    free draws from a vocabulary, half printed random formulae, three in
    four of them with one token dropped, repeated or replaced."""
    for i in range(10_000):
        rng = np.random.default_rng([17, i])
        if i % 2:
            tokens = [_VOCABULARY[j] for j in
                      rng.integers(0, len(_VOCABULARY), int(rng.integers(1, 16)))]
            known = ("a", "k")
        else:
            tokens = pretty_print(random_formula([17, i], 3)).split(" ")
            at = int(rng.integers(0, len(tokens)))
            edit = int(rng.integers(0, 4))
            if edit == 0:
                del tokens[at]
            elif edit == 1:
                tokens.insert(at, tokens[at])
            elif edit == 2:
                tokens[at] = _VOCABULARY[int(rng.integers(0, len(_VOCABULARY)))]
            known = ("c0", "c1", "c2")
        text = " ".join(tokens)
        if i % 3:
            known = None
        try:
            yield repr(parse(text, known_symbols=known))
        except ParseError as exc:
            yield f"{type(exc).__name__} {exc} {exc.line} {exc.col}"


class TestByteIdentity:
    """Digests of the transforms' outputs, pinned from the recursive
    implementations that the explicit-stack walks replaced."""

    def test_transform_outputs(self):
        assert _digest(_transform_outputs()) == TRANSFORM_DIGEST

    def test_parse_results_and_errors(self):
        assert _digest(_parse_outputs()) == PARSE_DIGEST

    @pytest.mark.parametrize("text, expected", [
        (GAME_TEXT, "9f7fa9fbfa063b02"),
        (AT_LEAST_6_TEXT, "65af72bdd2dca5a4"),
        (VARDI_TEXT, "efb9e716ae683b95"),
        (NEST_TEXT, "f084a2b724c24fc3"),
    ])
    def test_builtin_fingerprints(self, text, expected):
        assert fingerprint(parse(text)) == expected


TRANSFORM_DIGEST = "1111f93ff4f1705ce5dc203bbc75680500c28f672e20683cdfaeb4aeb231b3bc"
PARSE_DIGEST = "ecdcef818c84468e540ea79ca753e22e552d139e6f28699a712584c6f3ec9a9b"
