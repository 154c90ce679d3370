"""Random formula and body generators that only the tests use.

``random_formula`` draws free-form parse-level ASTs for printer/parser round
trips; ``random_probabilistic_body`` draws a junction-free open body over a
fresh model, from the same pieces as :func:`qmu.oracle.random_instance`.
"""

import numpy as np

from qmu.core import Model, StateSpace, Valuation, expectation, predicate
from qmu.formula import (
    Angelic, Cond, Const, Demonic, Fix, MaxJ, MinJ, Mu, Node, Nu, Var,
    assign_sites, parse, reduce,
)
from qmu.oracle import _PROBABILISTIC_BODIES, InstanceBounds, _random_transition


def random_probabilistic_body(seed, bounds: InstanceBounds | None = None
                              ) -> tuple[Model, str, Node]:
    """A junction-free open body over a fresh model, for fix comparisons."""
    bounds = bounds or InstanceBounds()
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, bounds.max_states + 1))
    space = StateSpace(tuple(f"s{i}" for i in range(n)))
    valuation = Valuation(
        expectations={"a0": expectation(rng.random(n)),
                      "a1": expectation(rng.random(n))},
        transitions={"t0": _random_transition(rng, n, bounds.max_continue_mass, False),
                     "t1": _random_transition(rng, n, bounds.max_continue_mass, False)},
        transition_sets={},
        predicates={"g0": predicate(rng.random(n) < 0.5)},
    )
    picks = {"a": "a0", "b": "a1",
             "k": ("t0", "t1")[int(rng.integers(0, 2))],
             "k2": ("t0", "t1")[int(rng.integers(0, 2))],
             "g": "g0"}
    body_tmpl = _PROBABILISTIC_BODIES[int(rng.integers(0, len(_PROBABILISTIC_BODIES)))]
    wrapped = reduce(parse("mu W0 . " + body_tmpl.format(**picks)), valuation)
    body = assign_sites(wrapped.body)
    return Model(space, valuation), "W0", body


def random_formula(seed, max_depth: int = 5) -> Node:
    """A free-form closed parse-level AST, for printer/parser round trips.

    Uses only node kinds the parser can produce (set modalities rather than
    bare transition modalities, which only arise through reduction).
    """
    rng = np.random.default_rng(seed)
    consts = ("c0", "c1", "c2")
    sets_ = ("K0", "K1", "t0")
    preds = ("g0", "g1")
    binder_pool = ("X", "Y", "Z")

    def gen(depth: int, scope: tuple[str, ...]) -> Node:
        leafy = depth <= 0
        kinds = ["const", "angelic", "demonic", "minj", "maxj",
                 "cond", "mu", "nu", "fix"]
        if scope:
            kinds.append("var")
        if leafy:
            kinds = ["const", "var"] if scope else ["const"]
        kind = kinds[int(rng.integers(0, len(kinds)))]
        if kind == "const":
            return Const(consts[int(rng.integers(0, len(consts)))])
        if kind == "var":
            return Var(scope[int(rng.integers(0, len(scope)))])
        if kind == "angelic":
            return Angelic(sets_[int(rng.integers(0, len(sets_)))],
                           gen(depth - 1, scope))
        if kind == "demonic":
            return Demonic(sets_[int(rng.integers(0, len(sets_)))],
                           gen(depth - 1, scope))
        if kind == "minj":
            return MinJ(gen(depth - 1, scope), gen(depth - 1, scope))
        if kind == "maxj":
            return MaxJ(gen(depth - 1, scope), gen(depth - 1, scope))
        if kind == "cond":
            return Cond(preds[int(rng.integers(0, 2))],
                        gen(depth - 1, scope), gen(depth - 1, scope))
        var = binder_pool[int(rng.integers(0, len(binder_pool)))]
        body = gen(depth - 1, scope + (var,))
        if kind == "mu":
            return Mu(var, body)
        if kind == "nu":
            return Nu(var, body)
        return Fix(float(np.round(rng.random(), 6)), var, body)

    return assign_sites(gen(max_depth, ()))
