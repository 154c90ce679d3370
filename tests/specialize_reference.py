"""A formula rewrite that applies a memoriless strategy, as a reference.

The product applies a fixed strategy as junction masks.  This module keeps
the other way: every covered choice site becomes a conditional over a fresh
predicate symbol bound to the site's choices, and the rewritten formula is
evaluated by the ordinary machinery against the extended valuation.  Tests
compare the two.
"""

import numpy as np

from qmu.core import Model, Valuation, predicate
from qmu.formula import Cond, MaxJ, MinJ, Node, choice_sites, map_children


def specialize(phi: Node, strategy, n_states: int) -> tuple[Node, dict[str, np.ndarray]]:
    """Replace covered choice sites by conditionals over fresh predicates.

    Returns the rewritten formula and the valuation extension mapping the
    fresh symbols ``_min<site>`` and ``_max<site>`` to the strategy's
    predicates.  A side the strategy leaves ``None`` keeps its junctions,
    to be resolved adversarially by evaluation.
    """
    for side, sigma, sites in zip(("min", "max"), strategy.sides(), choice_sites(phi)):
        if sigma is not None:
            sigma.choice_masks(side, sites, n_states)
    extension: dict[str, np.ndarray] = {}
    sides = {MinJ: (strategy.min_choices, "_min"),
             MaxJ: (strategy.max_choices, "_max")}

    def go(node: Node) -> Node:
        choices, prefix = sides.get(type(node), (None, None))
        if choices is None:
            return map_children(node, go)
        symbol = f"{prefix}{node.site}"
        extension[symbol] = predicate(choices[node.site])
        return Cond(symbol, go(node.left), go(node.right))

    return go(phi), extension


def specialized_model(model: Model, extension: dict[str, np.ndarray]) -> Model:
    """Model with the specialisation predicates bound."""
    v = model.valuation
    assert not set(extension) & set(v.predicates)
    return Model(model.space, Valuation(
        expectations=v.expectations, transitions=v.transitions,
        transition_sets=v.transition_sets,
        predicates={**v.predicates, **extension}))
