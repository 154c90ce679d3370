"""Built-in models: the futures-market case study and the two-state example.

The futures market tracks a share value v (whole dollars 0..10), the
probability p of a monthly rise (stored in integer tenths 0..10) and a
falling cap c (0..10).  One month of market activity updates all three
simultaneously from the month-start state: v moves up (capped) with
probability p or down, p drifts by 0.1 toward the long-term trend for the
month-start v (up 2/3 below $5, down 2/3 above, even at $5), and the cap
falls with probability one half.  The investor's game is: each month either
reserve now (collect next month's expected sale value) or wait, at the risk
of being barred for one month.

Share values are scaled into [0, 1] internally (divide by 10); tables
re-scale for display where the quantity is in dollars.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    Model, StateSpace, Valuation, expectation, pre_expectation,
    pre_expectation_all, predicate, transition, transition_from_edges,
)
from .evaluator import EvalConfig, PathStrategy, evaluate, evaluate_with_strategies
from .formula import Node, parse, reduce

GRID = 11  # v, p (tenths) and c each range over 0..10
N_FUTURES_STATES = GRID ** 3


def futures_index(v: int, p: int, c: int) -> int:
    """Dense index of state (v, p tenths, c)."""
    if not (0 <= v < GRID and 0 <= p < GRID and 0 <= c < GRID):
        raise ValueError(f"futures state ({v}, {p}, {c}) out of range")
    return v * GRID * GRID + p * GRID + c


def futures_label(v: int, p: int, c: int) -> str:
    return f"v{v}_p{p}_c{c}"


def _month_edges(v: np.ndarray, p: np.ndarray,
                 c: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every state's one-month edges as ``(sources, targets, numerators)``,
    given the grid coordinates of every state.

    All three updates read the month-start state (simultaneous reading, as a
    guarded-command model checker would evaluate them): v moves against the
    current cap, the p-drift direction is governed by the month-start v, and
    the cap falls independently.  Only upward moves are clamped to the cap,
    so v can sit above a cap that has fallen past it until it next moves.

    Each state has 2 x 2 x 2 candidate moves of v, p and c, whose
    probability p/10 x {2/3, 1/3, 1/2} x 1/2 is an integer numerator over
    120.  Moves that land on the same successor add their numerators, so
    the result holds one edge per successor and every numerator is exact;
    moves of probability zero (v up at p = 0, down at p = 1) are dropped.
    """
    v, p, c = (axis.reshape(-1, 1, 1, 1) for axis in (v, p, c))
    top = GRID - 1
    p_up, p_down = np.minimum(p + 1, top), np.maximum(p - 1, 0)
    # p drifts toward the trend: up 2/3 below $5, down 2/3 above, even at $5
    up_num = np.where(v < 5, 4, np.where(v > 5, 2, 3))
    v2 = np.concatenate((np.minimum(v + 1, c), np.maximum(v - 1, 0)), axis=1)
    v_num = np.concatenate((p, top - p), axis=1)
    p2 = np.concatenate((p_up, p_down), axis=2)
    p_num = np.concatenate((up_num, 6 - up_num), axis=2)
    c2 = np.concatenate((np.maximum(c - 1, 0), c), axis=3)
    targets = (v2 * GRID * GRID + p2 * GRID + c2).reshape(N_FUTURES_STATES, -1)
    numerators = np.broadcast_to(v_num * p_num, (N_FUTURES_STATES, 2, 2, 2))
    keys = np.arange(N_FUTURES_STATES)[:, None] * N_FUTURES_STATES + targets
    keys, slot = np.unique(keys, return_inverse=True)
    merged = np.bincount(slot.ravel(), weights=numerators.ravel())
    keep = merged > 0
    sources, targets = np.divmod(keys[keep], N_FUTURES_STATES)
    return sources, targets, merged[keep]


def futures_model() -> Model:
    """The 1331-state futures-market model.

    Binds the month transition, the scaled sale value ``Sold``, the
    characteristic function ``atLeast6`` of v >= 6, and the predicates used
    by the fixed strategies: ``reserveAtCap`` (v >= c) and ``intuitive``
    (v >= 5 and p >= 0.5).

    Everything is built from arrays over the (v, p, c) grid.  Each edge
    probability is its exact numerator over 120 divided once by 120, so it
    is the correctly rounded value of the exact fraction.
    """
    v, p, c = (axis.ravel() for axis in np.meshgrid(
        *(np.arange(GRID),) * 3, indexing="ij"))
    space = StateSpace(tuple(map(futures_label, v.tolist(), p.tolist(), c.tolist())))
    sources, targets, numerators = _month_edges(v, p, c)
    month = transition_from_edges(
        np.bincount(sources, minlength=N_FUTURES_STATES), targets,
        numerators / 120.0, np.zeros(N_FUTURES_STATES))
    valuation = Valuation(
        expectations={"Sold": expectation(v / 10.0),
                      "atLeast6": expectation((v >= 6).astype(np.float64))},
        transitions={"month": month},
        transition_sets={"month": ("month",)},
        predicates={"reserveAtCap": predicate(v >= c),
                    "intuitive": predicate((v >= 5) & (p >= 5))},
    )
    return Model(space, valuation)


GAME_TEXT = "mu X . <month> Sold \\/ <month> (X /\\ <month> X)"
AT_LEAST_6_TEXT = "mu X . <month> atLeast6 \\/ <month> (X /\\ <month> X)"


def futures_formula() -> Node:
    """Each month: reserve now (sell next month) or wait, risking a bar."""
    return parse(GAME_TEXT)


def atleast6_formula() -> Node:
    """Variant scoring the probability that the sale meets $6."""
    return parse(AT_LEAST_6_TEXT)


VARDI_TEXT = "mu X . <k> atB \\/ <k> X"


def vardi_model() -> tuple[Model, Node]:
    """Two-state system where committing-before-stepping halves the value.

    From A the transition stays at A or moves to B with probability one half
    each; from B it returns to A.  The formula asks, before each step,
    whether to accept ``atB`` after the step or go around again.
    """
    space = StateSpace(("A", "B"))
    k = transition([
        [(0, 0.5), (1, 0.5)],
        [(0, 1.0)],
    ])
    valuation = Valuation(
        expectations={"atB": expectation([0.0, 1.0])},
        transitions={"k": k},
        transition_sets={"k": ("k",)},
        predicates={"atA": predicate([True, False]),
                    "atB": predicate([False, True])},
    )
    return Model(space, valuation), parse(VARDI_TEXT)


# --- Reproduction of the case-study tables ----------------------------------

#: Row labels for the emitted tables.
TABLE_LABELS = {
    "optimal": "optimal expected sale",
    "yield": "reserve-at-cap strategy yield",
    "onemonth": "expected share value in one month",
    "probability": ("probability of reaching 6 following optimal strategy",
                    "probability of reaching 6 following intuitive strategy"),
}


def round_half_up(x: float, digits: int = 2) -> float:
    scale = 10 ** digits
    return np.floor(x * scale + 0.5) / scale


@dataclass(frozen=True)
class Table:
    """One labelled 11-column row set over v = 0..10 at p = 0.5, c = 10."""

    name: str
    rows: dict[str, list[float]]


def _profile(values: np.ndarray, scale: float) -> list[float]:
    """The v = 0..10 slice at p = 0.5, c = 10, scaled and rounded."""
    return [round_half_up(scale * float(values[futures_index(v, 5, 10)]))
            for v in range(GRID)]


def case_study_tables(cfg: EvalConfig | None = None,
                 model: Model | None = None) -> dict[str, Table]:
    """Recompute the four case-study tables at p = 0.5, c = 10.

    Dollar-valued rows are rescaled by 10 for display and every entry is
    rounded half-up to two decimals.  A fixed-strategy row that does not
    converge raises :class:`~qmu.evaluator.NotConvergedError`.
    """
    cfg = cfg or EvalConfig()
    model = model or futures_model()
    game = reduce(futures_formula(), model.valuation)
    chance = reduce(atleast6_formula(), model.valuation)

    optimal = evaluate(game, model, cfg).result
    # fixed strategies: the maximiser takes the left 'junct where a predicate holds
    predicates = model.valuation.predicates
    reserve_at_cap = PathStrategy.from_choices((predicates["reserveAtCap"],))
    yield_value = evaluate_with_strategies(game, model, None, reserve_at_cap, cfg)

    month = model.valuation.transitions["month"]
    one_month = pre_expectation_all(month, model.valuation.expectations["Sold"])

    chance_optimal = evaluate(chance, model, cfg).result
    intuitive = PathStrategy.from_choices((predicates["intuitive"],))
    chance_intuitive = evaluate_with_strategies(chance, model, None, intuitive, cfg)

    opt_label, int_label = TABLE_LABELS["probability"]
    return {
        "optimal": Table("optimal", {TABLE_LABELS["optimal"]: _profile(optimal, 10.0)}),
        "yield": Table("yield", {TABLE_LABELS["yield"]: _profile(yield_value, 10.0)}),
        "onemonth": Table("onemonth",
                          {TABLE_LABELS["onemonth"]: _profile(one_month, 10.0)}),
        "probability": Table("probability",
                             {opt_label: _profile(chance_optimal, 1.0),
                              int_label: _profile(chance_intuitive, 1.0)}),
    }


def one_step_advice(model: Model, value: np.ndarray, s: int, *,
                    transition_symbol: str = "month",
                    payoff_symbol: str = "Sold",
                    tolerance: float = 1e-9) -> bool:
    """Commit now just when one step of waiting cannot be expected to beat
    the value of the whole game played from here."""
    t = model.valuation.transitions[transition_symbol]
    sold = model.valuation.expectations[payoff_symbol]
    return pre_expectation(t, s, sold) >= float(value[s]) - tolerance
