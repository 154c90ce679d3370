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
from fractions import Fraction

import numpy as np

from .core import (
    Model, StateSpace, Valuation, expectation, pre_expectation,
    pre_expectation_all, predicate, transition,
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


def _month_row(v: int, p: int, c: int) -> dict[int, Fraction]:
    """Exact one-month distribution over successor states of (v, p, c).

    All three updates read the month-start state (simultaneous reading, as a
    guarded-command model checker would evaluate them): v moves against the
    current cap, the p-drift direction is governed by the month-start v, and
    the cap falls independently.  Only upward moves are clamped to the cap,
    so v can sit above a cap that has fallen past it until it next moves.
    """
    p_up = Fraction(p, 10)
    v_cases = []
    if p_up > 0:
        v_cases.append((min(v + 1, c), p_up))
    if p_up < 1:
        v_cases.append((max(v - 1, 0), 1 - p_up))
    if v < 5:
        p_cases = [(min(p + 1, 10), Fraction(2, 3)), (max(p - 1, 0), Fraction(1, 3))]
    elif v > 5:
        p_cases = [(max(p - 1, 0), Fraction(2, 3)), (min(p + 1, 10), Fraction(1, 3))]
    else:
        p_cases = [(max(p - 1, 0), Fraction(1, 2)), (min(p + 1, 10), Fraction(1, 2))]

    row: dict[int, Fraction] = {}
    for v2, pv in v_cases:
        for p2, pp in p_cases:
            for c2, pc in ((max(c - 1, 0), Fraction(1, 2)), (c, Fraction(1, 2))):
                idx = futures_index(v2, p2, c2)
                row[idx] = row.get(idx, Fraction(0)) + pv * pp * pc
    return row


def futures_model() -> Model:
    """The 1331-state futures-market model.

    Binds the month transition, the scaled sale value ``Sold``, the
    characteristic function ``atLeast6`` of v >= 6, and the predicates used
    by the fixed strategies: ``reserveAtCap`` (v >= c) and ``intuitive``
    (v >= 5 and p >= 0.5).
    """
    labels = []
    for v in range(GRID):
        for p in range(GRID):
            for c in range(GRID):
                labels.append(futures_label(v, p, c))
    space = StateSpace(tuple(labels))

    rows = []
    for v in range(GRID):
        for p in range(GRID):
            for c in range(GRID):
                row = _month_row(v, p, c)
                rows.append([(idx, float(pr)) for idx, pr in sorted(row.items())])
    month = transition(rows)

    sold = np.empty(N_FUTURES_STATES)
    at_least_6 = np.empty(N_FUTURES_STATES)
    reserve_at_cap = np.empty(N_FUTURES_STATES, dtype=bool)
    intuitive = np.empty(N_FUTURES_STATES, dtype=bool)
    for v in range(GRID):
        for p in range(GRID):
            for c in range(GRID):
                i = futures_index(v, p, c)
                sold[i] = v / 10.0
                at_least_6[i] = 1.0 if v >= 6 else 0.0
                reserve_at_cap[i] = v >= c
                intuitive[i] = v >= 5 and p >= 5

    valuation = Valuation(
        expectations={"Sold": expectation(sold), "atLeast6": expectation(at_least_6)},
        transitions={"month": month},
        transition_sets={"month": ("month",)},
        predicates={"reserveAtCap": predicate(reserve_at_cap),
                    "intuitive": predicate(intuitive)},
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
