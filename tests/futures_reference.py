"""The futures-market model built state by state with exact fractions.

``qmu.examples.futures_model`` builds the model from arrays over the
(v, p, c) grid.  This module keeps the earlier builder, which walks the
states one at a time and sums each successor's probability as a
``Fraction``; tests require the two models to be byte-identical.
"""

from fractions import Fraction

import numpy as np

from qmu.examples import GRID, futures_index, futures_label


def month_row(v: int, p: int, c: int) -> dict[int, Fraction]:
    """Exact one-month distribution over successor states of (v, p, c)."""
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


def grid():
    """Every state's ``(v, p, c)``, in index order."""
    return [(v, p, c) for v in range(GRID) for p in range(GRID) for c in range(GRID)]


def labels() -> tuple[str, ...]:
    return tuple(futures_label(v, p, c) for v, p, c in grid())


def month_rows() -> list[list[tuple[int, float]]]:
    """Every state's row, sorted by target, each probability ``float(Fraction)``."""
    return [[(idx, float(pr)) for idx, pr in sorted(month_row(v, p, c).items())]
            for v, p, c in grid()]


def expectations() -> dict[str, np.ndarray]:
    return {"Sold": np.array([v / 10.0 for v, _, _ in grid()]),
            "atLeast6": np.array([1.0 if v >= 6 else 0.0 for v, _, _ in grid()])}


def predicates() -> dict[str, np.ndarray]:
    return {"reserveAtCap": np.array([v >= c for v, _, c in grid()]),
            "intuitive": np.array([v >= 5 and p >= 5 for v, p, _ in grid()])}
