"""Answers computed apart from qmu, against which the benchmark checks it.

Everything here works on raw transition rows (lists of ``(target, prob)``
pairs read from the model file or generated by the benchmark) with
``scipy.sparse`` and numpy only; nothing imports qmu.
"""

from __future__ import annotations

import numpy as np

#: Step-residual stop of the reference iterations, far below qmu's 1e-9.
REF_TOL = 1e-13

#: Iteration cap of one reference solve; reaching it raises.
REF_CAP = 1_000_000

#: Step residuals above this are used to estimate the contraction.  It is
#: qmu's default tolerance, the residual at which qmu itself stops.
RATE_FLOOR = 1e-9


def csr(rows, n: int):
    """Sparse (n, n) successor matrix from per-state ``[(target, prob)]`` rows."""
    # Imported here so that workloads which need no sparse reference do not
    # carry scipy's 17 MB in their peak resident set.
    import scipy.sparse as sp

    indptr = np.zeros(n + 1, dtype=np.int64)
    indptr[1:] = np.cumsum([len(row) for row in rows])
    indices = np.fromiter((t for row in rows for t, _ in row), dtype=np.int64,
                          count=int(indptr[-1]))
    data = np.fromiter((p for row in rows for _, p in row), dtype=np.float64,
                       count=int(indptr[-1]))
    return sp.csr_matrix((data, indices, indptr), shape=(n, n))


def _iterate(step, seed: np.ndarray) -> tuple[np.ndarray, float]:
    """Kleene iteration of ``step`` from ``seed`` down to ``REF_TOL``.

    Returns the last iterate and an estimate of the contraction: the
    largest ratio of successive step residuals among the last ten steps
    whose residual is still above ``RATE_FLOOR``.  Below that floor the
    ratios are rounding noise.
    """
    x = seed
    residuals = []
    for _ in range(REF_CAP):
        y = step(x)
        residuals.append(float(np.max(np.abs(y - x))))
        x = y
        if residuals[-1] <= REF_TOL:
            above = [r for r in residuals if r > RATE_FLOOR][-11:]
            ratios = [b / a for a, b in zip(above, above[1:])]
            return x, max(ratios, default=0.0)
    raise RuntimeError(f"reference iteration did not reach {REF_TOL} "
                       f"in {REF_CAP} steps")


def error_bound(tol: float, contraction: float) -> float:
    """Distance to the fixpoint of an iterate whose step residual is ``tol``.

    For a map that contracts by ``contraction`` in the sup norm, an iterate
    one step residual ``r`` from its successor lies within
    ``r * c / (1 - c)`` of the fixpoint.
    """
    if not 0.0 <= contraction < 1.0:
        raise ValueError(f"no error bound for contraction {contraction}")
    return tol * contraction / (1.0 - contraction)


def scaled_value(a, wa: np.ndarray, b, wb: np.ndarray,
                 payoff: np.ndarray) -> np.ndarray:
    """``mu X . <a> P \\/ <a> (X /\\ <b> X)`` by sparse value iteration."""
    now = wa + a @ payoff

    def step(x):
        return np.clip(np.maximum(now, wa + a @ np.minimum(x, wb + b @ x)), 0.0, 1.0)

    return _iterate(step, np.zeros(a.shape[0]))[0]


def alternating_nest(month, w: np.ndarray,
                     target: np.ndarray) -> tuple[np.ndarray, float, float]:
    """``nu Y . mu X . (T /\\ <month> Y) \\/ <month> X`` by nested iteration.

    The inner least fixpoint restarts from zero at every outer iterate, as
    alternation requires.  Returns the value and the largest contraction
    estimates seen in the inner and the outer iteration.
    """
    n = month.shape[0]
    inner_worst = [0.0]

    def outer(y):
        held = np.minimum(target, w + month @ y)
        x, c = _iterate(lambda x: np.clip(np.maximum(held, w + month @ x), 0.0, 1.0),
                        np.zeros(n))
        inner_worst[0] = max(inner_worst[0], c)
        return x

    y, outer_c = _iterate(outer, np.ones(n))
    return y, inner_worst[0], outer_c


def minimax_maximin(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Game values of a (min tuple, max tuple, state) payoff table."""
    return table.max(axis=1).min(axis=0), table.min(axis=0).max(axis=0)
