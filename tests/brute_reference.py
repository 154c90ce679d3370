"""The brute force by Kleene iteration, as a reference.

The oracle solves each strategy pair's linear system directly.  This module
keeps the former way: each pair is iterated alone by the evaluator's plan,
with the pair's choice masks at the junctions, so every table row is that
pair evaluated alone.  Tests compare the two.
"""

import numpy as np

from qmu.evaluator import EvalConfig, NotConvergedError, _Masked, _run
from qmu.formula import check_entry, choice_sites
from qmu.oracle import (
    MAX_STRATEGY_BITS, BruteForceResult, StrategySpaceError, TinyInstance,
    _tuple_choices,
)
from qmu.strategy import MemorilessStrategy


def brute_minimax(inst: TinyInstance, cfg: EvalConfig | None = None) -> BruteForceResult:
    """Exact strategy-enumeration values of a tiny instance.

    Solves the formula for every (min tuple, max tuple) pair, with the
    pair's choices resolving every junction; min/max tuples are enumerated in
    lexicographic (site, state) order.  Each pair is one evaluation under
    its choice masks.  Raises :class:`NotConvergedError` when some pair
    does not converge within ``cfg.max_iterations``.
    """
    cfg = cfg or EvalConfig()
    phi = inst.phi
    model = inst.model
    n = model.space.size
    entry = check_entry(phi, model, "reject")
    mins, maxs = choice_sites(phi)
    bits = (mins + maxs) * n
    if bits > MAX_STRATEGY_BITS:
        raise StrategySpaceError(
            f"strategy space has 2^{bits} tuples, budget is 2^{MAX_STRATEGY_BITS}")

    n_min, n_max = 2 ** (mins * n), 2 ** (maxs * n)
    table = np.empty((n_min * n_max, n))
    for pair in range(len(table)):
        report = _run(phi, model, cfg, entry, _Masked(
            _tuple_choices(pair // n_max, mins, n),
            _tuple_choices(pair % n_max, maxs, n)))
        if not report.converged:
            raise NotConvergedError(
                f"brute force did not converge within {cfg.max_iterations} "
                "iterations for some strategy pair")
        table[pair] = report.result
    table = table.reshape(n_min, n_max, n)

    max_first = table.max(axis=1)          # best Max reply per Min tuple
    minimax = max_first.min(axis=0)
    min_first = table.min(axis=0)          # worst Min reply per Max tuple
    maximin = min_first.max(axis=0)

    min_gaps = (max_first - minimax[None, :]).max(axis=1)
    i0 = int(np.argmin(min_gaps))
    max_gaps = (maximin[None, :] - min_first).max(axis=1)
    j0 = int(np.argmin(max_gaps))

    return BruteForceResult(
        minimax=minimax,
        maximin=maximin,
        min_witness=MemorilessStrategy(
            min_choices=tuple(_tuple_choices(i0, mins, n))),
        max_witness=MemorilessStrategy(
            max_choices=tuple(_tuple_choices(j0, maxs, n))),
        min_witness_gap=float(min_gaps[i0]),
        max_witness_gap=float(max_gaps[j0]),
        table=table,
    )
