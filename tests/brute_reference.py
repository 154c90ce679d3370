"""The brute force by Kleene iteration, as a reference.

The oracle solves each strategy pair's linear system directly.  This module
keeps the former way: every pair of a slice is iterated together in one
:func:`~qmu.evaluator.evaluate_batch`, each with its own stopping test, so
every table row is bit-identical to that pair evaluated alone.  Tests
compare the two, and the evaluator's batched loops are checked through it.
"""

import numpy as np

from qmu.evaluator import EvalConfig, NotConvergedError, evaluate_batch
from qmu.formula import choice_sites
from qmu.oracle import (
    MAX_STRATEGY_BITS, BruteForceResult, StrategySpaceError, TinyInstance,
    _tuple_choices,
)
from qmu.strategy import MemorilessStrategy

#: Strategy pairs solved in one batched evaluation (the whole space at the
#: default 12-bit budget); larger spaces are solved slice by slice, which
#: bounds memory at the 20-bit cap.
PAIRS_PER_BATCH = 4096


def brute_minimax(inst: TinyInstance, cfg: EvalConfig | None = None) -> BruteForceResult:
    """Exact strategy-enumeration values of a tiny instance.

    Solves the formula for every (min tuple, max tuple) pair, with the
    pair's choices resolving every junction; min/max tuples are enumerated in
    lexicographic (site, state) order.  The pairs are solved
    :data:`PAIRS_PER_BATCH` at a time in one batched evaluation, each with
    its own stopping test, so every table row equals the pair's value solved
    alone.  Raises :class:`NotConvergedError` when some pair does not
    converge within ``cfg.max_iterations``.
    """
    cfg = cfg or EvalConfig()
    phi = inst.phi
    model = inst.model
    n = model.space.size
    mins, maxs = choice_sites(phi)
    bits = (mins + maxs) * n
    if bits > MAX_STRATEGY_BITS:
        raise StrategySpaceError(
            f"strategy space has 2^{bits} tuples, budget is 2^{MAX_STRATEGY_BITS}")

    n_min, n_max = 2 ** (mins * n), 2 ** (maxs * n)
    table = np.empty((n_min * n_max, n))
    for start in range(0, len(table), PAIRS_PER_BATCH):
        pairs = np.arange(start, min(start + PAIRS_PER_BATCH, len(table)))
        report = evaluate_batch(phi, model,
                                _tuple_choices(pairs // n_max, mins, n),
                                _tuple_choices(pairs % n_max, maxs, n), cfg)
        if not report.converged:
            raise NotConvergedError(
                f"brute force did not converge within {cfg.max_iterations} "
                "iterations for some strategy pair")
        table[start:start + len(pairs)] = report.result
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
