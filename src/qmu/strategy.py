"""Memoriless strategy synthesis, verification and strategy files.

A memoriless strategy is one predicate per choice site: true selects the
left 'junct in that state.  Synthesis extracts the argmax/argmin choice at
every site from the converged evaluation.  A fixed strategy is applied as
junction masks: :func:`~qmu.evaluator.evaluate_with_strategies` takes the
masked 'junct at each of its sites and leaves a side the strategy does not
cover adversarial.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .core import Model, predicate
from .evaluator import (
    EvalConfig, NotConvergedError, PathStrategy, StrategyError, converged_walk,
    evaluate, evaluate_with_strategies,
)
from .formula import MaxJ, MinJ, Node, fingerprint
from .modelio import read_json, write_json

STRATEGY_SCHEMA = "qmu-strategy/1"


class FingerprintMismatchError(StrategyError):
    """A strategy file was synthesised against a different formula."""


@dataclass(frozen=True, eq=False)
class MemorilessStrategy:
    """Per-site choice predicates; ``None`` leaves that side unresolved.

    ``min_choices[site][state]`` (dually ``max_choices``) is true when the
    left 'junct is taken at that site in that state.
    """

    min_choices: tuple[np.ndarray, ...] | None = None
    max_choices: tuple[np.ndarray, ...] | None = None

    def sides(self) -> tuple[PathStrategy | None, PathStrategy | None]:
        """Both sides as path strategies, ``None`` for a side left open."""
        return tuple(None if choices is None else PathStrategy.from_choices(choices)
                     for choices in (self.min_choices, self.max_choices))

    def path_strategies(self) -> tuple[PathStrategy, PathStrategy]:
        """Both sides as path strategies; requires full coverage."""
        if self.min_choices is None or self.max_choices is None:
            raise StrategyError("both sides are needed to play the game")
        return self.sides()


def synthesize(phi: Node, model: Model,
               cfg: EvalConfig | None = None) -> tuple[MemorilessStrategy, np.ndarray]:
    """Extract a memoriless strategy and the formula's value.

    The formula is evaluated once; at every max site the predicate holds
    where the left operand's value is at least the right's minus the
    iteration tolerance (dually for min sites); ties go left.  Operand
    values are those of the final iteration of every enclosing binder.
    The strategy can be suboptimal where the operands tie: the left one
    may loop back into its binder and never pay.  :func:`verify_strategy`'s
    residual is the check.
    """
    cfg = cfg or EvalConfig()
    operands: dict = {MinJ: {}, MaxJ: {}}  # each kind's sites' operands

    def on_junction(node, left, right):
        operands[type(node)][node.site] = (left, right)

    report = converged_walk(phi, model, cfg, on_junction)
    if not report.converged:
        raise NotConvergedError(
            "evaluation did not converge; cannot extract a strategy")
    # the walk visits every junction, so each kind's sites are 0, 1, ...
    mins, maxs = ([sites[site] for site in range(len(sites))]
                  for sites in operands.values())
    tol = cfg.tolerance
    strategy = MemorilessStrategy(
        min_choices=tuple(left <= right + tol for left, right in mins),
        max_choices=tuple(left >= right - tol for left, right in maxs),
    )
    return strategy, report.result


def verify_strategy(phi: Node, model: Model, strategy: MemorilessStrategy,
                    cfg: EvalConfig | None = None, *,
                    base: np.ndarray | None = None) -> float:
    """Sup-norm gap between the value under the strategy, a side it leaves
    open staying adversarial, and the game value.

    A residual within a small multiple of the iteration tolerance means
    the strategy forfeits nothing; a visibly positive one means it is
    suboptimal somewhere.  ``base`` is the game value when the caller has
    it already (the value :func:`synthesize` returns under the same
    ``cfg``); otherwise the formula is evaluated here, after the strategy
    evaluation, which checks the formula and then the strategy's tables.
    """
    cfg = cfg or EvalConfig()
    fixed = evaluate_with_strategies(phi, model, *strategy.sides(), cfg)
    if base is None:
        base = evaluate(phi, model, cfg).result
    return float(np.max(np.abs(fixed - base)))


# --- Strategy files ---------------------------------------------------------

def _choices_to_json(choices: tuple[np.ndarray, ...] | None):
    if choices is None:
        return None
    return {str(site): [bool(x) for x in arr] for site, arr in enumerate(choices)}


def _choices_from_json(data, side: str) -> tuple[np.ndarray, ...] | None:
    if data is None:
        return None
    if not isinstance(data, dict):
        raise StrategyError(f"malformed {side} choice map")
    for key in data:  # as str(site) writes it: not "00", "-0" or " 0"
        if not (isinstance(key, str) and re.fullmatch("0|-?[1-9][0-9]*", key)):
            raise StrategyError(f"malformed {side} choice map: key {key!r} "
                                "is not a site number")
    sites = [str(site) for site in range(len(data))]
    if data.keys() != set(sites):
        raise StrategyError(f"{side} choice map sites are not 0..{len(data) - 1}")
    tables = [data[site] for site in sites]
    for site, table in enumerate(tables):
        if not (isinstance(table, list)
                and all(isinstance(x, bool) for x in table)):
            raise StrategyError(
                f"{side} site {site} predicate is not a list of true/false")
    return tuple(predicate(table) for table in tables)


def strategy_to_dict(strategy: MemorilessStrategy, phi: Node) -> dict:
    return {
        "schema": STRATEGY_SCHEMA,
        "formula_fingerprint": fingerprint(phi),
        "min_choices": _choices_to_json(strategy.min_choices),
        "max_choices": _choices_to_json(strategy.max_choices),
    }


def strategy_from_dict(data: dict, phi: Node) -> MemorilessStrategy:
    if not isinstance(data, dict):
        raise StrategyError("strategy file must be a JSON object")
    if data.get("schema") != STRATEGY_SCHEMA:
        raise StrategyError(f"unsupported strategy schema {data.get('schema')!r}")
    expected = fingerprint(phi)
    if data.get("formula_fingerprint") != expected:
        raise FingerprintMismatchError(
            f"strategy was synthesised against fingerprint "
            f"{data.get('formula_fingerprint')!r}, formula has {expected!r}")
    return MemorilessStrategy(
        min_choices=_choices_from_json(data.get("min_choices"), "min"),
        max_choices=_choices_from_json(data.get("max_choices"), "max"),
    )


def save_strategy(path, strategy: MemorilessStrategy, phi: Node) -> None:
    """Write ``strategy`` to ``path`` with :func:`~qmu.modelio.write_json`."""
    write_json(path, strategy_to_dict(strategy, phi))


def load_strategy(path, phi: Node) -> MemorilessStrategy:
    return strategy_from_dict(read_json(path, StrategyError), phi)
