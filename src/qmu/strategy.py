"""Memoriless strategy synthesis, formula specialisation and verification.

A memoriless strategy is one predicate per choice site: true selects the
left 'junct in that state.  Synthesis extracts the argmax/argmin choice at
every site from the converged evaluation; specialisation rewrites chosen
sites into conditionals over fresh predicate symbols, so the specialised
formula is evaluated by the ordinary machinery against an extended
valuation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .core import Model, pre_expectation, predicate
from .evaluator import (
    EvalConfig, NotConvergedError, PathStrategy, converged_walk, evaluate,
)
from .formula import (
    Cond, MaxJ, MinJ, Node, choice_sites, fingerprint, map_children,
)

STRATEGY_SCHEMA = "qmu-strategy/1"


def min_site_symbol(site: int) -> str:
    """Fresh predicate symbol :func:`specialize` uses for a min site."""
    return f"_min{site}"


def max_site_symbol(site: int) -> str:
    return f"_max{site}"


class StrategyError(ValueError):
    """A strategy does not fit the formula or model it is applied to."""


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

    def check_shape(self, phi: Node, n_states: int | None = None) -> None:
        """Site counts must match ``phi``; with ``n_states``, predicate lengths too."""
        mins, maxs = choice_sites(phi)
        for label, choices, count in (("min", self.min_choices, mins),
                                      ("max", self.max_choices, maxs)):
            if choices is None:
                continue
            if len(choices) != count:
                raise StrategyError(
                    f"{label} side has {len(choices)} site predicates, "
                    f"formula has {count} {label} sites")
            if n_states is None:
                continue
            for site, arr in enumerate(choices):
                if len(arr) != n_states:
                    raise StrategyError(
                        f"{label} site {site} predicate has {len(arr)} "
                        f"entries, expected {n_states}")

    def path_strategies(self) -> tuple[PathStrategy, PathStrategy]:
        """Both sides as path strategies; requires full coverage."""
        if self.min_choices is None or self.max_choices is None:
            raise StrategyError("both sides are needed to play the game")
        return (PathStrategy.from_choices(self.min_choices),
                PathStrategy.from_choices(self.max_choices))


def synthesize(phi: Node, model: Model,
               cfg: EvalConfig | None = None) -> tuple[MemorilessStrategy, np.ndarray]:
    """Extract an optimal memoriless strategy and the formula's value.

    The formula is evaluated once; at every max site the predicate holds
    where the left operand's value is at least the right's minus the
    iteration tolerance (dually for min sites); ties go left.  Operand
    values are those of the final iteration of every enclosing binder.
    """
    cfg = cfg or EvalConfig()
    operands: dict = {}

    def on_junction(node, left, right):
        operands[type(node), node.site] = (left, right)

    report = converged_walk(phi, model, cfg, on_junction)
    if not report.converged:
        raise NotConvergedError(
            "evaluation did not converge; cannot extract a strategy")
    mins, maxs = choice_sites(phi)
    tol = cfg.tolerance
    strategy = MemorilessStrategy(
        min_choices=tuple(left <= right + tol for left, right in
                          (operands[MinJ, site] for site in range(mins))),
        max_choices=tuple(left >= right - tol for left, right in
                          (operands[MaxJ, site] for site in range(maxs))),
    )
    return strategy, report.result


def specialize(phi: Node, strategy: MemorilessStrategy,
               n_states: int | None = None) -> tuple[Node, dict[str, np.ndarray]]:
    """Replace covered choice sites by conditionals over fresh predicates.

    Returns the rewritten formula and the valuation extension mapping the
    fresh predicate symbols to the strategy's predicates.  A partial
    strategy (one side ``None``) leaves the other side's junctions in
    place, to be resolved adversarially by evaluation.
    """
    strategy.check_shape(phi, n_states)
    extension: dict[str, np.ndarray] = {}
    sides = {MinJ: (strategy.min_choices, min_site_symbol),
             MaxJ: (strategy.max_choices, max_site_symbol)}

    def go(node: Node) -> Node:
        choices, symbol_of = sides.get(type(node), (None, None))
        if choices is None:
            return map_children(node, go)
        symbol = symbol_of(node.site)
        extension[symbol] = predicate(choices[node.site])
        return Cond(symbol, go(node.left), go(node.right))

    return go(phi), extension


def specialized_model(model: Model, extension: dict[str, np.ndarray]) -> Model:
    """Model with the specialisation predicates bound."""
    return Model(model.space, model.valuation.with_predicates(extension))


def verify_strategy(phi: Node, model: Model, strategy: MemorilessStrategy,
                    cfg: EvalConfig | None = None) -> float:
    """Sup-norm gap between the specialised and the original value.

    For a synthesised strategy this stays within a small multiple of the
    iteration tolerance; a visibly positive residual means the strategy is
    suboptimal somewhere.
    """
    cfg = cfg or EvalConfig()
    spec_phi, extension = specialize(phi, strategy, model.space.size)
    base = evaluate(phi, model, cfg).result
    specialised = evaluate(spec_phi, specialized_model(model, extension), cfg).result
    return float(np.max(np.abs(specialised - base)))


def one_step_advice(model: Model, value: np.ndarray, s: int, *,
                    transition_symbol: str = "month",
                    payoff_symbol: str = "Sold",
                    tolerance: float = 1e-9) -> bool:
    """Commit now just when one step of waiting cannot be expected to beat
    the value of the whole game played from here."""
    t = model.valuation.transitions[transition_symbol]
    sold = model.valuation.expectations[payoff_symbol]
    return pre_expectation(t, s, sold) >= float(value[s]) - tolerance


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
    try:
        sites = sorted(int(k) for k in data)
    except (TypeError, ValueError):
        raise StrategyError(f"malformed {side} choice map") from None
    if sites != list(range(len(sites))):
        raise StrategyError(f"{side} choice map sites are not 0..{len(sites) - 1}")
    tables = [data[str(site)] for site in sites]
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
    with open(path, "w") as fh:
        json.dump(strategy_to_dict(strategy, phi), fh, indent=2)
        fh.write("\n")


def load_strategy(path, phi: Node) -> MemorilessStrategy:
    with open(path) as fh:
        return strategy_from_dict(json.load(fh), phi)
