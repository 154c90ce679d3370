"""Operational semantics: playouts of the formula-gambling game.

A play walks positions ``(formula, state)`` until a payoff: constants pay
their value, a modality rolls the transition's distribution (possibly
halting with the residual mass at the transition's payoff), junctions ask
the players' strategies, and a fixpoint binds a fresh colour that re-enters
its body.  A colour revisited more than ``max_depth`` times truncates the
play: the recorded value bracket is then the binder's default, 0 for ``mu``
and 1 for ``nu``, as if the path had continued forever.  A secondary step
budget of ``max_depth * formula_size`` catches non-colour growth, with the
uninformative bracket (0, 1).

``expand_tree`` computes the same truncated value exactly, by expanding the
whole probabilistic tree and weighting payoffs by path probability instead
of sampling.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import Model, halt_payoff
from .evaluator import PathStrategy, UnresolvedSymbolError
from .formula import (
    Cond, Const, MaxJ, MinJ, Modal, Mu, Node, Nu, Var,
    choice_sites, contains_fix, formula_size, free_variables, is_reduced,
    unbound_symbol,
)


class GameError(ValueError):
    """A playout or tree expansion cannot proceed."""


class TreeBudgetError(GameError):
    """Exact tree expansion exceeded its node cap."""


@dataclass(frozen=True)
class Colour:
    """Fresh token bound when a fixpoint unfolds; identifies the recursion.

    The creation index is the path length at binding time, which makes every
    colour of a playout distinct.
    """

    binder: str
    kind: str  # "mu" | "nu"
    created_at: int


@dataclass
class GamePath:
    """Recorded positions of one playout plus per-colour occurrence counts.

    Positions are ``("node", formula, state)``, ``("colour", Colour, state)``
    or a final ``("payoff", y)``.
    """

    positions: list
    colour_counts: dict[Colour, int]

    @property
    def steps(self) -> int:
        return len(self.positions)


@dataclass(frozen=True)
class PlayoutResult:
    value_low: float
    value_high: float
    terminated: bool
    steps: int
    truncating_colour_kind: str | None  # "mu" | "nu" | None


class EstimateResult(NamedTuple):
    mean_low: float
    mean_high: float
    std_error: float
    n_truncated: int


def path_bracket(path: GamePath, max_depth: int) -> PlayoutResult:
    """Value bracket of a recorded path, per its stopping reason.

    Insensitive to any finite colour-free prefix: only the terminal payoff
    or the over-limit colour matters.
    """
    steps = path.steps
    last = path.positions[-1] if path.positions else None
    if last is not None and last[0] == "payoff":
        y = float(last[1])
        return PlayoutResult(y, y, True, steps, None)
    for colour, count in path.colour_counts.items():
        if count > max_depth:
            default = 0.0 if colour.kind == "mu" else 1.0
            return PlayoutResult(default, default, False, steps, colour.kind)
    return PlayoutResult(0.0, 1.0, False, steps, None)


def walk_playout(phi: Node, model: Model, s0: int, sigma_min: PathStrategy,
                 sigma_max: PathStrategy, max_depth: int, rng) -> GamePath:
    """Play one game, recording the full position sequence."""
    return _walk(phi, model, s0, sigma_min, sigma_max, max_depth,
                 _step_budget(phi, model, sigma_min, sigma_max, max_depth), rng)


def _step_budget(phi: Node, model: Model, sigma_min: PathStrategy,
                 sigma_max: PathStrategy, max_depth: int) -> int:
    """Check the playout arguments and return the playout step budget."""
    if max_depth < 1:
        raise GameError("max_depth must be at least 1")
    _check_playable(phi, model, sigma_min, sigma_max)
    return max_depth * formula_size(phi)


def _walk(phi: Node, model: Model, s0: int, sigma_min: PathStrategy,
          sigma_max: PathStrategy, max_depth: int, step_budget: int,
          rng) -> GamePath:
    """:func:`walk_playout` on a formula that :func:`_check_playable` accepted."""
    v = model.valuation
    positions: list = []
    view: list = []  # what strategies may inspect: (node-or-binder-name, state)
    counts: dict[Colour, int] = {}
    env: dict[str, Colour] = {}
    bodies: dict[Colour, Node] = {}

    def as_colour(node: Node, s: int):
        """Resolve variables to their colour before taking up a position."""
        if isinstance(node, Var):
            return ("colour", env[node.name], s)
        return ("node", node, s)

    current = as_colour(phi, s0)
    while True:
        positions.append(current)
        if current[0] == "payoff":
            break
        kind, label, s = current
        view.append((label.binder if kind == "colour" else label, s))
        if kind == "colour":
            colour = label
            counts[colour] = counts.get(colour, 0) + 1
            if counts[colour] > max_depth:
                break
            if len(positions) > step_budget:
                break
            current = as_colour(bodies[colour], s)
            continue
        if len(positions) > step_budget:
            break
        node = label
        if isinstance(node, Const):
            current = ("payoff", float(v.expectations[node.name][s]))
        elif isinstance(node, Modal):
            t = v.transitions[node.transition]
            u = rng.random()
            acc = 0.0
            chosen = None
            row = t.successors[s]
            for target, prob in row:
                acc += prob
                if u <= acc:
                    chosen = target
                    break
            if chosen is None:
                if 1.0 - acc <= 1e-12 and row:
                    # float dust: the distribution is total, keep last edge
                    chosen = row[-1][0]
                else:
                    current = ("payoff", halt_payoff(t, s))
                    continue
            current = as_colour(node.body, chosen)
        elif isinstance(node, MaxJ):
            take_left = sigma_max.decide(node.site, view, s)
            current = as_colour(node.left if take_left else node.right, s)
        elif isinstance(node, MinJ):
            take_left = sigma_min.decide(node.site, view, s)
            current = as_colour(node.left if take_left else node.right, s)
        elif isinstance(node, Cond):
            branch = (node.then_branch if v.predicates[node.predicate][s]
                      else node.else_branch)
            current = as_colour(branch, s)
        elif isinstance(node, (Mu, Nu)):
            colour = Colour(node.var, "mu" if isinstance(node, Mu) else "nu",
                            created_at=len(positions))
            env[node.var] = colour
            bodies[colour] = node.body
            current = ("colour", colour, s)
        else:
            raise GameError(f"cannot play node {node!r}")

    return GamePath(positions=positions, colour_counts=counts)


def play(phi: Node, model: Model, s0: int, sigma_min: PathStrategy,
         sigma_max: PathStrategy, max_depth: int, rng) -> PlayoutResult:
    """One playout; sampling uses only the supplied generator."""
    path = walk_playout(phi, model, s0, sigma_min, sigma_max, max_depth, rng)
    return path_bracket(path, max_depth)


def estimate(phi: Node, model: Model, s0: int, sigma_min: PathStrategy,
             sigma_max: PathStrategy, n_paths: int, max_depth: int,
             seed: int) -> EstimateResult:
    """Monte-Carlo value estimate over independent seeded playouts.

    Each path draws from its own stream derived from (seed, path index), so
    the result is a deterministic function of the seed and is reproducible
    under any parallel schedule.  The formula is checked once per call, not
    once per path.
    """
    if n_paths < 1:
        raise GameError("n_paths must be at least 1")
    step_budget = _step_budget(phi, model, sigma_min, sigma_max, max_depth)
    streams = np.random.SeedSequence(seed).spawn(n_paths)
    lows = np.empty(n_paths)
    highs = np.empty(n_paths)
    n_truncated = 0
    for i, stream in enumerate(streams):
        rng = np.random.Generator(np.random.PCG64(stream))
        result = path_bracket(_walk(phi, model, s0, sigma_min, sigma_max,
                                    max_depth, step_budget, rng), max_depth)
        lows[i] = result.value_low
        highs[i] = result.value_high
        if not result.terminated:
            n_truncated += 1
    if n_paths > 1:
        std_error = float(np.std(highs, ddof=1) / np.sqrt(n_paths))
    else:
        std_error = 0.0
    return EstimateResult(float(lows.mean()), float(highs.mean()),
                          std_error, n_truncated)


def expand_tree(phi: Node, model: Model, s0: int, sigma_min: PathStrategy,
                sigma_max: PathStrategy, depth: int,
                node_cap: int = 2_000_000) -> tuple[float, float]:
    """Exact expected value of the depth-truncated game from ``s0``.

    Expands the probabilistic tree (probability-one edges for all
    non-modality rules) and sums payoff values weighted by path probability.
    Colour re-entry is bounded exactly as in :func:`play`: a budget entry
    maps a variable name to its remaining re-entries and the id of the
    binder in scope, so binders that share a name stay apart.  Strategies
    see the position sequence of a playout: each node, with a binder-name
    position at every binder entry and in place of every variable.  Raises
    :class:`TreeBudgetError` when more than ``node_cap`` tree nodes would be
    built.

    With two memoriless strategies the value below a position depends only
    on the node, the state and the budgets, so identical subtrees are
    computed once (a shared subtree counts no further nodes), which keeps
    deep expansions tractable.
    """
    if depth < 0:
        raise GameError("depth must be non-negative")
    _check_playable(phi, model, sigma_min, sigma_max)
    v = model.valuation
    binders: dict[int, Node] = {}
    memo = {} if sigma_min.memoriless and sigma_max.memoriless else None
    view: list = []
    visits = 0

    def go(node: Node, s: int, budgets: tuple) -> float:
        nonlocal visits
        key = (id(node), s, budgets)
        if memo is not None and key in memo:
            return memo[key]
        visits += 1
        if visits > node_cap:
            raise TreeBudgetError(f"tree expansion exceeded {node_cap} nodes")
        mark = len(view)
        view.append((node.name if isinstance(node, Var) else node, s))
        try:
            if isinstance(node, Const):
                value = float(v.expectations[node.name][s])
            elif isinstance(node, Var):
                entry = dict(budgets)
                remaining, binder = entry[node.name]
                if remaining == 0:
                    value = 0.0 if isinstance(binders[binder], Mu) else 1.0
                else:
                    entry[node.name] = (remaining - 1, binder)
                    value = go(binders[binder].body, s,
                               tuple(sorted(entry.items())))
            elif isinstance(node, Modal):
                t = v.transitions[node.transition]
                value = t.payoff_weights[s]
                for target, prob in t.successors[s]:
                    value += prob * go(node.body, target, budgets)
            elif isinstance(node, MaxJ):
                take_left = sigma_max.decide(node.site, view, s)
                value = go(node.left if take_left else node.right, s, budgets)
            elif isinstance(node, MinJ):
                take_left = sigma_min.decide(node.site, view, s)
                value = go(node.left if take_left else node.right, s, budgets)
            elif isinstance(node, Cond):
                branch = (node.then_branch if v.predicates[node.predicate][s]
                          else node.else_branch)
                value = go(branch, s, budgets)
            else:  # Mu or Nu: bind, then enter the body
                view.append((node.var, s))
                if depth == 0:
                    value = 0.0 if isinstance(node, Mu) else 1.0
                else:
                    binders[id(node)] = node
                    entry = dict(budgets)
                    entry[node.var] = (depth - 1, id(node))
                    value = go(node.body, s, tuple(sorted(entry.items())))
        finally:
            del view[mark:]
        if memo is not None:
            memo[key] = value
        return value

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 100_000))
    try:
        value = go(phi, s0, ())
    finally:
        sys.setrecursionlimit(limit)
    return value, value


def _check_playable(phi: Node, model: Model, sigma_min: PathStrategy,
                    sigma_max: PathStrategy) -> None:
    """Reject, before any move, a formula the game rules cannot play, or
    strategy tables that are not one per site with one entry per state.

    Unbound names raise :class:`UnresolvedSymbolError`, as in the evaluator.
    """
    free = free_variables(phi)
    if free:
        raise UnresolvedSymbolError("variable", sorted(free)[0])
    if not is_reduced(phi):
        raise GameError("formula contains set modalities; reduce it first")
    missing = unbound_symbol(phi, model.valuation)
    if missing is not None:
        raise UnresolvedSymbolError(*missing)
    if contains_fix(phi):
        raise GameError("the game rules do not cover fix(x) binders")
    mins, maxs = choice_sites(phi)
    sigma_min.check_tables("min", mins, model.space.size, GameError)
    sigma_max.check_tables("max", maxs, model.space.size, GameError)
