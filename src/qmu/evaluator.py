"""Denotational evaluation by nested fixed-point iteration.

A formula denotes an expectation computed pointwise over the state space:
constants and variables look up vectors, a modality is the pre-expectation of
its body, junctions are pointwise min/max, and the binders are solved by
plain Kleene iteration from their canonical seeds (all-zero for ``mu``,
all-one for ``nu``, the constant ``x`` for ``fix(x)``).  Nested fixpoints are
re-solved from their seeds on every outer iterate, which keeps alternation
correct at the cost of some repeated work.

The strategy-extended semantics resolves junctions by consulting a pair of
strategy functions instead of taking min/max; with memoriless strategies the
specialised system is solved exactly, otherwise the formula is unfolded to a
bounded depth with truncated fixpoints contributing their binder's default
(0 for ``mu``, 1 for ``nu``).  :func:`evaluate_batch` solves many memoriless
strategy pairs at once, one row of a ``(B, n)`` expectation per pair, each
row with its own stopping test.
"""

from __future__ import annotations

import sys
from collections import deque
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import Model, pre_expectation_all
from .formula import (
    Cond, Const, Fix, MaxJ, MinJ, Modal, Mu, Node, Nu, Var,
    choice_sites, free_variables, is_reduced, junction_free, subformulae,
    unbound_symbol,
)


class EvaluationError(ValueError):
    """Base class for evaluation failures."""


class UnresolvedSymbolError(EvaluationError):
    """A formula symbol has no binding in the valuation."""

    def __init__(self, kind: str, name: str):
        super().__init__(f"unresolved {kind} symbol {name!r}")
        self.kind = kind
        self.name = name


class FixNotSupportedError(EvaluationError):
    """Intermediate fixed points require the dedicated entry point."""


class NondeterministicFixBodyError(EvaluationError):
    """A fix(x) body contains min/max choice and force was not requested."""


class DivergenceError(EvaluationError):
    """Forced fix(x) iteration showed no sign of converging."""


class NotConvergedError(EvaluationError):
    """An operation that needs a converged value did not get one."""


#: Window length for the forced-fix oscillation detector: iteration aborts
#: when the residual has not decreased once across this many iterates.
_DIVERGENCE_WINDOW = 50


@dataclass(frozen=True)
class EvalConfig:
    """Iteration control: sup-norm threshold and per-fixpoint cap."""

    tolerance: float = 1e-9
    max_iterations: int = 1_000_000

    def __post_init__(self):
        if self.tolerance <= 0.0:
            raise ValueError("tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


@dataclass(frozen=True)
class FixpointStats:
    """Iteration record for one binder (its most recent solve).

    In a batched evaluation ``iterations`` and ``residual`` are those of the
    slowest row, and ``converged`` holds only if every row converged.
    """

    binder: str
    iterations: int
    residual: float
    converged: bool
    solves: int


@dataclass(frozen=True, eq=False)
class EvalReport:
    result: np.ndarray
    fixpoints: dict[str, FixpointStats]
    converged: bool

    def __eq__(self, other):
        if not isinstance(other, EvalReport):
            return NotImplemented
        return (np.array_equal(self.result, other.result)
                and self.fixpoints == other.fixpoints
                and self.converged == other.converged)


@dataclass(frozen=True)
class PathStrategy:
    """Choice rule for one player: (site id, path so far, state) -> bool.

    True means "take the left 'junct".  The path is the sequence of game
    positions traversed so far, with fixpoint re-entries presented by binder
    name only, so strategies cannot distinguish the underlying colours.
    ``memoriless`` promises the rule ignores the path argument entirely.
    """

    decide: Callable[[int, Sequence, int], bool]
    memoriless: bool = False

    @staticmethod
    def from_choices(choices: Sequence) -> "PathStrategy":
        """Per-site, per-state boolean tables; ignores history."""
        tables = tuple(np.asarray(c, dtype=bool) for c in choices)
        return PathStrategy(
            decide=lambda site, path, s: bool(tables[site][s]),
            memoriless=True,
        )

    @staticmethod
    def constant(left: bool) -> "PathStrategy":
        return PathStrategy(decide=lambda site, path, s: left, memoriless=True)


def _pointwise(node: Node, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """The adversarial junction rule: max at a max site, min at a min site."""
    if isinstance(node, MaxJ):
        return np.maximum(left, right)
    return np.minimum(left, right)


def _masked(min_masks, max_masks):
    """Junction rule taking the left 'junct where a site's mask holds.

    A side whose masks are ``None`` stays adversarial.
    """
    def choose(node, left, right):
        masks = max_masks if isinstance(node, MaxJ) else min_masks
        if masks is None:
            return _pointwise(node, left, right)
        return np.where(masks[node.site], left, right)
    return choose


class _Engine:
    """Shared tree-walking evaluator with a pluggable junction rule.

    ``choose(node, left, right)`` resolves each min/max node from its
    operand expectations.  It walks only formulae :func:`_check_entry`
    accepted, so every name it looks up is bound.  ``forced`` holds the ids
    of the ``fix(x)`` binders iterated under the divergence detector.  With
    ``batch`` set, every expectation is ``(batch, n)``, one row per strategy
    pair; constants and predicates stay ``(n,)`` and broadcast.
    """

    def __init__(self, model: Model, cfg: EvalConfig, choose,
                 batch: int | None, forced: frozenset[int]):
        self.v = model.valuation
        n = model.space.size
        self.shape = (n,) if batch is None else (batch, n)
        # Rows still iterating in the innermost running solve, one flag per
        # row (a 0-d flag unbatched); a nested solve starts from its
        # enclosing solve's live rows.
        self._live = np.ones(self.shape[:-1], dtype=bool)
        self.cfg = cfg
        self.forced = forced
        self.choose = choose
        self.stats: dict[str, FixpointStats] = {}

    def eval(self, node: Node, env: dict[str, np.ndarray]) -> np.ndarray:
        if isinstance(node, Modal):
            return pre_expectation_all(self.v.transitions[node.transition],
                                       self.eval(node.body, env))
        if isinstance(node, (MaxJ, MinJ)):
            return self.choose(node, self.eval(node.left, env),
                               self.eval(node.right, env))
        if isinstance(node, Var):
            return env[node.name]
        if isinstance(node, Const):
            return self.v.expectations[node.name]
        if isinstance(node, Cond):
            return np.where(self.v.predicates[node.predicate],
                            self.eval(node.then_branch, env),
                            self.eval(node.else_branch, env))
        return self.solve_fixpoint(node, env)  # Mu, Nu or Fix

    def _seed(self, node) -> np.ndarray:
        if isinstance(node, Mu):
            return np.zeros(self.shape)
        if isinstance(node, Nu):
            return np.ones(self.shape)
        return np.full(self.shape, float(node.start))

    def solve_fixpoint(self, node, env: dict[str, np.ndarray]) -> np.ndarray:
        detect_divergence = id(node) in self.forced
        cur = self._seed(node)
        var = node.var
        outer = env.get(var)
        outer_live = self._live
        live = self._live = outer_live.copy()
        # last step of each row; rows idle in the enclosing solve read 0
        steps = np.where(live, np.inf, 0.0)
        tol = self.cfg.tolerance
        residual = np.inf
        iterations = 0
        window: deque[float] = deque(maxlen=_DIVERGENCE_WINDOW + 1)
        try:
            for iterations in range(1, self.cfg.max_iterations + 1):
                env[var] = cur
                new = np.clip(self.eval(node.body, env), 0.0, 1.0)
                # A row stops after its own first step within tolerance,
                # where evaluating it alone would stop, and keeps that value.
                step = np.abs(new - cur).max(axis=-1)
                cur = np.where(live[..., None], new, cur)
                steps = np.where(live, step, steps)
                live &= step > tol
                residual = float(steps.max())
                if residual <= tol:
                    break
                if detect_divergence:
                    window.append(residual)
                    if (len(window) == _DIVERGENCE_WINDOW + 1
                            and all(b >= a for a, b in zip(window, list(window)[1:]))):
                        raise DivergenceError(
                            f"fix({node.start}) iteration for {var!r} shows "
                            f"non-decreasing residual over {_DIVERGENCE_WINDOW} "
                            "iterates")
        finally:
            self._live = outer_live
            if outer is None:
                env.pop(var, None)
            else:
                env[var] = outer
        converged = residual <= tol
        prev = self.stats.get(var)
        self.stats[var] = FixpointStats(
            binder=var,
            iterations=iterations,
            residual=residual,
            converged=converged and (prev.converged if prev else True),
            solves=(prev.solves if prev else 0) + 1,
        )
        return cur


def _check_entry(phi: Node, model: Model, fix_policy: str) -> frozenset[int]:
    """Raise every entry error before the first product, in this order.

    A free variable, a set modality, an unbound symbol (the first in
    preorder), any ``fix(x)`` under ``"reject"`` and a ``fix(x)`` body with
    min/max choice unless ``"force"``.  Returns the ids of the ``fix(x)``
    binders with choice in their bodies.
    """
    free = free_variables(phi)
    if free:
        raise UnresolvedSymbolError("variable", sorted(free)[0])
    if not is_reduced(phi):
        raise EvaluationError("formula contains set modalities; reduce it first")
    missing = unbound_symbol(phi, model.valuation)
    if missing is not None:
        raise UnresolvedSymbolError(*missing)
    fixes = [node for node in subformulae(phi) if isinstance(node, Fix)]
    if fixes and fix_policy == "reject":
        raise FixNotSupportedError(
            "formula contains fix(x) binders; only evaluate_fix covers them")
    forced = [node for node in fixes if not junction_free(node.body)]
    if forced and fix_policy != "force":
        raise NondeterministicFixBodyError(
            f"fix body of {forced[0].var!r} contains min/max choice; "
            "pass force=True to iterate anyway")
    return frozenset(map(id, forced))


def _run(phi: Node, model: Model, cfg: EvalConfig | None, fix_policy: str,
         choose=_pointwise, batch: int | None = None) -> EvalReport:
    forced = _check_entry(phi, model, fix_policy)
    engine = _Engine(model, cfg or EvalConfig(), choose, batch, forced)
    result = np.clip(np.broadcast_to(engine.eval(phi, {}), engine.shape), 0.0, 1.0)
    result.setflags(write=False)
    converged = all(st.converged for st in engine.stats.values())
    return EvalReport(result=result, fixpoints=dict(engine.stats), converged=converged)


def evaluate(phi: Node, model: Model, cfg: EvalConfig | None = None) -> EvalReport:
    """Evaluate a closed, reduced formula without fix(x) binders."""
    return _run(phi, model, cfg, "reject")


def evaluate_fix(phi: Node, model: Model, cfg: EvalConfig | None = None,
                 force: bool = False) -> EvalReport:
    """Evaluate a formula that may contain intermediate fixed points.

    Each ``fix(x)`` is the limit of repeated body application starting from
    the constant-x expectation.  Bodies containing min/max choice are
    rejected unless ``force`` is set, in which case iteration proceeds under
    an oscillation detector that raises :class:`DivergenceError`.
    """
    return _run(phi, model, cfg, "force" if force else "pure")


def converged_walk(phi: Node, model: Model, cfg: EvalConfig | None,
                   on_junction) -> EvalReport:
    """Evaluate like :func:`evaluate`, reporting every junction visit.

    ``on_junction(node, left, right)`` is called at each min/max node every
    time it is evaluated, with the operand expectations seen there.  The
    last call at a site carries the operands of the final iteration of
    every enclosing binder, i.e. those in the converged environment up to
    iteration tolerance.
    """
    def choose(node, left, right):
        on_junction(node, left, right)
        return _pointwise(node, left, right)

    return _run(phi, model, cfg, "reject", choose)


def evaluate_batch(phi: Node, model: Model, min_masks: np.ndarray,
                   max_masks: np.ndarray, cfg: EvalConfig | None = None) -> EvalReport:
    """Evaluate under a batch of memoriless strategy pairs in one pass.

    ``min_masks`` has shape ``(min sites, B, n)`` and ``max_masks`` shape
    ``(max sites, B, n)``: ``min_masks[site, b]`` is pair ``b``'s choice at
    that min site, true where it takes the left 'junct.  The result has
    shape ``(B, n)``.  Each row iterates every binder with its own stopping
    test, so row ``b`` is bit-identical to evaluating the formula with pair
    ``b``'s choices alone.  The report's ``converged`` holds only if every
    row converged.
    """
    min_masks = np.asarray(min_masks, dtype=bool)
    max_masks = np.asarray(max_masks, dtype=bool)
    mins, maxs = choice_sites(phi)
    n = model.space.size
    batch = min_masks.shape[1] if min_masks.ndim == 3 else 0
    if (batch < 1 or min_masks.shape != (mins, batch, n)
            or max_masks.shape != (maxs, batch, n)):
        raise ValueError(
            f"masks of shapes {min_masks.shape} and {max_masks.shape} do not fit "
            f"{mins} min and {maxs} max sites over {n} states")
    return _run(phi, model, cfg, "reject", _masked(min_masks, max_masks), batch)


def _strategy_masks(phi: Node, model: Model, sigma: PathStrategy | None,
                    kind: str) -> list | None:
    if sigma is None:
        return None
    mins, maxs = choice_sites(phi)
    count = mins if kind == "min" else maxs
    n = model.space.size
    return [np.array([bool(sigma.decide(site, (), s)) for s in range(n)])
            for site in range(count)]


def evaluate_with_strategies(
    phi: Node,
    model: Model,
    sigma_min: PathStrategy | None,
    sigma_max: PathStrategy | None,
    cfg: EvalConfig | None = None,
    depth: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Strategy-extended semantics, as a (lower, upper) pair of expectations.

    A ``None`` strategy leaves that player's junctions adversarial (true
    min/max).  With memoriless (or absent) strategies on both sides the
    junctions collapse to per-state selections and the specialised system is
    solved by fixpoint iteration; lower and upper coincide.  Otherwise the
    formula is unfolded: each binder may be re-entered at most ``depth``
    times per binding, and a truncated ``mu`` (``nu``) contributes 0 (1).
    A memoriless evaluation that hits ``max_iterations`` raises
    :class:`NotConvergedError`.
    """
    if ((sigma_min is None or sigma_min.memoriless)
            and (sigma_max is None or sigma_max.memoriless)):
        report = _run(phi, model, cfg, "reject",
                      _masked(_strategy_masks(phi, model, sigma_min, "min"),
                              _strategy_masks(phi, model, sigma_max, "max")))
        if not report.converged:
            raise NotConvergedError("strategy evaluation did not converge")
        return report.result.copy(), report.result.copy()
    _check_entry(phi, model, "reject")
    if depth is None:
        raise TypeError("history-dependent strategies require an unfolding depth")
    if depth < 0:
        raise ValueError("depth must be non-negative")
    n = model.space.size
    values = np.empty(n)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 100_000))
    try:
        for s0 in range(n):
            values[s0] = _unfold(phi, model, s0, sigma_min, sigma_max, depth)
    finally:
        sys.setrecursionlimit(limit)
    values = np.clip(values, 0.0, 1.0)
    return values.copy(), values.copy()


def _unfold(phi: Node, model: Model, s0: int, sigma_min: PathStrategy | None,
            sigma_max: PathStrategy | None, depth: int) -> float:
    """Depth-bounded unfolding of the path/strategy-extended semantics.

    The path built here mirrors the game's position sequence exactly (binder
    positions are followed by a binder-name position), so history-dependent
    strategies see the same histories in both interpretations.
    """
    v = model.valuation
    view: list = []

    def go(node: Node, s: int, budgets: dict[str, int],
           defaults: dict[str, float], bodies: dict[str, Node]) -> float:
        view.append((node, s))
        try:
            if isinstance(node, Const):
                return float(v.expectations[node.name][s])
            if isinstance(node, Var):
                remaining = budgets[node.name]
                if remaining == 0:
                    return defaults[node.name]
                inner = dict(budgets)
                inner[node.name] = remaining - 1
                # the variable position itself is what strategies see
                view[-1] = (node.name, s)
                return go(bodies[node.name], s, inner, defaults, bodies)
            if isinstance(node, Modal):
                t = v.transitions[node.transition]
                total = t.payoff_weights[s]
                for target, prob in t.successors[s]:
                    total += prob * go(node.body, target, budgets, defaults, bodies)
                return total
            if isinstance(node, MaxJ):
                if sigma_max is None:
                    return max(go(node.left, s, budgets, defaults, bodies),
                               go(node.right, s, budgets, defaults, bodies))
                take_left = sigma_max.decide(node.site, view, s)
                return go(node.left if take_left else node.right,
                          s, budgets, defaults, bodies)
            if isinstance(node, MinJ):
                if sigma_min is None:
                    return min(go(node.left, s, budgets, defaults, bodies),
                               go(node.right, s, budgets, defaults, bodies))
                take_left = sigma_min.decide(node.site, view, s)
                return go(node.left if take_left else node.right,
                          s, budgets, defaults, bodies)
            if isinstance(node, Cond):
                branch = (node.then_branch if v.predicates[node.predicate][s]
                          else node.else_branch)
                return go(branch, s, budgets, defaults, bodies)
            if isinstance(node, (Mu, Nu)):
                default = 0.0 if isinstance(node, Mu) else 1.0
                inner_defaults = dict(defaults)
                inner_defaults[node.var] = default
                inner_bodies = dict(bodies)
                inner_bodies[node.var] = node.body
                if depth == 0:
                    view.append((node.var, s))
                    try:
                        return default
                    finally:
                        view.pop()
                inner = dict(budgets)
                inner[node.var] = depth - 1
                # game semantics inserts a re-entry position after binding
                view.append((node.var, s))
                try:
                    return go(node.body, s, inner, inner_defaults, inner_bodies)
                finally:
                    view.pop()
            raise EvaluationError(f"cannot unfold node {node!r}")
        finally:
            view.pop()

    return min(1.0, max(0.0, go(phi, s0, {}, {}, {})))
