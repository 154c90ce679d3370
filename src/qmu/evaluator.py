"""Denotational evaluation by nested fixed-point iteration.

A formula denotes an expectation computed pointwise over the state space:
constants and variables look up vectors, a modality is the pre-expectation of
its body, junctions are pointwise min/max, and the binders are solved by
plain Kleene iteration from their canonical seeds (all-zero for ``mu``,
all-one for ``nu``, the constant ``x`` for ``fix(x)``).  Nested fixpoints are
re-solved from their seeds on every outer iterate, which keeps alternation
correct.  Each evaluation first compiles the formula into a flat plan of
vector steps, without recursion; a subformula that does not mention a
binder's variable is computed once per iterate of the binders around it,
before that binder's loop, instead of on every iterate of the loop.

A support pass first finds the states where a closed binder containing a
``nu`` is exactly 0, which Kleene iteration from 1 only approaches, and its
loop holds them at 0.  Where the binder's modalities name one transition and
its variables are guarded, play leaves the transient states with probability
one, so there a ``nu`` is a ``mu`` (de Alfaro 1997; Baier and Katoen 2008,
ch. 10); elsewhere it keeps its finite-stage support.

The strategy-extended semantics resolves junctions by consulting a pair of
strategy functions instead of taking min/max: the plan applies a memoriless
strategy's choice masks at the junctions, otherwise the formula is unfolded
to a bounded depth with truncated fixpoints contributing their binder's
default (0 for ``mu``, 1 for ``nu``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .core import Model, pre_expectation_all, pre_support
from .formula import (
    Cond, Const, Entry, EvaluationError, Fix, FixNotSupportedError, MaxJ, MinJ,
    Modal, Mu, NondeterministicFixBodyError, Node, Nu, UnresolvedSymbolError,
    Var, check_entry, rebuild,
)

__all__ = [
    "DivergenceError", "EvalConfig", "EvalReport", "EvaluationError",
    "FixNotSupportedError", "FixpointStats", "NondeterministicFixBodyError",
    "NotConvergedError", "PathStrategy", "StrategyError",
    "UnresolvedSymbolError", "converged_walk", "evaluate", "evaluate_fix",
    "evaluate_with_strategies",
]


class DivergenceError(EvaluationError):
    """Forced fix(x) iteration showed no sign of converging."""


class NotConvergedError(EvaluationError):
    """An operation that needs a converged value did not get one."""


class StrategyError(ValueError):
    """A strategy does not fit the formula or model it is applied to."""


#: Window length for the forced-fix oscillation detector: iteration aborts
#: when this many residuals in a row have not fallen below the one before.
_DIVERGENCE_WINDOW = 50


@dataclass(frozen=True)
class EvalConfig:
    """Iteration control: sup-norm threshold and per-fixpoint cap."""

    tolerance: float = 1e-9
    max_iterations: int = 1_000_000

    def __post_init__(self):
        if not 0.0 < self.tolerance < 1.0:
            raise ValueError("tolerance must lie strictly between 0 and 1")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


@dataclass(frozen=True)
class FixpointStats:
    """Iteration record for one binder.

    ``iterations`` and ``residual`` are those of its most recent solve,
    ``solves`` counts its solves and ``total_iterations`` sums the
    iterations of all of them; ``converged`` holds only if every solve
    converged.  ``decided`` counts the states the support pass fixed at 0
    for the binder: 0 unless it is closed and contains a ``nu``.
    """

    binder: str
    iterations: int
    residual: float
    converged: bool
    solves: int
    total_iterations: int
    decided: int = 0


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
    ``tables`` holds the per-site, per-state choices of a strategy made by
    :meth:`from_choices`, which :meth:`choice_masks` checks.
    """

    decide: Callable[[int, Sequence, int], bool]
    memoriless: bool = False
    tables: tuple[np.ndarray, ...] | None = field(default=None, compare=False)

    @staticmethod
    def from_choices(choices: Sequence) -> "PathStrategy":
        """Per-site, per-state boolean tables; ignores history."""
        tables = tuple(np.asarray(c, dtype=bool) for c in choices)
        return PathStrategy(
            decide=lambda site, path, s: bool(tables[site][s]),
            memoriless=True,
            tables=tables,
        )

    def choice_masks(self, side: str, n_sites: int, n_states: int) -> np.ndarray | None:
        """Raise :class:`StrategyError` unless there is one table per site
        and every table is a vector with one entry per state; return the
        ``side`` player's ``(n_sites, n_states)`` boolean masks, from its
        :attr:`tables` or else ``decide(site, (), s)``, or ``None`` for a
        history-dependent strategy."""
        tables = self.tables
        if tables is not None and len(tables) != n_sites:
            raise StrategyError(f"{side} strategy has {len(tables)} site tables, "
                                f"formula has {n_sites} {side} sites")
        for site, table in enumerate(tables or ()):
            shape = np.shape(table)
            if shape != (n_states,):
                size = f"{shape[0]} entries" if len(shape) == 1 else f"shape {shape}"
                raise StrategyError(f"{side} strategy table for site {site} has "
                                    f"{size}, model has {n_states} states")
        if not self.memoriless:
            return None
        if tables is None:
            tables = [[self.decide(site, (), s) for s in range(n_states)]
                      for site in range(n_sites)]
        return np.array(tables, dtype=bool).reshape(n_sites, n_states)

    @staticmethod
    def constant(left: bool) -> "PathStrategy":
        return PathStrategy(decide=lambda site, path, s: left, memoriless=True)


class _Masked:
    """Junction rule taking the left 'junct where a site's mask holds.

    A side whose masks are ``None`` stays adversarial: max at a max site,
    min at a min site.
    """

    def __init__(self, min_masks, max_masks):
        self.min_masks = min_masks
        self.max_masks = max_masks

    def __call__(self, node, left, right):
        is_max = type(node) is MaxJ
        masks = self.max_masks if is_max else self.min_masks
        if masks is not None:
            return np.where(masks[node.site], left, right)
        return np.maximum(left, right) if is_max else np.minimum(left, right)


#: The adversarial junction rule.
_pointwise = _Masked(None, None)


#: Plan step kinds.  A step is a tuple whose first item is its kind; loops
#: are bracketed by an ``_ENTER`` and a ``_TEST`` step that share a
#: :class:`_Loop`.
_PRODUCT, _JUNCTION, _COND, _ENTER, _TEST = range(5)

#: What a subformula contains, as bits: a ``nu``, a ``fix(x)``, a binder
#: whose variable occurs in its body outside every modality.
_HAS_NU, _HAS_FIX, _UNGUARDED = 1, 2, 4
_NONE: frozenset = frozenset()


@dataclass(frozen=True, eq=False)
class _Loop:
    """One binder's loop: where its iterate lives and how it stops.

    ``register`` holds the iterate and ``body`` the register of the body's
    value.  ``length`` counts the body steps between the loop's
    ``_ENTER`` and ``_TEST``, so the test jumps back by that much.
    ``decides`` marks a closed binder containing a ``nu`` and no ``fix``,
    whose zeros the support pass decides; ``bottom`` holds the closed bottom
    states of its one transition when the transient rule holds for it.
    """

    var: str
    register: int
    body: int
    seed: float
    forced: bool
    length: int
    decides: bool
    bottom: np.ndarray | None


class _Plan:
    """A formula compiled, once per evaluation, into a flat list of steps.

    Each constant, binder, modality, junction and conditional has a register
    of its own.  Constants are loaded into theirs at compile time and a
    variable reads its binder's, so only the other three and binders become
    steps; a binder's register holds its iterate.  A step goes into the loop
    of the innermost binder whose variable occurs free in it, and before
    every inner loop it sits in, so a binder's loop runs only the steps that
    depend on its variable; a step with no free variable runs once, before
    every loop.  The compile is one :func:`~qmu.formula.rebuild` fold:
    entering a binder opens its scope, register and loop block, and leaving
    a node returns its operand record.

    The formula is one :func:`~qmu.formula.check_entry` accepted, so every
    name it looks up is bound and sized to the model.  ``forced`` holds the
    ids of the ``fix(x)`` binders iterated under the divergence detector.
    """

    def __init__(self, phi: Node, model: Model, forced: frozenset[int]):
        v = model.valuation
        self.n = model.space.size
        self.registers: list = []
        consts: dict[str, int] = {}
        blocks: list[list] = [[]]  # blocks[d + 1]: the loop body at depth d
        # name -> the (depth, register) of each binder of it around the walk
        scope: dict[str, list[tuple[int, int]]] = {}
        binders: list[str] = []

        def enter(node: Node) -> None:
            if isinstance(node, (Mu, Nu, Fix)):
                scope.setdefault(node.var, []).append((len(blocks) - 1,
                                                       self._register()))
                blocks.append([])

        # an operand record: (register, free depths as bits, depths occurring
        # outside every modality, transitions, kinds)
        def leave(node: Node, operands) -> tuple:
            if isinstance(node, Var):
                depth, register = scope[node.name][-1]
                return (register, 1 << depth, 1 << depth, _NONE, 0)
            if isinstance(node, Const):
                if node.name not in consts:
                    consts[node.name] = self._register(v.expectations[node.name])
                return (consts[node.name], 0, 0, _NONE, 0)
            free = unguarded = kinds = 0
            names = _NONE
            for _, bits, loose, used, found in operands:
                free |= bits
                unguarded |= loose
                names |= used
                kinds |= found
            regs = [operand[0] for operand in operands]
            if isinstance(node, (Mu, Nu, Fix)):
                depth, register = scope[node.var].pop()
                body = blocks.pop()
                own = 1 << depth
                free &= ~own
                kinds |= ((_HAS_NU if isinstance(node, Nu) else 0)
                          | (_HAS_FIX if isinstance(node, Fix) else 0)
                          | (_UNGUARDED if unguarded & own else 0))
                unguarded &= ~own
                seed = (0.0 if isinstance(node, Mu) else 1.0
                        if isinstance(node, Nu) else float(node.start))
                decides = free == 0 and kinds & (_HAS_NU | _HAS_FIX) == _HAS_NU
                bottom = (v.transitions[next(iter(names))]._recurrent
                          if decides and len(names) == 1
                          and not kinds & _UNGUARDED else None)
                loop = _Loop(node.var, register, regs[0], seed,
                             id(node) in forced, len(body), decides, bottom)
                steps = [(_ENTER, loop), *body, (_TEST, loop)]
                binders.append(node.var)
            else:
                register = self._register()
                if isinstance(node, Modal):
                    unguarded = 0
                    names |= {node.transition}
                    steps = [(_PRODUCT, register, v.transitions[node.transition],
                              regs[0])]
                elif isinstance(node, Cond):
                    steps = [(_COND, register, v.predicates[node.predicate], *regs)]
                else:
                    steps = [(_JUNCTION, register, node, *regs)]
            blocks[free.bit_length()].extend(steps)
            return (register, free, unguarded, names, kinds)

        self.out = rebuild(phi, leave, enter)[0]
        self.steps = blocks[0]
        # each binder's first solve ends in postorder when nothing is hoisted
        self.binders = tuple(dict.fromkeys(binders))

    def _register(self, value=None) -> int:
        self.registers.append(value)
        return len(self.registers) - 1

    def execute(self, regs: list, product, choose, enter, test) -> None:
        """Run the steps on ``regs``: ``product(t, post)`` at a modality,
        ``choose(node, left, right)`` at a junction.  A loop starts from the
        seed that ``enter(loop, outer)`` returns with its frame, ``outer``
        being the frame around it or ``None``; after each pass over its body,
        ``test(loop, frame, body, old)`` returns the new iterate and whether
        to pass again.  A register keeps its last value until the run ends.
        """
        steps = self.steps
        frames: list = []
        pc = 0
        while pc < len(steps):
            step = steps[pc]
            kind = step[0]
            if kind == _PRODUCT:
                regs[step[1]] = product(step[2], regs[step[3]])
            elif kind == _ENTER:
                loop = step[1]
                regs[loop.register], frame = enter(loop, frames[-1] if frames else None)
                frames.append(frame)
            elif kind == _TEST:
                loop = step[1]
                regs[loop.register], again = test(loop, frames[-1], regs[loop.body],
                                                  regs[loop.register])
                if again:
                    pc -= loop.length
                    continue
                frames.pop()
            else:
                regs[step[1]] = (choose(step[2], regs[step[3]], regs[step[4]])
                                 if kind == _JUNCTION else
                                 np.where(step[2], regs[step[3]], regs[step[4]]))
            pc += 1

    def decide(self, choose) -> dict[_Loop, np.ndarray]:
        """The support pass: the deciding loops whose binder is exactly 0
        somewhere, with those states.  The steps run on 0/1 vectors, products
        by :func:`~qmu.core.pre_support`, each loop from its seed's support
        until nothing changes.  Under a closed binder with a ``bottom``, a
        ``nu`` first iterates down from 1 on those states, which read only
        each other, the rest held at 0; then, those frozen, it iterates the
        rest up from 0, as a ``mu``."""
        if not any(step[0] == _ENTER and step[1].decides for step in self.steps):
            return {}
        zeros: dict[_Loop, np.ndarray] = {}

        # a frame: the closed bottom states, if the transient rule holds,
        # and whether a nu is still solving them
        def enter(loop, outer):
            # only a closed binder's loop runs outside every other loop
            bottom = loop.bottom if outer is None else outer[0]
            # no fix(1) runs under a bottom, so a seed of 1 is a nu's
            first = bottom is not None and loop.seed == 1.0
            return (bottom.astype(np.float64) if first else
                    np.full(self.n, float(loop.seed > 0.0))), [bottom, first]

        def test(loop, frame, body, old):
            bottom, first = frame
            new = np.where(bottom, body, 0.0) if first else body
            same = np.array_equal(new, old)
            if first or not same:
                # once the bottom states stop, the rest iterate upward
                frame[1] = first and not same
                return new, True
            if loop.decides and not new.all():
                zeros[loop] = new == 0.0
            return new, False

        self.execute([None if r is None else (r > 0.0).astype(np.float64)
                      for r in self.registers], pre_support, choose, enter, test)
        return zeros

    def run(self, cfg: EvalConfig, choose,
            zeros: dict[_Loop, np.ndarray]) -> EvalReport:
        """The value pass: Kleene iteration with junction rule ``choose``.
        A loop in ``zeros`` is seeded with 0 at the states its mask holds and
        reset to 0 there after every step."""
        tol = cfg.tolerance
        stats: dict[str, FixpointStats] = {}

        # a frame: the iteration count, a forced fix(x)'s last residual and run
        # of residuals that did not fall, and the states the pass fixed at 0
        def enter(loop, outer):
            decided = zeros.get(loop)
            return (np.full(self.n, loop.seed) if decided is None
                    else np.where(decided, 0.0, loop.seed)), [0, np.inf, 0, decided]

        def test(loop, frame, body, old):
            iterations, last, run, decided = frame
            new = body.clip(0.0, 1.0)
            if decided is not None:
                new[decided] = 0.0
            # a NaN step stops the loop at once
            step = new - old
            residual = float(np.abs(step, out=step).max())
            frame[0] = iterations = iterations + 1
            if residual > tol:
                if loop.forced:
                    run = run + 1 if residual >= last else 0
                    frame[1:3] = residual, run
                    if run == _DIVERGENCE_WINDOW:
                        raise DivergenceError(
                            f"fix({loop.seed}) iteration for {loop.var!r} shows "
                            f"non-decreasing residual over {_DIVERGENCE_WINDOW} iterates")
                if iterations < cfg.max_iterations:
                    return new, True
            prev = stats.get(loop.var) or FixpointStats(loop.var, 0, 0.0, True, 0, 0)
            stats[loop.var] = FixpointStats(
                loop.var, iterations, residual, residual <= tol and prev.converged,
                prev.solves + 1, prev.total_iterations + iterations,
                0 if decided is None else int(np.count_nonzero(decided)))
            return new, False

        regs = list(self.registers)
        self.execute(regs, pre_expectation_all, choose, enter, test)
        result = np.clip(regs[self.out], 0.0, 1.0)
        result.setflags(write=False)
        fixpoints = {var: stats[var] for var in self.binders}
        return EvalReport(result=result, fixpoints=fixpoints,
                          converged=all(st.converged for st in fixpoints.values()))


def _run(phi: Node, model: Model, cfg: EvalConfig | None, entry: Entry,
         choose=_pointwise) -> EvalReport:
    """Compile ``phi``, whose :func:`~qmu.formula.check_entry` record is
    ``entry``, then run both passes with the one junction rule ``choose``."""
    plan = _Plan(phi, model, entry.forced)
    return plan.run(cfg or EvalConfig(), choose, plan.decide(choose))


def evaluate(phi: Node, model: Model, cfg: EvalConfig | None = None) -> EvalReport:
    """Evaluate a closed, reduced formula without fix(x) binders."""
    return _run(phi, model, cfg, check_entry(phi, model, "reject"))


def evaluate_fix(phi: Node, model: Model, cfg: EvalConfig | None = None,
                 force: bool = False) -> EvalReport:
    """Evaluate a formula that may contain intermediate fixed points.

    Each ``fix(x)`` is the limit of repeated body application starting from
    the constant-x expectation.  Bodies containing min/max choice are
    rejected unless ``force`` is set, in which case iteration proceeds under
    an oscillation detector that raises :class:`DivergenceError`.
    """
    return _run(phi, model, cfg, check_entry(phi, model, "force" if force else "pure"))


def converged_walk(phi: Node, model: Model, cfg: EvalConfig | None,
                   on_junction) -> EvalReport:
    """Evaluate like :func:`evaluate`, reporting every junction visit.

    ``on_junction(node, left, right)`` is called at each min/max node every
    time it is evaluated (once per iterate of the binders whose variables
    occur free in it), with the operand expectations seen there: first the
    support pass's 0/1 vectors, then the value pass's.  The last call at a
    site carries the operands of the final iteration of every enclosing
    binder, i.e. those in the converged environment up to iteration
    tolerance.
    """
    def choose(node, left, right):
        on_junction(node, left, right)
        return _pointwise(node, left, right)

    return _run(phi, model, cfg, check_entry(phi, model, "reject"), choose)


def evaluate_with_strategies(
    phi: Node,
    model: Model,
    sigma_min: PathStrategy | None,
    sigma_max: PathStrategy | None,
    cfg: EvalConfig | None = None,
    depth: int | None = None,
) -> np.ndarray:
    """Strategy-extended semantics: the expectation of ``phi`` when each
    player follows its strategy.

    A ``None`` strategy leaves that player's junctions adversarial (true
    min/max).  With memoriless (or absent) strategies on both sides each
    junction takes the operand its site's choice mask selects, and fixpoint
    iteration solves the system.  Otherwise the formula is unfolded: each
    binder may be re-entered at most ``depth`` times per binding, and a
    truncated ``mu`` (``nu``) contributes 0 (1).
    A memoriless evaluation that hits ``max_iterations`` raises
    :class:`NotConvergedError`.  The formula is checked before the tables,
    and a table that does not fit raises :class:`StrategyError`.
    """
    entry = check_entry(phi, model, "reject")
    n = model.space.size
    masks = [None if sigma is None else sigma.choice_masks(side, sites, n)
             for side, sigma, sites in zip(("min", "max"), (sigma_min, sigma_max),
                                           (entry.mins, entry.maxs))]
    if all(sigma is None or sigma.memoriless for sigma in (sigma_min, sigma_max)):
        report = _run(phi, model, cfg, entry, _Masked(*masks))
        if not report.converged:
            raise NotConvergedError("strategy evaluation did not converge")
        return report.result.copy()
    if depth is None:
        raise TypeError("history-dependent strategies require an unfolding depth")
    if depth < 0:
        raise ValueError("depth must be non-negative")
    return np.clip([_unfold(phi, model, s0, sigma_min, sigma_max, depth)
                    for s0 in range(n)], 0.0, 1.0)


def _unfold(phi: Node, model: Model, s0: int, sigma_min: PathStrategy | None,
            sigma_max: PathStrategy | None, depth: int) -> float:
    """Depth-bounded unfolding of the path/strategy-extended semantics.

    The path built here mirrors the game's position sequence exactly (binder
    positions are followed by a binder-name position), so history-dependent
    strategies see the same histories in both interpretations.  The walk
    runs on an explicit stack whose entries cut the view back to its length
    when they were pushed; a position with one successor is followed at once.
    """
    v = model.valuation
    view: list = []
    values: list[float] = []
    # (node, state, scope: variable -> (re-entries left, default, body), view
    # length), or, to combine the values above ``values[base]``, (None,
    # weight, probabilities, base) for a modality, in edge order, or (None,
    # max or min, None, base)
    stack: list[tuple] = [(phi, s0, {}, 0)]
    while stack:
        node, s, scope, mark = stack.pop()
        if node is None:
            if scope is None:
                values[mark:] = [s(*values[mark:])]
            else:
                total = s
                for prob, value in zip(scope, values[mark:]):
                    total += prob * value
                values[mark:] = [total]
            continue
        del view[mark:]
        while True:
            view.append((node, s))
            kind = type(node)
            if kind is Modal:
                t = v.transitions[node.transition]
                targets, probs = t.row(s)
                stack.append((None, t.weights.item(s), probs, len(values)))
                mark = len(view)
                body = node.body
                stack.extend([(body, target, scope, mark)
                              for target in reversed(targets)])
                break
            if kind is Var:
                remaining, default, body = scope[node.name]
                if remaining == 0:
                    values.append(default)
                    break
                scope = {**scope, node.name: (remaining - 1, default, body)}
                # the variable position itself is what strategies see
                view[-1] = (node.name, s)
                node = body
            elif kind is Const:
                values.append(float(v.expectations[node.name][s]))
                break
            elif kind is MaxJ or kind is MinJ:
                sigma = sigma_max if kind is MaxJ else sigma_min
                if sigma is None:
                    mark = len(view)
                    pick = max if kind is MaxJ else min
                    stack += [(None, pick, None, len(values)),
                              (node.right, s, scope, mark),
                              (node.left, s, scope, mark)]
                    break
                node = node.left if sigma.decide(node.site, view, s) else node.right
            elif kind is Cond:
                node = (node.then_branch if v.predicates[node.predicate][s]
                        else node.else_branch)
            else:  # Mu or Nu
                default = 0.0 if kind is Mu else 1.0
                if depth == 0:
                    values.append(default)
                    break
                scope = {**scope, node.var: (depth - 1, default, node.body)}
                # game semantics inserts a re-entry position after binding
                view.append((node.var, s))
                node = node.body
    return min(1.0, max(0.0, values[0]))
