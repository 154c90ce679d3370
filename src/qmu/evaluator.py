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

The strategy-extended semantics resolves junctions by consulting a pair of
strategy functions instead of taking min/max: the plan applies a memoriless
strategy's choice masks at the junctions, otherwise the formula is unfolded
to a bounded depth with truncated fixpoints contributing their binder's
default (0 for ``mu``, 1 for ``nu``).  :func:`evaluate_batch` solves many
memoriless strategy pairs at once, one row of a ``(B, n)`` expectation per
pair, each row with its own stopping test.  A row leaves its loop at the
iterate where it stops and keeps that value; its last step still counts
towards the loop's reported residual, that of its slowest row.
"""

from __future__ import annotations

import sys
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .core import Model, pre_expectation_all
from .formula import (
    Cond, Const, EvaluationError, Fix, FixNotSupportedError, MaxJ, MinJ, Modal,
    Mu, NondeterministicFixBodyError, Node, Nu, UnresolvedSymbolError, Var,
    check_entry, children, choice_sites,
)

__all__ = [
    "DivergenceError", "EvalConfig", "EvalReport", "EvaluationError",
    "FixNotSupportedError", "FixpointStats", "NondeterministicFixBodyError",
    "NotConvergedError", "PathStrategy", "UnresolvedSymbolError",
    "converged_walk", "evaluate", "evaluate_batch", "evaluate_fix",
    "evaluate_with_strategies",
]


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
    converged.  In a batched evaluation ``iterations`` and ``residual`` are
    those of the slowest row, rows that left their loop at the iterate
    where they stopped included, and ``converged`` holds only if every row
    converged.
    """

    binder: str
    iterations: int
    residual: float
    converged: bool
    solves: int
    total_iterations: int


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
    :meth:`from_choices`, for :meth:`check_tables`.
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

    def check_tables(self, side: str, n_sites: int, n_states: int,
                     error: type) -> None:
        """Raise ``error`` unless there is one table per site and every
        table is a vector with one entry per state."""
        if self.tables is not None and len(self.tables) != n_sites:
            raise error(f"{side} strategy has {len(self.tables)} site tables, "
                        f"formula has {n_sites} {side} sites")
        for site, table in enumerate(self.tables or ()):
            shape = np.shape(table)
            if shape != (n_states,):
                size = f"{shape[0]} entries" if len(shape) == 1 else f"shape {shape}"
                raise error(f"{side} strategy table for site {site} has "
                            f"{size}, model has {n_states} states")

    def choice_masks(self, n_sites: int, n_states: int) -> np.ndarray:
        """The choices of a memoriless strategy as an ``(n_sites, n_states)``
        boolean table: its :attr:`tables`, else ``decide(site, (), s)``."""
        if self.tables is not None:
            choices = self.tables
        else:
            choices = [[self.decide(site, (), s) for s in range(n_states)]
                       for site in range(n_sites)]
        return np.array(choices, dtype=bool).reshape(n_sites, n_states)

    @staticmethod
    def constant(left: bool) -> "PathStrategy":
        return PathStrategy(decide=lambda site, path, s: left, memoriless=True)


def _pointwise(node: Node, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """The adversarial junction rule: max at a max site, min at a min site."""
    if isinstance(node, MaxJ):
        return np.maximum(left, right)
    return np.minimum(left, right)


class _Masked:
    """Junction rule taking the left 'junct where a site's mask holds.

    A side whose masks are ``None`` stays adversarial.  Batched masks have
    shape ``(sites, B, n)``; :meth:`narrow` keeps some of the ``B`` rows.
    """

    def __init__(self, min_masks, max_masks):
        self.min_masks = min_masks
        self.max_masks = max_masks

    def __call__(self, node, left, right):
        masks = self.max_masks if isinstance(node, MaxJ) else self.min_masks
        if masks is None:
            return _pointwise(node, left, right)
        return np.where(masks[node.site], left, right)

    def narrow(self, rows: np.ndarray) -> "_Masked":
        return _Masked(*(None if masks is None else masks[:, rows]
                         for masks in (self.min_masks, self.max_masks)))


#: Plan step kinds.  A step is a tuple whose first item is its kind; loops
#: are bracketed by an ``_ENTER`` and a ``_TEST`` step that share a
#: :class:`_Loop`.
_PRODUCT, _JUNCTION, _COND, _ENTER, _TEST = range(5)


@dataclass(frozen=True, eq=False)
class _Loop:
    """One binder's loop: where its iterate lives and how it stops.

    ``drop_body`` says that the test is the only reader of the body's
    register.  ``length`` counts the body steps between the loop's
    ``_ENTER`` and ``_TEST``, so the test jumps back by that much.
    ``reads`` holds the registers, other than constants and the loop's own,
    that its body (inner loops included) or its test reads but does not
    write: those a batched loop narrows with its rows.
    """

    var: str
    register: int
    body: int
    drop_body: bool
    seed: float
    forced: bool
    length: int
    reads: tuple[int, ...]


class _Frame:
    """A running loop: the width it was entered with, the iteration count
    and, for a forced ``fix(x)``, its residual window.

    Once rows have left it, ``rows`` maps its rows to those it was entered
    with, ``full`` holds the iterate at that width, ``saved`` the registers
    and ``choose`` the junction rule it narrowed, and ``stopped`` the
    largest last step of the rows that left.
    """

    def __init__(self, width: tuple, window: deque | None):
        self.width = width
        self.iterations = 0
        self.window = window
        self.rows: np.ndarray | None = None
        self.full = None
        self.saved: list = []
        self.choose = None
        self.stopped = -np.inf

    def narrow(self, loop: _Loop, regs: list, change: np.ndarray,
               going: np.ndarray, choose):
        """Go on with the rows still going; returns their junction rule."""
        keep = np.flatnonzero(going)
        cur = regs[loop.register]
        if self.rows is None:
            self.rows, self.full, self.choose = keep, cur, choose
            self.saved = [(r, regs[r]) for r in loop.reads if np.ndim(regs[r]) > 1]
        else:
            self.full[self.rows] = cur
            self.rows = self.rows[keep]
        self.stopped = float(np.max(change[~going], initial=self.stopped))
        regs[loop.register] = cur[keep]
        for r, _ in self.saved:
            regs[r] = regs[r][keep]
        return choose.narrow(keep)

    def widen(self, loop: _Loop, regs: list, choose):
        """Scatter the iterate back to the width the loop was entered with
        and restore what it narrowed; returns the junction rule."""
        if self.rows is None:
            return choose
        self.full[self.rows] = regs[loop.register]
        regs[loop.register] = self.full
        for r, value in self.saved:
            regs[r] = value
        return self.choose


class _Plan:
    """A formula compiled, once per evaluation, into a flat list of steps.

    Every subformula gets a register.  Constants are loaded into theirs at
    compile time and a variable reads its binder's, so only modalities,
    junctions, conditionals and binders become steps.  A step goes into the
    loop of the innermost binder whose variable occurs free in it, and
    before every inner loop it sits in, so a binder's loop runs only the
    steps that depend on its variable; a step with no free variable runs
    once, before every loop.  A step's result (a binder's once its loop has
    ended) has one reader, its parent; when both sit in the same loop the
    parent writes its own result over it or drops it, so a loop holds about
    as many vectors at once as a tree walk would.

    The formula is one :func:`~qmu.formula.check_entry` accepted, so every
    name it looks up is bound.  ``forced`` holds the ids of the ``fix(x)``
    binders iterated under the divergence detector.
    """

    def __init__(self, phi: Node, model: Model, forced: frozenset[int]):
        v = model.valuation
        self.n = model.space.size
        self.registers: list = []
        consts: dict[str, int] = {}
        blocks: list[list] = [[]]  # blocks[d + 1]: the loop body at depth d
        scope: dict[str, tuple[int, int]] = {}  # name -> (depth, register)
        # (register, free depths as bits, whether it holds a step's result:
        # not a constant or a variable, so its parent is its one reader)
        done: list[tuple[int, int, bool]] = []
        binders: list[str] = []
        todo: list = [(phi, None)]
        while todo:
            node, entered = todo.pop()
            if isinstance(node, Var):
                depth, register = scope[node.name]
                done.append((register, 1 << depth, False))
                continue
            if isinstance(node, Const):
                if node.name not in consts:
                    consts[node.name] = self._register(v.expectations[node.name])
                done.append((consts[node.name], 0, False))
                continue
            kids = children(node)
            if entered is None:
                if isinstance(node, (Mu, Nu, Fix)):
                    entered = (scope.get(node.var), self._register())
                    scope[node.var] = (len(blocks) - 1, entered[1])
                    blocks.append([])
                todo.append((node, entered or ()))
                todo.extend((child, None) for child in reversed(kids))
                continue
            operands = done[len(done) - len(kids):]
            del done[len(done) - len(kids):]
            free = 0
            for _, bits, _ in operands:
                free |= bits
            regs = [register for register, _, _ in operands]
            if isinstance(node, (Mu, Nu, Fix)):
                outer, register = entered
                body = blocks.pop()
                depth = len(blocks) - 1
                free &= ~(1 << depth)
                if outer is None:
                    del scope[node.var]
                else:
                    scope[node.var] = outer
                seed = (0.0 if isinstance(node, Mu) else 1.0
                        if isinstance(node, Nu) else float(node.start))
                # a body step in this loop has no other reader than the test
                _, bits, result = operands[0]
                loop = _Loop(node.var, register, regs[0],
                             result and bool(bits >> depth & 1), seed,
                             id(node) in forced, len(body),
                             self._outside_reads(body, register, regs[0]))
                steps = [(_ENTER, loop), *body, (_TEST, loop)]
                binders.append(node.var)
            else:
                # operand results computed in this block have no other reader
                mine = [register for register, bits, result in operands
                        if result and bits.bit_length() == free.bit_length()]
                register = mine[0] if mine else self._register()
                drop = mine[1] if len(mine) > 1 else None
                if isinstance(node, Modal):
                    steps = [(_PRODUCT, register, v.transitions[node.transition],
                              regs[0])]
                elif isinstance(node, Cond):
                    steps = [(_COND, register, v.predicates[node.predicate],
                              *regs, drop)]
                else:
                    steps = [(_JUNCTION, register, node, *regs, drop)]
            blocks[free.bit_length()].extend(steps)
            done.append((register, free, True))
        (self.out, _, _), = done
        self.steps = blocks[0]
        # each binder's first solve ends in postorder when nothing is hoisted
        self.binders = tuple(dict.fromkeys(binders))

    def _register(self, value=None) -> int:
        self.registers.append(value)
        return len(self.registers) - 1

    def _outside_reads(self, body: list, register: int,
                       result: int) -> tuple[int, ...]:
        """Registers other than constants that a loop reads but does not
        write: those its ``body`` steps read and its test's ``result``,
        the loop's own ``register`` excepted."""
        reads = {result}
        written = {register}
        for step in body:
            if step[0] == _ENTER:
                reads.update(step[1].reads)
                written.add(step[1].register)
            elif step[0] != _TEST:
                # a step's operand registers: one for a product, two otherwise
                reads.update(step[3:5])
                written.add(step[1])
        return tuple(sorted(r for r in reads - written
                            if self.registers[r] is None))

    def run(self, cfg: EvalConfig, choose, batch: int | None) -> EvalReport:
        """Execute the steps with junction rule ``choose``.

        ``choose(node, left, right)`` resolves each min/max node from its
        operand expectations.  With ``batch`` set, every iterate is
        ``(batch, n)``, one row per strategy pair; constants and predicates
        stay ``(n,)`` and broadcast.  Every row of a running loop is still
        iterating: at the iterate where a row stops, the loop goes on without
        it, through ``choose.narrow(rows)``.  Every row's arithmetic is
        elementwise, so a row's values do not depend on the width.
        """
        tol = cfg.tolerance
        regs = list(self.registers)
        steps = self.steps
        # The rows of the innermost running loop, all still iterating: no
        # rows unbatched, a loop starts with its enclosing loop's rows.
        width = () if batch is None else (batch,)
        frames: list[_Frame] = []
        stats: dict[str, FixpointStats] = {}
        pc = 0
        end = len(steps)
        while pc < end:
            step = steps[pc]
            kind = step[0]
            if kind == _PRODUCT:
                regs[step[1]] = pre_expectation_all(step[2], regs[step[3]])
            elif kind == _JUNCTION:
                regs[step[1]] = choose(step[2], regs[step[3]], regs[step[4]])
                if step[5] is not None:
                    regs[step[5]] = None
            elif kind == _COND:
                regs[step[1]] = np.where(step[2], regs[step[3]], regs[step[4]])
                if step[5] is not None:
                    regs[step[5]] = None
            elif kind == _ENTER:
                loop = step[1]
                regs[loop.register] = np.full((*width, self.n), loop.seed)
                window = (deque(maxlen=_DIVERGENCE_WINDOW + 1) if loop.forced
                          else None)
                frames.append(_Frame(width, window))
            else:
                loop = step[1]
                frame = frames[-1]
                new = np.clip(regs[loop.body], 0.0, 1.0)
                if loop.drop_body:
                    regs[loop.body] = None
                # A row stops after its own first step within tolerance,
                # where evaluating it alone would stop, and keeps that value.
                # A NaN step stops the loop at once, so ``frame.stopped``
                # never holds one.
                change = np.abs(new - regs[loop.register]).max(axis=-1)
                regs[loop.register] = new
                frame.iterations += 1
                residual = max(float(change.max()), frame.stopped)
                if residual > tol:
                    window = frame.window
                    if window is not None:
                        window.append(residual)
                        if (len(window) == _DIVERGENCE_WINDOW + 1
                                and all(b >= a for a, b in
                                        zip(window, list(window)[1:]))):
                            raise DivergenceError(
                                f"fix({loop.seed}) iteration for {loop.var!r} "
                                "shows non-decreasing residual over "
                                f"{_DIVERGENCE_WINDOW} iterates")
                    if frame.iterations < cfg.max_iterations:
                        going = change > tol
                        if not going.all():
                            choose = frame.narrow(loop, regs, change, going,
                                                  choose)
                            width = (np.count_nonzero(going),)
                        pc -= loop.length
                        continue
                frames.pop()
                choose = frame.widen(loop, regs, choose)
                width = frame.width
                prev = stats.get(loop.var)
                stats[loop.var] = FixpointStats(
                    binder=loop.var,
                    iterations=frame.iterations,
                    residual=residual,
                    converged=residual <= tol and (prev.converged if prev else True),
                    solves=(prev.solves if prev else 0) + 1,
                    total_iterations=((prev.total_iterations if prev else 0)
                                      + frame.iterations),
                )
            pc += 1
        shape = (self.n,) if batch is None else (batch, self.n)
        result = np.clip(np.broadcast_to(regs[self.out], shape), 0.0, 1.0)
        result.setflags(write=False)
        fixpoints = {var: stats[var] for var in self.binders}
        return EvalReport(result=result, fixpoints=fixpoints,
                          converged=all(st.converged for st in fixpoints.values()))


def _run(phi: Node, model: Model, cfg: EvalConfig | None, fix_policy: str,
         choose=_pointwise, batch: int | None = None) -> EvalReport:
    forced = check_entry(phi, model.valuation, fix_policy)
    return _Plan(phi, model, forced).run(cfg or EvalConfig(), choose, batch)


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
    time it is evaluated (once per iterate of the binders whose variables
    occur free in it), with the operand expectations seen there.  The last
    call at a site carries the operands of the final iteration of every
    enclosing binder, i.e. those in the converged environment up to
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
    ``b``'s choices alone.  A row leaves a loop at the iterate where it
    stops; each binder's ``iterations`` and ``residual`` are still those of
    its slowest row, those that left included.  The report's ``converged``
    holds only if every row converged.
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
    return _run(phi, model, cfg, "reject", _Masked(min_masks, max_masks), batch)


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
    :class:`NotConvergedError`.
    """
    n = model.space.size
    sides = tuple(zip(("min", "max"), (sigma_min, sigma_max), choice_sites(phi)))
    for side, sigma, sites in sides:
        if sigma is not None:
            sigma.check_tables(side, sites, n, EvaluationError)
    if all(sigma is None or sigma.memoriless for _, sigma, _ in sides):
        masks = [None if sigma is None else sigma.choice_masks(sites, n)
                 for _, sigma, sites in sides]
        report = _run(phi, model, cfg, "reject", _Masked(*masks))
        if not report.converged:
            raise NotConvergedError("strategy evaluation did not converge")
        return report.result.copy()
    check_entry(phi, model.valuation, "reject")
    if depth is None:
        raise TypeError("history-dependent strategies require an unfolding depth")
    if depth < 0:
        raise ValueError("depth must be non-negative")
    values = np.empty(n)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 100_000))
    try:
        for s0 in range(n):
            values[s0] = _unfold(phi, model, s0, sigma_min, sigma_max, depth)
    finally:
        sys.setrecursionlimit(limit)
    return np.clip(values, 0.0, 1.0)


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
                total = t.weights.item(s)
                for target, prob in zip(*t.row(s)):
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
