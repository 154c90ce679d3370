"""Operational semantics: playouts of the formula-gambling game.

A play walks positions ``(formula, state)`` until a payoff: constants pay
their value, a modality rolls the transition's distribution (possibly
halting with the residual mass at the transition's payoff), junctions ask
the players' strategies, and a fixpoint binds a fresh colour that re-enters
its body.  A colour revisited more than ``max_depth`` times truncates the
play: the recorded value bracket is then the binder's default, 0 for ``mu``
and 1 for ``nu``, as if the path had continued forever.  A secondary step
budget of ``max_depth`` times the formula's node count catches non-colour
growth, with the uninformative bracket (0, 1).

Every playout runs on one compiled position table: ``play`` plays one path,
asking a history-dependent strategy with the path so far, and ``estimate``
plays many paths under memoriless strategies together, as arrays.
``expand_tree`` computes the same truncated value exactly, by expanding the
whole probabilistic tree and weighting payoffs by path probability.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral
from typing import NamedTuple

import numpy as np

from .core import EPS_REPR, Model
from .evaluator import PathStrategy
from .formula import (
    Cond, Const, Entry, MaxJ, MinJ, Modal, Mu, Node, Nu, Var,
    check_entry, subformulae,
)


class GameError(ValueError):
    """A playout or tree expansion cannot proceed."""


class TreeBudgetError(GameError):
    """Exact tree expansion exceeded its node cap."""


@dataclass(frozen=True)
class PlayoutResult:
    value_low: float
    value_high: float
    terminated: bool
    steps: int
    truncating_colour_kind: str | None  # "mu" | "nu" | None


class EstimateResult(NamedTuple):
    """Means of the playouts' value brackets, with how the playouts ended.

    ``n_truncated`` counts the playouts that ended without a payoff:
    ``truncated_mu`` and ``truncated_nu`` by a colour of that kind past
    ``max_depth`` (bracket (0, 0) or (1, 1)), ``truncated_budget`` by the
    step budget (bracket (0, 1)).  Steps count positions, the payoff
    included, as :attr:`PlayoutResult.steps`.
    """

    mean_low: float
    mean_high: float
    std_error: float
    n_truncated: int
    truncated_mu: int
    truncated_nu: int
    truncated_budget: int
    mean_steps: float
    max_steps: int


def _compile(phi: Node, model: Model, s0: int, sigma_min: PathStrategy,
             sigma_max: PathStrategy, max_depth: int) -> tuple[_Table, int]:
    """Check the playout arguments; return the position table and the
    playout step budget."""
    if max_depth < 1:
        raise GameError("max_depth must be at least 1")
    entry, masks = _check_playable(phi, model, s0, sigma_min, sigma_max)
    return (_Table(phi, model, entry, (sigma_min, sigma_max), masks),
            max_depth * entry.size)


def play(phi: Node, model: Model, s0: int, sigma_min: PathStrategy,
         sigma_max: PathStrategy, max_depth: int, rng) -> PlayoutResult:
    """One playout: a one-path run of a position table compiled per call.
    Sampling uses only the supplied generator."""
    table, budget = _compile(phi, model, s0, sigma_min, sigma_max, max_depth)
    low, high, steps, ending = table.play_block(s0, 1, max_depth, budget, rng)
    how = int(ending[0])
    return PlayoutResult(float(low[0]), float(high[0]), how == _PAYOFF,
                         int(steps[0]), {_MU: "mu", _NU: "nu"}.get(how))


#: Paths that :func:`estimate` plays together, one block after another.  A
#: fixed size keeps the block engine's working memory bounded however many
#: paths are asked for.
BLOCK_PATHS = 8192

# Position rules of the block engine, and how a playout ends.
_BRANCH, _CONST, _MODAL, _BIND, _COLOUR = range(5)
_PAYOFF, _MU, _NU, _BUDGET = range(4)


class _Table:
    """A formula and two strategies compiled into a position table.

    Every subformula object is a position (the root is position 0), and
    every binder has a second one, its colour position, taken right after
    it binds.  A position has a rule, two successor positions ``first`` and
    ``second`` and an ``operand``:

    - ``_BRANCH`` (a junction or a conditional) goes to ``first`` (left,
      then) where row ``operand`` of ``choices`` holds at the state, else to
      ``second``; the rows are the min sites', the max sites' and the
      predicates'.  A history-dependent side's rows are ``asks`` keys
      instead, and its strategy decides each visit;
    - ``_CONST`` pays ``values[operand, s]``;
    - ``_MODAL`` samples transition ``operand`` and goes to ``first``;
    - ``_BIND`` binds variable slot ``operand`` to itself and goes to
      ``first``, its colour position; ``second`` is its body;
    - ``_COLOUR`` (a variable, or a binder's colour position) counts a
      visit to the colour bound to slot ``operand``, then goes to that
      binder's body.

    Each variable name has one slot, which holds the binder that last bound
    the name: the variable's lexical binder, since
    :func:`~qmu.formula.parse` makes binder names unique.  A position's
    ``labels`` entry is what a history-dependent strategy sees of it: the
    subformula, or the binder's name at a colour position.  The table is
    built from :func:`~qmu.formula.subformulae`, without recursion; the site
    counts come from ``entry``, ``phi``'s :func:`~qmu.formula.check_entry`,
    and the memoriless sides' rows from their ``masks``.
    """

    def __init__(self, phi: Node, model: Model, entry: Entry, sigmas: tuple,
                 masks: tuple):
        v = model.valuation
        n = model.space.size
        ids: dict[int, int] = {}
        nodes: list[Node] = []
        for node in subformulae(phi):
            if id(node) not in ids:
                ids[id(node)] = len(nodes)
                nodes.append(node)
        size = len(nodes) + sum(isinstance(node, (Mu, Nu)) for node in nodes)
        self.rule = np.empty(size, np.int8)
        self.first = np.zeros(size, np.intp)
        self.second = np.zeros(size, np.intp)
        self.operand = np.zeros(size, np.intp)
        self.nu = np.zeros(size, bool)
        slots: dict[str, int] = {}
        consts: dict[str, int] = {}
        predicates: dict[str, int] = {}
        transitions: dict[str, int] = {}
        mins, maxs = entry.mins, entry.maxs
        colour = len(nodes)
        for i, node in enumerate(nodes):
            if isinstance(node, Const):
                self.rule[i] = _CONST
                self.operand[i] = consts.setdefault(node.name, len(consts))
            elif isinstance(node, Modal):
                self.rule[i] = _MODAL
                self.operand[i] = transitions.setdefault(node.transition,
                                                         len(transitions))
                self.first[i] = ids[id(node.body)]
            elif isinstance(node, Cond):
                self.rule[i] = _BRANCH
                self.operand[i] = mins + maxs + predicates.setdefault(
                    node.predicate, len(predicates))
                self.first[i] = ids[id(node.then_branch)]
                self.second[i] = ids[id(node.else_branch)]
            elif isinstance(node, (MinJ, MaxJ)):
                self.rule[i] = _BRANCH
                self.operand[i] = node.site + (mins if isinstance(node, MaxJ) else 0)
                self.first[i] = ids[id(node.left)]
                self.second[i] = ids[id(node.right)]
            elif isinstance(node, Var):
                self.rule[i] = _COLOUR
                self.operand[i] = slots.setdefault(node.name, len(slots))
            else:  # Mu or Nu
                slot = slots.setdefault(node.var, len(slots))
                self.rule[i] = _BIND
                self.operand[i] = slot
                self.first[i] = colour
                self.second[i] = ids[id(node.body)]
                self.nu[i] = isinstance(node, Nu)
                self.rule[colour] = _COLOUR
                self.operand[colour] = slot
                colour += 1
        self.labels = ([node.name if isinstance(node, Var) else node for node in nodes]
                       + [node.var for node in nodes if isinstance(node, (Mu, Nu))])
        self.n_slots = len(slots)
        self.n_states = n
        self.values = np.array([v.expectations[name] for name in consts],
                               dtype=np.float64).reshape(len(consts), n)
        sides = tuple(zip((0, mins), (mins, maxs), sigmas, masks))
        self.asks = {base + site: (site, sigma) for base, sites, sigma, mask in sides
                     if mask is None for site in range(sites)}
        self.choices = np.concatenate(
            [np.zeros((sites, n), bool) if mask is None else mask
             for _, sites, _, mask in sides]
            + [np.asarray(v.predicates[name], dtype=bool).reshape(1, n)
               for name in predicates])
        # The transitions' CSR forms, concatenated: transition j's row s is
        # global row j * n + s.
        used = [v.transitions[name] for name in transitions]
        base = np.cumsum([0] + [len(t.probs) for t in used])
        self.starts = np.concatenate(
            [np.empty(0, np.intp)] + [t.indptr[:-1] + b for t, b in zip(used, base)])
        self.ends = np.concatenate(
            [np.empty(0, np.intp)] + [t.indptr[1:] + b for t, b in zip(used, base)])
        self.cumulative = np.concatenate([np.empty(0)] + [t.cumulative for t in used])
        self.targets = np.concatenate(
            [np.empty(0, np.intp)] + [t.indices for t in used])
        self.halts = np.concatenate([np.empty(0)] + [t.halt_payoffs for t in used])

    def play_block(self, s0: int, size: int, max_depth: int, step_budget: int,
                   rng) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Play ``size`` paths from ``s0`` together; return each path's low
        and high value, steps and ending.

        Each round advances every live path by one position.  The paths at a
        modality in a round take the round's draws from ``rng`` in path
        order.  A history-dependent side is asked ``decide(site, view, s)``
        with the path's view, one ``(label, state)`` entry per round so far.
        """
        low = np.zeros(size)
        high = np.zeros(size)
        steps = np.zeros(size, np.int64)
        ending = np.zeros(size, np.int8)
        live = np.arange(size)
        node = np.zeros(size, np.intp)
        state = np.full(size, s0, np.intp)
        bound = np.zeros((size, self.n_slots), np.intp)  # binder per slot
        visits = np.zeros((size, self.n_slots), np.int64)  # of its colour
        step = 0
        views = [[] for _ in range(size)] if self.asks else None

        def finish(i, lo, hi, how, length):
            paths = live[i]
            low[paths], high[paths] = lo, hi
            ending[paths], steps[paths] = how, length
            done[i] = True

        while live.size:
            step += 1
            done = np.zeros(live.size, bool)
            rule = self.rule[node]
            if views is not None:
                for path, p, s in zip(live.tolist(), node.tolist(), state.tolist()):
                    views[path].append((self.labels[p], s))
            i = np.flatnonzero(rule == _COLOUR)
            if i.size:
                slot = self.operand[node[i]]
                binder = bound[i, slot]
                count = visits[i, slot] + 1
                visits[i, slot] = count
                over = count > max_depth
                nu = self.nu[binder[over]]
                finish(i[over], nu, nu, np.where(nu, _NU, _MU), step)
                node[i[~over]] = self.second[binder[~over]]
            if step > step_budget:
                finish(np.flatnonzero(~done), 0.0, 1.0, _BUDGET, step)
                break
            i = np.flatnonzero(rule == _BRANCH)
            if i.size:
                p = node[i]
                left = self.choices[self.operand[p], state[i]]
                if self.asks:
                    for j, row in enumerate(self.operand[p].tolist()):
                        if row in self.asks:
                            site, sigma = self.asks[row]
                            left[j] = bool(sigma.decide(site, views[live[i[j]]],
                                                        int(state[i[j]])))
                node[i] = np.where(left, self.first[p], self.second[p])
            i = np.flatnonzero(rule == _CONST)
            if i.size:
                y = self.values[self.operand[node[i]], state[i]]
                finish(i, y, y, _PAYOFF, step + 1)
            i = np.flatnonzero(rule == _MODAL)
            if i.size:
                p = node[i]
                row = self.operand[p] * self.n_states + state[i]
                start, end = self.starts[row], self.ends[row]
                edge = _first_reaching(self.cumulative, start, end,
                                       rng.random(i.size))
                fell = np.flatnonzero(edge == end)
                rows = fell[end[fell] > start[fell]]
                # float dust: the distribution is total, keep last edge
                dust = rows[1.0 - self.cumulative[end[rows] - 1] <= EPS_REPR]
                edge[dust] -= 1
                halt = np.setdiff1d(fell, dust, assume_unique=True)
                y = self.halts[row[halt]]
                finish(i[halt], y, y, _PAYOFF, step + 1)
                move = edge < end
                state[i[move]] = self.targets[edge[move]]
                node[i[move]] = self.first[p[move]]
            i = np.flatnonzero(rule == _BIND)
            if i.size:
                p = node[i]
                slot = self.operand[p]
                bound[i, slot] = p
                visits[i, slot] = 0
                node[i] = self.first[p]
            if done.any():
                keep = ~done
                live, node, state = live[keep], node[keep], state[keep]
                bound, visits = bound[keep], visits[keep]
        return low, high, steps, ending


def _first_reaching(cumulative: np.ndarray, start: np.ndarray, end: np.ndarray,
                    u: np.ndarray) -> np.ndarray:
    """Per draw, the first edge ``e`` in ``[start, end)`` with
    ``u <= cumulative[e]``, or ``end`` if there is none.

    A binary search over each row's running sums, which never decrease
    because stored probabilities are positive; it finds the edge that a
    scan of the row in order stops at.
    """
    lo, hi = start.copy(), end.copy()
    while True:
        open_ = np.flatnonzero(lo < hi)
        if not open_.size:
            return lo
        mid = (lo[open_] + hi[open_]) // 2
        below = cumulative[mid] < u[open_]
        lo[open_[below]] = mid[below] + 1
        hi[open_[~below]] = mid[~below]


def estimate(phi: Node, model: Model, s0: int, sigma_min: PathStrategy,
             sigma_max: PathStrategy, n_paths: int, max_depth: int,
             seed: int) -> EstimateResult:
    """Monte-Carlo value estimate over playouts under memoriless strategies.

    By the paper's corollary memoriless strategies suffice for the value, so
    no path needs its history and all of them are played together on
    :func:`play`'s position table, in blocks of :data:`BLOCK_PATHS`.  The
    draws come from one generator, ``Generator(PCG64(SeedSequence(seed)))``:
    the blocks take them in path order, and within a block each round's
    paths at a modality take the next draws in path order.  The result is a
    deterministic function of the seed, and with ``n_paths=1`` the playout
    is :func:`play`'s with that generator.  A history-dependent strategy
    raises :class:`GameError` before any move; the formula is checked once
    per call.
    """
    if n_paths < 1:
        raise GameError("n_paths must be at least 1")
    table, budget = _compile(phi, model, s0, sigma_min, sigma_max, max_depth)
    for side, sigma in (("min", sigma_min), ("max", sigma_max)):
        if not sigma.memoriless:
            raise GameError(f"estimate plays memoriless strategies only; "
                            f"the {side} strategy is history-dependent")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    sum_low = sum_high = sum_steps = 0.0
    max_steps = 0
    endings = np.zeros(4, np.int64)
    # the high values' count, mean and sum of squared deviations, merged
    # block by block (Chan, Golub and LeVeque)
    count, mean, m2 = 0, 0.0, 0.0
    for first in range(0, n_paths, BLOCK_PATHS):
        low, high, steps, ending = table.play_block(
            s0, min(BLOCK_PATHS, n_paths - first), max_depth, budget, rng)
        sum_low += low.sum()
        sum_high += high.sum()
        sum_steps += steps.sum()
        max_steps = max(max_steps, int(steps.max()))
        endings += np.bincount(ending, minlength=4)
        block_mean = high.mean()
        delta = block_mean - mean
        total = count + high.size
        mean += delta * high.size / total
        m2 += ((high - block_mean) ** 2).sum() + delta ** 2 * count * high.size / total
        count = total
    std_error = float(np.sqrt(m2 / (n_paths - 1) / n_paths)) if n_paths > 1 else 0.0
    return EstimateResult(
        float(sum_low / n_paths), float(sum_high / n_paths), std_error,
        int(n_paths - endings[_PAYOFF]), int(endings[_MU]), int(endings[_NU]),
        int(endings[_BUDGET]), float(sum_steps / n_paths), max_steps)


def expand_tree(phi: Node, model: Model, s0: int, sigma_min: PathStrategy,
                sigma_max: PathStrategy, depth: int,
                node_cap: int = 2_000_000) -> float:
    """Exact expected value of the depth-truncated game from ``s0``.

    Expands the probabilistic tree (probability-one edges for all
    non-modality rules) and sums payoff values weighted by path probability.
    Re-entries of a colour are bounded as on the playouts' position table:
    a budget entry maps a variable name to its remaining re-entries and the
    id of the binder in scope, so binders that share a name stay apart.
    Strategies see the view :func:`play` gives them: each node, with a
    binder-name position at every binder entry and for every variable.  Raises
    :class:`TreeBudgetError` when more than ``node_cap`` tree nodes would be
    built.

    With two memoriless strategies the value below a position depends only
    on the node, the state and the budgets, so identical subtrees are
    computed once (a shared subtree counts no further nodes), which keeps
    deep expansions tractable.  The walk runs on an explicit stack in
    preorder, as ``_unfold``'s does; a position checks the memo when reached
    and stores its value when its subtree is done.
    """
    if depth < 0:
        raise GameError("depth must be non-negative")
    _, masks = _check_playable(phi, model, s0, sigma_min, sigma_max)
    v = model.valuation
    binders: dict[int, Node] = {}
    memo = {} if all(mask is not None for mask in masks) else None
    view: list = []
    values: list[float] = []
    visits = 0
    # (node, state, budgets, view length), or (None, weight, probabilities,
    # (base, memo keys of the positions that led to it)) to sum a modality's
    # successors, whose values lie above ``values[base]``, in edge order
    stack: list[tuple] = [(phi, s0, (), 0)]
    while stack:
        node, s, budgets, mark = stack.pop()
        if node is None:
            base, keys = mark
            value = s
            for prob, child in zip(budgets, values[base:]):
                value += prob * child
            del values[base:]
        else:
            del view[mark:]
            keys = []  # the memo keys of the positions followed from here
            value = None
        while value is None:
            if memo is not None:
                key = (id(node), s, budgets)
                if key in memo:
                    value = memo[key]
                    break
                keys.append(key)
            visits += 1
            if visits > node_cap:
                raise TreeBudgetError(f"tree expansion exceeded {node_cap} nodes")
            kind = type(node)
            view.append((node.name if kind is Var else node, s))
            if kind is Modal:
                t = v.transitions[node.transition]
                targets, probs = t.row(s)
                stack.append((None, t.weights.item(s), probs, (len(values), keys)))
                mark = len(view)
                body = node.body
                stack.extend([(body, target, budgets, mark)
                              for target in reversed(targets)])
                break
            if kind is Const:
                value = float(v.expectations[node.name][s])
            elif kind is Var:
                entry = dict(budgets)
                remaining, binder = entry[node.name]
                if remaining == 0:
                    value = 0.0 if type(binders[binder]) is Mu else 1.0
                else:
                    entry[node.name] = (remaining - 1, binder)
                    node = binders[binder].body
                    budgets = tuple(sorted(entry.items()))
            elif kind is MaxJ or kind is MinJ:
                sigma = sigma_max if kind is MaxJ else sigma_min
                node = node.left if sigma.decide(node.site, view, s) else node.right
            elif kind is Cond:
                node = (node.then_branch if v.predicates[node.predicate][s]
                        else node.else_branch)
            else:  # Mu or Nu: bind, then enter the body
                view.append((node.var, s))
                if depth == 0:
                    value = 0.0 if kind is Mu else 1.0
                else:
                    binders[id(node)] = node
                    entry = dict(budgets)
                    entry[node.var] = (depth - 1, id(node))
                    node = node.body
                    budgets = tuple(sorted(entry.items()))
        if value is not None:
            values.append(value)
            for key in keys:
                memo[key] = value
    return values[0]


def _check_playable(phi: Node, model: Model, s0: int, sigma_min: PathStrategy,
                    sigma_max: PathStrategy) -> tuple[Entry, tuple]:
    """Reject, before any move, a formula :func:`~qmu.evaluator.evaluate`
    rejects (through the same :func:`~qmu.formula.check_entry`, so with the
    same error), a start state outside the model, or strategy tables that
    do not fit; return the entry record and both sides' choice masks."""
    entry = check_entry(phi, model, "reject")
    n = model.space.size
    if not isinstance(s0, Integral) or not 0 <= s0 < n:
        raise GameError(f"start state {s0} is not in range({n})")
    return entry, (sigma_min.choice_masks("min", entry.mins, n),
                   sigma_max.choice_masks("max", entry.maxs, n))
