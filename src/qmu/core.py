"""State spaces, expectations, probabilistic transitions and valuations.

Expectations and predicates are plain numpy vectors indexed by dense state
index; state labels exist only for I/O.  A transition assigns to each state a
sub-distribution over successor states plus a payoff weight: the deficit
``1 - sum(probabilities)`` is the probability of an immediate halt, and the
weight is the *expected* immediate payoff (pre-divided by that probability),
so it can be read directly off the transition.

Everything here is immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

#: Representation slack for probability-sum checks.  Entries such as 1/3 are
#: not exactly representable in binary, so sums are checked up to this much.
EPS_REPR = 1e-12

#: Per-state successor list: ((target index, probability), ...).
Successors = tuple[tuple[int, float], ...]


class ModelError(ValueError):
    """A model or valuation violates a structural invariant."""


def expectation(values, size: int | None = None) -> np.ndarray:
    """Build a read-only expectation vector, checking one-boundedness."""
    arr = np.asarray(values, dtype=np.float64).copy()
    if arr.ndim != 1:
        raise ModelError(f"expectation must be a vector, got shape {arr.shape}")
    if size is not None and arr.shape[0] != size:
        raise ModelError(f"expectation has {arr.shape[0]} entries, expected {size}")
    if arr.size and (arr.min() < 0.0 or arr.max() > 1.0):
        raise ModelError("expectation entries must lie in [0, 1]")
    arr.setflags(write=False)
    return arr


def predicate(values, size: int | None = None) -> np.ndarray:
    """Build a read-only boolean predicate vector."""
    arr = np.asarray(values, dtype=bool).copy()
    if arr.ndim != 1:
        raise ModelError(f"predicate must be a vector, got shape {arr.shape}")
    if size is not None and arr.shape[0] != size:
        raise ModelError(f"predicate has {arr.shape[0]} entries, expected {size}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class StateSpace:
    """An ordered finite set of named states, addressed by dense index."""

    labels: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.labels)) != len(self.labels):
            raise ModelError("state labels must be unique")
        if not self.labels:
            raise ModelError("state space must be non-empty")

    @property
    def size(self) -> int:
        return len(self.labels)

    @cached_property
    def _index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.labels)}

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise ModelError(f"unknown state label {label!r}") from None


@dataclass(frozen=True)
class Transition:
    """A probabilistic transition: per-state successors plus payoff weight.

    ``successors[s]`` holds only strictly positive probabilities
    (zero-probability edges are never stored), and ``payoff_weights[s]`` is
    the expected immediate payoff routed to the absorbing payoff outcome.
    """

    successors: tuple[Successors, ...]
    payoff_weights: tuple[float, ...]

    @property
    def n_states(self) -> int:
        return len(self.successors)

    @cached_property
    def matrix(self) -> np.ndarray:
        """Dense (n, n) successor-probability matrix."""
        n = self.n_states
        m = np.zeros((n, n), dtype=np.float64)
        for s, row in enumerate(self.successors):
            for target, prob in row:
                m[s, target] += prob
        m.setflags(write=False)
        return m

    @cached_property
    def weight_vector(self) -> np.ndarray:
        w = np.asarray(self.payoff_weights, dtype=np.float64)
        w.setflags(write=False)
        return w

    @cached_property
    def row_sums(self) -> np.ndarray:
        sums = np.array([sum(p for _, p in row) for row in self.successors])
        sums.setflags(write=False)
        return sums


def transition(rows, weights=None) -> Transition:
    """Build a Transition from per-state ``[(target, prob), ...]`` rows.

    Zero-probability edges are dropped and duplicate targets merged, keeping
    the stored form canonical.
    """
    canon_rows = []
    for row in rows:
        merged: dict[int, float] = {}
        for target, prob in row:
            if prob < 0.0:
                raise ModelError(f"negative probability {prob} to state {target}")
            if prob > 0.0:
                merged[int(target)] = merged.get(int(target), 0.0) + float(prob)
        canon_rows.append(tuple(sorted(merged.items())))
    n = len(canon_rows)
    if weights is None:
        weights = [0.0] * n
    w = tuple(float(x) for x in weights)
    if len(w) != n:
        raise ModelError("payoff weights must have one entry per state")
    return Transition(successors=tuple(canon_rows), payoff_weights=w)


@dataclass(frozen=True, eq=False)
class Valuation:
    """Binding of constant, transition, set and predicate symbols."""

    expectations: dict[str, np.ndarray] = field(default_factory=dict)
    transitions: dict[str, Transition] = field(default_factory=dict)
    transition_sets: dict[str, tuple[str, ...]] = field(default_factory=dict)
    predicates: dict[str, np.ndarray] = field(default_factory=dict)

    def with_predicates(self, extra: dict[str, np.ndarray]) -> "Valuation":
        """Extended valuation with additional predicate symbols."""
        clash = set(extra) & set(self.predicates)
        if clash:
            raise ModelError(f"predicate symbols already bound: {sorted(clash)}")
        merged = dict(self.predicates)
        merged.update(extra)
        return Valuation(
            expectations=self.expectations,
            transitions=self.transitions,
            transition_sets=self.transition_sets,
            predicates=merged,
        )


@dataclass(frozen=True, eq=False)
class Model:
    """A state space together with a valuation over it."""

    space: StateSpace
    valuation: Valuation


@dataclass(frozen=True)
class Diagnostic:
    """One invariant violation found by :func:`validate`."""

    rule: str
    symbol: str | None = None
    state: int | None = None
    message: str = ""

    def __str__(self) -> str:
        where = []
        if self.symbol is not None:
            where.append(f"symbol {self.symbol!r}")
        if self.state is not None:
            where.append(f"state {self.state}")
        loc = " at " + ", ".join(where) if where else ""
        return f"[{self.rule}]{loc}: {self.message}"


def pre_expectation(t: Transition, s: int, post: np.ndarray) -> float:
    """Expected value before taking ``t`` from ``s`` of ``post`` afterwards.

    This is ``t.s.$  +  sum_s' t.s.s' * post[s']``: the immediate expected
    payoff plus the successor-weighted post-expectation.
    """
    if not 0 <= s < t.n_states:
        raise IndexError(f"state index {s} out of range")
    total = t.payoff_weights[s]
    for target, prob in t.successors[s]:
        total += prob * float(post[target])
    return total


def pre_expectation_all(t: Transition, post: np.ndarray) -> np.ndarray:
    """Vectorised :func:`pre_expectation` over every state."""
    return t.weight_vector + t.matrix @ post


def halt_payoff(t: Transition, s: int) -> float:
    """Actual payoff received if the halt branch of ``t`` is taken at ``s``.

    The stored weight is pre-divided by the halt probability; this undoes
    that division.  When the successor probabilities sum to one the halt
    branch does not exist and the payoff is defined to be zero.
    """
    if not 0 <= s < t.n_states:
        raise IndexError(f"state index {s} out of range")
    residual = 1.0 - sum(p for _, p in t.successors[s])
    if residual <= EPS_REPR:
        return 0.0
    return min(1.0, max(0.0, t.payoff_weights[s] / residual))


def make_discounted(t: Transition, alpha: float, keep_deficit: bool) -> Transition:
    """Discount a normal transition by scaling every successor by ``alpha``.

    Requires a "normal" transition (probabilities summing to one, weight
    zero).  The freed probability mass routes to the payoff outcome with
    expected payoff 0 (``keep_deficit`` false) or ``1 - alpha`` (true).
    """
    if not 0.0 <= alpha <= 1.0:
        raise ModelError(f"discount factor must lie in [0, 1], got {alpha}")
    for s in range(t.n_states):
        row_sum = sum(p for _, p in t.successors[s])
        if abs(row_sum - 1.0) > EPS_REPR or t.payoff_weights[s] > EPS_REPR:
            raise ModelError(
                f"make_discounted requires a normal transition; state {s} has "
                f"probability sum {row_sum} and weight {t.payoff_weights[s]}"
            )
    weight = (1.0 - alpha) if keep_deficit else 0.0
    rows = [
        [(target, alpha * prob) for target, prob in row] for row in t.successors
    ]
    return transition(rows, [weight] * t.n_states)


def validate(model: Model) -> list[Diagnostic]:
    """Check every structural invariant; empty result means well-formed."""
    out: list[Diagnostic] = []
    n = model.space.size
    v = model.valuation
    for name, arr in v.expectations.items():
        if len(arr) != n:
            out.append(Diagnostic("expectation-length", name,
                                  message=f"{len(arr)} entries, expected {n}"))
            continue
        for s, x in enumerate(arr):
            if not (0.0 <= x <= 1.0):
                out.append(Diagnostic("expectation-range", name, s,
                                      f"value {x} outside [0, 1]"))
    for name, arr in v.predicates.items():
        if len(arr) != n:
            out.append(Diagnostic("predicate-length", name,
                                  message=f"{len(arr)} entries, expected {n}"))

    for name, t in v.transitions.items():
        if t.n_states != n:
            out.append(Diagnostic("transition-length", name,
                                  message=f"{t.n_states} rows, expected {n}"))
            continue
        for s in range(n):
            row = t.successors[s]
            w = t.payoff_weights[s]
            row_sum = sum(p for _, p in row)
            for target, prob in row:
                if not 0 <= target < n:
                    out.append(Diagnostic("successor-range", name, s,
                                          f"target index {target} out of range"))
                if prob <= 0.0:
                    out.append(Diagnostic("probability-positive", name, s,
                                          f"stored probability {prob} must be > 0"))
            if w < 0.0:
                out.append(Diagnostic("weight-nonnegative", name, s,
                                      f"payoff weight {w} is negative"))
            if abs(row_sum - 1.0) <= EPS_REPR and w > EPS_REPR:
                out.append(Diagnostic("weight-zero-when-total", name, s,
                                      "payoff weight must be zero when successor "
                                      "probabilities sum to one"))
            elif row_sum + w > 1.0 + EPS_REPR:
                out.append(Diagnostic("mass-bounded", name, s,
                                      f"probability sum {row_sum} plus weight {w} exceeds one"))

    for name, members in v.transition_sets.items():
        if not members:
            out.append(Diagnostic("set-nonempty", name, message="transition set is empty"))
        for member in members:
            if member not in v.transitions:
                out.append(Diagnostic("set-member-exists", name,
                                      message=f"references unknown transition {member!r}"))
    return out
