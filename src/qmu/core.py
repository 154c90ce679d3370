"""State spaces, expectations, probabilistic transitions and valuations.

Expectations and predicates are plain numpy vectors indexed by dense state
index; state labels exist only for I/O.  A transition assigns to each state a
sub-distribution over successor states plus a payoff weight: the deficit
``1 - sum(probabilities)`` is the probability of an immediate halt, and the
weight is the *expected* immediate payoff (pre-divided by that probability),
so it can be read directly off the transition.

Transitions are stored sparse, as compressed sparse rows (one target and one
probability per edge), so memory and the cost of a pre-expectation grow with
the number of edges, not with the square of the number of states.  A single
state's row is read straight off those arrays.  The vectorised
pre-expectation reads a second, lazily built layout of the same edges: a
padded table holding every state's first K edges, plus a short list of the
edges past slot K (the ELL plus COO, or "hybrid", layout of Bell and
Garland, SC 2009).

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


class ModelError(ValueError):
    """A model or valuation violates a structural invariant."""


def expectation(values, size: int | None = None) -> np.ndarray:
    """Build a read-only expectation vector, checking one-boundedness."""
    arr = np.asarray(values, dtype=np.float64).copy()
    if arr.ndim != 1:
        raise ModelError(f"expectation must be a vector, got shape {arr.shape}")
    if size is not None and arr.shape[0] != size:
        raise ModelError(f"expectation has {arr.shape[0]} entries, expected {size}")
    if not ((arr >= 0.0) & (arr <= 1.0)).all():
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


def _integers(values, what: str) -> np.ndarray:
    """``values`` as a new int64 array.  A value that is not a whole number,
    NaN and the infinities included, is a :class:`ModelError`, named: the
    cast would truncate it to some other state or count."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "biu":
        real = arr.astype(np.float64).reshape(-1)
        bad = np.flatnonzero(~(np.isfinite(real) & (np.trunc(real) == real)))
        if bad.size:
            raise ModelError(f"{what} {real[bad[0]].item()} is not an integer")
    return arr.astype(np.int64)


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


@dataclass(frozen=True, eq=False)
class Transition:
    """A probabilistic transition in compressed sparse row (CSR) form.

    The edges out of state ``s`` are ``indptr[s]:indptr[s+1]``,
    with target states ``indices`` and probabilities ``probs``;
    ``weights[s]`` is the expected immediate payoff routed to the absorbing
    payoff outcome.  :func:`transition_from_edges`, which :func:`transition`
    calls, stores only strictly positive probabilities, one edge per target,
    sorted by target.  The arrays are read-only copies; an ``indptr`` or
    ``indices`` entry that is not a whole number is a :class:`ModelError`.
    Storage grows with the number of edges, not of states squared.
    :attr:`_slots` lays the same edges out for :func:`pre_expectation_all`,
    in at most four cells per edge.
    """

    indptr: np.ndarray
    indices: np.ndarray
    probs: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        for name, dtype in (("indptr", np.int64), ("indices", np.int64),
                            ("probs", np.float64), ("weights", np.float64)):
            arr = (_integers(getattr(self, name), f"transition {name} entry")
                   if dtype is np.int64 else np.array(getattr(self, name), dtype=dtype))
            if arr.ndim != 1:
                raise ModelError(f"transition {name} must be a vector")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        ptr = self.indptr
        if (len(ptr) != len(self.weights) + 1 or ptr[0] != 0
                or (ptr[1:] < ptr[:-1]).any()
                or ptr[-1] != len(self.indices) or len(self.probs) != len(self.indices)):
            raise ModelError("transition arrays are not a consistent CSR form")

    def __eq__(self, other):
        if not isinstance(other, Transition):
            return NotImplemented
        return all(np.array_equal(getattr(self, f), getattr(other, f))
                   for f in ("indptr", "indices", "probs", "weights"))

    @property
    def n_states(self) -> int:
        return len(self.weights)

    def row(self, s: int) -> tuple[list[int], list[float]]:
        """Targets and probabilities of the edges of ``s``, as Python lists."""
        a, b = self.indptr[s], self.indptr[s + 1]
        return self.indices[a:b].tolist(), self.probs[a:b].tolist()

    @cached_property
    def cumulative(self) -> np.ndarray:
        """Per-row running sums of ``probs``: ``cumulative[e]`` adds the
        probabilities of its row's edges up to and including ``e``, one by
        one in edge order, so it is bit-identical to that sequential sum."""
        cum = self.probs.copy()
        starts, lengths = self.indptr[:-1], np.diff(self.indptr)
        for k in range(1, int(lengths.max(initial=0))):
            edges = starts[lengths > k] + k
            cum[edges] += cum[edges - 1]
        cum.setflags(write=False)
        return cum

    @cached_property
    def halt_payoffs(self) -> np.ndarray:
        """:func:`halt_payoff` of every state."""
        residual = 1.0 - _row_mass(self)
        halts = residual > EPS_REPR
        ratio = np.divide(self.weights, residual, out=np.zeros(self.n_states),
                          where=halts)
        payoffs = np.clip(ratio, 0.0, 1.0)
        payoffs.setflags(write=False)
        return payoffs

    @cached_property
    def _sources(self) -> np.ndarray:
        """The source state of every edge."""
        src = np.repeat(np.arange(self.n_states), np.diff(self.indptr))
        src.setflags(write=False)
        return src

    @cached_property
    def _slots(self) -> tuple[np.ndarray, np.ndarray,
                              tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """The edges as a slot table ``(idx, pr, tail)``, read-only.

        ``idx[k, s]`` and ``pr[k, s]`` are the target and probability of the
        k-th edge of ``s``, for k below K = ``len(idx)``; a state with fewer
        edges reads state 0 with probability 0 in the slots it leaves empty.
        ``tail`` holds the edges past slot K as ``(sources, targets,
        probs)``, in edge order.  K minimises ``K * n + 4 * len(tail)``, so
        one row of high degree goes to the tail instead of widening every
        state's column, and the table never has more than four cells per
        edge: K = 0 would cost that much.
        """
        n = self.n_states
        src = self._sources
        # rows_past[k]: states with more than k edges, for k up to the
        # highest degree; the sum of rows_past[k:] is the tail past slot k
        rows_past = n - np.cumsum(np.bincount(np.diff(self.indptr), minlength=1))
        tail_sizes = np.cumsum(rows_past[::-1])[::-1]
        K = int(np.argmin(np.arange(len(rows_past)) * n + 4 * tail_sizes))
        slot = np.arange(len(src)) - self.indptr[src]
        inside = slot < K
        outside = ~inside
        cells = slot[inside], src[inside]
        idx = np.zeros((K, n), dtype=np.intp)
        pr = np.zeros((K, n))
        idx[cells] = self.indices[inside]
        pr[cells] = self.probs[inside]
        tail = (src[outside], self.indices[outside], self.probs[outside])
        for arr in (idx, pr, *tail):
            arr.setflags(write=False)
        return idx, pr, tail

    @cached_property
    def _recurrent(self) -> np.ndarray:
        """The states of the bottom strongly connected components (Tarjan's,
        on an explicit stack) whose rows all reach ``1 - EPS_REPR``, the rule
        :func:`validate` uses for total rows, as a read-only mask.  A run of
        this transition that never halts ends in them with probability one."""
        n = self.n_states
        keep = self.probs > 0.0
        src, dst = self._sources[keep], self.indices[keep]
        ptr = np.searchsorted(src, np.arange(n + 1)).tolist()
        succ = dst.tolist()
        index, low, comp = [-1] * n, [0] * n, [-1] * n
        stack: list[int] = []
        count = 0
        for root in range(n):
            work = [[root, ptr[root]]] if index[root] < 0 else []
            while work:
                s, e = frame = work[-1]
                if index[s] < 0:
                    index[s] = low[s] = count
                    count += 1
                    stack.append(s)
                if e < ptr[s + 1]:
                    frame[1] = e + 1
                    u = succ[e]
                    if index[u] < 0:
                        work.append([u, ptr[u]])
                    elif comp[u] < 0:  # on the stack
                        low[s] = min(low[s], index[u])
                    continue
                work.pop()
                if work:
                    low[work[-1][0]] = min(low[work[-1][0]], low[s])
                while low[s] == index[s] and comp[s] < 0:
                    comp[stack.pop()] = s  # a component is named by its root
        comp = np.array(comp)
        escapes = np.zeros(n, dtype=bool)  # by root: a component left or leaking
        escapes[comp[src[comp[src] != comp[dst]]]] = True
        escapes[comp[_row_mass(self) < 1.0 - EPS_REPR]] = True
        recurrent = ~escapes[comp]
        recurrent.setflags(write=False)
        return recurrent


def _row_mass(t: Transition) -> np.ndarray:
    """Successor probability of every state, summed in edge order."""
    return np.bincount(t._sources, weights=t.probs, minlength=t.n_states)


def transition_from_edges(counts, targets, probs, weights) -> Transition:
    """Build a Transition from flat edge arrays, in numpy (COO rows to CSR).

    State ``s`` owns the next ``counts[s]`` entries of ``targets`` and
    ``probs``.  Zero-probability edges are dropped, each row's edges are
    sorted by target, and duplicate targets in a row are merged into one
    edge whose probability adds theirs in order of appearance, so the stored
    form is canonical.  A count or target that is not a whole number, a
    negative or non-finite probability or a non-finite weight is a
    :class:`ModelError`; targets outside the state space are left for
    :func:`validate` to report.
    """
    counts = _integers(counts, "edge count")
    targets = _integers(targets, "edge target")
    probs = np.asarray(probs, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if (counts.ndim != 1 or probs.ndim != 1 or targets.shape != probs.shape
            or counts.sum() != len(probs) or counts.min(initial=0) < 0):
        raise ModelError("edge counts, targets and probabilities do not match")
    n = len(counts)
    lowest = probs.min(initial=1.0)
    if not (lowest >= 0.0 and probs.max(initial=0.0) < np.inf):
        e = np.flatnonzero(~(probs >= 0.0) | (probs == np.inf))[0]
        kind = "negative" if probs[e] < 0.0 else "non-finite"
        raise ModelError(f"{kind} probability {probs.item(e)} "
                         f"to state {targets.item(e)}")
    if weights.shape != (n,):
        raise ModelError("payoff weights must have one entry per state")
    if not np.isfinite(weights).all():
        s = np.flatnonzero(~np.isfinite(weights))[0]
        raise ModelError(f"non-finite payoff weight {weights.item(s)} at state {s}")

    sources = np.repeat(np.arange(n), counts)
    if lowest == 0.0:
        keep = probs > 0.0
        sources, targets, probs = sources[keep], targets[keep], probs[keep]
        counts = np.bincount(sources, minlength=n)
    if len(targets) > 1:
        # one int64 key per edge, increasing in (source, target)
        low = int(targets.min())
        span = int(targets.max()) - low + 1
        if n * span < 2 ** 62:
            key = sources * span + (targets - low)
        else:  # targets far out of range: order them by rank instead
            key = sources * len(targets) + np.unique(targets, return_inverse=True)[1]
        if not (key[1:] > key[:-1]).all():
            # stable, and the sources are already in order, so they stay put
            order = np.argsort(key, kind="stable")
            key, targets, probs = key[order], targets[order], probs[order]
            repeated = key[1:] == key[:-1]
            if repeated.any():
                first = np.concatenate(([True], ~repeated))
                probs = np.bincount(np.cumsum(first) - 1, weights=probs)
                sources, targets = sources[first], targets[first]
                counts = np.bincount(sources, minlength=n)
    return Transition(np.concatenate(([0], np.cumsum(counts))), targets, probs,
                      weights)


def transition(rows, weights=None) -> Transition:
    """Build a Transition from per-state ``[(target, prob), ...]`` rows.

    A thin adapter over :func:`transition_from_edges`, which keeps the
    stored form canonical; ``weights`` defaults to zero.
    """
    counts: list[int] = []
    targets: list = []
    probs: list = []
    for row in rows:
        before = len(targets)
        for target, prob in row:
            targets.append(target)
            probs.append(prob)
        counts.append(len(targets) - before)
    if weights is None:
        weights = np.zeros(len(counts))
    return transition_from_edges(counts, targets, probs, weights)


@dataclass(frozen=True, eq=False)
class Valuation:
    """Binding of constant, transition, set and predicate symbols."""

    expectations: dict[str, np.ndarray] = field(default_factory=dict)
    transitions: dict[str, Transition] = field(default_factory=dict)
    transition_sets: dict[str, tuple[str, ...]] = field(default_factory=dict)
    predicates: dict[str, np.ndarray] = field(default_factory=dict)


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
    total = t.weights.item(s)
    for target, prob in zip(*t.row(s)):
        total += prob * float(post[target])
    return total


def pre_expectation_all(t: Transition, post: np.ndarray) -> np.ndarray:
    """Vectorised :func:`pre_expectation` over every state, in O(edges).

    The product gathers the finite expectation ``post`` through the slot
    table :attr:`Transition._slots` and adds the tail edges with
    ``np.add.at``.  Each output cell starts from 0.0, adds its edges' terms
    one by one in edge order and then its weight; an empty slot adds
    ``0 * post[0]``, a zero for finite ``post``, which changes no sum.
    """
    idx, pr, (sources, targets, probs) = t._slots
    terms = post.take(idx)
    terms *= pr
    out = np.add.reduce(terms, axis=0)
    if len(sources):
        np.add.at(out, sources, probs * post[targets])
    out += t.weights
    return out


def pre_support(t: Transition, post: np.ndarray) -> np.ndarray:
    """The support of a product: 1.0 where :func:`pre_expectation_all` is
    positive, else 0.0.  On valid rows that is where the weight is positive
    or some edge enters the support of ``post``."""
    return (pre_expectation_all(t, post) > 0.0).astype(np.float64)


def halt_payoff(t: Transition, s: int) -> float:
    """Actual payoff received if the halt branch of ``t`` is taken at ``s``.

    The stored weight is pre-divided by the halt probability; this undoes
    that division.  When the successor probabilities, added in edge order,
    sum to one the halt branch does not exist and the payoff is defined to
    be zero.
    """
    if not 0 <= s < t.n_states:
        raise IndexError(f"state index {s} out of range")
    return t.halt_payoffs.item(s)


def _transition_diagnostics(name: str, t: Transition, n: int) -> list[Diagnostic]:
    """The transition rules of :func:`validate`, one diagnostic per state."""
    found: list[Diagnostic] = []
    w = t.weights
    mass = _row_mass(t)

    def per_state(rule, bad_states, message):
        for s in np.flatnonzero(bad_states).tolist():
            found.append(Diagnostic(rule, name, s, message(s)))

    def per_edge(rule, bad_edges, message):
        # reported at each offending state, naming its first offending edge
        edges = np.flatnonzero(bad_edges)
        states, first = np.unique(t._sources[edges], return_index=True)
        for s, e in zip(states.tolist(), edges[first].tolist()):
            found.append(Diagnostic(rule, name, s, message(e)))

    per_edge("successor-range", (t.indices < 0) | (t.indices >= n),
             lambda e: f"target index {t.indices.item(e)} out of range")
    # written so that NaN fails each test
    per_edge("probability-positive", ~(t.probs > 0.0),
             lambda e: f"stored probability {t.probs.item(e)} must be > 0")
    per_state("weight-nonnegative", ~(w >= 0.0),
              lambda s: f"payoff weight {w.item(s)} must be >= 0")
    weighted_total = (np.abs(mass - 1.0) <= EPS_REPR) & (w > EPS_REPR)
    per_state("weight-zero-when-total", weighted_total,
              lambda s: "payoff weight must be zero when successor "
                        "probabilities sum to one")
    per_state("mass-bounded", ~weighted_total & (mass + w > 1.0 + EPS_REPR),
              lambda s: f"probability sum {mass.item(s)} plus weight "
                        f"{w.item(s)} exceeds one")
    # stable: each state's rules stay in the order they are checked above
    return sorted(found, key=lambda d: d.state)


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
        arr = np.asarray(arr)
        for s in np.flatnonzero(~((arr >= 0.0) & (arr <= 1.0))).tolist():
            out.append(Diagnostic("expectation-range", name, s,
                                  f"value {arr[s]} outside [0, 1]"))
    for name, arr in v.predicates.items():
        if len(arr) != n:
            out.append(Diagnostic("predicate-length", name,
                                  message=f"{len(arr)} entries, expected {n}"))

    for name, t in v.transitions.items():
        if t.n_states != n:
            out.append(Diagnostic("transition-length", name,
                                  message=f"{t.n_states} rows, expected {n}"))
            continue
        out.extend(_transition_diagnostics(name, t, n))

    for name, members in v.transition_sets.items():
        if not members:
            out.append(Diagnostic("set-nonempty", name, message="transition set is empty"))
        for member in members:
            if member not in v.transitions:
                out.append(Diagnostic("set-member-exists", name,
                                      message=f"references unknown transition {member!r}"))
    return out
