"""Brute-force ground truth and random desk-scale instances.

The brute force enumerates every memoriless strategy tuple for both players
and takes the pointwise min-of-max and max-of-min over every (min tuple,
max tuple) pair.  With both strategies fixed the game is a Markov reward
chain, so each pair's value is the least (``mu``) or greatest (``nu``)
solution of a small linear system.  One fold turns the formula into an
affine form for a slice of pairs, and each binder is solved directly; when
some row of the slice does not leak mass, a graph pass first gives 0
(``mu``) or 1 (``nu``) to the rows from which no mass can leak.  An
alternating nest is two nested solves.
Nothing here iterates or shares the evaluator's plan, so the check of the
brute-force values against the direct evaluation, which takes pointwise
min and max at the junctions by Kleene iteration, is a check of the
minimax/denotation equivalence that can also catch the evaluator stopping
short.  The enumeration order is fixed so failures reproduce exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (
    EPS_REPR, Model, StateSpace, Transition, Valuation, expectation, predicate,
    transition,
)
from .evaluator import EvalConfig, evaluate
from .formula import (
    Cond, Const, MaxJ, MinJ, Modal, Mu, Node, Nu, Var, assign_sites,
    check_entry, parse, pretty_print, rebuild, reduce,
)
from .strategy import MemorilessStrategy


class StrategySpaceError(ValueError):
    """The instance's strategy space exceeds the enumeration budget."""


#: Hard cap on enumerated strategy pairs (2 ** bits).
MAX_STRATEGY_BITS = 20

#: Strategy pairs solved in one batched linear solve; larger spaces are
#: solved slice by slice, which bounds memory at the 20-bit cap.
PAIRS_PER_BATCH = 1024


@dataclass(frozen=True)
class InstanceBounds:
    """Size limits for generated instances.

    ``max_strategy_bits`` bounds (min sites + max sites) * states so the
    brute force stays fast; ``max_continue_mass`` caps each transition row's
    successor probability mass (mass below one halts with the residue),
    which bounds how slowly values can converge.
    """

    max_states: int = 4
    max_min_sites: int = 2
    max_max_sites: int = 2
    max_binders: int = 2
    max_strategy_bits: int = 12
    max_continue_mass: float = 1.0

    def __post_init__(self):
        if self.max_states < 1 or self.max_states > 4:
            raise ValueError("max_states must be between 1 and 4")
        for name in ("max_min_sites", "max_max_sites", "max_binders",
                     "max_strategy_bits"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} cannot be negative")
        if self.max_strategy_bits > MAX_STRATEGY_BITS:
            raise ValueError(f"max_strategy_bits cannot exceed {MAX_STRATEGY_BITS}")
        if not 0.0 <= self.max_continue_mass <= 1.0:
            raise ValueError("max_continue_mass must lie in [0, 1]")


@dataclass(frozen=True, eq=False)
class TinyInstance:
    """A small model plus a closed reduced formula over it."""

    model: Model
    phi: Node
    text: str
    free_var: str
    alternating: bool    # nested mu/nu of opposite kinds
    template: str
    body_text: str = ""  # a body over ``free_var``, for property tests

    @cached_property
    def open_body(self) -> Node:
        """``body_text`` reduced and site-assigned, built on first use."""
        wrapped = reduce(parse(f"mu {self.free_var} . {self.body_text}"),
                         self.model.valuation)
        return assign_sites(wrapped.body)


# Formula templates; {a}/{b} are expectation symbols, {k}/{k2} transitions,
# {g} a predicate, {K} a two-member transition set.  Counts of (min sites,
# max sites, binders) refer to the reduced formula.
_TEMPLATES: list[tuple[str, int, int, int, bool]] = [
    ("{a}", 0, 0, 0, False),
    ("<{k}> {a}", 0, 0, 0, False),
    ("<{k}> {a} /\\ <{k2}> {b}", 1, 0, 0, False),
    ("mu X . {a} \\/ <{k}> X", 0, 1, 1, False),
    ("nu X . {a} /\\ <{k}> X", 1, 0, 1, False),
    ("mu X . <{k}> ({a} \\/ X)", 0, 1, 1, False),
    ("nu X . if {g} then <{k}> X else {a} /\\ <{k2}> X", 1, 0, 1, False),
    ("mu X . <{k}> {a} \\/ <{k2}> (X /\\ <{k}> X)", 1, 1, 1, False),
    ("mu X . nu Y . <{k}> Y /\\ ({a} \\/ <{k2}> X)", 1, 1, 2, True),
    ("nu X . mu Y . <{k}> (({a} /\\ X) \\/ Y)", 1, 1, 2, True),
    ("mu X . ({a} \\/ <{k}> X) /\\ ({b} \\/ <{k2}> X)", 1, 2, 1, False),
    ("nu X . ({a} /\\ <{k}> X) \\/ ({b} /\\ <{k2}> X)", 2, 1, 1, False),
    ("mu X . {a} \\/ <{K}> X", 0, 2, 1, False),
    ("[{K}] ({a} \\/ <{k}> {b})", 1, 2, 0, False),
]

# Junction-free bodies over a free variable W0, for fix/mu/nu comparisons.
_PROBABILISTIC_BODIES = [
    "<{k}> W0",
    "<{k}> <{k2}> W0",
    "if {g} then <{k}> W0 else {a}",
    "<{k}> (if {g} then W0 else {b})",
]

# Bodies with junctions allowed, for monotonicity-style properties.
_OPEN_BODIES = _PROBABILISTIC_BODIES + [
    "{a} \\/ <{k}> W0",
    "{b} /\\ <{k}> W0",
    "<{k}> ({a} \\/ W0) /\\ <{k2}> W0",
]


def _random_transition(rng, n: int, mass_cap: float, nested: bool):
    rows = []
    weights = []
    for _ in range(n):
        n_succ = int(rng.integers(1, min(2, n) + 1))
        targets = rng.choice(n, size=n_succ, replace=False)
        raw = rng.random(n_succ) + 0.05
        raw /= raw.sum()
        u = rng.random()
        if u < 0.6 or nested:
            mass = rng.uniform(0.15, 0.55)
        elif u < 0.85 or mass_cap < 1.0:
            mass = rng.uniform(0.55, 0.85)
        else:
            mass = 1.0
        mass = min(mass, mass_cap)
        rows.append([(int(t), float(mass * p)) for t, p in zip(targets, raw)])
        if mass >= 1.0:
            weights.append(0.0)
        elif rng.random() < 0.3:
            weights.append(0.0)
        else:
            weights.append(float((1.0 - mass) * rng.uniform(0.3, 1.0)))
    return transition(rows, weights)


def random_instance(seed, bounds: InstanceBounds | None = None) -> TinyInstance:
    """Deterministically generate a valid TinyInstance from a seed.

    The template mix always includes alternating mu/nu nesting; instances
    with two binders are kept small (at most 3 states) so nested fixpoint
    solving stays quick.
    """
    bounds = bounds or InstanceBounds()
    rng = np.random.default_rng(seed)

    for _ in range(100):
        text_tmpl, mins, maxs, binders, alternating = _TEMPLATES[
            int(rng.integers(0, len(_TEMPLATES)))]
        if mins > bounds.max_min_sites or maxs > bounds.max_max_sites:
            continue
        if binders > bounds.max_binders:
            continue
        n = int(rng.integers(1, bounds.max_states + 1))
        if binders >= 2:
            n = min(n, 3)
        if (mins + maxs) * n > bounds.max_strategy_bits:
            continue
        break
    else:
        text_tmpl, mins, maxs, binders, alternating = _TEMPLATES[0]
        n = 1

    nested = binders >= 2
    space = StateSpace(tuple(f"s{i}" for i in range(n)))
    t0 = _random_transition(rng, n, bounds.max_continue_mass, nested)
    t1 = _random_transition(rng, n, bounds.max_continue_mass, nested)
    valuation = Valuation(
        expectations={"a0": expectation(rng.random(n)),
                      "a1": expectation(rng.random(n))},
        transitions={"t0": t0, "t1": t1},
        transition_sets={"K0": ("t0", "t1")},
        predicates={"g0": predicate(rng.random(n) < 0.5)},
    )
    model = Model(space, valuation)

    picks = {
        "a": ("a0", "a1")[int(rng.integers(0, 2))],
        "b": ("a0", "a1")[int(rng.integers(0, 2))],
        "k": ("t0", "t1")[int(rng.integers(0, 2))],
        "k2": ("t0", "t1")[int(rng.integers(0, 2))],
        "g": "g0",
        "K": "K0",
    }
    text = text_tmpl.format(**picks)
    phi = reduce(parse(text), valuation)

    body_tmpl = _OPEN_BODIES[int(rng.integers(0, len(_OPEN_BODIES)))]
    return TinyInstance(model=model, phi=phi, text=text, free_var="W0",
                        alternating=alternating, template=text_tmpl,
                        body_text=body_tmpl.format(**picks))


# --- Brute-force minimax ----------------------------------------------------

def _tuple_choices(index, n_sites: int, n_states: int) -> np.ndarray:
    """Per-site choices of strategy tuples, by their enumeration index.

    Tuple ``index`` reads its ``n_sites * n_states`` choices, flat in
    (site, state) order, from the bits of ``index``, most significant
    first, so tuples are enumerated in lexicographic order with False before
    True.  ``index`` may be an array of shape ``(B,)``; the result has shape
    ``(n_sites, n_states)`` or, the batch last, ``(n_sites, n_states, B)``.
    """
    index = np.asarray(index, dtype=np.int64)
    shifts = np.arange(n_sites * n_states - 1, -1, -1).reshape(
        n_sites, n_states, *(1,) * index.ndim)
    return ((index >> shifts) & 1) == 1


@dataclass(frozen=True, eq=False)
class BruteForceResult:
    minimax: np.ndarray
    maximin: np.ndarray
    min_witness: MemorilessStrategy   # achieves the min-of-max as a single tuple
    max_witness: MemorilessStrategy   # achieves the max-of-min as a single tuple
    min_witness_gap: float
    max_witness_gap: float
    table: np.ndarray                 # (n_min_tuples, n_max_tuples, n_states)


def _dense(t: Transition) -> np.ndarray:
    """The successor probabilities of ``t`` as an ``(n, n)`` matrix."""
    n = t.n_states
    matrix = np.zeros((n, n))
    matrix[t._sources, t.indices] = t.probs
    return matrix


def _solve_binder(form: np.ndarray, greatest: bool) -> np.ndarray:
    """The least (greatest) solution of ``x = A x + rest``, as an affine form.

    ``form`` has shape ``(n, 1 + n * depth, B)``, the batch last, as
    :func:`_solve_pairs` gives a binder's body.  ``A`` is its coefficient of
    the binder's own variable, its last ``n`` columns, and ``rest`` the
    columns before: the constant and the coefficients of the variables of
    the binders around this one.  A row whose sum in ``A`` falls below
    ``1 - EPS_REPR``, the rule :func:`~qmu.core.validate` uses for total
    rows, leaks mass.  When every row of the batch leaks, ``I - A`` is
    nonsingular and one solve gives the value.  Otherwise a graph pass runs
    first: the rows that cannot reach a leaking row along ``A``'s support
    are closed, and their value is 0 under ``mu`` and 1 under ``nu`` (the
    Prob0/Prob1 step of PRISM); on the other rows ``I - A`` is nonsingular,
    and one solve gives the value as an affine form in the outer variables,
    of shape ``(n, 1 + n * (depth - 1), B)``.  ``rest`` is overwritten.
    """
    n = len(form)
    coef = form[:, -n:]
    rest = form[:, :-n]
    reaches = coef.sum(axis=1) < 1.0 - EPS_REPR  # leaking, then reaching one
    eye = np.eye(n)[..., None]
    if reaches.all():
        system = eye - coef
    else:
        support = coef > 0.0
        for _ in range(n - 1):  # a path to a leaking row takes at most n - 1 steps
            reaches = reaches | (support & reaches).any(axis=1)
        closed = ~reaches
        np.copyto(rest, 0.0, where=closed[:, None])
        if greatest:
            np.copyto(rest[:, 0], 1.0, where=closed)
        system = np.where(closed[:, None], eye, eye - coef)
    return np.linalg.solve(system.transpose(2, 0, 1),
                           rest.transpose(2, 0, 1)).transpose(1, 2, 0)


def _solve_pairs(phi: Node, model: Model, min_masks: np.ndarray,
                 max_masks: np.ndarray, dense: dict | None = None) -> np.ndarray:
    """The values of ``phi`` under a batch of memoriless strategy pairs.

    The masks have shape ``(sites, n, B)``, as :func:`_tuple_choices` gives
    them, true where a pair takes the left 'junct; the result has shape
    ``(B, n)``.  One :func:`~qmu.formula.rebuild` fold turns each
    subformula into an affine form of the variables of the binders around
    it: an array of shape ``(n, 1 + n * depth, B)``, for ``depth`` such
    binders, whose column 0 is the constant and whose k-th block of ``n``
    columns is the ``(n, n, B)`` coefficient of the k-th binder's variable,
    outermost first, so the innermost binder's variable is the last block.
    The batch axis comes last, so numpy's inner loops run along it.  A
    subformula without junctions keeps a batch axis of length one.  The
    value is clipped to [0, 1] once, at the end.  Every pair's row is
    computed on its own, so it does not depend on the batch it is in.
    ``dense`` holds the transitions' dense matrices, filled on first use,
    for the caller to share between the batches of one brute force.
    """
    v = model.valuation
    n = model.space.size
    scope: list[str] = []  # the variables of the binders around the node
    dense = {} if dense is None else dense

    def enter(node: Node) -> None:
        if isinstance(node, (Mu, Nu)):
            scope.append(node.var)

    def leave(node: Node, kids) -> np.ndarray:
        kind = type(node)
        if kind is Const or kind is Var:
            form = np.zeros((n, 1 + n * len(scope), 1))
            if kind is Const:
                form[:, 0, 0] = v.expectations[node.name]
            else:  # the block of the innermost binder of its name
                start = 1 + n * (len(scope) - 1 - scope[::-1].index(node.name))
                form[:, start:start + n, 0] = np.eye(n)
            return form
        if kind is Modal:
            t = v.transitions[node.transition]
            if node.transition not in dense:
                dense[node.transition] = _dense(t)
            matrix, body = dense[node.transition], kids[0]
            # term by term in the order of j, then the weight, as the
            # evaluator's product adds them
            form = np.zeros(body.shape)
            for j in range(n):
                form += matrix[:, j, None, None] * body[j]
            form[:, 0] += t.weights[:, None]
            return form
        if kind is MinJ or kind is MaxJ:
            masks = min_masks if kind is MinJ else max_masks
            return np.where(masks[node.site][:, None], *kids)
        if kind is Cond:
            return np.where(v.predicates[node.predicate][:, None, None], *kids)
        scope.pop()
        return _solve_binder(kids[0], kind is Nu)

    form = rebuild(phi, leave, enter)
    return np.broadcast_to(form[:, 0], (n, min_masks.shape[-1])).T.clip(0.0, 1.0)


def brute_minimax(inst: TinyInstance, cfg: EvalConfig | None = None) -> BruteForceResult:
    """Exact strategy-enumeration values of a tiny instance.

    Solves the formula for every (min tuple, max tuple) pair, with the
    pair's choices resolving every junction; min/max tuples are enumerated in
    lexicographic (site, state) order.  With both strategies fixed the game
    is a Markov reward chain, so each pair's value is the least or greatest
    solution of a linear system: the pairs are solved
    :data:`PAIRS_PER_BATCH` at a time by :func:`_solve_pairs`.  Nothing
    iterates, so ``cfg``, kept for callers that pass one, changes nothing.
    A formula ``evaluate`` rejects raises the same entry error here, first.
    """
    phi = inst.phi
    model = inst.model
    n = model.space.size
    _, mins, maxs, _ = check_entry(phi, model, "reject")
    bits = (mins + maxs) * n
    if bits > MAX_STRATEGY_BITS:
        raise StrategySpaceError(
            f"strategy space has 2^{bits} tuples, budget is 2^{MAX_STRATEGY_BITS}")

    n_min, n_max = 2 ** (mins * n), 2 ** (maxs * n)
    table = np.empty((n_min * n_max, n))
    dense: dict[str, np.ndarray] = {}
    for start in range(0, len(table), PAIRS_PER_BATCH):
        pairs = np.arange(start, min(start + PAIRS_PER_BATCH, len(table)))
        table[start:start + len(pairs)] = _solve_pairs(
            phi, model, _tuple_choices(pairs // n_max, mins, n),
            _tuple_choices(pairs % n_max, maxs, n), dense)
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


# --- Randomised cross-checking ----------------------------------------------

@dataclass(frozen=True)
class CheckFailure:
    index: int
    message: str
    dump_paths: tuple[str, ...] = ()


@dataclass(frozen=True)
class InstanceRecord:
    """One checked instance: its formula template and size, the strategy
    pairs brute-forced, ``|minimax - maximin|`` and ``|minimax - evaluate|``
    (sup norms) and whether the evaluation converged."""

    index: int
    template: str
    states: int
    pairs: int
    maximin_gap: float
    evaluate_gap: float
    converged: bool


@dataclass(frozen=True)
class CrosscheckReport:
    checked: int
    failures: tuple[CheckFailure, ...]
    instances: tuple[InstanceRecord, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.failures


def crosscheck(count: int, seed: int, bounds: InstanceBounds | None = None,
               cfg: EvalConfig | None = None, dump_dir=None,
               evaluate_fn=None, tolerance: float = 1e-6) -> CrosscheckReport:
    """Run the minimax = maximin = denotation check over random instances.

    ``evaluate_fn`` is an injection point for fault testing; it defaults to
    the real evaluator.  An instance whose evaluation does not converge
    fails with a message saying so, not with a value gap.  The report keeps
    an :class:`InstanceRecord` of every instance, passing or not.  On
    failure the instance is dumped (model file plus formula text) for replay
    when ``dump_dir`` is given.  ``tolerance`` must be finite and positive:
    a NaN one would pass every instance and a negative one fail every one.
    """
    if count < 0:
        raise ValueError("count cannot be negative")
    if not 0.0 < tolerance < np.inf:
        raise ValueError(f"tolerance must be finite and positive, got {tolerance}")
    evaluate_fn = evaluate_fn or evaluate
    cfg = cfg or EvalConfig()
    failures: list[CheckFailure] = []
    records: list[InstanceRecord] = []
    for i in range(count):
        inst = random_instance([seed, i], bounds)
        message = None
        result = brute_minimax(inst, cfg)
        report = evaluate_fn(inst.phi, inst.model, cfg)
        gap_mm = float(np.max(np.abs(result.minimax - result.maximin)))
        gap_de = float(np.max(np.abs(result.minimax - report.result)))
        records.append(InstanceRecord(
            i, inst.template, inst.model.space.size,
            result.table.shape[0] * result.table.shape[1], gap_mm, gap_de,
            report.converged))
        if not report.converged:
            message = (f"instance {i}: evaluate did not converge within "
                       f"{cfg.max_iterations} iterations")
        elif gap_mm > tolerance or gap_de > tolerance:
            message = (f"instance {i}: |minimax - maximin| = {gap_mm:.3e}, "
                       f"|minimax - evaluate| = {gap_de:.3e}")
        if message is not None:
            dump_paths = ()
            if dump_dir is not None:
                dump_paths = _dump_instance(dump_dir, i, inst)
            failures.append(CheckFailure(i, message, dump_paths))
    return CrosscheckReport(checked=count, failures=tuple(failures),
                            instances=tuple(records))


def _dump_instance(dump_dir, index: int, inst: TinyInstance) -> tuple[str, ...]:
    import os

    from .modelio import save_model

    os.makedirs(dump_dir, exist_ok=True)
    model_path = os.path.join(str(dump_dir), f"counterexample_{index}.model.json")
    formula_path = os.path.join(str(dump_dir), f"counterexample_{index}.formula.txt")
    save_model(model_path, inst.model)
    with open(formula_path, "w", encoding="utf-8") as fh:
        fh.write(pretty_print(inst.phi) + "\n")
    return (model_path, formula_path)
