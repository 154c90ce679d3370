"""The three workloads: their inputs, one job, and the check of its outputs.

Every workload has the same shape:

- ``prepare()`` makes the raw inputs from the seed (not timed);
- ``build(tr)`` builds and saves models through qmu's API (set-up);
- ``run(job, tr)`` is one timed job and returns its outputs;
- ``reference()`` computes the independent answers (not timed);
- ``check(job, out)`` compares outputs with them and returns a message
  per failure;
- ``perturbations(out)`` gives outputs, each perturbed beyond a tolerance,
  that ``check`` must fail, so that each run shows its checks can fail.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import numpy as np

from qmu import core, evaluator, examples, formula, game, modelio, oracle, strategy

import reference

#: qmu's stated iteration tolerance, against which its answers are held.
TOL = evaluator.EvalConfig().tolerance

#: A synthesised strategy's verify residual may reach this many tolerances.
VERIFY_SLACK = 10

#: The in-process layers whose self time per job is reported.
LAYERS = ("core", "modelio", "formula", "evaluator", "strategy", "game",
          "oracle", "examples")


def wrap_layers(tr) -> None:
    """Wrap the names one qmu layer calls in another, for a traced round.

    Each name is replaced in the namespace of the module that calls it, so
    only those calls are seen.  The products, pair evaluations and playouts
    are counted without keeping a span each.
    """
    tr.wrap(evaluator, "pre_expectation_all", "core.pre_expectation_all")
    tr.wrap(modelio, "validate", "core.validate", keep=True)
    tr.wrap(strategy, "evaluate", "evaluator.evaluate[strategy]", keep=True)
    tr.wrap(strategy, "converged_walk", "evaluator.converged_walk[strategy]",
            keep=True)
    tr.wrap(examples, "evaluate", "evaluator.evaluate[examples]", keep=True)
    tr.wrap(examples, "parse", "formula.parse", keep=True)
    tr.wrap(examples, "reduce", "formula.reduce", keep=True)
    tr.wrap(game, "play", "game.play", tally=lambda result: result.steps)
    tr.wrap(oracle, "random_instance", "oracle.random_instance", keep=True)
    tr.wrap(oracle, "parse", "formula.parse", keep=True)
    tr.wrap(oracle, "reduce", "formula.reduce", keep=True)
    tr.wrap(oracle, "brute_minimax", "oracle.brute_minimax", keep=True)
    tr.wrap(oracle, "evaluate", "evaluator.evaluate[oracle]")


def _parse_reduce(text: str, model, tr):
    with tr.span("formula.parse"):
        phi = formula.parse(text)
    with tr.span("formula.reduce"):
        return formula.reduce(phi, model.valuation)


def _evaluate(phi, model, tr):
    with tr.span("evaluator.evaluate"):
        return evaluator.evaluate(phi, model)


def _iterations(*reports) -> int:
    """Iterations as qmu reports them (for each binder, its last solve)."""
    return sum(st.iterations for rep in reports for st in rep.fixpoints.values())


def _gap(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


class Workload:
    name = ""
    #: Set-up is repeated this many times and its median reported.
    setup_reps = 5

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def prepare(self) -> None:
        pass

    def build(self, tr) -> None:
        pass

    def reference(self) -> None:
        pass

    def close(self) -> None:
        pass

    def cli_eval(self, tr) -> float:
        """Seconds of one ``qmu eval`` subprocess, or 0 when not exercised."""
        return 0.0


# --- futures -----------------------------------------------------------------

ALT_TEXT = "nu Y . mu X . (atLeast6 /\\ <month> Y) \\/ <month> X"
START = "v6_p5_c10"
PLAYOUTS = 2000
MAX_DEPTH = 200
#: The playout mean must lie this many standard errors from the value.
PLAYOUT_SE = 4.0
#: Paper table rows at p = 0.5, c = 10 for v = 0..10, as in
#: tests/test_acceptance.py, and how far a computed row may stray.
TABLE_SLACK = 0.01
PAPER_ROWS = {
    "optimal": ([4.16, 4.30, 4.55, 4.88, 5.24, 5.52, 6.00, 7.00, 8.00, 9.00, 9.50],),
    "yield": ([3.68, 3.79, 3.97, 4.17, 4.29, 4.17, 4.16, 4.65, 5.61, 6.78, 9.50],),
    "onemonth": ([0.50, 1.00, 2.00, 3.00, 4.00, 5.00, 6.00, 7.00, 8.00, 9.00, 9.50],),
    "probability": ([0.25, 0.29, 0.34, 0.41, 0.46, 0.50, 0.56, 1.00, 1.00, 1.00, 1.00],
                    [0.25, 0.28, 0.33, 0.37, 0.42, 0.50, 0.50, 1.00, 1.00, 1.00, 1.00]),
}


class Futures(Workload):
    """The paper's case study on the 1331-state model loaded from JSON."""

    name = "futures"

    def prepare(self):
        self.path = os.path.join(self.workdir, "futures.model.json")

    def build(self, tr):
        with tr.span("examples.futures_model"):
            model = examples.futures_model()
        with tr.span("modelio.save_model"):
            modelio.save_model(self.path, model)
        with tr.span("modelio.load_model"):
            self.model = modelio.load_model(self.path)

    def warmup_job(self):
        return [self.seed, 0]

    def jobs(self, round_index: int) -> list:
        return [[self.seed, 1, round_index]]

    def run(self, playout_seed, tr) -> dict:
        m = self.model
        phi = _parse_reduce(examples.GAME_TEXT, m, tr)
        rep = _evaluate(phi, m, tr)
        with tr.span("strategy.synthesize"):
            strat, value = strategy.synthesize(phi, m)
        with tr.span("strategy.verify_strategy"):
            residual = strategy.verify_strategy(phi, m, strat)
        with tr.span("examples.case_study_tables"):
            tables = examples.case_study_tables(model=m)
        alt = _parse_reduce(ALT_TEXT, m, tr)
        alt_rep = _evaluate(alt, m, tr)
        sigma_min, sigma_max = strat.path_strategies()
        s0 = m.space.index(START)
        with tr.span("game.estimate"):
            est = game.estimate(phi, m, s0, sigma_min, sigma_max,
                                n_paths=PLAYOUTS, max_depth=MAX_DEPTH,
                                seed=playout_seed)
        return {
            "game": rep.result, "converged": rep.converged and alt_rep.converged,
            "value": value, "residual": residual,
            "tables": {name: [list(row) for row in table.rows.values()]
                       for name, table in tables.items()},
            "alt": alt_rep.result,
            "playout": (est.mean_low, est.mean_high, est.std_error),
            "iterations": _iterations(rep, alt_rep),
        }

    def reference(self):
        with open(self.path) as fh:
            data = json.load(fh)
        states = data["states"]
        n = len(states)
        self.row_states = [states.index(f"v{v}_p5_c10") for v in range(11)]
        self.start = states.index(START)
        rows = data["transitions"]["month"]
        month = reference.csr([[tuple(e) for e in row["to"]] for row in rows], n)
        w = np.array([row["payoff_weight"] for row in rows])
        target = np.array(data["expectations"]["atLeast6"])
        self.alt_ref, inner, outer = reference.alternating_nest(month, w, target)
        # qmu stops each inner solve and the outer one at residual TOL; an
        # inner error e moves the outer fixpoint by at most e / (1 - outer).
        self.alt_bound = sum(
            (reference.error_bound(tol, inner) + outer * tol) / (1.0 - outer)
            for tol in (TOL, reference.REF_TOL))

    def check(self, job, out) -> list:
        bad = []
        if not out["converged"]:
            bad.append("an evaluation reports no convergence")
        optimal = [10.0 * out["game"][i] for i in self.row_states]
        gap = _gap(optimal, PAPER_ROWS["optimal"][0])
        if gap > TABLE_SLACK:
            bad.append(f"game value row is {gap:.4f} from the paper")
        for name, rows in PAPER_ROWS.items():
            got = out["tables"][name]
            gap = max((_gap(g, e) for g, e in zip(got, rows)), default=np.inf)
            if len(got) != len(rows) or gap > TABLE_SLACK + 1e-9:
                bad.append(f"table {name} is {gap:.4f} from the paper")
        gap = _gap(out["value"], out["game"])
        if gap > TOL:
            bad.append(f"synthesized value is {gap:.2e} from evaluate")
        if out["residual"] > VERIFY_SLACK * TOL:
            bad.append(f"verify residual {out['residual']:.2e} "
                       f"exceeds {VERIFY_SLACK} x {TOL:g}")
        gap = _gap(out["alt"], self.alt_ref)
        if gap > self.alt_bound:
            bad.append(f"alternating nest is {gap:.2e} from the sparse "
                       f"reference, bound {self.alt_bound:.2e}")
        low, high, se = out["playout"]
        value = float(out["game"][self.start])
        if not low - PLAYOUT_SE * se <= value <= high + PLAYOUT_SE * se:
            bad.append(f"playout mean [{low:.4f}, {high:.4f}] is over "
                       f"{PLAYOUT_SE:g} standard errors ({se:.4f}) "
                       f"from the value {value:.4f}")
        return bad

    def perturbations(self, out) -> list:
        se = out["playout"][2]
        below = float(out["game"][self.start]) - (PLAYOUT_SE + 1.0) * se - 1e-12
        shift = 0.02 / 10.0
        tables = {k: [list(r) for r in v] for k, v in out["tables"].items()}
        tables["yield"][0][3] += 2 * TABLE_SLACK
        return [
            ("game value +0.02 dollars",
             {**out, "game": out["game"] + shift, "value": out["value"] + shift}),
            ("yield table entry +0.02", {**out, "tables": tables}),
            ("verify residual x100 tolerance",
             {**out, "residual": 100 * VERIFY_SLACK * TOL}),
            ("alternating nest +2 bounds",
             {**out, "alt": out["alt"] + 2 * self.alt_bound}),
            ("playout mean 5 standard errors below the value",
             {**out, "playout": (below, below, se)}),
        ]

    def cli_eval(self, tr) -> float:
        src = os.path.dirname(os.path.dirname(examples.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        cmd = [sys.executable, "-m", "qmu.cli", "eval", self.path,
               examples.GAME_TEXT, "--state", START]
        start = time.perf_counter()
        with tr.span("cli.eval"):
            proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                                  timeout=120)
        seconds = time.perf_counter() - start
        value = proc.stdout.split()[1] if proc.returncode == 0 else None
        expected = PAPER_ROWS["optimal"][0][6] / 10.0  # v = 6, in tens of dollars
        if value is None or abs(float(value) - expected) > TABLE_SLACK / 10.0:
            raise RuntimeError(f"qmu eval exited {proc.returncode} with "
                               f"{proc.stdout!r} {proc.stderr!r}")
        return seconds


# --- scaled ------------------------------------------------------------------

N_STATES = 6000
OUT_DEGREE = 4
#: Each row's successor mass is drawn from this range; the rest halts.
MASS_RANGE = (0.55, 0.85)
SCALED_TEXT = "mu X . <a> P \\/ <a> (X /\\ <b> X)"


class Scaled(Workload):
    """A random two-transition game model of a few thousand states."""

    name = "scaled"
    setup_reps = 3  # one set-up takes about 5 s

    def prepare(self):
        rng = np.random.default_rng([self.seed, N_STATES])
        self.raw = {}
        for name in ("a", "b"):
            mass = rng.uniform(*MASS_RANGE, N_STATES)
            share = rng.random((N_STATES, OUT_DEGREE)) + 0.05
            probs = share / share.sum(axis=1, keepdims=True) * mass[:, None]
            rows = [list(zip(rng.choice(N_STATES, OUT_DEGREE, replace=False).tolist(),
                             probs[s].tolist()))
                    for s in range(N_STATES)]
            weights = ((1.0 - mass) * rng.random(N_STATES)).tolist()
            self.raw[name] = (rows, weights, float(mass.max()))
        self.payoff = rng.random(N_STATES)
        self.path = os.path.join(self.workdir, "scaled.model.json")

    def build(self, tr):
        with tr.span("core.transition"):
            transitions = {name: core.transition(rows, weights)
                           for name, (rows, weights, _) in self.raw.items()}
        space = core.StateSpace(tuple(f"s{i}" for i in range(N_STATES)))
        valuation = core.Valuation(
            expectations={"P": core.expectation(self.payoff)},
            transitions=transitions,
            transition_sets={name: (name,) for name in transitions})
        with tr.span("modelio.save_model"):
            modelio.save_model(self.path, core.Model(space, valuation))

    def warmup_job(self):
        return 0

    def jobs(self, round_index: int) -> list:
        return [0]

    def run(self, job, tr) -> dict:
        with tr.span("modelio.load_model"):
            m = modelio.load_model(self.path)
        phi = _parse_reduce(SCALED_TEXT, m, tr)
        rep = _evaluate(phi, m, tr)
        with tr.span("strategy.synthesize"):
            strat, value = strategy.synthesize(phi, m)
        with tr.span("strategy.verify_strategy"):
            residual = strategy.verify_strategy(phi, m, strat)
        return {"value": rep.result, "converged": rep.converged,
                "synthesized": value, "residual": residual,
                "iterations": _iterations(rep)}

    def reference(self):
        (rows_a, wa, mass_a), (rows_b, wb, _) = self.raw["a"], self.raw["b"]
        self.ref = reference.scaled_value(
            reference.csr(rows_a, N_STATES), np.array(wa),
            reference.csr(rows_b, N_STATES), np.array(wb), self.payoff)
        # The body contracts by at most the largest continue mass of <a>.
        self.bound = (reference.error_bound(TOL, mass_a)
                      + reference.error_bound(reference.REF_TOL, mass_a))

    def check(self, job, out) -> list:
        bad = []
        if not out["converged"]:
            bad.append("evaluation reports no convergence")
        gap = _gap(out["value"], self.ref)
        if gap > self.bound:
            bad.append(f"value is {gap:.2e} from the sparse reference, "
                       f"bound {self.bound:.2e}")
        gap = _gap(out["synthesized"], out["value"])
        if gap > TOL:
            bad.append(f"synthesized value is {gap:.2e} from evaluate")
        if out["residual"] > VERIFY_SLACK * TOL:
            bad.append(f"verify residual {out['residual']:.2e} "
                       f"exceeds {VERIFY_SLACK} x {TOL:g}")
        return bad

    def perturbations(self, out) -> list:
        shifted = out["value"].copy()
        shifted[N_STATES // 2] += 2 * self.bound
        return [
            ("one state's value +2 bounds",
             {**out, "value": shifted, "synthesized": shifted}),
            ("verify residual x100 tolerance",
             {**out, "residual": 100 * VERIFY_SLACK * TOL}),
        ]


# --- crosscheck --------------------------------------------------------------

BLOCK = 10
#: A round is the blocks ``oracle.crosscheck(BLOCK, seed=b)`` for b in
#: range(POOL_SIZE), the same in every run.  Instance cost is heavy-tailed,
#: so the seed orders the blocks but does not choose them.  The count is odd
#: so that the median job time is the middle block's own median, not the
#: mean of two blocks of different cost.  The warm-up job is block 0.
POOL_SIZE = 9
#: crosscheck's own default tolerance on both gaps.
CROSSCHECK_TOL = 1e-6


class Crosscheck(Workload):
    """Brute-force minimax against the evaluator on tiny instances."""

    name = "crosscheck"

    def prepare(self):
        # Keep every brute-force result crosscheck computes, to check it.
        self._original = oracle.brute_minimax
        self._brute = []

        def capture(inst, cfg=None):
            result = self._original(inst, cfg)
            self._brute.append(result)
            return result

        oracle.brute_minimax = capture

    def close(self):
        oracle.brute_minimax = self._original

    def warmup_job(self):
        return 0

    def jobs(self, round_index: int) -> list:
        order = np.random.default_rng([self.seed, round_index]).permutation(POOL_SIZE)
        return [int(block) for block in order]

    def run(self, block, tr) -> dict:
        self._brute.clear()
        denotations, reports = [], []

        def denote(phi, model, cfg):
            rep = _evaluate(phi, model, tr)
            reports.append(rep)
            denotations.append(rep.result)
            return rep

        with tr.span("oracle.crosscheck"):
            report = oracle.crosscheck(BLOCK, block, evaluate_fn=denote)
        return {"ok": report.ok, "checked": report.checked,
                "tables": [r.table for r in self._brute],
                "denotations": denotations,
                "iterations": _iterations(*reports)}

    def check(self, job, out) -> list:
        bad = []
        if not (out["checked"] == len(out["tables"]) == len(out["denotations"]) == BLOCK):
            return [f"block {job} checked {out['checked']} instances, "
                    f"{len(out['tables'])} brute-forced, "
                    f"{len(out['denotations'])} evaluated"]
        agree = True
        for i, (table, deno) in enumerate(zip(out["tables"], out["denotations"])):
            minimax, maximin = reference.minimax_maximin(table)
            gap_mm, gap_de = _gap(minimax, maximin), _gap(minimax, deno)
            if gap_mm > CROSSCHECK_TOL or gap_de > CROSSCHECK_TOL:
                agree = False
                bad.append(f"block {job} instance {i}: |minimax - maximin| "
                           f"= {gap_mm:.2e}, |minimax - evaluate| = {gap_de:.2e}")
        if agree != out["ok"]:
            bad.append(f"block {job}: crosscheck reports ok={out['ok']}")
        return bad

    def perturbations(self, out) -> list:
        denotations = list(out["denotations"])
        denotations[-1] = denotations[-1] + 2 * CROSSCHECK_TOL
        tables = list(out["tables"])
        tables[0] = tables[0] + 2 * CROSSCHECK_TOL
        return [
            ("last denotation +2e-6", {**out, "denotations": denotations}),
            ("first payoff table +2e-6", {**out, "tables": tables}),
        ]


WORKLOADS = {cls.name: cls for cls in (Futures, Scaled, Crosscheck)}
