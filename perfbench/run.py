"""Benchmark for qmu: one workload per run, end-to-end or per-layer metrics.

Run from the root of a checkout::

    python3 perfbench/run.py --workload futures --seed 1 --seconds 15 --trace 0

The workloads are ``futures``, ``scaled`` and ``crosscheck`` (see README.md
beside this file).  A run sets up, then repeats whole rounds
of the workload's job list until ``--seconds`` have passed, checking every
job's outputs against answers computed apart from qmu.  It prints a summary,
then as its last line one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  A traced run alternates untraced and
traced rounds, takes the per-layer numbers from the traced ones, reports the
tracing overhead between the two, and writes its spans to
``perfbench/out/trace-<workload>-seed<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import resource
import shutil
import statistics
import sys
import time
from typing import NamedTuple

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")

#: Candidate tail percentiles, highest first.
PERCENTILES = (99, 95, 90, 75)

EXIT_NO_PROGRAM = 2
EXIT_CHECK_BROKEN = 3

def _import_qmu() -> float:
    """Import qmu from this checkout's ``src``; returns the seconds taken."""
    if not os.path.isfile(os.path.join(SRC, "qmu", "__init__.py")):
        print(f"error: no qmu sources under {SRC}", file=sys.stderr)
        sys.exit(EXIT_NO_PROGRAM)
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import qmu
    import qmu.examples
    import qmu.modelio
    seconds = time.perf_counter() - start
    if not os.path.abspath(qmu.__file__).startswith(SRC + os.sep):
        print(f"error: qmu was imported from {qmu.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(EXIT_NO_PROGRAM)
    return seconds


def _cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


class Round(NamedTuple):
    traced: bool
    times: list       # wall seconds per job
    cpus: list        # CPU seconds per job, all threads of the process
    iterations: list  # iterations qmu reported per job


class Tally:
    """Attempted and failed jobs, and the failure messages with counts."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.messages = collections.Counter()

    def count(self, failures: list[str]) -> None:
        self.attempted += 1
        if failures:
            self.failed += 1
            self.correct = False
        self.messages.update(failures)


def _self_check(wl, job, out, tally: Tally) -> None:
    """Check the warm-up outputs, then that each perturbation is caught."""
    failures = wl.check(job, out)
    if failures:
        tally.correct = False
        tally.messages.update(f"warm-up: {message}" for message in failures)
    for description, perturbed in wl.perturbations(out):
        probe = Tally()
        probe.count(wl.check(job, perturbed))
        if not probe.failed:
            print(f"error: the {wl.name} check passes outputs perturbed by: "
                  f"{description}", file=sys.stderr)
            sys.exit(EXIT_CHECK_BROKEN)


def _setup(wl, tr) -> tuple[list[float], object, object]:
    reps = []
    for _ in range(wl.setup_reps):
        start = time.perf_counter()
        wl.build(tr)
        job = wl.warmup_job()
        out = wl.run(job, tr)
        reps.append(time.perf_counter() - start)
    return reps, job, out


def _rounds(wl, seconds: float, tally: Tally, tracer, wrap_layers, null) -> list:
    """Whole rounds of the job list until ``seconds`` pass.

    With a tracer, odd rounds are traced and there are at least two rounds.
    """
    deadline = time.perf_counter() + seconds
    rounds = []
    job_id = 0
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        tr = tracer if traced else null
        times, cpus, iterations = [], [], []
        if traced:
            wrap_layers(tracer)
        try:
            for job in wl.jobs(len(rounds)):
                tr.job = job_id
                job_id += 1
                cpu0 = _cpu()
                start = time.perf_counter()
                try:
                    out = wl.run(job, tr)
                except Exception as exc:  # a failed job is counted, not fatal
                    out = None
                    failures = [f"error: {type(exc).__name__}: {exc}"]
                times.append(time.perf_counter() - start)
                cpus.append(_cpu() - cpu0)
                if out is not None:
                    failures = wl.check(job, out)
                    iterations.append(out["iterations"])
                tally.count(failures)
        finally:
            if traced:
                tracer.unwrap()
        rounds.append(Round(traced, times, cpus, iterations))
        if time.perf_counter() >= deadline and (tracer is None or len(rounds) >= 2):
            return rounds


def _throughput(rounds) -> float:
    """Median over rounds of jobs per second of job wall time."""
    return statistics.median(len(r.times) / sum(r.times) for r in rounds)


def _tail(times: list[float]) -> str:
    n = len(times)
    for q in PERCENTILES:
        if n * (100 - q) / 100 >= 10:
            value = statistics.quantiles(times, n=100)[q - 1]
            return f"p{q} {1e3 * value:.1f} ms over {n} jobs"
    return f"median only, {n} jobs (a tail needs 40)"


def _layer_metrics(tracer, setup_counts, rounds, cli_s, layers) -> dict:
    traced = [r for r in rounds if r.traced]
    plain = [r for r in rounds if not r.traced]
    jobs = sum(len(r.times) for r in traced)
    calls, secs, tallies = tracer.calls, tracer.seconds, tracer.tallies
    for name, (n, s) in setup_counts.items():
        calls[name] += n
        secs[name] += s

    def mean(names, scale, per=None):
        n = calls[per or names[0]]
        return scale * sum(secs[name] for name in names) / n if n else 0.0

    plays = calls["game.play"]
    metrics = {
        "core.product_us": (mean(["core.pre_expectation_all"], 1e6), "us"),
        "core.products_per_job": (calls["core.pre_expectation_all"] / jobs, "count"),
        "core.validate_ms": (mean(["core.validate"], 1e3), "ms"),
        "modelio.load_ms": (mean(["modelio.load_model"], 1e3), "ms"),
        "formula.parse_reduce_us": (
            mean(["formula.parse", "formula.reduce"], 1e6, "formula.parse"), "us"),
        "evaluator.evaluate_ms": (mean(["evaluator.evaluate"], 1e3), "ms"),
        "evaluator.reported_iterations": (
            statistics.mean(it for r in traced for it in r.iterations), "count"),
        "strategy.synthesize_ms": (mean(["strategy.synthesize"], 1e3), "ms"),
        "strategy.verify_ms": (mean(["strategy.verify_strategy"], 1e3), "ms"),
        "game.playouts_per_s": (
            plays / secs["game.estimate"] if secs["game.estimate"] else 0.0, "1/s"),
        "game.steps_per_playout": (tallies["game.play"] / plays if plays else 0.0,
                                   "count"),
        "examples.tables_ms": (mean(["examples.case_study_tables"], 1e3), "ms"),
        "oracle.random_instance_ms": (mean(["oracle.random_instance"], 1e3), "ms"),
        "oracle.pairs_per_job": (calls["evaluator.evaluate[oracle]"] / jobs, "count"),
        "oracle.pair_evaluate_us": (mean(["evaluator.evaluate[oracle]"], 1e6), "us"),
        "process.cpu_s_per_job": (
            sum(sum(r.cpus) for r in plain) / sum(len(r.times) for r in plain), "s"),
        "cli.eval_s": (cli_s, "s"),
        "trace.overhead_pct": (
            100.0 * (_throughput(plain) / _throughput(traced) - 1.0), "%"),
    }
    for layer in layers:
        metrics[f"{layer}.self_ms"] = (1e3 * tracer.self_seconds[layer] / jobs, "ms")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_s = _import_qmu()
    from spans import NullTracer, Tracer
    from workloads import LAYERS, WORKLOADS, wrap_layers

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    workdir = os.path.join(OUT, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, workdir)
    null = NullTracer()
    tracer = Tracer() if args.trace else None
    tally = Tally()
    try:
        wl.prepare()
        if tracer is not None:
            tracer.job = "setup"
            wrap_layers(tracer)
            try:
                reps, warm_job, warm = _setup(wl, tracer)
            finally:
                tracer.unwrap()
            setup_counts = {name: (tracer.calls[name], tracer.seconds[name])
                            for name in ("modelio.load_model", "core.validate")}
            tracer.reset_counts()
        else:
            reps, warm_job, warm = _setup(wl, null)
        wl.reference()
        _self_check(wl, warm_job, warm, tally)
        rounds = _rounds(wl, args.seconds, tally, tracer, wrap_layers, null)
        if tracer is not None:
            tracer.job = "cli"
            cli_s = wl.cli_eval(tracer)
            spans_path = os.path.join(OUT, f"trace-{wl.name}-seed{args.seed}.jsonl")
            tracer.write(spans_path)
            metrics = _layer_metrics(tracer, setup_counts, rounds, cli_s, LAYERS)
        else:
            times = [t for r in rounds for t in r.times]
            metrics = {
                "setup_s": (import_s + statistics.median(reps), "s"),
                "jobs_per_s": (_throughput(rounds), "1/s"),
                "job_p50_ms": (1e3 * statistics.median(times), "ms"),
                "peak_rss_mb": (
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
    finally:
        wl.close()
        shutil.rmtree(workdir, ignore_errors=True)

    all_times = [t for r in rounds if not r.traced for t in r.times]
    print(f"workload {wl.name}, seed {args.seed}: {len(rounds)} rounds, "
          f"{tally.attempted} jobs, {tally.failed} failed")
    print(f"set-up: import {import_s:.3f} s, repetitions "
          + ", ".join(f"{r:.3f}" for r in reps) + " s")
    print(f"job time: median {1e3 * statistics.median(all_times):.1f} ms, "
          f"{_tail(all_times)}")
    for message, n in sorted(tally.messages.items()):
        print(f"{n} x {message}")
    if tracer is not None:
        print(f"spans: {len(tracer.spans)} written to {os.path.relpath(spans_path, ROOT)}")
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
