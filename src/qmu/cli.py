"""Command-line front end.

Commands: ``eval``, ``synthesize``, ``simulate``, ``crosscheck``,
``example``.  Exit codes: 0 success, 1 input error (a usage error
included), 2 evaluator non-convergence, 3 property failure (crosscheck
found a counterexample).  All commands are deterministic functions of
their arguments, inputs and seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

from . import examples
from .core import ModelError
from .evaluator import (
    EvalConfig, EvaluationError, NotConvergedError, StrategyError, evaluate_fix,
)
from .formula import ParseError, ReduceError, parse, reduce
from .game import GameError, estimate
from .modelio import ModelFileError, load_model, save_model
from .oracle import InstanceBounds, StrategySpaceError, crosscheck
from .strategy import load_strategy, save_strategy, synthesize, verify_strategy

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NOT_CONVERGED = 2
EXIT_PROPERTY_FAILURE = 3

class _InputError(Exception):
    """Arguments that do not fit together."""


#: qmu's named error classes, which report bad inputs, and OSError for
#: unreadable files.  Any other exception, a bare ValueError included, is a
#: fault of the program and escapes :func:`main`.
_INPUT_ERRORS = (_InputError, ModelError, ModelFileError, ParseError,
                 ReduceError, EvaluationError, StrategyError, StrategySpaceError,
                 GameError, OSError)


def _from_arguments(make, **values):
    """``make(**values)``, built from command-line values, whose
    ``ValueError`` is an input error."""
    try:
        return make(**values)
    except ValueError as exc:
        raise _InputError(str(exc)) from None


class _Parser(argparse.ArgumentParser):
    """A usage error is an input error: one ``error:`` line, exit code 1.
    Subparsers are made of the same class."""

    def error(self, message):
        raise _InputError(f"{self.prog}: {message}")


def _inputs(args):
    """The model, the reduced formula and the configuration of an evaluating
    command.  The formula argument is a file when one exists, inline text
    otherwise, and a file is read as UTF-8."""
    model = load_model(args.model)
    text = args.formula
    if os.path.exists(text):
        with open(text, encoding="utf-8") as fh:
            try:
                text = fh.read()
            except UnicodeDecodeError as exc:
                raise _InputError(f"{fh.name}: formula is not UTF-8: {exc}") from None
    phi = parse(text, known_symbols=set(model.valuation.expectations))
    return (model, reduce(phi, model.valuation),
            _from_arguments(EvalConfig, tolerance=args.tol,
                            max_iterations=args.max_iters))


def _emit(args, payload, lines, sort_keys=True) -> None:
    """Print ``payload`` as JSON under ``--json``, the text ``lines`` otherwise."""
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=sort_keys))
    else:
        for line in lines:
            print(line)


def cmd_eval(args) -> int:
    model, phi, cfg = _inputs(args)
    report = evaluate_fix(phi, model, cfg)
    states = (range(model.space.size) if args.state is None
              else [model.space.index(args.state)])
    scale, digits = (10.0, 2) if args.dollars else (1.0, 6)
    values = {model.space.labels[s]: scale * float(report.result[s])
              for s in states}
    stats = report.fixpoints
    _emit(args, {
        "values": values,
        "converged": report.converged,
        "fixpoints": {name: {key: value for key, value in vars(st).items()
                             if key != "binder"}
                      for name, st in stats.items()},
    }, [*(f"{label} {value:.{digits}f}" for label, value in values.items()),
        *(f"# fixpoint {name}: {st.iterations} iterations, "
          f"residual {st.residual:.3e}, "
          f"{'converged' if st.converged else 'NOT CONVERGED'}"
          for name, st in stats.items())])
    return EXIT_OK if report.converged else EXIT_NOT_CONVERGED


def cmd_synthesize(args) -> int:
    model, phi, cfg = _inputs(args)
    strategy, value = synthesize(phi, model, cfg)
    if args.out:
        save_strategy(args.out, strategy, phi)
    residual = verify_strategy(phi, model, strategy, cfg, base=value)
    states = (range(model.space.size) if args.state is None
              else [model.space.index(args.state)])
    values = {model.space.labels[s]: float(value[s]) for s in states}
    _emit(args, {
        "values": values,
        "residual": residual,
        "min_sites": len(strategy.min_choices or ()),
        "max_sites": len(strategy.max_choices or ()),
        "out": args.out,
    }, [*(f"{label} {v:.6f}" for label, v in values.items()),
        f"# specialisation residual {residual:.3e}",
        *([f"# strategy written to {args.out}"] if args.out else [])])
    return EXIT_OK


def cmd_simulate(args) -> int:
    for flag, value in (("--paths", args.paths), ("--max-depth", args.max_depth)):
        if value < 1:
            raise _InputError(f"{flag} must be at least 1, got {value}")
    if args.seed < 0:
        raise _InputError(f"--seed cannot be negative, got {args.seed}")
    model, phi, cfg = _inputs(args)
    if args.synthesize:
        strategy, _ = synthesize(phi, model, cfg)
    else:
        strategy = load_strategy(args.strategy, phi)
    sigma_min, sigma_max = strategy.path_strategies()
    s0 = model.space.index(args.state)
    result = estimate(phi, model, s0, sigma_min, sigma_max,
                      n_paths=args.paths, max_depth=args.max_depth,
                      seed=args.seed)
    truncated_fraction = result.n_truncated / args.paths
    _emit(args, {
        **result._asdict(),
        "state": args.state,
        "paths": args.paths,
        "seed": args.seed,
        "max_depth": args.max_depth,
        "truncated_fraction": truncated_fraction,
    }, [f"mean bracket [{result.mean_low:.6f}, {result.mean_high:.6f}]",
        f"std error {result.std_error:.6f}",
        f"truncated {result.n_truncated}/{args.paths} "
        f"({100 * truncated_fraction:.3f}%): {result.truncated_mu} mu, "
        f"{result.truncated_nu} nu, {result.truncated_budget} step budget",
        f"steps per playout mean {result.mean_steps:.3f}, "
        f"max {result.max_steps}"])
    return EXIT_OK


def cmd_crosscheck(args) -> int:
    for flag, value in (("--count", args.count), ("--seed", args.seed)):
        if value < 0:
            raise _InputError(f"{flag} cannot be negative, got {value}")
    bounds = _from_arguments(InstanceBounds, max_states=args.max_states,
                             max_min_sites=args.max_min_sites,
                             max_max_sites=args.max_max_sites)
    report = crosscheck(args.count, args.seed, bounds,
                        _from_arguments(EvalConfig, tolerance=args.tol),
                        dump_dir=args.dump)
    _emit(args, {
        "checked": report.checked,
        "failures": [asdict(failure) for failure in report.failures],
        "instances": [asdict(record) for record in report.instances],
    }, [f"checked {report.checked} instances, {len(report.failures)} failures",
        *(line for failure in report.failures
          for line in (f"FAIL {failure.message}",
                       *(f"  dumped {path}" for path in failure.dump_paths)))])
    return EXIT_OK if report.ok else EXIT_PROPERTY_FAILURE


def cmd_example(args) -> int:
    if args.name == "futures":
        model = examples.futures_model()
        formula_texts = {"game": examples.GAME_TEXT,
                         "atleast6": examples.AT_LEAST_6_TEXT}
    else:
        model, _ = examples.vardi_model()
        formula_texts = {"game": examples.VARDI_TEXT}
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        model_path = os.path.join(args.out, f"{args.name}.model.json")
        save_model(model_path, model)
        print(f"wrote {model_path}", file=sys.stderr)
        for label, text in formula_texts.items():
            formula_path = os.path.join(args.out, f"{args.name}.{label}.formula.txt")
            with open(formula_path, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
            print(f"wrote {formula_path}", file=sys.stderr)
    if args.table:
        if args.name != "futures":
            raise _InputError("tables are only defined for the futures example")
        tables = examples.case_study_tables(
            _from_arguments(EvalConfig, tolerance=args.tol), model)
        names = list(tables) if args.table == "all" else [args.table]
        for name in names:
            if name not in tables:
                raise _InputError(
                    f"unknown table {name!r}; choose from {sorted(tables)} or 'all'")
        rows = [(tables[name].name, label, values)
                for name in names for label, values in tables[name].rows.items()]
        _emit(args, [{"table": table, "label": label, "values": values}
                     for table, label, values in rows],
              ["label," + ",".join(f"v{v}" for v in range(11)),
               *(label + "," + ",".join(f"{x:.2f}" for x in values)
                 for _, label, values in rows)], sort_keys=False)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qmu",
        description="Evaluate, solve and simulate quantitative mu-calculus "
                    "formulae over finite probabilistic models.")
    sub = parser.add_subparsers(dest="command", required=True)

    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--tol", type=float, default=1e-9,
                        help="fixpoint convergence tolerance (sup norm)")
    shared.add_argument("--json", action="store_true", help="machine-readable output")
    evaluating = argparse.ArgumentParser(add_help=False, parents=[shared])
    evaluating.add_argument("model")
    evaluating.add_argument("formula", help="formula file or inline text")
    evaluating.add_argument("--max-iters", type=int, default=1_000_000,
                            dest="max_iters", help="iteration cap per fixpoint")

    p = sub.add_parser("eval", parents=[evaluating],
                       help="evaluate a formula on a model")
    p.add_argument("--state", help="state label to report")
    p.add_argument("--dollars", action="store_true",
                   help="display values rescaled by 10 to two decimals")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("synthesize", parents=[evaluating],
                       help="extract a memoriless strategy (ties go left, "
                            "which can be suboptimal: check the residual)")
    p.add_argument("--out", help="strategy file to write")
    p.add_argument("--state", help="state label to report")
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("simulate", parents=[evaluating],
                       help="Monte-Carlo playouts under fixed strategies")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--strategy", help="strategy file (fingerprint-checked)")
    source.add_argument("--synthesize", action="store_true",
                        help="synthesise the strategy instead of loading one")
    p.add_argument("--state", required=True, help="initial state label")
    p.add_argument("--paths", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-depth", type=int, default=200, dest="max_depth")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("crosscheck", parents=[shared],
                       help="random minimax = maximin = evaluation checks")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-states", type=int, default=4, dest="max_states")
    p.add_argument("--max-min-sites", type=int, default=2, dest="max_min_sites")
    p.add_argument("--max-max-sites", type=int, default=2, dest="max_max_sites")
    p.add_argument("--dump", help="directory for counterexample dumps")
    p.set_defaults(func=cmd_crosscheck)

    p = sub.add_parser("example", parents=[shared],
                       help="emit built-in models and tables")
    p.add_argument("name", choices=("futures", "vardi"))
    p.add_argument("--table",
                   help="futures table to print: optimal, yield, onemonth, "
                        "probability, or all")
    p.add_argument("--out", help="directory to write model/formula files")
    p.set_defaults(func=cmd_example)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except NotConvergedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
