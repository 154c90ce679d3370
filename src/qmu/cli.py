"""Command-line front end.

Commands: ``eval``, ``synthesize``, ``simulate``, ``crosscheck``,
``example``.  Exit codes: 0 success, 1 input error, 2 evaluator
non-convergence, 3 property failure (crosscheck found a counterexample).
All commands are deterministic functions of their arguments, inputs and
seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import examples
from .core import Model
from .evaluator import EvalConfig, NotConvergedError, evaluate_fix
from .formula import parse, reduce
from .game import estimate
from .modelio import load_model, save_model
from .oracle import InstanceBounds, crosscheck
from .strategy import load_strategy, save_strategy, synthesize, verify_strategy

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NOT_CONVERGED = 2
EXIT_PROPERTY_FAILURE = 3

class _InputError(Exception):
    """Arguments that do not fit together."""


#: Every qmu error is a ValueError; OSError covers unreadable files.
_INPUT_ERRORS = (_InputError, ValueError, OSError)


def _load_formula_arg(source: str, model: Model):
    """Treat the argument as a file when one exists, inline text otherwise."""
    if os.path.exists(source):
        with open(source) as fh:
            text = fh.read()
    else:
        text = source
    known = set(model.valuation.expectations)
    phi = parse(text, known_symbols=known)
    return reduce(phi, model.valuation)


def _state_indices(args, model: Model) -> list[int]:
    if getattr(args, "all_states", False):
        return list(range(model.space.size))
    if getattr(args, "state", None) is not None:
        return [model.space.index(args.state)]
    return list(range(model.space.size))


def _config(args) -> EvalConfig:
    return EvalConfig(tolerance=args.tol, max_iterations=args.max_iters)


def cmd_eval(args) -> int:
    model = load_model(args.model)
    phi = _load_formula_arg(args.formula, model)
    cfg = _config(args)
    report = evaluate_fix(phi, model, cfg)
    states = _state_indices(args, model)
    scale = 10.0 if args.dollars else 1.0
    if args.json:
        payload = {
            "values": {model.space.labels[s]: scale * float(report.result[s])
                       for s in states},
            "converged": report.converged,
            "fixpoints": {name: {key: value for key, value in vars(st).items()
                                 if key != "binder"}
                          for name, st in report.fixpoints.items()},
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for s in states:
            value = scale * float(report.result[s])
            text = f"{value:.2f}" if args.dollars else f"{value:.6f}"
            print(f"{model.space.labels[s]} {text}")
        for name, st in report.fixpoints.items():
            print(f"# fixpoint {name}: {st.iterations} iterations, "
                  f"residual {st.residual:.3e}, "
                  f"{'converged' if st.converged else 'NOT CONVERGED'}")
    return EXIT_OK if report.converged else EXIT_NOT_CONVERGED


def cmd_synthesize(args) -> int:
    model = load_model(args.model)
    phi = _load_formula_arg(args.formula, model)
    cfg = _config(args)
    strategy, value = synthesize(phi, model, cfg)
    if args.out:
        save_strategy(args.out, strategy, phi)
    residual = verify_strategy(phi, model, strategy, cfg, base=value)
    states = _state_indices(args, model)
    if args.json:
        payload = {
            "values": {model.space.labels[s]: float(value[s]) for s in states},
            "residual": residual,
            "min_sites": len(strategy.min_choices or ()),
            "max_sites": len(strategy.max_choices or ()),
            "out": args.out,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for s in states:
            print(f"{model.space.labels[s]} {float(value[s]):.6f}")
        print(f"# specialisation residual {residual:.3e}")
        if args.out:
            print(f"# strategy written to {args.out}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    model = load_model(args.model)
    phi = _load_formula_arg(args.formula, model)
    cfg = _config(args)
    if args.strategy:
        strategy = load_strategy(args.strategy, phi)
        strategy.check_shape(phi, model.space.size)
    elif args.synthesize:
        strategy, _ = synthesize(phi, model, cfg)
    else:
        raise _InputError("pass --strategy FILE or --synthesize")
    sigma_min, sigma_max = strategy.path_strategies()
    s0 = model.space.index(args.state)
    result = estimate(phi, model, s0, sigma_min, sigma_max,
                      n_paths=args.paths, max_depth=args.max_depth,
                      seed=args.seed)
    truncated_fraction = result.n_truncated / args.paths
    if args.json:
        payload = {
            "state": args.state,
            "paths": args.paths,
            "seed": args.seed,
            "max_depth": args.max_depth,
            "mean_low": result.mean_low,
            "mean_high": result.mean_high,
            "std_error": result.std_error,
            "n_truncated": result.n_truncated,
            "truncated_fraction": truncated_fraction,
            "truncated_mu": result.truncated_mu,
            "truncated_nu": result.truncated_nu,
            "truncated_budget": result.truncated_budget,
            "mean_steps": result.mean_steps,
            "max_steps": result.max_steps,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"mean bracket [{result.mean_low:.6f}, {result.mean_high:.6f}]")
        print(f"std error {result.std_error:.6f}")
        print(f"truncated {result.n_truncated}/{args.paths} "
              f"({100 * truncated_fraction:.3f}%): {result.truncated_mu} mu, "
              f"{result.truncated_nu} nu, {result.truncated_budget} step budget")
        print(f"steps per playout mean {result.mean_steps:.3f}, "
              f"max {result.max_steps}")
    return EXIT_OK


def cmd_crosscheck(args) -> int:
    bounds = InstanceBounds(max_states=args.max_states,
                            max_min_sites=args.max_min_sites,
                            max_max_sites=args.max_max_sites)
    report = crosscheck(args.count, args.seed, bounds,
                        EvalConfig(tolerance=args.tol),
                        dump_dir=args.dump)
    if args.json:
        payload = {
            "checked": report.checked,
            "failures": [{"index": f.index, "message": f.message,
                          "dump_paths": list(f.dump_paths)}
                         for f in report.failures],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"checked {report.checked} instances, {len(report.failures)} failures")
        for failure in report.failures:
            print(f"FAIL {failure.message}")
            for path in failure.dump_paths:
                print(f"  dumped {path}")
    return EXIT_OK if report.ok else EXIT_PROPERTY_FAILURE


def _emit_tables(tables, names, as_json) -> None:
    if as_json:
        payload = [
            {"table": tables[name].name, "label": label,
             "values": values}
            for name in names
            for label, values in tables[name].rows.items()
        ]
        print(json.dumps(payload, indent=2))
        return
    header = "label," + ",".join(f"v{v}" for v in range(11))
    print(header)
    for name in names:
        for label, values in tables[name].rows.items():
            print(label + "," + ",".join(f"{x:.2f}" for x in values))


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
        print(f"wrote {model_path}")
        for label, text in formula_texts.items():
            formula_path = os.path.join(args.out, f"{args.name}.{label}.formula.txt")
            with open(formula_path, "w") as fh:
                fh.write(text + "\n")
            print(f"wrote {formula_path}")
    if args.table:
        if args.name != "futures":
            raise _InputError("tables are only defined for the futures example")
        tables = examples.case_study_tables(EvalConfig(tolerance=args.tol), model)
        names = list(tables) if args.table == "all" else [args.table]
        for name in names:
            if name not in tables:
                raise _InputError(
                    f"unknown table {name!r}; choose from {sorted(tables)} or 'all'")
        _emit_tables(tables, names, args.json)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmu",
        description="Evaluate, solve and simulate quantitative mu-calculus "
                    "formulae over finite probabilistic models.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--tol", type=float, default=1e-9,
                       help="fixpoint convergence tolerance (sup norm)")
        p.add_argument("--max-iters", type=int, default=1_000_000,
                       dest="max_iters", help="iteration cap per fixpoint")
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("eval", help="evaluate a formula on a model")
    p.add_argument("model")
    p.add_argument("formula", help="formula file or inline text")
    p.add_argument("--state", help="state label to report")
    p.add_argument("--all-states", action="store_true", dest="all_states")
    p.add_argument("--dollars", action="store_true",
                   help="display values rescaled by 10 to two decimals")
    add_common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("synthesize", help="extract an optimal memoriless strategy")
    p.add_argument("model")
    p.add_argument("formula")
    p.add_argument("--out", help="strategy file to write")
    p.add_argument("--state", help="state label to report")
    p.add_argument("--all-states", action="store_true", dest="all_states")
    add_common(p)
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("simulate", help="Monte-Carlo playouts under fixed strategies")
    p.add_argument("model")
    p.add_argument("formula")
    p.add_argument("--strategy", help="strategy file (fingerprint-checked)")
    p.add_argument("--synthesize", action="store_true",
                   help="synthesise the strategy instead of loading one")
    p.add_argument("--state", required=True, help="initial state label")
    p.add_argument("--paths", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-depth", type=int, default=200, dest="max_depth")
    add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("crosscheck",
                       help="random minimax = maximin = evaluation checks")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-states", type=int, default=4, dest="max_states")
    p.add_argument("--max-min-sites", type=int, default=2, dest="max_min_sites")
    p.add_argument("--max-max-sites", type=int, default=2, dest="max_max_sites")
    p.add_argument("--dump", help="directory for counterexample dumps")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_crosscheck)

    p = sub.add_parser("example", help="emit built-in models and tables")
    p.add_argument("name", choices=("futures", "vardi"))
    p.add_argument("--table",
                   help="futures table to print: optimal, yield, onemonth, "
                        "probability, or all")
    p.add_argument("--out", help="directory to write model/formula files")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_example)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NotConvergedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
