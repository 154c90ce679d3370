"""Quantitative mu-calculus over finite probabilistic transition systems.

Evaluates formulae denotationally by nested fixed-point iteration,
synthesises memoriless strategies (ties go left, which can be suboptimal;
``verify_strategy``'s residual is the check), simulates the equivalent
turn-based gambling game, and cross-checks the two interpretations against
brute-force strategy enumeration at desk scale.
"""

from .core import (
    Diagnostic, Model, StateSpace, Transition, Valuation, expectation,
    halt_payoff, pre_expectation, predicate, transition, transition_from_edges,
    validate,
)
from .evaluator import (
    EvalConfig, EvalReport, PathStrategy, evaluate, evaluate_fix,
    evaluate_with_strategies,
)
from .examples import one_step_advice
from .formula import (
    alpha_equal, choice_sites, fingerprint, parse, pretty_print, reduce,
)
from .game import EstimateResult, PlayoutResult, estimate, expand_tree, play
from .oracle import (
    InstanceBounds, TinyInstance, brute_minimax, crosscheck, random_instance,
)
from .strategy import (
    MemorilessStrategy, load_strategy, save_strategy, synthesize,
    verify_strategy,
)

__all__ = [
    "Diagnostic", "EstimateResult", "EvalConfig", "EvalReport",
    "InstanceBounds", "MemorilessStrategy", "Model", "PathStrategy",
    "PlayoutResult", "StateSpace", "TinyInstance", "Transition", "Valuation",
    "alpha_equal", "brute_minimax", "choice_sites", "crosscheck", "estimate",
    "evaluate", "evaluate_fix", "evaluate_with_strategies",
    "expand_tree", "expectation", "fingerprint", "halt_payoff", "load_strategy",
    "one_step_advice", "parse", "play", "pre_expectation", "predicate",
    "pretty_print", "random_instance", "reduce", "save_strategy", "synthesize",
    "transition", "transition_from_edges", "validate", "verify_strategy",
]

__version__ = "0.1.0"
