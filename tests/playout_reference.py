"""The game's rules written as a walk over the formula, as a reference.

The product plays compiled positions in :class:`qmu.game._Table`, one path
or many.  This module keeps the other way: one path walks the formula tree
itself, binding a fresh :class:`Colour` at each fixpoint and recording every
position in a :class:`GamePath`, and :func:`path_bracket` reads the value
bracket off the recorded path.  Tests compare the two.
"""

from dataclasses import dataclass

from qmu.core import EPS_REPR, Model, halt_payoff
from qmu.evaluator import PathStrategy
from qmu.formula import Cond, Const, MaxJ, MinJ, Modal, Mu, Node, Nu, Var
from qmu.game import GameError, PlayoutResult, _compile


@dataclass(frozen=True)
class Colour:
    """Fresh token bound when a fixpoint unfolds; identifies the recursion.

    The creation index is the path length at binding time, which makes every
    colour of a playout distinct.
    """

    binder: str
    kind: str  # "mu" | "nu"
    created_at: int


@dataclass
class GamePath:
    """Recorded positions of one playout plus per-colour occurrence counts.

    Positions are ``("node", formula, state)``, ``("colour", Colour, state)``
    or a final ``("payoff", y)``.
    """

    positions: list
    colour_counts: dict[Colour, int]

    @property
    def steps(self) -> int:
        return len(self.positions)



def path_bracket(path: GamePath, max_depth: int) -> PlayoutResult:
    """Value bracket of a recorded path, per its stopping reason.

    Insensitive to any finite colour-free prefix: only the terminal payoff
    or the over-limit colour matters.
    """
    steps = path.steps
    last = path.positions[-1] if path.positions else None
    if last is not None and last[0] == "payoff":
        y = float(last[1])
        return PlayoutResult(y, y, True, steps, None)
    for colour, count in path.colour_counts.items():
        if count > max_depth:
            default = 0.0 if colour.kind == "mu" else 1.0
            return PlayoutResult(default, default, False, steps, colour.kind)
    return PlayoutResult(0.0, 1.0, False, steps, None)


def walk_playout(phi: Node, model: Model, s0: int, sigma_min: PathStrategy,
                 sigma_max: PathStrategy, max_depth: int, rng) -> GamePath:
    """Play one game, recording the full position sequence."""
    _, step_budget = _compile(phi, model, s0, sigma_min, sigma_max, max_depth)
    v = model.valuation
    positions: list = []
    view: list = []  # what strategies may inspect: (node-or-binder-name, state)
    counts: dict[Colour, int] = {}
    env: dict[str, Colour] = {}
    bodies: dict[Colour, Node] = {}

    def as_colour(node: Node, s: int):
        """Resolve variables to their colour before taking up a position."""
        if isinstance(node, Var):
            return ("colour", env[node.name], s)
        return ("node", node, s)

    current = as_colour(phi, s0)
    while True:
        positions.append(current)
        if current[0] == "payoff":
            break
        kind, label, s = current
        view.append((label.binder if kind == "colour" else label, s))
        if kind == "colour":
            colour = label
            counts[colour] = counts.get(colour, 0) + 1
            if counts[colour] > max_depth:
                break
            if len(positions) > step_budget:
                break
            current = as_colour(bodies[colour], s)
            continue
        if len(positions) > step_budget:
            break
        node = label
        if isinstance(node, Const):
            current = ("payoff", float(v.expectations[node.name][s]))
        elif isinstance(node, Modal):
            t = v.transitions[node.transition]
            u = rng.random()
            acc = 0.0
            chosen = None
            targets, probs = t.row(s)
            for target, prob in zip(targets, probs):
                acc += prob
                if u <= acc:
                    chosen = target
                    break
            if chosen is None:
                if 1.0 - acc <= EPS_REPR and targets:
                    # float dust: the distribution is total, keep last edge
                    chosen = targets[-1]
                else:
                    current = ("payoff", halt_payoff(t, s))
                    continue
            current = as_colour(node.body, chosen)
        elif isinstance(node, MaxJ):
            take_left = sigma_max.decide(node.site, view, s)
            current = as_colour(node.left if take_left else node.right, s)
        elif isinstance(node, MinJ):
            take_left = sigma_min.decide(node.site, view, s)
            current = as_colour(node.left if take_left else node.right, s)
        elif isinstance(node, Cond):
            branch = (node.then_branch if v.predicates[node.predicate][s]
                      else node.else_branch)
            current = as_colour(branch, s)
        elif isinstance(node, (Mu, Nu)):
            colour = Colour(node.var, "mu" if isinstance(node, Mu) else "nu",
                            created_at=len(positions))
            env[node.var] = colour
            bodies[colour] = node.body
            current = ("colour", colour, s)
        else:
            raise GameError(f"cannot play node {node!r}")

    return GamePath(positions=positions, colour_counts=counts)
