"""Formula syntax: AST, parser, set-modality reduction, printing and the
entry check that the evaluator and the brute-force oracle run first.

Grammar (whitespace-insensitive)::

    formula := binder | or
    binder  := ("mu" | "nu") IDENT "." formula | "fix" "(" NUMBER ")" IDENT "." formula
    or      := and { ("\\/" | "max") and }
    and     := prefix { ("/\\" | "min") prefix }
    prefix  := "<" IDENT ">" prefix | "[" IDENT "]" prefix | atom
    atom    := IDENT | "(" formula ")" | "if" IDENT "then" formula "else" formula

``<K>`` is angelic (maximising) choice over a set of transitions, ``[K]``
demonic; after :func:`reduce` only single-transition modalities remain.
Binders bind maximally to the right; ``/\\`` binds tighter than ``\\/``.
Bound variables are alpha-renamed at parse time so binder names are unique.
Nothing here recurses: the parser loops over a stack of frames and every
transform folds over :func:`rebuild` or reads :func:`subformulae`, so
formulae of any depth parse, reduce, print and compare.
"""

from __future__ import annotations

import hashlib
import itertools
import re
from collections import Counter, namedtuple
from dataclasses import dataclass
from functools import partial

from .core import Model, Valuation


class ParseError(ValueError):
    """Malformed formula text, with 1-based source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class UnboundVariableError(ParseError):
    """An identifier is neither bound nor a known constant symbol."""


class ReduceError(ValueError):
    """A set modality names a symbol the valuation does not resolve."""


class EvaluationError(ValueError):
    """Base class for evaluation failures."""


class UnresolvedSymbolError(EvaluationError):
    """A formula symbol has no binding in the valuation."""

    def __init__(self, kind: str, name: str):
        super().__init__(f"unresolved {kind} symbol {name!r}")
        self.kind = kind
        self.name = name


class FixNotSupportedError(EvaluationError):
    """Intermediate fixed points require the dedicated entry point."""


class NondeterministicFixBodyError(EvaluationError):
    """A fix(x) body contains min/max choice and force was not requested."""


# --- AST -------------------------------------------------------------------

@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    name: str


@dataclass(frozen=True)
class Modal:
    transition: str
    body: "Node"


@dataclass(frozen=True)
class MinJ:
    left: "Node"
    right: "Node"
    site: int | None = None


@dataclass(frozen=True)
class MaxJ:
    left: "Node"
    right: "Node"
    site: int | None = None


@dataclass(frozen=True)
class Cond:
    predicate: str
    then_branch: "Node"
    else_branch: "Node"


@dataclass(frozen=True)
class Mu:
    var: str
    body: "Node"


@dataclass(frozen=True)
class Nu:
    var: str
    body: "Node"


@dataclass(frozen=True)
class Fix:
    start: float
    var: str
    body: "Node"


@dataclass(frozen=True)
class Angelic:
    set_name: str
    body: "Node"


@dataclass(frozen=True)
class Demonic:
    set_name: str
    body: "Node"


Node = Var | Const | Modal | MinJ | MaxJ | Cond | Mu | Nu | Fix | Angelic | Demonic

_BINDERS = (Mu, Nu, Fix)


#: Child fields of each node type, in source order; :func:`children` and
#: :func:`map_children` read a node's shape from here.
_CHILD_FIELDS: dict[type, tuple[str, ...]] = {
    Var: (), Const: (),
    Modal: ("body",), Angelic: ("body",), Demonic: ("body",),
    MinJ: ("left", "right"), MaxJ: ("left", "right"),
    Cond: ("then_branch", "else_branch"),
    Mu: ("body",), Nu: ("body",), Fix: ("body",),
}


def _child_fields(node: Node) -> tuple[str, ...]:
    try:
        return _CHILD_FIELDS[type(node)]
    except KeyError:
        raise TypeError(f"not a formula node: {node!r}") from None


def children(node: Node) -> tuple[Node, ...]:
    return tuple([getattr(node, name) for name in _child_fields(node)])


def _with(node: Node, kids, **changes) -> Node:
    """``node`` with children ``kids`` and fields ``changes``: every rebuild's node."""
    fields = _child_fields(node)
    if not fields and not changes:
        return node
    changes.update(zip(fields, kids))
    return type(node)(**{**vars(node), **changes})


def map_children(node: Node, f, **changes) -> Node:
    """Rebuild ``node`` with ``f`` applied to each child, left to right, and
    non-child fields replaced by ``changes`` (a binder's ``var``, a
    junction's ``site``); leaves without changes are returned as they are."""
    return _with(node, [f(child) for child in children(node)], **changes)


def rebuild(node: Node, leave, enter=None):
    """Fold ``node`` bottom-up over an explicit stack, without recursion.

    ``enter(n)``, if given, sees every node in preorder, left to right;
    ``leave(n, kids)`` gets the results of ``n``'s children in source order
    and returns ``n``'s.  Calls nest like the subtrees, so state pushed on
    entering a node can be popped on leaving it.  Returns the root's result.
    """
    _child_fields(node)  # the stack marks finished nodes with tuples
    results: list = []
    stack: list = [node]
    push, pop, done = stack.append, stack.pop, results.append
    while stack:
        item = pop()
        if type(item) is tuple:  # (node, child count): its children are done
            cur, count = item
            kids = results[-count:]
            del results[-count:]
            done(leave(cur, kids))
            continue
        if enter is not None:
            enter(item)
        fields = _child_fields(item)
        if not fields:
            done(leave(item, ()))
            continue
        push((item, len(fields)))
        for name in reversed(fields):
            push(getattr(item, name))
    return results[0]


def subformulae(node: Node):
    """Yield every node of ``node`` in preorder, left to right, without recursion."""
    stack = [node]
    while stack:
        cur = stack.pop()
        yield cur
        for name in reversed(_child_fields(cur)):
            stack.append(getattr(cur, name))


def free_variables(node: Node) -> set[str]:
    free: set[str] = set()
    bound: dict[str, int] = {}  # how many binders of each name enclose the walk

    def enter(n: Node) -> None:
        if isinstance(n, _BINDERS):
            bound[n.var] = bound.get(n.var, 0) + 1
        elif type(n) is Var and not bound.get(n.name):
            free.add(n.name)

    def leave(n: Node, kids) -> None:
        if isinstance(n, _BINDERS):
            bound[n.var] -= 1

    rebuild(node, leave, enter)
    return free


def choice_sites(node: Node) -> tuple[int, int]:
    """Counts of demonic (min) and angelic (max) choice nodes."""
    kinds = [type(n) for n in subformulae(node)]
    return kinds.count(MinJ), kinds.count(MaxJ)


#: The symbol a node reads: its kind, the field naming it, its valuation
#: table and the unit of the table's size.
_SYMBOLS = {Const: ("expectation", "name", "expectations", "entries"),
            Modal: ("transition", "transition", "transitions", "rows"),
            Cond: ("predicate", "predicate", "predicates", "entries")}

#: What :func:`check_entry` returns: the ids of the ``fix(x)`` binders with
#: choice in their bodies, the min and max site counts and the node count.
Entry = namedtuple("Entry", "forced mins maxs size")


def check_entry(phi: Node, model: Model, fix_policy: str) -> Entry:
    """Raise every entry error before any value is computed, in this order.

    A free variable (the first by name), a set modality, an unbound symbol
    (the first in preorder), a symbol sized unlike the model or a junction
    with no choice site (the first in preorder), any ``fix(x)`` under
    ``"reject"`` and a ``fix(x)`` body with min/max choice unless
    ``"force"``.  One preorder walk finds them all.
    """
    n = model.space.size
    kinds: Counter = Counter()  # the nodes of each type
    bound: dict[str, int] = {}  # how many binders of each name enclose the walk
    free: set[str] = set()
    faults: list[list] = [[], []]  # unbound symbols, then misfits, in preorder
    fixes: list[Fix] = []  # in preorder
    choices: list[int] = []  # the junctions before each fix binder around the walk
    forced: set[int] = set()  # the ids of those with a junction in their bodies

    def enter(node: Node) -> None:
        kind = type(node)
        kinds[kind] += 1
        if kind is Var and not bound.get(node.name):
            free.add(node.name)
        elif kind in _SYMBOLS:
            what, field, table, unit = _SYMBOLS[kind]
            name = getattr(node, field)
            value = getattr(model.valuation, table).get(name)
            if value is None:
                faults[0].append(UnresolvedSymbolError(what, name))
                return
            size = value.n_states if kind is Modal else len(value)
            if size != n:
                faults[1].append(EvaluationError(
                    f"{what} {name!r} has {size} {unit}, model has {n} states"))
        elif (kind is MinJ or kind is MaxJ) and node.site is None:
            faults[1].append(EvaluationError(
                "junction has no choice site; number the sites with assign_sites"))
        elif kind in _BINDERS:
            bound[node.var] = bound.get(node.var, 0) + 1
            if kind is Fix:
                fixes.append(node)
                choices.append(kinds[MinJ] + kinds[MaxJ])

    def leave(node: Node, kids) -> None:
        if type(node) in _BINDERS:
            bound[node.var] -= 1
        if type(node) is Fix and kinds[MinJ] + kinds[MaxJ] > choices.pop():
            forced.add(id(node))

    rebuild(phi, leave, enter)
    if free:
        raise UnresolvedSymbolError("variable", min(free))
    if kinds[Angelic] or kinds[Demonic]:
        raise EvaluationError("formula contains set modalities; reduce it first")
    for found in faults:
        if found:
            raise found[0]
    if fixes and fix_policy == "reject":
        raise FixNotSupportedError(
            "formula contains fix(x) binders; only evaluate_fix covers them")
    first = next((fix for fix in fixes if id(fix) in forced), None)
    if first is not None and fix_policy != "force":
        raise NondeterministicFixBodyError(
            f"fix body of {first.var!r} contains min/max choice; "
            "pass force=True to iterate anyway")
    return Entry(frozenset(forced), kinds[MinJ], kinds[MaxJ], kinds.total())


def assign_sites(node: Node) -> Node:
    """Rebuild with choice-site ids assigned in left-to-right preorder.

    Min and max sites are numbered in separate sequences.
    """
    counters = {MinJ: 0, MaxJ: 0}
    sites: list[int] = []  # the sites of the junctions being rebuilt

    def enter(n: Node) -> None:
        if type(n) in counters:
            sites.append(counters[type(n)])
            counters[type(n)] += 1

    def leave(n: Node, kids) -> Node:
        if type(n) in counters:
            return type(n)(kids[0], kids[1], sites.pop())
        return _with(n, kids)

    return rebuild(node, leave, enter)


# --- Lexer -----------------------------------------------------------------

_KEYWORDS = {"mu", "nu", "fix", "if", "then", "else", "min", "max"}

_TOKEN_RE = re.compile(
    r"""
    (?P<WS>\s+)
  | (?P<NUMBER>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?)
  | (?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<AND>/\\)
  | (?P<OR>\\/)
  | (?P<PUNCT>[<>\[\]().])
    """,
    re.VERBOSE,
)


_Token = namedtuple("_Token", "kind text line col")


def _tokenize(text: str) -> list[_Token]:
    """The tokens of ``text`` and a final ``EOF``.  Only whitespace spans
    lines, so a token's column counts from the last newline before it."""
    tokens: list[_Token] = []
    line, line_start, pos = 1, 0, 0
    for m in _TOKEN_RE.finditer(text):
        start = m.start()
        if start != pos:  # finditer skipped a character no token matches
            break
        pos = m.end()
        kind = m.lastgroup
        if kind == "WS":
            newlines = text.count("\n", start, pos)
            if newlines:
                line += newlines
                line_start = text.rindex("\n", start, pos) + 1
            continue
        lexeme = m.group()
        if kind == "IDENT" and lexeme in _KEYWORDS:
            kind = lexeme.upper()
        elif kind == "PUNCT":
            kind = lexeme
        tokens.append(_Token(kind, lexeme, line, start - line_start + 1))
    if pos < len(text):
        raise ParseError(f"unexpected character {text[pos]!r}", line,
                         pos - line_start + 1)
    tokens.append(_Token("EOF", "", line, pos - line_start + 1))
    return tokens


# --- Parser ----------------------------------------------------------------

# Frames of the parser's stack, each a production waiting for an operand:
# ``[_JUNCTION, kind, left or None]``, ``[_PAREN]``, ``[_COND, predicate]``
# then ``[_COND, predicate, then]``, and ``[_WRAP, make, binder name or
# None]`` for a set modality or a binder, whose scope closes with it.
_JUNCTION, _PAREN, _COND, _WRAP = range(4)
_OPERATORS = {MinJ: ("AND", "MIN"), MaxJ: ("OR", "MAX")}


class _Parser:
    def __init__(self, tokens: list[_Token], known: frozenset[str] | None):
        self.tokens = tokens
        self.pos = 0
        self.known = known
        # scope maps each source binder name to its renamed names, innermost last
        self.scope: dict[str, list[str]] = {}
        self.used_names: set[str] = {t.text for t in tokens if t.kind == "IDENT"}
        self.assigned: set[str] = set()
        self.suffix: dict[str, int] = {}  # the first suffix that may be free

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.next()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text or 'end of input'!r}",
                             tok.line, tok.col)
        return tok

    def fresh(self, base: str) -> str:
        if base not in self.assigned:
            self.assigned.add(base)
            return base
        k = self.suffix.get(base, 2)
        while f"{base}_{k}" in self.used_names or f"{base}_{k}" in self.assigned:
            k += 1
        name = f"{base}_{k}"
        self.suffix[base] = k + 1
        self.assigned.add(name)
        return name

    def binder(self, tok: _Token) -> list:
        """Read a binder's head after its keyword ``tok`` and open its scope."""
        if tok.kind == "FIX":
            self.expect("(")
            num_tok = self.expect("NUMBER")
            x = float(num_tok.text)
            if not 0.0 <= x <= 1.0:
                raise ParseError(f"fix parameter {num_tok.text} outside [0, 1]",
                                 num_tok.line, num_tok.col)
            self.expect(")")
        var = self.expect("IDENT").text
        self.expect(".")
        renamed = self.fresh(var)
        self.scope.setdefault(var, []).append(renamed)
        make = (partial(Fix, x, renamed) if tok.kind == "FIX" else
                partial(Mu if tok.kind == "MU" else Nu, renamed))
        return [_WRAP, make, var]

    def formula(self) -> Node:
        """Parse one formula in a loop over a stack of frames, without recursion.

        The loop reads tokens down to an identifier, opening a frame for
        each binder, set modality, ``(``, ``if`` and precedence level on the
        way; then it hands the finished node up through the frames it
        completes, until one needs another operand.
        """
        frames: list[list] = []
        whole = True  # the next operand is a formula, not just a prefix
        while True:
            tok = self.next()
            if whole and tok.kind in ("MU", "NU", "FIX"):
                frames.append(self.binder(tok))
                continue
            if whole:
                frames += [[_JUNCTION, MaxJ, None], [_JUNCTION, MinJ, None]]
            whole = tok.kind in ("(", "IF")
            if tok.kind in ("<", "["):
                name = self.expect("IDENT").text
                self.expect(">" if tok.kind == "<" else "]")
                kind = Angelic if tok.kind == "<" else Demonic
                frames.append([_WRAP, partial(kind, name), None])
                continue
            if tok.kind == "(":
                frames.append([_PAREN])
                continue
            if tok.kind == "IF":
                pred = self.expect("IDENT").text
                self.expect("THEN")
                frames.append([_COND, pred])
                continue
            if tok.kind != "IDENT":
                raise ParseError(
                    f"expected a formula, found {tok.text or 'end of input'!r}",
                    tok.line, tok.col)
            bound = self.scope.get(tok.text)
            if not bound and self.known is not None and tok.text not in self.known:
                raise UnboundVariableError(
                    f"unbound variable {tok.text!r}", tok.line, tok.col)
            node = Var(bound[-1]) if bound else Const(tok.text)
            while frames:
                frame = frames[-1]
                if frame[0] == _JUNCTION:
                    _, kind, left = frame
                    frame[2] = node = node if left is None else kind(left, node)
                    if self.peek().kind in _OPERATORS[kind]:
                        self.next()
                        if kind is MaxJ:
                            frames.append([_JUNCTION, MinJ, None])
                        break
                elif frame[0] == _COND and len(frame) == 2:
                    self.expect("ELSE")
                    frame.append(node)
                    whole = True
                    break
                frames.pop()
                if frame[0] == _PAREN:
                    self.expect(")")
                elif frame[0] == _COND:
                    node = Cond(frame[1], frame[2], node)
                elif frame[0] == _WRAP:
                    if frame[2] is not None:
                        self.scope[frame[2]].pop()
                    node = frame[1](node)
            else:
                return node


def parse(text: str, known_symbols=None) -> Node:
    """Parse formula text into an AST with choice sites assigned.

    An identifier in scope of a binder of the same name is a bound variable;
    anything else is a constant symbol.  When ``known_symbols`` is given
    (any collection of names, e.g. a model's symbols), out-of-scope
    identifiers not in it raise :class:`UnboundVariableError` with the
    source position.
    """
    known = None if known_symbols is None else frozenset(known_symbols)
    parser = _Parser(_tokenize(text), known)
    node = parser.formula()
    tok = parser.peek()
    if tok.kind != "EOF":
        raise ParseError(f"unexpected trailing input {tok.text!r}", tok.line, tok.col)
    return assign_sites(node)


# --- Pretty printer --------------------------------------------------------

#: The lowest operand level (0 formula, 1 or-, 2 and-, 3 prefix-operand) at
#: which each kind needs parentheses; binders and conditionals swallow
#: everything to their right, and kinds not listed never need them.
_PAREN_LEVEL = {Mu: 1, Nu: 1, Fix: 1, Cond: 1, MaxJ: 2, MinJ: 3}


def pretty_print(node: Node) -> str:
    """Render to concrete syntax; re-parsing yields an alpha-equal AST."""

    def operand(child: Node, text: str, level: int) -> str:
        return f"({text})" if _PAREN_LEVEL.get(type(child), 4) <= level else text

    def leave(n: Node, kids) -> str:
        kind = type(n)
        if kind is Var or kind is Const:
            return n.name
        if kind in _BINDERS:
            head = f"fix({float(n.start)!r})" if kind is Fix else kind.__name__.lower()
            return f"{head} {n.var} . {kids[0]}"
        if kind is Cond:
            return f"if {n.predicate} then {kids[0]} else {kids[1]}"
        if kind is MaxJ or kind is MinJ:
            # right-nested junctions need parens to survive left-assoc parsing
            level, op = (1, "\\/") if kind is MaxJ else (2, "/\\")
            right = (f"({kids[1]})" if type(n.right) is kind
                     else operand(n.right, kids[1], level))
            return f"{operand(n.left, kids[0], level)} {op} {right}"
        if kind is Demonic:
            return f"[{n.set_name}] {operand(n.body, kids[0], 3)}"
        name = n.transition if kind is Modal else n.set_name
        return f"<{name}> {operand(n.body, kids[0], 3)}"

    return rebuild(node, leave)


# --- Binder renaming and reduction of set modalities -----------------------

def _identifiers(node: Node) -> set[str]:
    """Every name in ``node``, of whatever kind: a node's str fields."""
    return {value for n in subformulae(node) for value in vars(n).values()
            if type(value) is str}


def _rename_binders(node: Node, fresh) -> Node:
    """Copy ``node`` with each binder renamed to ``fresh(its name)``, called
    in preorder, and each variable renamed with the binder it refers to."""
    scopes: dict[str, list] = {}  # each binder name's new names, innermost last

    def enter(n: Node) -> None:
        if isinstance(n, _BINDERS):
            scopes.setdefault(n.var, []).append(fresh(n.var))

    def leave(n: Node, kids) -> Node:
        if type(n) is Var:
            names = scopes.get(n.name)
            return Var(names[-1] if names else n.name)
        if isinstance(n, _BINDERS):
            return _with(n, kids, var=scopes[n.var].pop())
        return _with(n, kids)

    return rebuild(node, leave, enter)


def reduce(node: Node, valuation: Valuation) -> Node:
    """Expand set modalities into explicit junctions of single transitions.

    ``<K>`` becomes a right-nested max-junction of ``<k>`` over K's members
    in declared order (``[K]`` dually with min); a singleton set yields a
    bare modality.  A symbol with no transition-set entry that names a
    transition directly is treated as its own singleton.  Site ids are
    re-assigned canonically.  The copies of a body in the second and later
    arms get fresh binder names, unlike every name in the formula.
    """
    used = _identifiers(node)

    def fresh(base: str) -> str:
        name = next(f"{base}_{k}" for k in itertools.count(2)
                    if f"{base}_{k}" not in used)
        used.add(name)
        return name

    def members_of(name: str) -> tuple[str, ...]:
        members = valuation.transition_sets.get(name)
        if members is None:
            if name in valuation.transitions:
                return (name,)
            raise ReduceError(f"unknown transition set {name!r}")
        if not members:
            raise ReduceError(f"transition set {name!r} is empty")
        return members

    def enter(n: Node) -> None:
        # check each set in preorder, so the outermost bad one is reported
        if type(n) is Angelic or type(n) is Demonic:
            members_of(n.set_name)

    def leave(n: Node, kids) -> Node:
        if type(n) is not Angelic and type(n) is not Demonic:
            return _with(n, kids)
        members = members_of(n.set_name)
        arms = [Modal(members[0], kids[0])] + [
            Modal(member, _rename_binders(kids[0], fresh)) for member in members[1:]]
        out = arms.pop()
        while arms:
            out = (MaxJ if type(n) is Angelic else MinJ)(arms.pop(), out)
        return out

    return assign_sites(rebuild(node, leave, enter))


# --- Structural comparison and fingerprinting -------------------------------

def alpha_equal(a: Node, b: Node) -> bool:
    """Structural equality up to renaming of bound variables: binders are
    renamed to their preorder index, an int, which no free name equals."""

    def shape(node: Node) -> list[tuple]:
        # each kind has a fixed number of children, so the preorder sequence
        # of kinds and non-child fields determines the tree
        count = itertools.count()
        numbered = _rename_binders(node, lambda var: next(count))
        return [(type(n), *(value for name, value in vars(n).items()
                            if name not in _CHILD_FIELDS[type(n)]))
                for n in subformulae(numbered)]

    return shape(a) == shape(b)


def canonical(node: Node) -> Node:
    """Rename binders to a canonical preorder scheme (_v0, _v1, ...),
    skipping each ``_v<k>`` that names a constant or a free variable."""
    taken = free_variables(node) | {n.name for n in subformulae(node)
                                    if type(n) is Const}
    names = (name for name in map("_v{}".format, itertools.count())
             if name not in taken)
    return _rename_binders(node, lambda var: next(names))


def fingerprint(node: Node) -> str:
    """Stable hash of a formula, insensitive to bound-variable names."""
    text = pretty_print(canonical(node))
    return hashlib.sha256(text.encode()).hexdigest()[:16]
