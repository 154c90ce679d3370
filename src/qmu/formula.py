"""Formula syntax: AST, parser, set-modality reduction and printing.

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
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, replace

from .core import Valuation


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
    return tuple(getattr(node, name) for name in _child_fields(node))


def map_children(node: Node, f, **changes) -> Node:
    """Rebuild ``node`` with ``f`` applied to each child, left to right.

    ``changes`` replaces non-child fields (a binder's ``var``, a junction's
    ``site``); leaves without changes are returned as they are.
    """
    fields = _child_fields(node)
    if not fields and not changes:
        return node
    for name in fields:
        changes[name] = f(getattr(node, name))
    return replace(node, **changes)


def subformulae(node: Node):
    """Yield every node of ``node`` in preorder, left to right, without recursion."""
    stack = [node]
    while stack:
        cur = stack.pop()
        yield cur
        for name in reversed(_child_fields(cur)):
            stack.append(getattr(cur, name))


def formula_size(node: Node) -> int:
    """Number of AST nodes."""
    return sum(1 for _ in subformulae(node))


def free_variables(node: Node) -> set[str]:
    free: set[str] = set()
    stack = [(node, frozenset())]
    while stack:
        cur, bound = stack.pop()
        if isinstance(cur, Var):
            if cur.name not in bound:
                free.add(cur.name)
            continue
        if isinstance(cur, _BINDERS):
            bound = bound | {cur.var}
        for name in _child_fields(cur):
            stack.append((getattr(cur, name), bound))
    return free


def binder_names(node: Node) -> set[str]:
    return {n.var for n in subformulae(node) if isinstance(n, _BINDERS)}


def is_reduced(node: Node) -> bool:
    """True when no set modalities remain."""
    return not any(isinstance(n, (Angelic, Demonic)) for n in subformulae(node))


def junction_free(node: Node) -> bool:
    return not any(isinstance(n, (MinJ, MaxJ, Angelic, Demonic))
                   for n in subformulae(node))


def contains_fix(node: Node) -> bool:
    return any(isinstance(n, Fix) for n in subformulae(node))


def choice_sites(node: Node) -> tuple[int, int]:
    """Counts of demonic (min) and angelic (max) choice nodes."""
    kinds = [type(n) for n in subformulae(node)]
    return kinds.count(MinJ), kinds.count(MaxJ)


def unbound_symbol(node: Node, valuation: Valuation) -> tuple[str, str] | None:
    """The first ``(kind, name)`` in preorder that ``valuation`` does not
    bind, kind being "expectation", "transition" or "predicate"; else None."""
    for n in subformulae(node):
        if isinstance(n, Const) and n.name not in valuation.expectations:
            return "expectation", n.name
        if isinstance(n, Modal) and n.transition not in valuation.transitions:
            return "transition", n.transition
        if isinstance(n, Cond) and n.predicate not in valuation.predicates:
            return "predicate", n.predicate
    return None


def assign_sites(node: Node) -> Node:
    """Rebuild with choice-site ids assigned in left-to-right preorder.

    Min and max sites are numbered in separate sequences.
    """
    counters = {MinJ: 0, MaxJ: 0}

    def go(n: Node) -> Node:
        if isinstance(n, (MinJ, MaxJ)):
            site = counters[type(n)]
            counters[type(n)] += 1
            return map_children(n, go, site=site)
        return map_children(n, go)

    return go(node)


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


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        lexeme = m.group()
        if kind == "IDENT" and lexeme in _KEYWORDS:
            kind = lexeme.upper()
        elif kind == "PUNCT":
            kind = lexeme
        if kind != "WS":
            tokens.append(_Token(kind, lexeme, line, col))
        newlines = lexeme.count("\n")
        if newlines:
            line += newlines
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
        pos = m.end()
    tokens.append(_Token("EOF", "", line, col))
    return tokens


# --- Parser ----------------------------------------------------------------

class _Parser:
    def __init__(self, tokens: list[_Token], known: frozenset[str] | None):
        self.tokens = tokens
        self.pos = 0
        self.known = known
        # scope maps source binder names to their (possibly renamed) names
        self.scope: list[tuple[str, str]] = []
        self.used_names: set[str] = {t.text for t in tokens if t.kind == "IDENT"}
        self.assigned: set[str] = set()

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text or 'end of input'!r}",
                             tok.line, tok.col)
        return self.next()

    def fresh(self, base: str) -> str:
        if base not in self.assigned:
            self.assigned.add(base)
            return base
        k = 2
        while f"{base}_{k}" in self.used_names or f"{base}_{k}" in self.assigned:
            k += 1
        name = f"{base}_{k}"
        self.assigned.add(name)
        return name

    def lookup(self, name: str) -> str | None:
        for src, renamed in reversed(self.scope):
            if src == name:
                return renamed
        return None

    def formula(self) -> Node:
        tok = self.peek()
        if tok.kind in ("MU", "NU"):
            self.next()
            var_tok = self.expect("IDENT")
            self.expect(".")
            renamed = self.fresh(var_tok.text)
            self.scope.append((var_tok.text, renamed))
            body = self.formula()
            self.scope.pop()
            return Mu(renamed, body) if tok.kind == "MU" else Nu(renamed, body)
        if tok.kind == "FIX":
            self.next()
            self.expect("(")
            num_tok = self.expect("NUMBER")
            x = float(num_tok.text)
            if not 0.0 <= x <= 1.0:
                raise ParseError(f"fix parameter {num_tok.text} outside [0, 1]",
                                 num_tok.line, num_tok.col)
            self.expect(")")
            var_tok = self.expect("IDENT")
            self.expect(".")
            renamed = self.fresh(var_tok.text)
            self.scope.append((var_tok.text, renamed))
            body = self.formula()
            self.scope.pop()
            return Fix(x, renamed, body)
        return self.or_level()

    def or_level(self) -> Node:
        node = self.and_level()
        while self.peek().kind in ("OR", "MAX"):
            self.next()
            node = MaxJ(node, self.and_level())
        return node

    def and_level(self) -> Node:
        node = self.prefix()
        while self.peek().kind in ("AND", "MIN"):
            self.next()
            node = MinJ(node, self.prefix())
        return node

    def prefix(self) -> Node:
        tok = self.peek()
        if tok.kind == "<":
            self.next()
            name = self.expect("IDENT").text
            self.expect(">")
            return Angelic(name, self.prefix())
        if tok.kind == "[":
            self.next()
            name = self.expect("IDENT").text
            self.expect("]")
            return Demonic(name, self.prefix())
        return self.atom()

    def atom(self) -> Node:
        tok = self.peek()
        if tok.kind == "(":
            self.next()
            node = self.formula()
            self.expect(")")
            return node
        if tok.kind == "IF":
            self.next()
            pred = self.expect("IDENT").text
            self.expect("THEN")
            then_branch = self.formula()
            self.expect("ELSE")
            else_branch = self.formula()
            return Cond(pred, then_branch, else_branch)
        if tok.kind == "IDENT":
            self.next()
            bound = self.lookup(tok.text)
            if bound is not None:
                return Var(bound)
            if self.known is not None and tok.text not in self.known:
                raise UnboundVariableError(
                    f"unbound variable {tok.text!r}", tok.line, tok.col)
            return Const(tok.text)
        raise ParseError(f"expected a formula, found {tok.text or 'end of input'!r}",
                         tok.line, tok.col)


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

def pretty_print(node: Node) -> str:
    """Render to concrete syntax; re-parsing yields an alpha-equal AST."""

    def maximal(n: Node) -> bool:
        # binders and conditionals swallow everything to their right
        return isinstance(n, (Mu, Nu, Fix, Cond))

    def wrap(n: Node, text: str, in_operand: bool) -> str:
        return f"({text})" if in_operand and maximal(n) else text

    def go(n: Node, level: int) -> str:
        # level: 0 formula, 1 or-operand, 2 and-operand, 3 prefix-operand
        if isinstance(n, Var) or isinstance(n, Const):
            return n.name
        if isinstance(n, Mu):
            return wrap(n, f"mu {n.var} . {go(n.body, 0)}", level > 0)
        if isinstance(n, Nu):
            return wrap(n, f"nu {n.var} . {go(n.body, 0)}", level > 0)
        if isinstance(n, Fix):
            return wrap(n, f"fix({float(n.start)!r}) {n.var} . {go(n.body, 0)}",
                        level > 0)
        if isinstance(n, Cond):
            text = (f"if {n.predicate} then {go(n.then_branch, 0)} "
                    f"else {go(n.else_branch, 0)}")
            return wrap(n, text, level > 0)
        if isinstance(n, MaxJ):
            # right-nested junctions need parens to survive left-assoc parsing
            if isinstance(n.right, MaxJ):
                text = f"{go(n.left, 1)} \\/ ({go(n.right, 0)})"
            else:
                text = f"{go(n.left, 1)} \\/ {go(n.right, 1)}"
            return f"({text})" if level >= 2 else text
        if isinstance(n, MinJ):
            if isinstance(n.right, MinJ):
                text = f"{go(n.left, 2)} /\\ ({go(n.right, 0)})"
            else:
                text = f"{go(n.left, 2)} /\\ {go(n.right, 2)}"
            return f"({text})" if level >= 3 else text
        if isinstance(n, Modal):
            return f"<{n.transition}> {go(n.body, 3)}"
        if isinstance(n, Angelic):
            return f"<{n.set_name}> {go(n.body, 3)}"
        if isinstance(n, Demonic):
            return f"[{n.set_name}] {go(n.body, 3)}"
        raise TypeError(f"not a formula node: {n!r}")

    return go(node, 0)


# --- Reduction of set modalities -------------------------------------------

def _clone_with_fresh_binders(node: Node, used: set[str]) -> Node:
    """Copy a subtree, renaming its binders so names stay globally unique."""
    mapping: dict[str, str] = {}

    def fresh(base: str) -> str:
        k = 2
        name = f"{base}_{k}"
        while name in used:
            k += 1
            name = f"{base}_{k}"
        used.add(name)
        return name

    def go(n: Node) -> Node:
        if isinstance(n, Var):
            return Var(mapping.get(n.name, n.name))
        if isinstance(n, _BINDERS):
            renamed = fresh(n.var)
            outer = mapping.get(n.var)
            mapping[n.var] = renamed
            out = map_children(n, go, var=renamed)
            if outer is None:
                mapping.pop(n.var, None)
            else:
                mapping[n.var] = outer
            return out
        return map_children(n, go)

    return go(node)


def reduce(node: Node, valuation: Valuation) -> Node:
    """Expand set modalities into explicit junctions of single transitions.

    ``<K>`` becomes a right-nested max-junction of ``<k>`` over K's members
    in declared order (``[K]`` dually with min); a singleton set yields a
    bare modality.  A symbol with no transition-set entry that names a
    transition directly is treated as its own singleton.  Site ids are
    re-assigned canonically.
    """
    used = set(binder_names(node))

    def members_of(name: str) -> tuple[str, ...]:
        members = valuation.transition_sets.get(name)
        if members is None:
            if name in valuation.transitions:
                return (name,)
            raise ReduceError(f"unknown transition set {name!r}")
        if not members:
            raise ReduceError(f"transition set {name!r} is empty")
        return members

    def expand(name: str, body: Node, junction) -> Node:
        members = members_of(name)
        reduced_body = go(body)
        arms = [Modal(members[0], reduced_body)]
        for member in members[1:]:
            arms.append(Modal(member, _clone_with_fresh_binders(reduced_body, used)))
        out = arms[-1]
        for arm in reversed(arms[:-1]):
            out = junction(arm, out)
        return out

    def go(n: Node) -> Node:
        if isinstance(n, Angelic):
            return expand(n.set_name, n.body, MaxJ)
        if isinstance(n, Demonic):
            return expand(n.set_name, n.body, MinJ)
        return map_children(n, go)

    return assign_sites(go(node))


# --- Structural comparison and fingerprinting -------------------------------

def alpha_equal(a: Node, b: Node) -> bool:
    """Structural equality up to renaming of bound variables.

    Each side maps its bound names to the depth of their binder, so a bound
    variable equals only one bound at the same depth, never a free one.
    """

    def go(x: Node, y: Node, left: dict[str, int], right: dict[str, int],
           depth: int) -> bool:
        if type(x) is not type(y):
            return False
        if isinstance(x, Var):
            return left.get(x.name, x.name) == right.get(y.name, y.name)
        if isinstance(x, Const):
            return x.name == y.name
        if isinstance(x, Modal):
            return (x.transition == y.transition
                    and go(x.body, y.body, left, right, depth))
        if isinstance(x, (Angelic, Demonic)):
            return (x.set_name == y.set_name
                    and go(x.body, y.body, left, right, depth))
        if isinstance(x, (MinJ, MaxJ)):
            return (x.site == y.site and go(x.left, y.left, left, right, depth)
                    and go(x.right, y.right, left, right, depth))
        if isinstance(x, Cond):
            return (x.predicate == y.predicate
                    and go(x.then_branch, y.then_branch, left, right, depth)
                    and go(x.else_branch, y.else_branch, left, right, depth))
        if isinstance(x, Fix):
            if x.start != y.start:
                return False
        return go(x.body, y.body, {**left, x.var: depth},
                  {**right, y.var: depth}, depth + 1)

    return go(a, b, {}, {}, 0)


def canonical(node: Node) -> Node:
    """Rename binders to a canonical preorder scheme (_v0, _v1, ...)."""
    counter = [0]

    def go(n: Node, env: dict[str, str]) -> Node:
        if isinstance(n, Var):
            return Var(env.get(n.name, n.name))
        if isinstance(n, _BINDERS):
            name = f"_v{counter[0]}"
            counter[0] += 1
            inner = {**env, n.var: name}
            return map_children(n, lambda c: go(c, inner), var=name)
        return map_children(n, lambda c: go(c, env))

    return go(node, {})


def fingerprint(node: Node) -> str:
    """Stable hash of a formula, insensitive to bound-variable names."""
    text = pretty_print(canonical(node))
    return hashlib.sha256(text.encode()).hexdigest()[:16]
