"""Tiny expression language for scenario curves.

Entries of the symmetric coefficient matrix A(t, eps) are written as text
in the two variables ``t`` and ``eps`` with the functions sin, cos, exp,
sqrt and abs.  Precedence is ``^`` above unary minus above ``*``/``/``
above ``+``/``-``; ``^`` is right-associative, everything else is left-
associative.  Text may nest at most :data:`MAX_DEPTH` levels deep.

One operator table gives each operator its numpy function, read by the
closures of :func:`compile_array` (no source code is generated) and by
the locator that names the first node of a tree whose value is not
finite.  dA/deps is the symbolic derivative of each entry (:func:`d_eps`),
compiled the same way.
"""

import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ExprDepthError,
    ExprDomainError,
    ExprSyntaxError,
    SymmetryConflictError,
    UnknownIdentifierError,
)

_FUNCTIONS = ("sin", "cos", "exp", "sqrt", "abs")
_VARIABLES = ("t", "eps")

# Deepest nesting of text: each parenthesis, call, unary minus, ^ and chain
# operator (+ - * /) is a level.  The parser recurses up to five times a level
# (540 of 1,000 frames under pytest); compile_array holds d/deps to it too.
MAX_DEPTH = 100


# --- abstract syntax --------------------------------------------------------
# ``offset`` is the byte position in the source text, excluded from
# equality so structural comparison ignores provenance.

@dataclass(frozen=True)
class Num:
    value: float
    offset: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Var:
    name: str
    offset: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Neg:
    arg: object
    offset: int = field(default=0, compare=False)


@dataclass(frozen=True)
class _Binary:
    lhs: object
    rhs: object
    offset: int = field(default=0, compare=False)


# Binary nodes differ only in class, so equality still tells them apart.
class Add(_Binary):
    pass


class Sub(_Binary):
    pass


class Mul(_Binary):
    pass


class Div(_Binary):
    pass


class Pow(_Binary):
    pass


@dataclass(frozen=True)
class Call:
    fn: str
    arg: object
    offset: int = field(default=0, compare=False)


# --- tokenizer / parser -----------------------------------------------------

def _tokenize(source):
    tokens = []
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit() or ch == ".":
            j = i
            seen_dot = False
            while j < n and (source[j].isdigit() or (source[j] == "." and not seen_dot)):
                seen_dot = seen_dot or source[j] == "."
                j += 1
            if j < n and source[j] in "eE":
                k = j + 1
                if k < n and source[k] in "+-":
                    k += 1
                if k < n and source[k].isdigit():
                    while k < n and source[k].isdigit():
                        k += 1
                    j = k
            text = source[i:j]
            try:
                value = float(text)
            except ValueError:
                raise ExprSyntaxError(i, ("number",), f"bad number literal {text!r} at offset {i}")
            if not np.isfinite(value):
                raise ExprSyntaxError(i, ("number",), f"non-finite literal {text!r} at offset {i}")
            tokens.append(("num", value, i))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(("ident", source[i:j], i))
            i = j
        elif ch in "+-*/^()":
            tokens.append((ch, ch, i))
            i += 1
        else:
            raise ExprSyntaxError(i, ("number", "identifier", "operator"),
                                  f"unexpected character {ch!r} at offset {i}")
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, source):
        self.source = source
        self.tokens = _tokenize(source)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.peek()
        if tok[0] != kind:
            raise ExprSyntaxError(tok[2], (kind,))
        return self.take()

    def deeper(self, depth, offset):
        # Each rule takes the levels enclosing it and returns its tree with
        # the levels down to its deepest leaf; this adds one level.
        if depth >= MAX_DEPTH:
            raise ExprDepthError(f"expression nests deeper than {MAX_DEPTH} levels "
                                 f"at offset {offset}")
        return depth + 1

    def parse(self):
        node, _ = self.sum(0)
        tok = self.peek()
        if tok[0] != "end":
            raise ExprSyntaxError(tok[2], ("+", "-", "*", "/", "^", "end"))
        return node

    def sum(self, level):
        node, depth = self.term(level)
        while self.peek()[0] in ("+", "-"):
            kind, _, off = self.take()
            rhs, rhs_depth = self.term(level)
            depth = self.deeper(max(depth, rhs_depth), off)
            node = Add(node, rhs, off) if kind == "+" else Sub(node, rhs, off)
        return node, depth

    def term(self, level):
        node, depth = self.unary(level)
        while self.peek()[0] in ("*", "/"):
            kind, _, off = self.take()
            rhs, rhs_depth = self.unary(level)
            depth = self.deeper(max(depth, rhs_depth), off)
            node = Mul(node, rhs, off) if kind == "*" else Div(node, rhs, off)
        return node, depth

    def unary(self, level):
        tok = self.peek()
        if tok[0] == "-":
            self.take()
            arg, depth = self.unary(self.deeper(level, tok[2]))
            return Neg(arg, tok[2]), depth
        return self.power(level)

    def power(self, level):
        base, depth = self.atom(level)
        tok = self.peek()
        if tok[0] == "^":
            self.take()
            # Right-associative: the exponent may itself carry unary minus.
            expo, expo_depth = self.unary(self.deeper(level, tok[2]))
            return Pow(base, expo, tok[2]), max(self.deeper(depth, tok[2]), expo_depth)
        return base, depth

    def atom(self, level):
        tok = self.peek()
        if tok[0] == "num":
            self.take()
            return Num(tok[1], tok[2]), level
        if tok[0] == "ident":
            self.take()
            name, off = tok[1], tok[2]
            if name in _VARIABLES:
                return Var(name, off), level
            if name in _FUNCTIONS:
                self.expect("(")
                arg, depth = self.sum(self.deeper(level, off))
                self.expect(")")
                return Call(name, arg, off), depth
            raise UnknownIdentifierError(name, off)
        if tok[0] == "(":
            self.take()
            node, depth = self.sum(self.deeper(level, tok[2]))
            self.expect(")")
            return node, depth
        raise ExprSyntaxError(tok[2], ("number", "identifier", "(", "-"))


def parse(source):
    """Parse expression text into an AST.

    Raises ExprSyntaxError (with byte offset and expected-token set),
    UnknownIdentifierError, or ExprDepthError past MAX_DEPTH levels.
    """
    return _Parser(source).parse()


# --- the operator table -----------------------------------------------------
# Each operator's numpy function.  A Call is keyed by its function name; log
# and sign come only from d_eps.

_OPS = {
    Neg: operator.neg,
    Add: operator.add,
    Sub: operator.sub,
    Mul: operator.mul,
    # np.divide, not "/": two Python floats would raise on a zero divisor
    Div: np.divide,
    Pow: np.power,
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "sqrt": np.sqrt,
    "abs": np.abs,
    "log": np.log,
    "sign": np.sign,
}


def contains_eps(e):
    kind = type(e)
    if kind is Num or kind is Var:
        return kind is Var and e.name == "eps"
    if kind is Neg or kind is Call:
        return contains_eps(e.arg)
    return contains_eps(e.lhs) or contains_eps(e.rhs)


_ZERO = Num(0.0)
_ONE = Num(1.0)


def _add(a, b, at):
    return b if a == _ZERO else a if b == _ZERO else Add(a, b, at)


def _sub(a, b, at):
    return a if b == _ZERO else _neg(b, at) if a == _ZERO else Sub(a, b, at)


def _neg(a, at):
    return _ZERO if a == _ZERO else Neg(a, at)


def _mul(a, b, at):
    if a == _ZERO or b == _ZERO:
        return _ZERO
    return b if a == _ONE else a if b == _ONE else Mul(a, b, at)


def d_eps(e):
    """Symbolic derivative of a tree with respect to eps.

    Eps-free subtrees give ``Num(0)``, and zero terms and unit factors are
    folded away, so a coupling linear in eps differentiates to its
    coefficient: ``0.4 + eps*(1 + 0.3*sin(t))`` gives ``1 + 0.3*sin(t)``.
    Every new node carries the offset of the source node it comes from,
    so a domain error in the derivative is located in the source text.
    The result may call ``log`` and ``sign``, which only the operator
    table knows, not the parser.
    """
    kind = type(e)
    if kind is Var and e.name == "eps":
        return _ONE
    if not contains_eps(e):
        return _ZERO
    at = e.offset
    if kind is Neg:
        return _neg(d_eps(e.arg), at)
    if kind is Call:
        u = e.arg
        outer = {"sin": Call("cos", u, at), "cos": Neg(Call("sin", u, at), at),
                 "exp": e, "sqrt": Div(Num(0.5, at), e, at),
                 "abs": Call("sign", u, at)}[e.fn]
        return _mul(outer, d_eps(u), at)
    u, v = e.lhs, e.rhs
    du, dv = d_eps(u), d_eps(v)
    if kind is Add:
        return _add(du, dv, at)
    if kind is Sub:
        return _sub(du, dv, at)
    if kind is Mul:
        return _add(_mul(du, v, at), _mul(u, dv, at), at)
    if kind is Div:
        # (u/v)' = (u' - (u/v) v') / v
        top = _sub(du, _mul(e, dv, at), at)
        return _ZERO if top == _ZERO else Div(top, v, at)
    # (u^v)' = u^v log(u) v' + v u^(v-1) u'; log(u) only when v has eps
    return _add(_mul(_mul(e, Call("log", u, at), at), dv, at),
                _mul(_mul(v, Pow(u, Sub(v, _ONE, at), at), at), du, at), at)


# --- compilation ------------------------------------------------------------

def _closure(e, depth=0):
    """One tree as a function of (t, eps) that applies the table's numpy
    function at each node to its children's values, left to right."""
    if depth > MAX_DEPTH:
        raise ExprDepthError(f"expression (or its eps-derivative) nests deeper than "
                             f"{MAX_DEPTH} levels at offset {e.offset}")
    kind = type(e)
    if kind is Num:
        return lambda t, eps, value=e.value: value
    if kind is Var:
        return (lambda t, eps: t) if e.name == "t" else (lambda t, eps: eps)
    fn = _OPS[e.fn if kind is Call else kind]
    if kind is Neg or kind is Call:
        arg = _closure(e.arg, depth + 1)
        return lambda t, eps: fn(arg(t, eps))
    lhs, rhs = _closure(e.lhs, depth + 1), _closure(e.rhs, depth + 1)
    return lambda t, eps: fn(lhs(t, eps), rhs(t, eps))


def compile_array(trees):
    """Compile trees into one callable mapping a numpy array of t values
    and an eps (a scalar or an array shaped like t) to a tuple with one
    value per tree, broadcastable to the shape of t.  Out-of-domain points
    come back non-finite, without numpy warnings; callers must check."""
    fns = [_closure(e) for e in trees]

    def evaluate_all(ts, eps):
        with np.errstate(all="ignore"):
            return tuple([fn(ts, eps) for fn in fns])

    return evaluate_all


def _locate(e, t, eps):
    """The value of a tree at the point (t, eps) by the same operator
    table, visiting each node once, children before parents and left
    before right; raises ExprDomainError at the first node whose value is
    not finite.  Run under ``np.errstate(all="ignore")``."""
    kind = type(e)
    if kind is Num:
        return e.value
    if kind is Var:
        return t if e.name == "t" else eps
    children = (e.arg,) if kind is Neg or kind is Call else (e.lhs, e.rhs)
    args = [_locate(c, t, eps) for c in children]
    value = _OPS[e.fn if kind is Call else kind](*args)
    if not np.isfinite(value):
        reason = ("division by zero" if kind is Div and args[1] == 0
                  else f"{e.fn} out of domain" if kind is Call
                  else "power out of domain" if kind is Pow else "overflow")
        raise ExprDomainError(e.offset, reason)
    return value


# --- the symmetric curve ----------------------------------------------------


class SymmetricCurve:
    """Symmetric 4x4 matrix of expressions in (t, eps).

    Only the upper triangle is stored; entry (i, j) and (j, i) are the
    same expression object, so evaluated matrices are symmetric bitwise.
    Missing entries are zero.  The constructor takes the canonical map
    that :meth:`from_strings` checks and builds, {(i, j): tree} with
    0 <= i <= j <= 3, and checks nothing again.
    """

    def __init__(self, entries):
        self._entries = dict(entries)
        self.has_eps = any(contains_eps(e) for e in self._entries.values())
        self._compiled = _compile_entries(self._entries)
        self._d_eps = None  # compiled on the first d_eps_matrix_batch call

    @classmethod
    def from_strings(cls, mapping):
        """Build from {"i,j": "expression"} with 0-based indices.

        Giving both "i,j" and "j,i" is allowed only when the two texts are
        identical; a conflict is an error rather than an average.
        """
        seen = {}
        entries = {}
        for key, text in mapping.items():
            try:
                si, sj = key.split(",")
                i, j = int(si.strip()), int(sj.strip())
            except ValueError:
                raise ValueError(f"bad entry key {key!r}; expected 'i,j'") from None
            if not (0 <= i <= 3 and 0 <= j <= 3):
                raise ValueError(f"entry index out of range in key {key!r}")
            canon = (i, j) if i <= j else (j, i)
            if canon in seen and seen[canon] != text:
                raise SymmetryConflictError(
                    f"entries {canon} and {canon[::-1]} disagree: "
                    f"{seen[canon]!r} vs {text!r}")
            if canon not in seen:
                seen[canon] = text
                entries[canon] = parse(text)
        return cls(entries)

    @property
    def entries(self):
        return dict(self._entries)

    def eval_matrix(self, t, eps=0.0):
        """The symmetric real matrix A(t, eps)."""
        return self.eval_matrix_batch([t], eps)[0]

    def eval_matrix_batch(self, ts, eps=0.0):
        """A(t, eps) for every t in ``ts``; shape (len(ts), 4, 4).

        ``eps`` is a scalar or an array shaped like ``ts``, paired with it
        point by point.  A non-finite entry raises ExprDomainError naming
        the entry, the point and the offending subexpression."""
        return _fill(self._compiled, ts, eps, "entry")

    def entry_values(self, ts, eps):
        """Yield ``((i, j), values)`` for each stored entry (i <= j) at the
        points (``ts``, ``eps``), two float arrays that broadcast against
        each other; ``values`` broadcasts to their common shape.  A term in
        t alone is computed once per element of ``ts``.  Checked as in
        :meth:`eval_matrix_batch`, one entry at a time."""
        return _checked(self._compiled, ts, eps, "entry")

    def d_eps_matrix_batch(self, ts, eps=0.0):
        """dA/deps for every t in ``ts``, paired with ``eps`` as in
        :meth:`eval_matrix_batch`.

        Each entry that mentions eps is differentiated symbolically and
        compiled (within MAX_DEPTH) on the first call; the rest are zero."""
        if self._d_eps is None:
            self._d_eps = _compile_entries(
                {k: d_eps(e) for k, e in self._entries.items() if contains_eps(e)})
        return _fill(self._d_eps, ts, eps, "d/deps of entry")


def _compile_entries(entries):
    """{(i, j): tree} as (keys, trees, one compiled evaluator of all)."""
    return tuple(entries), tuple(entries.values()), compile_array(entries.values())


def _checked(compiled, ts, eps, what):
    """Yield ``((i, j), values)`` for each entry of a :func:`_compile_entries`
    curve at the points (ts, eps), which broadcast against each other; a
    non-finite value is located by :func:`_locate` at the first bad point
    of the broadcast shape."""
    keys, trees, fn = compiled
    for (i, j), tree, vals in zip(keys, trees, fn(ts, eps)):
        if not np.all(np.isfinite(vals)):
            shape = np.broadcast_shapes(np.shape(ts), np.shape(eps))
            bad = int(np.flatnonzero(~np.isfinite(np.broadcast_to(vals, shape)))[0])
            t_bad = float(np.broadcast_to(ts, shape).flat[bad])
            eps_bad = float(np.broadcast_to(eps, shape).flat[bad])
            where = f"at (t, eps) = ({t_bad!r}, {eps_bad!r})"
            try:
                with np.errstate(all="ignore"):
                    _locate(tree, t_bad, eps_bad)
            except ExprDomainError as exc:
                raise ExprDomainError(exc.offset,
                                      f"{what} ({i},{j}): {exc.reason} {where}") from None
            raise ExprDomainError(tree.offset, f"{what} ({i},{j}) non-finite {where}")
        yield (i, j), vals


def _fill(compiled, ts, eps, what):
    """Evaluate a :func:`_compile_entries` curve into a stack of symmetric
    matrices, checked by :func:`_checked`."""
    ts = np.asarray(ts, dtype=float)
    out = np.zeros((ts.size, 4, 4))
    for (i, j), vals in _checked(compiled, ts, eps, what):
        out[:, i, j] = vals
        out[:, j, i] = vals
    return out
