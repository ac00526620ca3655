"""Tiny expression language for scenario curves.

Entries of the symmetric coefficient matrix A(t, eps) are written as text
in the two variables ``t`` and ``eps`` with the functions sin, cos, exp,
sqrt and abs.  Precedence is ``^`` above unary minus above ``*``/``/``
above ``+``/``-``; ``^`` is right-associative, everything else is left-
associative.

A curve's entries are compiled into one numpy evaluator
(:func:`compile_array`); dA/deps is the symbolic derivative of each entry
(:func:`d_eps`), compiled the same way.  :func:`evaluate` is the reference tree walker in double
precision: it raises on division by zero or a negative square root
instead of producing NaN, and the curve runs it only to locate a
non-finite value in the source text.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ExprDomainError,
    ExprSyntaxError,
    SymmetryConflictError,
    UnknownIdentifierError,
)

_FUNCTIONS = ("sin", "cos", "exp", "sqrt", "abs")
_VARIABLES = ("t", "eps")


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
class Add:
    lhs: object
    rhs: object
    offset: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Sub:
    lhs: object
    rhs: object
    offset: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Mul:
    lhs: object
    rhs: object
    offset: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Div:
    lhs: object
    rhs: object
    offset: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Pow:
    lhs: object
    rhs: object
    offset: int = field(default=0, compare=False)


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
            if not math.isfinite(value):
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

    def parse(self):
        node = self.sum()
        tok = self.peek()
        if tok[0] != "end":
            raise ExprSyntaxError(tok[2], ("+", "-", "*", "/", "^", "end"))
        return node

    def sum(self):
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            kind, _, off = self.take()
            rhs = self.term()
            node = Add(node, rhs, off) if kind == "+" else Sub(node, rhs, off)
        return node

    def term(self):
        node = self.unary()
        while self.peek()[0] in ("*", "/"):
            kind, _, off = self.take()
            rhs = self.unary()
            node = Mul(node, rhs, off) if kind == "*" else Div(node, rhs, off)
        return node

    def unary(self):
        tok = self.peek()
        if tok[0] == "-":
            self.take()
            return Neg(self.unary(), tok[2])
        return self.power()

    def power(self):
        base = self.atom()
        tok = self.peek()
        if tok[0] == "^":
            self.take()
            # Right-associative: the exponent may itself carry unary minus.
            return Pow(base, self.unary(), tok[2])
        return base

    def atom(self):
        tok = self.peek()
        if tok[0] == "num":
            self.take()
            return Num(tok[1], tok[2])
        if tok[0] == "ident":
            self.take()
            name, off = tok[1], tok[2]
            if name in _VARIABLES:
                return Var(name, off)
            if name in _FUNCTIONS:
                self.expect("(")
                arg = self.sum()
                self.expect(")")
                return Call(name, arg, off)
            raise UnknownIdentifierError(name, off)
        if tok[0] == "(":
            self.take()
            node = self.sum()
            self.expect(")")
            return node
        raise ExprSyntaxError(tok[2], ("number", "identifier", "(", "-"))


def parse(source):
    """Parse expression text into an AST.

    Raises ExprSyntaxError (with byte offset and expected-token set) or
    UnknownIdentifierError.
    """
    return _Parser(source).parse()


# --- evaluation -------------------------------------------------------------

def evaluate(e, t, eps):
    """Evaluate an AST at (t, eps) in double precision.

    Division by zero, sqrt of a negative number, fractional powers of
    negatives and overflow raise ExprDomainError carrying the offset of
    the offending subexpression.
    """
    kind = type(e)
    if kind is Num:
        return e.value
    if kind is Var:
        return float(t) if e.name == "t" else float(eps)
    if kind is Neg:
        return -evaluate(e.arg, t, eps)
    if kind is Add:
        return evaluate(e.lhs, t, eps) + evaluate(e.rhs, t, eps)
    if kind is Sub:
        return evaluate(e.lhs, t, eps) - evaluate(e.rhs, t, eps)
    if kind is Mul:
        return evaluate(e.lhs, t, eps) * evaluate(e.rhs, t, eps)
    if kind is Div:
        denom = evaluate(e.rhs, t, eps)
        if denom == 0.0:
            raise ExprDomainError(e.offset, "division by zero")
        return evaluate(e.lhs, t, eps) / denom
    if kind is Pow:
        base = evaluate(e.lhs, t, eps)
        expo = evaluate(e.rhs, t, eps)
        try:
            return math.pow(base, expo)
        except (ValueError, OverflowError) as exc:
            raise ExprDomainError(e.offset, f"power out of domain: {exc}") from None
    if kind is Call:
        arg = evaluate(e.arg, t, eps)
        try:
            if e.fn == "sin":
                return math.sin(arg)
            if e.fn == "cos":
                return math.cos(arg)
            if e.fn == "exp":
                return math.exp(arg)
            if e.fn == "sqrt":
                return math.sqrt(arg)
            if e.fn == "log":
                return math.log(arg)
            if e.fn == "sign":
                return math.copysign(1.0, arg) if arg else 0.0
            return math.fabs(arg)
        except (ValueError, OverflowError) as exc:
            raise ExprDomainError(e.offset, f"{e.fn} out of domain: {exc}") from None
    raise TypeError(f"not an expression node: {e!r}")


def pretty(e):
    """Render an AST back to text that reparses to an equal tree."""
    kind = type(e)
    if kind is Num:
        return repr(e.value)
    if kind is Var:
        return e.name
    if kind is Neg:
        return f"(-{pretty(e.arg)})"
    if kind is Call:
        return f"{e.fn}({pretty(e.arg)})"
    ops = {Add: "+", Sub: "-", Mul: "*", Div: "/", Pow: "^"}
    return f"({pretty(e.lhs)} {ops[kind]} {pretty(e.rhs)})"


def contains_eps(e):
    kind = type(e)
    if kind is Var:
        return e.name == "eps"
    if kind is Num:
        return False
    if kind is Neg:
        return contains_eps(e.arg)
    if kind is Call:
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
    so :func:`evaluate` on the derivative locates a domain error in the
    source text.  The result may call ``log`` and ``sign``, which only the
    code generator and :func:`evaluate` know, not the parser.
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

def _codegen(e):
    kind = type(e)
    if kind is Num:
        return repr(e.value)
    if kind is Var:
        return e.name
    if kind is Neg:
        return f"(-{_codegen(e.arg)})"
    if kind is Add:
        return f"({_codegen(e.lhs)} + {_codegen(e.rhs)})"
    if kind is Sub:
        return f"({_codegen(e.lhs)} - {_codegen(e.rhs)})"
    if kind is Mul:
        return f"({_codegen(e.lhs)} * {_codegen(e.rhs)})"
    if kind is Div:
        # np.divide, not "/": two Python floats would raise on a zero divisor
        return f"_div({_codegen(e.lhs)}, {_codegen(e.rhs)})"
    if kind is Pow:
        return f"_pow({_codegen(e.lhs)}, {_codegen(e.rhs)})"
    return f"{e.fn}({_codegen(e.arg)})"


_ARRAY_NS = {
    "sin": np.sin, "cos": np.cos, "exp": np.exp,
    "sqrt": np.sqrt, "abs": np.abs, "_pow": np.power,
    "_div": np.divide, "log": np.log, "sign": np.sign,
}


def compile_array(trees):
    """Compile trees into one callable mapping a numpy array of t values
    and an eps (a scalar or an array shaped like t) to a tuple with one
    value per tree, broadcastable to the shape of t.  Out-of-domain points
    come back non-finite, without numpy warnings; callers must check."""
    body = "".join(f"{_codegen(e)}, " for e in trees)
    fn = eval(compile(f"lambda t, eps: ({body})", "<expr>", "eval"), dict(_ARRAY_NS))

    def wrapped(ts, eps):
        with np.errstate(all="ignore"):
            return fn(ts, eps)

    return wrapped


# --- the symmetric curve ----------------------------------------------------


class SymmetricCurve:
    """Symmetric 4x4 matrix of expressions in (t, eps).

    Only the upper triangle is stored; entry (i, j) and (j, i) are the
    same expression object, so evaluated matrices are symmetric bitwise.
    Missing entries are zero.
    """

    def __init__(self, entries):
        self._entries = {}
        for (i, j), node in entries.items():
            if not (0 <= i <= 3 and 0 <= j <= 3):
                raise ValueError(f"entry index out of range: ({i}, {j})")
            key = (i, j) if i <= j else (j, i)
            if key in self._entries and self._entries[key] != node:
                raise SymmetryConflictError(
                    f"conflicting expressions for symmetric entries {key} and {key[::-1]}")
            self._entries[key] = node
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
        compiled on the first call; the other entries are zero."""
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
    non-finite value is located by running the tree walker at the first
    bad point of the broadcast shape."""
    keys, trees, fn = compiled
    for (i, j), tree, vals in zip(keys, trees, fn(ts, eps)):
        if not np.all(np.isfinite(vals)):
            shape = np.broadcast_shapes(np.shape(ts), np.shape(eps))
            bad = int(np.flatnonzero(~np.isfinite(np.broadcast_to(vals, shape)))[0])
            t_bad = float(np.broadcast_to(ts, shape).flat[bad])
            eps_bad = float(np.broadcast_to(eps, shape).flat[bad])
            where = f"at (t, eps) = ({t_bad!r}, {eps_bad!r})"
            try:
                evaluate(tree, t_bad, eps_bad)
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
