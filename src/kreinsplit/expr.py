"""Tiny expression language for scenario curves.

Entries of the symmetric coefficient matrix A(t, eps) are written as text
in the two variables ``t`` and ``eps`` with the functions sin, cos, exp,
sqrt and abs.  Precedence is ``^`` above unary minus above ``*``/``/``
above ``+``/``-``; ``^`` is right-associative, everything else is left-
associative.  Evaluation is double precision and raises on division by
zero or a negative square root instead of producing NaN.
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


def eps_degree(e):
    """Degree in eps when the tree is syntactically polynomial in eps and
    eps never appears inside a function argument, an exponent or a
    denominator; None otherwise."""
    kind = type(e)
    if kind is Num:
        return 0
    if kind is Var:
        return 1 if e.name == "eps" else 0
    if kind is Neg:
        return eps_degree(e.arg)
    if kind in (Add, Sub):
        a = eps_degree(e.lhs)
        b = eps_degree(e.rhs)
        return None if a is None or b is None else max(a, b)
    if kind is Mul:
        a = eps_degree(e.lhs)
        b = eps_degree(e.rhs)
        return None if a is None or b is None else a + b
    if kind is Div:
        a = eps_degree(e.lhs)
        b = eps_degree(e.rhs)
        return a if b == 0 and a is not None else None
    if kind is Pow:
        a = eps_degree(e.lhs)
        b = eps_degree(e.rhs)
        return 0 if a == 0 and b == 0 else None
    if kind is Call:
        return 0 if eps_degree(e.arg) == 0 else None
    return None


def d_eps_exact(e, t, eps):
    """Exact eps-derivative for trees whose eps_degree is at most one."""
    kind = type(e)
    if kind is Num:
        return 0.0
    if kind is Var:
        return 1.0 if e.name == "eps" else 0.0
    if kind is Neg:
        return -d_eps_exact(e.arg, t, eps)
    if kind is Add:
        return d_eps_exact(e.lhs, t, eps) + d_eps_exact(e.rhs, t, eps)
    if kind is Sub:
        return d_eps_exact(e.lhs, t, eps) - d_eps_exact(e.rhs, t, eps)
    if kind is Mul:
        return (d_eps_exact(e.lhs, t, eps) * evaluate(e.rhs, t, eps)
                + evaluate(e.lhs, t, eps) * d_eps_exact(e.rhs, t, eps))
    if kind is Div:
        denom = evaluate(e.rhs, t, eps)
        if denom == 0.0:
            raise ExprDomainError(e.offset, "division by zero")
        return d_eps_exact(e.lhs, t, eps) / denom
    # Pow and Call are eps-free on the linear fast path.
    return 0.0


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
        return f"({_codegen(e.lhs)} / {_codegen(e.rhs)})"
    if kind is Pow:
        return f"_pow({_codegen(e.lhs)}, {_codegen(e.rhs)})"
    return f"{e.fn}({_codegen(e.arg)})"


_SCALAR_NS = {
    "sin": math.sin, "cos": math.cos, "exp": math.exp,
    "sqrt": math.sqrt, "abs": math.fabs, "_pow": math.pow,
}
_ARRAY_NS = {
    "sin": np.sin, "cos": np.cos, "exp": np.exp,
    "sqrt": np.sqrt, "abs": np.abs, "_pow": np.power,
}


def compile_scalar(e):
    """Compile to a fast (t, eps) -> float callable with the same domain
    errors as :func:`evaluate` (the slow path re-runs to locate them)."""
    code = compile(f"lambda t, eps: {_codegen(e)}", "<expr>", "eval")
    fn = eval(code, dict(_SCALAR_NS))

    def wrapped(t, eps):
        try:
            return fn(t, eps)
        except (ZeroDivisionError, ValueError, OverflowError):
            return evaluate(e, t, eps)

    return wrapped


def compile_array(e):
    """Compile to a callable mapping a numpy array of t values (and a
    scalar eps) to an array of values.  Out-of-domain points come back
    non-finite; callers must check."""
    code = compile(f"lambda t, eps: {_codegen(e)}", "<expr>", "eval")
    fn = eval(code, dict(_ARRAY_NS))

    def wrapped(ts, eps):
        with np.errstate(all="ignore"):
            out = fn(ts, eps)
        return np.broadcast_to(np.asarray(out, dtype=float), np.shape(ts)).copy()

    return wrapped


# --- the symmetric curve ----------------------------------------------------

_ZERO = Num(0.0)


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
        self._linear_in_eps = all(
            (eps_degree(e) is not None and eps_degree(e) <= 1)
            for e in self._entries.values())
        self._scalar = {k: compile_scalar(e) for k, e in self._entries.items()}
        self._array = {k: compile_array(e) for k, e in self._entries.items()}

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

    def entry(self, i, j):
        key = (i, j) if i <= j else (j, i)
        return self._entries.get(key, _ZERO)

    def eval_matrix(self, t, eps=0.0):
        """The symmetric real matrix A(t, eps)."""
        M = np.zeros((4, 4))
        for (i, j), fn in self._scalar.items():
            try:
                v = fn(t, eps)
            except ExprDomainError as exc:
                raise ExprDomainError(exc.offset, f"entry ({i},{j}): {exc.reason}") from None
            M[i, j] = v
            M[j, i] = v
        return M

    def eval_matrix_batch(self, ts, eps=0.0):
        """A(t, eps) for every t in ``ts``; shape (len(ts), 4, 4).

        ``eps`` is a scalar or an array shaped like ``ts``, paired with it
        point by point."""
        ts = np.asarray(ts, dtype=float)
        out = np.zeros((ts.size, 4, 4))
        for (i, j), fn in self._array.items():
            vals = fn(ts, eps)
            if not np.all(np.isfinite(vals)):
                bad = int(np.flatnonzero(~np.isfinite(vals))[0])
                t_bad = float(ts[bad])
                eps_bad = float(np.broadcast_to(eps, ts.shape)[bad])
                where = f"at (t, eps) = ({t_bad!r}, {eps_bad!r})"
                # Re-evaluate the scalar path to produce a located error.
                try:
                    self.eval_matrix(t_bad, eps_bad)
                except ExprDomainError as exc:
                    raise ExprDomainError(exc.offset, f"{exc.reason} {where}") from None
                raise ExprDomainError(0, f"entry ({i},{j}) non-finite {where}")
            out[:, i, j] = vals
            out[:, j, i] = vals
        return out

    def d_eps_matrix(self, t, eps=0.0, h=None):
        """Entrywise derivative of A with respect to eps.

        Uses the exact coefficient when every entry is (at most) linear in
        eps with no eps inside function arguments; otherwise a central
        difference with step h (default 1e-6 * (1 + |eps|))."""
        if self._linear_in_eps:
            M = np.zeros((4, 4))
            for (i, j), e in self._entries.items():
                v = d_eps_exact(e, t, eps)
                M[i, j] = v
                M[j, i] = v
            return M
        if h is None:
            h = 1e-6 * (1.0 + abs(eps))
        if h <= 0:
            raise ValueError("h must be positive")
        return (self.eval_matrix(t, eps + h) - self.eval_matrix(t, eps - h)) / (2.0 * h)

    def d_eps_matrix_batch(self, ts, eps=0.0, h=None):
        """Derivative with respect to eps for every t in ``ts``."""
        ts = np.asarray(ts, dtype=float)
        if self._linear_in_eps:
            out = np.empty((ts.size, 4, 4))
            for n, t in enumerate(ts):
                out[n] = self.d_eps_matrix(float(t), eps)
            return out
        if h is None:
            h = 1e-6 * (1.0 + abs(eps))
        return (self.eval_matrix_batch(ts, eps + h)
                - self.eval_matrix_batch(ts, eps - h)) / (2.0 * h)
