"""Tiny expression language for scenario curves.

Entries of the symmetric coefficient matrix A(t, eps) are written as text
in the two variables ``t`` and ``eps`` with the functions sin, cos, exp,
sqrt and abs.  Precedence is ``^`` above unary minus above ``*``/``/``
above ``+``/``-``; ``^`` is right-associative, everything else is left-
associative.  Text may nest at most :data:`MAX_DEPTH` levels deep.

One operator table gives each operator its numpy function, and one tree
walker reads it: for one point of Python floats, for arrays of points, and
for dA/deps, the symbolic derivative of each entry (:func:`d_eps`).  A
second walk of the same table names the first node of a tree whose value
is not finite.
"""

import operator
from functools import cached_property
from math import isfinite

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
# (540 of 1,000 frames under pytest); the walker holds d/deps to it too.
MAX_DEPTH = 100


# --- abstract syntax --------------------------------------------------------
# ``offset`` is the byte position in the source text.  Nodes are equal when
# they are of one class with equal fields; the offset is not a field, so
# structural comparison ignores provenance.  Nodes are never mutated.

class _Node:
    __slots__ = ("offset",)
    _fields = ()

    def _key(self):
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash((type(self), self._key()))

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(map(repr, self._key()))})"


class Num(_Node):
    __slots__ = _fields = ("value",)

    def __init__(self, value, offset=0):
        self.value = value
        self.offset = offset


class Var(_Node):
    __slots__ = _fields = ("name",)

    def __init__(self, name, offset=0):
        self.name = name
        self.offset = offset


class Neg(_Node):
    __slots__ = _fields = ("arg",)

    def __init__(self, arg, offset=0):
        self.arg = arg
        self.offset = offset


class _Binary(_Node):
    __slots__ = _fields = ("lhs", "rhs")

    def __init__(self, lhs, rhs, offset=0):
        self.lhs = lhs
        self.rhs = rhs
        self.offset = offset


# Binary nodes differ only in class, so equality still tells them apart.
class Add(_Binary):
    __slots__ = ()


class Sub(_Binary):
    __slots__ = ()


class Mul(_Binary):
    __slots__ = ()


class Div(_Binary):
    __slots__ = ()


class Pow(_Binary):
    __slots__ = ()


class Call(_Node):
    __slots__ = _fields = ("fn", "arg")

    def __init__(self, fn, arg, offset=0):
        self.fn = fn
        self.arg = arg
        self.offset = offset


# --- tokenizer / parser -----------------------------------------------------

def _tokenize(source):
    tokens = []
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch in "+-*/^()":
            tokens.append((ch, ch, i))
            i += 1
        elif ch.isspace():
            i += 1
        elif ch.isdigit() or ch == ".":
            # digits with at most one ".", then an optional exponent
            j = i
            while j < n and source[j].isdigit():
                j += 1
            if j < n and source[j] == ".":
                j += 1
                while j < n and source[j].isdigit():
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
            if not isfinite(value):
                raise ExprSyntaxError(i, ("number",), f"non-finite literal {text!r} at offset {i}")
            tokens.append(("num", value, i))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(("ident", source[i:j], i))
            i = j
        else:
            raise ExprSyntaxError(i, ("number", "identifier", "operator"),
                                  f"unexpected character {ch!r} at offset {i}")
    tokens.append(("end", "", n))
    return tokens


def _deeper(depth, offset):
    # Each rule takes the levels enclosing it and returns its tree with the
    # levels down to its deepest leaf; this adds one level.
    if depth >= MAX_DEPTH:
        raise ExprDepthError(f"expression nests deeper than {MAX_DEPTH} levels "
                             f"at offset {offset}")
    return depth + 1


def parse(source):
    """Parse expression text into an AST.

    Raises ExprSyntaxError (with byte offset and expected-token set),
    UnknownIdentifierError, or ExprDepthError past MAX_DEPTH levels.
    """
    tokens = _tokenize(source)
    pos = 0

    def close():
        nonlocal pos
        kind, _, off = tokens[pos]
        if kind != ")":
            raise ExprSyntaxError(off, (")",))
        pos += 1

    def sum_(level):
        # term (("+" | "-") term)*
        nonlocal pos
        node, depth = term(level)
        kind, _, off = tokens[pos]
        while kind == "+" or kind == "-":
            pos += 1
            rhs, rhs_depth = term(level)
            depth = _deeper(max(depth, rhs_depth), off)
            node = Add(node, rhs, off) if kind == "+" else Sub(node, rhs, off)
            kind, _, off = tokens[pos]
        return node, depth

    def term(level):
        # unary (("*" | "/") unary)*
        nonlocal pos
        node, depth = unary(level)
        kind, _, off = tokens[pos]
        while kind == "*" or kind == "/":
            pos += 1
            rhs, rhs_depth = unary(level)
            depth = _deeper(max(depth, rhs_depth), off)
            node = Mul(node, rhs, off) if kind == "*" else Div(node, rhs, off)
            kind, _, off = tokens[pos]
        return node, depth

    def unary(level):
        # "-" unary | atom ("^" unary)?, atom a number, a variable,
        # fn "(" sum ")" or "(" sum ")"
        nonlocal pos
        kind, value, off = tokens[pos]
        if kind == "-":
            pos += 1
            arg, depth = unary(_deeper(level, off))
            return Neg(arg, off), depth
        if kind == "num":
            pos += 1
            node, depth = Num(value, off), level
        elif kind == "ident":
            pos += 1
            if value in _VARIABLES:
                node, depth = Var(value, off), level
            elif value in _FUNCTIONS:
                if tokens[pos][0] != "(":
                    raise ExprSyntaxError(tokens[pos][2], ("(",))
                pos += 1
                arg, depth = sum_(_deeper(level, off))
                close()
                node = Call(value, arg, off)
            else:
                raise UnknownIdentifierError(value, off)
        elif kind == "(":
            pos += 1
            node, depth = sum_(_deeper(level, off))
            close()
        else:
            raise ExprSyntaxError(off, ("number", "identifier", "(", "-"))
        kind, _, off = tokens[pos]
        if kind != "^":
            return node, depth
        pos += 1
        # Right-associative: the exponent may itself carry unary minus.
        expo, expo_depth = unary(_deeper(level, off))
        return Pow(node, expo, off), max(_deeper(depth, off), expo_depth)

    node, _ = sum_(0)
    kind, _, off = tokens[pos]
    if kind != "end":
        raise ExprSyntaxError(off, ("+", "-", "*", "/", "^", "end"))
    return node


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
    """True when the tree mentions eps; an explicit stack, so any depth."""
    stack = [e]
    while stack:
        e = stack.pop()
        kind = type(e)
        if kind is Var and e.name == "eps":
            return True
        if kind is Neg or kind is Call:
            stack.append(e.arg)
        elif isinstance(e, _Binary):
            stack += (e.lhs, e.rhs)
    return False


_ZERO = Num(0.0)
_ONE = Num(1.0)


def _is(a, value):
    # A test by value: comparing trees would walk them.
    return type(a) is Num and a.value == value


def _add(a, b, at):
    return b if _is(a, 0.0) else a if _is(b, 0.0) else Add(a, b, at)


def _sub(a, b, at):
    return a if _is(b, 0.0) else _neg(b, at) if _is(a, 0.0) else Sub(a, b, at)


def _neg(a, at):
    return _ZERO if _is(a, 0.0) else Neg(a, at)


def _mul(a, b, at):
    if _is(a, 0.0) or _is(b, 0.0):
        return _ZERO
    return b if _is(a, 1.0) else a if _is(b, 1.0) else Mul(a, b, at)


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
    if kind is Num:
        return _ZERO
    if kind is Var:
        return _ONE if e.name == "eps" else _ZERO
    at = e.offset
    if kind is Neg:
        return _neg(d_eps(e.arg), at)
    if kind is Call:
        u = e.arg
        du = d_eps(u)
        if _is(du, 0.0):
            return _ZERO
        outer = {"sin": Call("cos", u, at), "cos": Neg(Call("sin", u, at), at),
                 "exp": e, "sqrt": Div(Num(0.5, at), e, at),
                 "abs": Call("sign", u, at)}[e.fn]
        return _mul(outer, du, at)
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
        return _ZERO if _is(top, 0.0) else Div(top, v, at)
    # (u^v)' = u^v log(u) v' + v u^(v-1) u'; log(u) only when v has eps
    return _add(_mul(_mul(e, Call("log", u, at), at), dv, at),
                _mul(_mul(v, Pow(u, Sub(v, _ONE, at), at), at), du, at), at)


# --- evaluation -------------------------------------------------------------

def _too_deep(e):
    return ExprDepthError(f"expression (or its eps-derivative) nests deeper than "
                          f"{MAX_DEPTH} levels at offset {e.offset}")


def _value(e, t, eps, depth=0):
    """The value of a tree at (t, eps), Python floats or numpy arrays that
    broadcast against each other: the table's numpy function applied at
    each node to its children's values, left to right.  Held to MAX_DEPTH
    and otherwise unchecked; run under ``np.errstate(all="ignore")``."""
    if depth > MAX_DEPTH:
        raise _too_deep(e)
    kind = type(e)
    if kind is Num:
        return e.value
    if kind is Var:
        return t if e.name == "t" else eps
    if kind is Neg or kind is Call:
        return _OPS[e.fn if kind is Call else kind](_value(e.arg, t, eps, depth + 1))
    return _OPS[kind](_value(e.lhs, t, eps, depth + 1), _value(e.rhs, t, eps, depth + 1))


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


def _at_eps0(e):
    """The tree's value at eps = 0 when the tree shows that it is the same
    at every t, else None: eps is 0, a product with a factor 0 is 0 whatever
    the other factor, and any other node is constant when its children
    are.  Run under ``np.errstate(all="ignore")``."""
    kind = type(e)
    if kind is Num:
        return e.value
    if kind is Var:
        return 0.0 if e.name == "eps" else None
    if kind is Neg or kind is Call:
        arg = _at_eps0(e.arg)
        return None if arg is None else _OPS[e.fn if kind is Call else kind](arg)
    lhs, rhs = _at_eps0(e.lhs), _at_eps0(e.rhs)
    if lhs is None or rhs is None:
        return 0.0 if kind is Mul and (lhs == 0.0 or rhs == 0.0) else None
    return _OPS[kind](lhs, rhs)


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

    @cached_property
    def has_eps(self):
        """True when some entry mentions eps; scanned on the first read."""
        return any(contains_eps(e) for e in self._entries.values())

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
        """The symmetric real matrix A(t, eps): each tree walked once at the
        point, with the values and errors of ``eval_matrix_batch([t], eps)[0]``."""
        t = float(t)
        out = np.zeros((4, 4))
        with np.errstate(all="ignore"):
            for (i, j), tree in self._entries.items():
                value = _value(tree, t, eps)
                if not isfinite(value):
                    raise _domain_error("entry", (i, j), tree, t, float(eps))
                out[i, j] = out[j, i] = value
        return out

    def eval_matrix_batch(self, ts, eps=0.0):
        """A(t, eps) for every t in ``ts``; shape (len(ts), 4, 4).

        ``eps`` is a scalar or an array shaped like ``ts``, paired with it
        point by point.  A non-finite entry raises ExprDomainError naming
        the entry, the point and the offending subexpression."""
        return _fill(self._entries, ts, eps, "entry")

    def entry_values(self, ts, eps):
        """Yield ``((i, j), values)`` for each stored entry (i <= j) at the
        points (``ts``, ``eps``), two float arrays that broadcast against
        each other; ``values`` broadcasts to their common shape.  A term in
        t alone is computed once per element of ``ts``.  Checked as in
        :meth:`eval_matrix_batch`, one entry at a time."""
        return _checked(self._entries, ts, eps, "entry")

    def constant_at_eps0(self):
        """True when A(t, 0) is one matrix for every t, as its trees show with
        eps = 0 folded into them (a product with a factor 0 is 0): no t is
        left.  Decided from the trees, not from samples, which
        cos(100.53096491487338*t) passes at 17 equally spaced t in [0, 1]."""
        with np.errstate(all="ignore"):
            return all(_at_eps0(e) is not None for e in self._entries.values())

    def d_eps_matrix_batch(self, ts, eps=0.0):
        """dA/deps for every t in ``ts``, paired with ``eps`` as in
        :meth:`eval_matrix_batch`.

        Each entry that mentions eps is differentiated symbolically on every
        call and walked within MAX_DEPTH; the rest are zero."""
        return _fill({k: d_eps(e) for k, e in self._entries.items() if contains_eps(e)},
                     ts, eps, "d/deps of entry")


def _checked(entries, ts, eps, what):
    """Yield ``((i, j), values)`` for each entry of {(i, j): tree} at the
    points (ts, eps), which broadcast against each other.  Every tree is
    walked before any value is checked, so the first tree too deep is named
    before any domain error; the first non-finite value, in entry order, is
    located by :func:`_locate` at the first bad point of the broadcast
    shape."""
    with np.errstate(all="ignore"):
        values = [_value(tree, ts, eps) for tree in entries.values()]
    for ((i, j), tree), vals in zip(entries.items(), values):
        if not np.all(np.isfinite(vals)):
            shape = np.broadcast_shapes(np.shape(ts), np.shape(eps))
            bad = int(np.flatnonzero(~np.isfinite(np.broadcast_to(vals, shape)))[0])
            t_bad = float(np.broadcast_to(ts, shape).flat[bad])
            eps_bad = float(np.broadcast_to(eps, shape).flat[bad])
            raise _domain_error(what, (i, j), tree, t_bad, eps_bad)
        yield (i, j), vals


def _domain_error(what, key, tree, t, eps):
    """The ExprDomainError of entry ``key``, whose ``tree`` is not finite at
    (t, eps), naming the node that :func:`_locate` finds."""
    i, j = key
    where = f"at (t, eps) = ({t!r}, {eps!r})"
    try:
        with np.errstate(all="ignore"):
            _locate(tree, t, eps)
    except ExprDomainError as exc:
        return ExprDomainError(exc.offset, f"{what} ({i},{j}): {exc.reason} {where}")
    return ExprDomainError(tree.offset, f"{what} ({i},{j}) non-finite {where}")


def _fill(entries, ts, eps, what):
    """{(i, j): tree} at every t in ``ts`` as a stack of symmetric matrices,
    checked by :func:`_checked`."""
    ts = np.asarray(ts, dtype=float)
    out = np.zeros((ts.size, 4, 4))
    for (i, j), vals in _checked(entries, ts, eps, what):
        out[:, i, j] = vals
        out[:, j, i] = vals
    return out
