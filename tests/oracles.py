"""Independent reference implementations used only by tests.

These deliberately avoid the package's own code paths: determinants by
cofactor expansion, the matrix exponential by scaling and squaring,
characteristic coefficients by sampling the determinant and solving a
Vandermonde system, flow endpoints by the sequential Magnus loop
(``magnus_reference``, the reference of the chunk engine in
``kreinsplit.flow``), mixed exterior powers by one determinant call per
column assignment, and expression values and eps-derivatives by walking
the tree at one point at a time with Python's ``math`` functions
(``evaluate`` and ``d_eps_exact``; the package evaluates only through
numpy).  Two RK4 integrators, which share no step formula with the
Magnus engine, cross-check it: the sequential loop ``rk4_reference``, and
the RK4 chunk engine that allocates its arrays afresh in every chunk and
evaluates A once per (time, flow) pair, kept as ``flows_allocating``; the
Newton polish that evaluates through one call per evaluation is kept as
``polish_loop``, the bitwise reference of ``kreinsplit.linalg._polish``.
The compiler that generated Python source for a list of trees and ran it
through ``eval`` is kept verbatim as ``compile_generated``, the bitwise
reference of the tree walker ``kreinsplit.expr._value`` on arrays.  The
two-term Puiseux fit of labelled branches, which the oracle ran before it
fitted the pair's symmetric functions, is kept verbatim as the
parity-split ``fit_puiseux``, with ``fit_joint``, the joint weighted
least-squares solve that it replaced, as its reference.  The degree-10 Horner
series for exp(W) - I with its per-matrix scaling is kept verbatim as
``expm1_horner``, the reference of the Paterson-Stockmeyer
``kreinsplit.flow._expm1``, and ``expm1_decimal`` sums the Taylor series
of one matrix in 50-digit decimal arithmetic.  The detector that found
the double multiplier from the roots of two characteristic quartics, the
second recentred at the first estimate, is kept as
``detect_double_unitary_roots`` (its two ``eigenvalues`` calls written
out as ``quartic_roots(charpoly(M, c), c)``), the reference of the trace rule
in ``kreinsplit.spectral.detect_double_unitary``.  The recursive-descent
parser class with one method per grammar rule and ``peek``/``take``/
``expect``, and the tokenizer that scanned a literal character by
character with a ``seen_dot`` flag and checked it with ``np.isfinite``,
are kept verbatim as ``parse_reference``, the reference of the flat
``kreinsplit.expr.parse``: the same trees, offsets and errors.

``discriminant_oracle`` is a second, root-free oracle: it reads kappa and
the sum derivative from the traces of the oracle's endpoint batch alone.

The rest are helpers that only tests read: the inner-product closed forms
of the ladder's mixed coefficients (``ladder_closed_forms``, which computes
its own pairings, so criterion 3 shares no arithmetic with ``expansion_t``),
the six Krein pairings of a chain (``krein_pairings``), and small views of
package values (``pretty``, ``magnitude``, ``to_absolute``, ``separations``,
``forward_unstable``, ``conjugated``).
"""

import math
import operator
from dataclasses import dataclass, field
from decimal import Decimal, localcontext
from itertools import combinations, permutations
from math import comb

import numpy as np

from kreinsplit.bifurcation import UNSTABLE_FORWARD
from kreinsplit.errors import (
    ExprDepthError,
    ExprDomainError,
    ExprSyntaxError,
    IllConditionedFitError,
    NonSymplecticError,
    UnknownIdentifierError,
)
from kreinsplit.expr import (
    _FUNCTIONS,
    _VARIABLES,
    MAX_DEPTH,
    Add,
    Call,
    Div,
    Mul,
    Neg,
    Num,
    Pow,
    Sub,
    Var,
)
from kreinsplit.flow import _CHUNK
from kreinsplit.linalg import J4, charpoly, is_symplectic, quartic_roots, symplectic_form
from kreinsplit.spectral import pair_from_vectors
from kreinsplit.verify import family_endpoints


def det_cofactor(A):
    """Determinant by recursive cofactor expansion along the first row."""
    A = np.asarray(A)
    n = A.shape[0]
    if n == 1:
        return A[0, 0]
    total = 0
    for j in range(n):
        minor = np.delete(np.delete(A, 0, axis=0), j, axis=1)
        total += (-1) ** j * A[0, j] * det_cofactor(minor)
    return total


def expm_taylor(X, order=30):
    """Matrix exponential by scaling and squaring with a Taylor core; a
    stack of matrices is scaled as one, by its largest entry."""
    Y = np.asarray(X, dtype=float)
    squarings = 0
    while np.max(np.abs(Y)) > 0.25:
        Y = Y / 2.0
        squarings += 1
    E = np.eye(Y.shape[-1])
    term = np.eye(Y.shape[-1])
    for k in range(1, order):
        term = term @ Y / k
        E = E + term
    for _ in range(squarings):
        E = E @ E
    return E


def expm1_horner(W, D, X):
    """D = exp(W) - I for a stack of matrices W, shape (n, K, 4, 4), from the
    degree-10 Taylor series in Horner form, D <- W (I + D) / k, which never
    forms I.  Where the max row sum of |W| exceeds 0.1, W is first halved s
    times, exactly, and D squared back s times as 2 D + D^2, the increment of
    (I + D)^2.  At 0.1 the truncated terms are below 3e-19.  ``W`` is
    overwritten; ``X`` is scratch of the same shape."""
    norm = np.abs(W, out=X).sum(axis=-1).max(axis=-1)
    halvings = np.maximum(np.frexp(norm * 10.0)[1], 0)
    squarings = int(halvings.max())
    if squarings:
        np.ldexp(W, -halvings[..., None, None], out=W)
    np.divide(W, 10.0, out=D)
    for k in range(9, 0, -1):
        np.matmul(W, D, out=X)
        X += W
        np.divide(X, k, out=D)
    for j in range(squarings):
        np.matmul(D, D, out=X)
        X += D
        X += D
        np.copyto(D, X, where=(halvings > j)[..., None, None])


def expm1_decimal(W, terms=120):
    """exp(W) - I for one real square matrix W, the first ``terms`` terms
    of its Taylor series summed in 50-digit decimal arithmetic from the
    exact values of W's entries, rounded to float at the end.  At a max
    row sum of 8 the omitted terms are below 1e-90."""
    with localcontext() as ctx:
        ctx.prec = 50
        M = [[Decimal(float(x)) for x in row] for row in W]
        n = len(M)
        term = [row[:] for row in M]
        total = [row[:] for row in M]
        for k in range(2, terms + 1):
            term = [[sum(term[i][m] * M[m][j] for m in range(n)) / k for j in range(n)]
                    for i in range(n)]
            total = [[total[i][j] + term[i][j] for j in range(n)] for i in range(n)]
    return np.array([[float(x) for x in row] for row in total])


def charpoly_by_sampling(M, center):
    """Coefficients of det(lambda I - M) in powers of (lambda - center),
    from five determinant samples and a Vandermonde solve."""
    M = np.asarray(M, dtype=complex)
    xs = np.array([0.6 + 0.2j, -0.8 + 0.5j, 1.1 - 0.4j, -0.3 - 0.9j, 0.15 + 1.2j])
    vand = np.vander(xs, 5, increasing=True)
    vals = np.array([det_cofactor((center + x) * np.eye(4) - M) for x in xs])
    return np.linalg.solve(vand, vals)


def detect_double_unitary_roots(M, tol_cluster=1e-6, tol_circle=1e-6):
    """``detect_double_unitary`` as it was: the cluster center L of a
    spectrum made of exactly one conjugate pair of two-point clusters
    {L, L} and {conj L, conj L}, each of spread at most ``tol_cluster``,
    with ||L| - 1| at most ``tol_circle`` and L further than
    10 * tol_cluster from both +1 and -1; else None.  L is refined by one
    root extraction from the quartic recentred at the first estimate."""
    evs = quartic_roots(charpoly(M, 0j), 0j)
    plus = [z for z in evs if z.imag > 0]
    minus = [z for z in evs if z.imag <= 0]
    if len(plus) != 2 or len(minus) != 2:
        return None
    if abs(plus[0] - plus[1]) > tol_cluster:
        return None
    if abs(minus[0] - minus[1]) > tol_cluster:
        return None
    lam = (plus[0] + plus[1]) / 2.0
    lam_conj = (minus[0] + minus[1]) / 2.0
    if abs(np.conj(lam) - lam_conj) > 2.0 * tol_cluster:
        return None
    if abs(abs(lam) - 1.0) > tol_circle:
        return None
    if abs(lam - 1.0) <= 10.0 * tol_cluster or abs(lam + 1.0) <= 10.0 * tol_cluster:
        return None
    refined = quartic_roots(charpoly(M, lam), lam)
    near = refined[np.argsort(np.abs(refined - lam))[:2]]
    lam = complex((near[0] + near[1]) / 2.0)
    if abs(abs(lam) - 1.0) > tol_circle:
        return None
    return lam


def best_match_distance(got, want):
    """Smallest max-distance over pairings of two equal-length complex
    multisets (brute force; fine for four values)."""
    got = list(got)
    want = list(want)
    best = np.inf
    for perm in permutations(range(len(want))):
        d = max(abs(got[i] - want[p]) for i, p in enumerate(perm))
        best = min(best, d)
    return best


def random_symmetric4(rng, scale=1.0):
    A = rng.normal(size=(4, 4)) * scale
    return (A + A.T) / 2.0


def random_symmetric2(rng, scale=1.0):
    A = rng.normal(size=(2, 2)) * scale
    return (A + A.T) / 2.0


def rk4_reference(curve, gamma_init, T, steps, eps=0.0):
    """Endpoint of dG/dt = J4 A(t, eps) G over [0, T] by the plain
    sequential RK4 loop, one step at a time (A comes from the curve)."""
    J = np.block([[np.zeros((2, 2)), np.eye(2)], [-np.eye(2), np.zeros((2, 2))]])
    ts = np.linspace(0.0, float(T), steps + 1)
    h = ts[1] - ts[0]
    A_nodes = curve.eval_matrix_batch(ts, eps)
    A_mids = curve.eval_matrix_batch(ts[:-1] + h / 2.0, eps)
    G = np.array(gamma_init, dtype=float)
    for An, Am, An1 in zip(A_nodes[:-1], A_mids, A_nodes[1:]):
        k1 = J @ (An @ G)
        k2 = J @ (Am @ (G + (h / 2.0) * k1))
        k3 = J @ (Am @ (G + (h / 2.0) * k2))
        k4 = J @ (An1 @ (G + h * k3))
        G = G + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return G


def magnus_reference(curve, gamma_init, T, steps, eps=0.0):
    """Endpoint of dG/dt = J4 A(t, eps) G over [0, T] by the sequential
    sixth-order Magnus loop, one step at a time: B_i = h J4 A at the step's
    three Gauss-Legendre nodes, the generator Omega of Blanes, Casas & Ros
    (BIT 40, 2000), then G <- expm_taylor(Omega) G, which rounds every step
    against the identity."""
    h = float(T) / steps
    c = np.sqrt(15.0) / 10.0
    mids = np.arange(steps) + 0.5
    nodes = np.stack([mids - c, mids, mids + c], axis=1) / steps * float(T)
    A = curve.eval_matrix_batch(nodes.ravel(), eps).reshape(steps, 3, 4, 4)

    B = h * _j4(A)
    B1, B2, B3 = B[:, 0], B[:, 1], B[:, 2]

    def comm(X, Y):
        return X @ Y - Y @ X

    a1 = B2
    a2 = np.sqrt(15.0) / 3.0 * (B3 - B1)
    a3 = 10.0 / 3.0 * (B3 - 2.0 * B2 + B1)
    C1 = comm(a1, a2)
    C2 = -comm(a1, 2.0 * a3 + C1) / 60.0
    omegas = a1 + a3 / 12.0 + comm(-20.0 * a1 - a3 + C1, a2 + C2) / 240.0
    G = np.array(gamma_init, dtype=float)
    for step in expm_taylor(omegas):
        G = step @ G
    return G


# --- the allocating RK4 chunk engine ---------------------------------------------

def _j4(X):
    """J4 @ X for a stack of 4-row matrices: a row swap with a sign flip."""
    out = np.empty_like(X)
    out[..., :2, :] = X[..., 2:, :]
    np.negative(X[..., :2, :], out=out[..., 2:, :])
    return out


def _drift(states):
    """Each flow's largest entrywise |G^T J4 G - J4| over a stack of
    states shaped (n, K, 4, 4); shape (K,)."""
    # matmul is several times slower on a transposed view than on a copy.
    residual = np.ascontiguousarray(np.swapaxes(states, -1, -2)) @ _j4(states)
    residual -= J4
    return np.abs(residual, out=residual).max(axis=0).max(axis=(-2, -1))


def _step_increments(hB):
    """D_n = R_n - I for each RK4 step of a chunk, shape (n, K, 4, 4).

    ``hB`` is h J4 A at the chunk's n + 1 nodes, then its n midpoints,
    for all K flows, shape (2n + 1, K, 4, 4), each flow scaled by its own
    step h.  R_n G is the classical RK4 step from G: with B = J4 A,
    P1 = B_n, P2 = B_m (I + h/2 P1), P3 = B_m (I + h/2 P2),
    P4 = B_n+1 (I + h P3) and D = h/6 (P1 + 2 P2 + 2 P3 + P4).  Below,
    P holds h P2, then h P3, then h P4.
    """
    n = hB.shape[0] // 2
    now, mid, nxt = hB[:n], hB[n + 1:], hB[1:n + 1]
    # In place where possible: the chunk's working set is a few arrays
    # of this size, and it sets the peak memory of a run.
    P = mid @ now
    P *= 0.5
    P += mid                      # h P2
    D = now + 2.0 * P
    P = mid @ P
    P *= 0.5
    P += mid                      # h P3
    D += 2.0 * P
    P = nxt @ P
    P += nxt                      # h P4
    D += P
    D /= 6.0
    return D


def _times(Ts, steps, halves):
    """Times at the given half-step indices of each flow's uniform grid of
    ``steps`` steps over [0, Ts[k]]; shape (len(halves), K)."""
    return (halves / (2 * steps))[:, None] * Ts


# An overflowing flow shows as a NaN drift (NonConformingFlowError), not as warnings.
@np.errstate(over="ignore", invalid="ignore")
def flows_allocating(curve, gamma_init, horizons, steps, eps_values, keep):
    """The RK4 chunk engine that preceded the Magnus step, with the
    arguments of ``endpoints``.  Returns the K horizons and eps values, the states (all of them,
    (steps + 1, K, 4, 4), when ``keep``, else the endpoints) and drifts."""
    G = np.asarray(gamma_init)
    if G.shape != (4, 4):
        raise ValueError("gamma_init must be 4x4")
    if not is_symplectic(G.astype(complex), 1e-8):
        raise NonSymplecticError("initial condition is not symplectic within 1e-8")
    steps = int(steps)
    if steps < 2:
        raise ValueError("steps must be at least 2")
    Ts, eps = (np.asarray(a, dtype=float).ravel()
               for a in np.broadcast_arrays(horizons, eps_values))
    if np.any(Ts == 0):
        raise ValueError("every horizon T must be nonzero")
    K = Ts.size

    h = Ts / steps
    G = np.repeat(np.real(G).astype(float)[None], K, axis=0)
    drifts = _drift(G[None])
    trajectory = np.empty((steps + 1, K, 4, 4)) if keep else None
    if keep:
        trajectory[0] = G
    for start in range(0, steps, _CHUNK):
        n = min(_CHUNK, steps - start)
        # The chunk's n + 1 nodes, then its n midpoints, as rows; so hB[i]
        # is the contiguous stack of all K matrices at point i.
        halves = 2 * start + np.arange(2 * n + 1)
        points = _times(Ts, steps, np.concatenate([halves[::2], halves[1::2]]))
        hB = _j4(curve.eval_matrix_batch(
            points.ravel(), np.broadcast_to(eps, points.shape).ravel()
        ).reshape(2 * n + 1, K, 4, 4))
        hB *= h[:, None, None]
        D = _step_increments(hB)
        del hB  # not needed past this point; keeps the working set small
        # Inclusive prefix composition: afterwards I + D[i] is the product
        # (I + D_i) ... (I + D_0), built in log2(n) levels from
        # (I + X)(I + Y) = I + (X + Y + X Y), never forming I + D.
        d = 1
        while d < n:
            D[d:] += D[:-d] + D[d:] @ D[:-d]
            d *= 2
        states = D @ G
        del D
        states += G
        drifts = np.maximum(drifts, _drift(states))
        G = states[-1]
        if keep:
            trajectory[start + 1:start + n + 1] = states
    return Ts, eps, (trajectory if keep else G), drifts


def exterior_power_loop(k1, k2, A1, A2):
    """Mixed exterior power by the per-assignment loop: one column matrix
    and one ``np.linalg.det`` per assignment, summed left to right."""
    total = 0j
    for ones in combinations(range(4), k1):
        rest = [i for i in range(4) if i not in ones]
        for twos in combinations(rest, k2):
            cols = np.eye(4, dtype=complex)
            cols[:, list(ones)] = A1[:, list(ones)]
            cols[:, list(twos)] = A2[:, list(twos)]
            total += np.linalg.det(cols)
    return total


def charpoly_loop(gamma0, gammat, center):
    """Recentred characteristic coefficients from ``exterior_power_loop``,
    signed and summed in increasing k2."""
    K = center * np.eye(4) - gamma0
    D = gammat - gamma0
    coeffs = []
    for k in range(5):
        ck = 0j
        for k2 in range(5 - k):
            term = exterior_power_loop(4 - k - k2, k2, K, D)
            ck += term if k2 % 2 == 0 else -term
        coeffs.append(ck)
    return tuple(coeffs)


# --- the per-call Newton polish ----------------------------------------------

def _poly_value(coeffs, center, lam):
    """The centred Horner form from 0j, one call per evaluation."""
    x = complex(lam) - center
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _poly_derivative(coeffs, center, lam):
    """The derivative's centred Horner form, k * c_k formed per call."""
    x = complex(lam) - center
    acc = 0j
    for k in range(4, 0, -1):
        acc = acc * x + k * coeffs[k]
    return acc


def polish_loop(coeffs, center, x):
    """Newton polish of the root guess ``center + x``, evaluating the
    polynomial and its derivative through one call per evaluation."""
    lam = center + x
    best_lam = lam
    best_res = abs(_poly_value(coeffs, center, lam))
    for _ in range(40):
        f = _poly_value(coeffs, center, lam)
        if f == 0:
            return lam
        df = _poly_derivative(coeffs, center, lam)
        if df == 0:
            break
        step = f / df
        lam_new = lam - step
        res_new = abs(_poly_value(coeffs, center, lam_new))
        if not np.isfinite(res_new):
            break
        if res_new < best_res:
            best_res = res_new
            best_lam = lam_new
        if res_new >= abs(f) or abs(step) <= 1e-17 * (1.0 + abs(lam_new)):
            break
        lam = lam_new
    return best_lam


# Each operator's double-precision function, shared with nothing in the
# package: the tree walker of ``kreinsplit.expr`` reads numpy's.
_MATH = {
    Neg: operator.neg,
    Add: operator.add,
    Sub: operator.sub,
    Mul: operator.mul,
    Div: operator.truediv,
    Pow: math.pow,
    "sin": math.sin,
    "cos": math.cos,
    "exp": math.exp,
    "sqrt": math.sqrt,
    "abs": math.fabs,
    "log": math.log,
    "sign": lambda x: math.copysign(1.0, x) if x else 0.0,
}


def evaluate(e, t, eps):
    """Evaluate an AST at (t, eps) in double precision.

    Division by zero (checked before the dividend is evaluated), sqrt of a
    negative number, fractional powers of negatives and overflow raise
    ExprDomainError carrying the offset of the offending subexpression.
    """
    kind = type(e)
    if kind is Num:
        return e.value
    if kind is Var:
        return float(t) if e.name == "t" else float(eps)
    if kind is Div:
        denom = evaluate(e.rhs, t, eps)
        if denom == 0.0:
            raise ExprDomainError(e.offset, "division by zero")
        args = (evaluate(e.lhs, t, eps), denom)
    elif kind is Neg or kind is Call:
        args = (evaluate(e.arg, t, eps),)
    elif kind in _MATH:
        args = (evaluate(e.lhs, t, eps), evaluate(e.rhs, t, eps))
    else:
        raise TypeError(f"not an expression node: {e!r}")
    try:
        return _MATH[e.fn if kind is Call else kind](*args)
    except (ValueError, OverflowError) as exc:
        what = e.fn if kind is Call else "power"
        raise ExprDomainError(e.offset, f"{what} out of domain: {exc}") from None


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


def parse_reference(source):
    """``kreinsplit.expr.parse`` as it was: a parser object with one method
    per grammar rule."""
    return _Parser(source).parse()


def d_eps_exact(e, t, eps):
    """Eps-derivative at one point of a tree that is at most linear in eps,
    with no eps inside a function argument, an exponent or a denominator:
    the product rule walked over the tree, with values from ``evaluate``."""
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
        return d_eps_exact(e.lhs, t, eps) / evaluate(e.rhs, t, eps)
    if kind in (Pow, Call):
        return 0.0
    raise TypeError(f"not an expression node: {e!r}")


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


def compile_generated(trees):
    """The array compiler as it was: one lambda of generated source for all
    trees, run under ``np.errstate(all="ignore")``."""
    body = "".join(f"{_codegen(e)}, " for e in trees)
    fn = eval(compile(f"lambda t, eps: ({body})", "<expr>", "eval"), dict(_ARRAY_NS))

    def wrapped(ts, eps):
        with np.errstate(all="ignore"):
            return fn(ts, eps)

    return wrapped


@dataclass(frozen=True)
class PuiseuxFit:
    """Result of fitting branch data to +-a sqrt(s) + mu s.

    ``a`` comes from the odd part (branch2 - branch1)/2 alone, a weighted
    least-squares projection; ``mu_sum`` estimates mu from the even part,
    extrapolated to s = 0 over the three smallest parameters.  The odd
    powers of sqrt(s) cancel in the sum, so its quotient is mu + O(s) and
    the extrapolation is done against s, not sqrt(s).
    ``diagnostics["richardson_spread"]`` is the gap between the two-point
    Richardson extrapolations of that quotient, a convergence record.
    """

    a: complex
    mu_sum: complex
    diagnostics: dict = field(default_factory=dict, compare=False)


def fit_puiseux(tr, lambda0):
    """Fit both branches to lambda0 +- a sqrt(s) + mu s, split by parity.

    Rows are weighted by 1/s so every grid point contributes at its
    relative accuracy; this keeps the o(s^{3/2}) contamination of the
    largest parameters from biasing ``a``.  ``a`` is reported with the
    sign matching branch 2 on the +a sheet.
    """
    if tr.grid.size < 4:
        raise IllConditionedFitError("need at least four grid points")
    lambda0 = complex(lambda0)
    order = np.argsort(tr.grid)
    s = tr.grid[order]
    y1 = tr.branch1[order] - lambda0
    y2 = tr.branch2[order] - lambda0

    # q(s) = (b1 + b2 - 2 L) / (2 s) = mu + O(s) since the odd sqrt(s)
    # powers cancel pointwise.  With the 1/s row weights the joint fit's
    # two columns, [sqrt(s)/s; -sqrt(s)/s] and [1; 1], are orthogonal, so
    # its a is the projection on the odd part alone.
    q = (y1 + y2) / (2.0 * s)
    a_fit = complex(np.sum((y2 - y1) / 2.0 * s ** -1.5) / np.sum(1.0 / s))

    # Intercept of the least-squares line through q's three smallest
    # points; the spread of the two-point Richardson values is kept as a
    # convergence diagnostic.
    design3 = np.stack([np.ones(3), s[:3]], axis=1)
    line, _, rank3, _ = np.linalg.lstsq(design3, q[:3], rcond=None)
    if rank3 < 2:
        raise IllConditionedFitError("sum-slope extrapolation is rank deficient")
    mu_sum = complex(line[0])
    rich12 = (q[0] * s[1] - q[1] * s[0]) / (s[1] - s[0])
    rich23 = (q[1] * s[2] - q[2] * s[1]) / (s[2] - s[1])
    diagnostics = {"richardson_spread": float(abs(rich12 - rich23))}
    return PuiseuxFit(a=a_fit, mu_sum=mu_sum, diagnostics=diagnostics)


def fit_joint(tr, lambda0):
    """``fit_puiseux`` as it was: fit both branches jointly to
    lambda0 +- a sqrt(s) + mu s.

    Rows are weighted by 1/s so every grid point contributes at its
    relative accuracy; this keeps the o(s^{3/2}) contamination of the
    largest parameters from biasing ``a``.  ``a`` is reported with the
    sign matching branch 2 on the +a sheet.
    """
    if tr.grid.size < 4:
        raise IllConditionedFitError("need at least four grid points")
    lambda0 = complex(lambda0)
    order = np.argsort(tr.grid)
    s = tr.grid[order]
    y1 = tr.branch1[order] - lambda0
    y2 = tr.branch2[order] - lambda0

    roots = np.sqrt(s)
    w = 1.0 / s
    design = np.zeros((2 * s.size, 2), dtype=complex)
    rhs = np.empty(2 * s.size, dtype=complex)
    design[: s.size, 0] = roots * w
    design[: s.size, 1] = s * w
    rhs[: s.size] = y2 * w
    design[s.size:, 0] = -roots * w
    design[s.size:, 1] = s * w
    rhs[s.size:] = y1 * w
    coef, _, rank, _ = np.linalg.lstsq(design, rhs, rcond=None)
    if rank < 2:
        raise IllConditionedFitError("design matrix is rank deficient; widen the grid")
    a_fit, mu_fit = complex(coef[0]), complex(coef[1])

    # Sum-based slope: q(s) = (b1 + b2 - 2 L) / (2 s) = mu + O(s) since the
    # odd sqrt(s) powers cancel pointwise.  Intercept of the least-squares
    # line through the three smallest points; the two-point Richardson
    # values are kept as convergence diagnostics.
    q = (y1 + y2) / (2.0 * s)
    design3 = np.stack([np.ones(3), s[:3]], axis=1)
    line, _, rank3, _ = np.linalg.lstsq(design3, q[:3], rcond=None)
    if rank3 < 2:
        raise IllConditionedFitError("sum-slope extrapolation is rank deficient")
    mu_sum = complex(line[0])
    rich12 = (q[0] * s[1] - q[1] * s[0]) / (s[1] - s[0])
    rich23 = (q[1] * s[2] - q[2] * s[1]) / (s[2] - s[1])
    diagnostics = {
        "mu_fit": mu_fit,
        "richardson_12": complex(rich12),
        "richardson_23": complex(rich23),
        "richardson_spread": float(abs(rich12 - rich23)),
        "raw_quotient_smallest": complex(q[0]),
    }
    return PuiseuxFit(a=a_fit, mu_sum=mu_sum, diagnostics=diagnostics)


def discriminant_oracle(scenario, mode, lambda0):
    """Kappa and the sum derivative of the ``mode`` family from traces alone.

    A real symplectic M has the reciprocal characteristic polynomial
    lambda^4 - e1 lambda^3 + e2 lambda^2 - e1 lambda + 1 with e1 = tr M;
    with w = lambda + 1/lambda it becomes w^2 - e1 w + e2 - 2, whose
    discriminant is Delta = 2 tr(M^2) - (tr M)^2 + 8.  Delta and e1 are
    fitted by polynomials of degree 4 in x = s / max(grid) over the eight
    points x = +-1/4, ..., +-1 of the package oracle's batch.  With
    lambda0 = exp(i theta0), w0 = 2 cos theta0 and
    lambda(w) = w/2 + i sqrt(1 - w^2/4) on lambda0's side:
    kappa = -Delta'(0) / (16 sin^2 theta0) and
    sum_derivative = lambda'(w0) e1'(0) + lambda''(w0) Delta'(0) / 4, where
    lambda'(w0) = 1/2 - i cos theta0 / (2 sin theta0) and
    lambda''(w0) = -i / (4 sin^3 theta0).  No root, chain or predicted
    coefficient is read; ``lambda0`` only picks the side.
    Returns (kappa, sum_derivative).
    """
    x = np.array([1.0, 2.0, 3.0, 4.0, -1.0, -2.0, -3.0, -4.0]) / 4.0
    top = float(np.max(scenario.grid(mode)))
    ends = family_endpoints(scenario, mode, top * x)
    e1 = np.trace(ends, axis1=1, axis2=2)
    delta = 2.0 * np.trace(ends @ ends, axis1=1, axis2=2) - e1 ** 2 + 8.0
    coef = np.polynomial.polynomial.polyfit(x, np.stack([delta, e1], axis=1), 4)
    d1, e11 = coef[1] / top
    cos0, sin0 = complex(lambda0).real, complex(lambda0).imag
    first = 0.5 - 0.5j * cos0 / sin0
    second = -0.25j / sin0 ** 3
    return -d1 / (16.0 * sin0 ** 2), complex(first * e11 + second * d1 / 4.0)


def ladder_closed_forms(pair, A0):
    """Inner-product closed forms for the two mixed coefficients of
    ``kreinsplit.bifurcation.ladder``.

    Independent of the exterior-power route: with d = L - conj(L),
    G1 = <A eta1, eta1>/<eta2, J eta1>, G2 = <A eta1, eta2>/<eta1, J eta2>,
    G3 = <A eta2, eta1>/<eta2, J eta1> and
    G4 = <A eta1, eta1><eta2, J eta2>/(<eta2, J eta1><eta1, J eta2>),

        c31 = L^2 d^2 G1,
        c21 = (2 L^2 d + L d^2) G1 + L d^2 (G2 + G3 - G4).

    Every pairing is computed here from the chain vectors, with numpy's
    vdot (<x, y> = vdot(y, x)), not read from the pair.  Returns (c31, c21).
    """
    A0 = np.asarray(A0, dtype=complex)
    e1, e2 = pair.eta1, pair.eta2
    f21 = complex(np.vdot(J4 @ e1, e2))
    f12 = complex(np.vdot(J4 @ e2, e1))
    f22 = complex(np.vdot(J4 @ e2, e2))
    num = complex(np.vdot(e1, A0 @ e1))
    g1 = num / f21
    g2 = complex(np.vdot(e2, A0 @ e1)) / f12
    g3 = complex(np.vdot(e1, A0 @ e2)) / f21
    g4 = num * f22 / (f21 * f12)
    lam = pair.lambda0
    d = lam - np.conj(lam)
    c31 = lam ** 2 * d ** 2 * g1
    c21 = (2.0 * lam ** 2 * d + lam * d ** 2) * g1 + lam * d ** 2 * (g2 + g3 - g4)
    return c31, c21


def krein_pairings(pair):
    """The six pairings <x, J y> that vanish at a genuine chain: eta1 with
    itself and with both conjugates, eta2 with both conjugates, and conj
    eta1 with itself."""
    e1, e2 = pair.eta1, pair.eta2
    e1b, e2b = np.conj(e1), np.conj(e2)
    return {
        "pair_11": complex(symplectic_form(e1, e1)),
        "pair_1c1": complex(symplectic_form(e1, e1b)),
        "pair_1c2": complex(symplectic_form(e1, e2b)),
        "pair_2c1": complex(symplectic_form(e2, e1b)),
        "pair_2c2": complex(symplectic_form(e2, e2b)),
        "pair_c1c1": complex(symplectic_form(e1b, e1b)),
    }


def krein_pairings_ok(pair, tol=1e-8):
    """True when the six pairings of ``krein_pairings`` vanish and the
    forms have their reality structure (form_21 real, form_12 = -form_21,
    form_22 imaginary), all within tol."""
    if any(abs(v) > tol for v in krein_pairings(pair).values()):
        return False
    if abs(pair.form_21.imag) > tol or abs(pair.form_12 + pair.form_21) > tol:
        return False
    return abs(pair.form_22.real) <= tol


def conjugated(pair):
    """The pair at the conjugate multiplier (valid for real M)."""
    return pair_from_vectors(np.conj(pair.lambda0), np.conj(pair.eta1),
                             np.conj(pair.eta2), dict(pair.diagnostics))


def magnitude(coeffs):
    """Max-norm of a row of quartic coefficients."""
    return max(abs(c) for c in coeffs)


def to_absolute(coeffs, center):
    """Quartic coefficients in powers of (lambda - center), expanded
    about 0."""
    out = [0j] * 5
    for k, ck in enumerate(coeffs):
        for j in range(k + 1):
            out[j] += complex(ck) * comb(k, j) * (-complex(center)) ** (k - j)
    return tuple(out)


def separations(track):
    """Pointwise distance between the two branches of a ``BranchTrack``."""
    return np.abs(track.branch2 - track.branch1)


def forward_unstable(verdict):
    """True when a stability verdict string is unstable for positive
    parameter."""
    return verdict == UNSTABLE_FORWARD


_TEXT = {Add: "+", Sub: "-", Mul: "*", Div: "/", Pow: "^"}


def pretty(e):
    """Render an AST back to text that reparses to an equal tree."""
    kind = type(e)
    if kind is Num:
        return repr(e.value)
    if kind is Var:
        return e.name
    if kind is Call:
        return f"{e.fn}({pretty(e.arg)})"
    if kind is Neg:
        return f"(-{pretty(e.arg)})"
    return f"({pretty(e.lhs)} {_TEXT[kind]} {pretty(e.rhs)})"
