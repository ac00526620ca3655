"""Integration of the linear Hamiltonian system dG/dt = J4 A(t, eps) G.

Fixed-step sixth-order Magnus integration on the 4x4 matrix unknown
(Iserles & Norsett, Phil. Trans. R. Soc. A 357, 1999; Blanes, Casas &
Ros, BIT 40, 2000).  Each step is exp(Omega_n), where Omega_n is built
from h J4 A at the step's three Gauss-Legendre nodes and two nested
commutators.  Omega_n is Hamiltonian, so the step is symplectic up to
roundoff, and it is exact when A is constant over the step.  Otherwise
the global error falls like h^6 with A's variation.  Uniform grids keep
the (sixth-order Boole) quadrature of the effective perturbation
generator simple and runs reproducible; no adaptivity, no dense output.

A step is a matrix I + D_n that depends only on A, so no step loop is
needed.  One chunk engine runs K flows from one initial condition, each
with its own horizon, grid and eps, _CHUNK steps at a time: h J4 A at the
chunk's 3 _CHUNK Gauss nodes, written entry by entry from one evaluation
of A; one batch of step increments D_n = exp(Omega_n) - I, from a
degree-9 Taylor polynomial in four matrix products (Paterson-Stockmeyer)
that never forms I, halving only the Omega_n whose max row sum reaches
1/16; a log2-depth prefix scan that composes them while carrying only the
increment of the product (small numbers keep their own rounding instead
of being rounded against the identity); then the states G + D @ G from
the previous chunk's last state, each checked for symplectic drift.
Every chunk-sized array lives in one workspace allocated per call, and
each stage writes into it, so the chunk loop allocates nothing of its
size.  When all K horizons are equal, A is evaluated on a column of times
against a row of eps values, so a term in t alone is computed once per
time rather than once per flow.  A is never evaluated at a grid node, so
a singularity that falls between Gauss nodes goes unseen.
``integrate_batch`` also keeps every state of its first flow, which the
perturbation quadrature needs, and ``integrate`` is its K = 1 case;
``endpoints`` keeps only the endpoints.  All run the same code, so they
agree bit for bit.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import CorruptedSolutionError, NonConformingFlowError, NonSymplecticError
from .linalg import J4, is_symplectic, max_abs, symplectic_inverse

# Time steps per chunk.  The workspace holds h J4 A at a chunk's 3 _CHUNK
# points and five stacks of _CHUNK steps, each for all K flows; it is sized
# by the chunk, never by the step count, and every chunk reuses it.  Longer
# chunks cut the per-chunk Python work and the roundoff carried between
# chunks, but grow the workspace and the prefix scan, whose log2(_CHUNK)
# levels take about _CHUNK log2(_CHUNK) products (769 at 128).  Per chunk,
# exp(Omega) - I takes 4 products per step, plus one per halving where the
# max row sum of |Omega| reaches 1/16.
_CHUNK = 128

# Offset of the outer Gauss-Legendre nodes from a step's midpoint, in steps.
_GAUSS = np.sqrt(15.0) / 10.0


@dataclass(frozen=True)
class FlowSolution:
    """Flow values on a uniform time grid.

    ``gammas[i]`` is the solution at ``ts[i]``; ``gammas[0]`` is the
    supplied initial condition, bit for bit.  ``drift`` is the largest
    entrywise deviation of G^T J4 G from J4 over the grid, at most
    ``drift_tol`` (``integrate`` raises otherwise).
    """

    ts: np.ndarray
    gammas: np.ndarray
    eps: float
    drift: float
    drift_tol: float

    @property
    def conforming(self):
        return self.drift <= self.drift_tol


def _drift(states, work):
    """Each flow's largest entrywise |G^T J4 G - J4| over a stack of
    states shaped (n, K, 4, 4); shape (K,).  ``work`` is three scratch
    stacks of the same shape."""
    Gt, JG, residual = work
    # matmul is several times slower on a transposed view than on a copy.
    np.copyto(Gt, np.swapaxes(states, -1, -2))
    # J4 @ G: a row swap with a sign flip.
    JG[..., :2, :] = states[..., 2:, :]
    np.negative(states[..., :2, :], out=JG[..., 2:, :])
    np.matmul(Gt, JG, out=residual)
    residual -= J4
    return np.abs(residual, out=residual).max(axis=0).max(axis=(-2, -1))


def _hB_workspace(m, h):
    """The stack that :func:`_scaled_j4a` fills for a chunk of up to ``m``
    steps, shape (3m, K, 4, 4), for flows with steps ``h``.  It holds
    h J4 A of a curve that is zero everywhere, signed zeros included; the
    entries A leaves zero are never written again."""
    hB = np.empty((3 * m, h.size, 4, 4))
    hB[..., :2, :] = (0.0 * h)[:, None, None]
    hB[..., 2:, :] = (-0.0 * h)[:, None, None]
    return hB


def _scaled_j4a(hB, curve, ts, eps, h):
    """Write h J4 A(ts, eps) into ``hB``, shape (len(ts), K, 4, 4), entry by
    entry: J4 moves row i of A to row (i + 2) % 4, negated for i < 2.
    ``ts`` and ``eps`` broadcast to (len(ts), K); ``h`` is each flow's step.
    Entries that A leaves zero are not written."""
    scale = (-h, h)
    for (i, j), vals in curve.entry_values(ts, eps):
        np.multiply(vals, scale[i >= 2], out=hB[:, :, (i + 2) % 4, j])
        if i != j:
            np.multiply(vals, scale[j >= 2], out=hB[:, :, (j + 2) % 4, i])


def _halvings(W, X):
    """How many times :func:`_expm1` halves each matrix of the stack ``W``,
    shape (n, K, 4, 4): 0 where the max row sum of |W| is below 1/16, else
    the fewest halvings that bring it below.  Returns 0 when no matrix is
    halved, else an array of shape (n, K).  ``X`` is scratch of W's shape.

    No matrix has a row sum above the row sums of the entrywise max of |W|
    over the stack, so one such max settles the common case; the row sums
    of every matrix are taken only when it fails.
    """
    bound = np.abs(W, out=X).max(axis=0).max(axis=0).sum(axis=-1).max()
    if 16.0 * bound < 1.0:
        return 0
    return np.maximum(np.frexp(X.sum(axis=-1).max(axis=-1) * 16.0)[1], 0)


def _expm1(W, D, W2, W3, X):
    """D = exp(W) - I for a stack of matrices W, shape (n, K, 4, 4), from the
    degree-9 Taylor series by Paterson & Stockmeyer (SIAM J. Comput. 2,
    1973) in 4 matrix products, never forming I: with W2 = W W, W3 = W2 W,
    B0 = W + W2/2! + W3/3!, B1 = W/4! + W2/5! + W3/6! and
    B2 = W/7! + W2/8! + W3/9!, D = B0 + W3 (B1 + W3 B2).  Where the max row
    sum of |W| is 1/16 or more, W is first halved s times, exactly
    (:func:`_halvings`), and D squared back s times as 2 D + D^2, the
    increment of (I + D)^2.  Below 1/16 the truncated terms are below
    2.6e-19.  ``W`` is overwritten; ``W2``, ``W3`` and ``X`` are scratch of
    its shape."""
    halvings = _halvings(W, X)
    squarings = int(np.max(halvings))
    if squarings:
        np.ldexp(W, -halvings[..., None, None], out=W)
    np.matmul(W, W, out=W2)
    np.matmul(W2, W, out=W3)
    # Smallest terms first, so that only the last addition, of W, rounds
    # at the scale of D.
    np.multiply(W3, 1 / 362880, out=D)
    np.multiply(W2, 1 / 40320, out=X)
    D += X
    np.multiply(W, 1 / 5040, out=X)
    D += X                        # B2
    np.matmul(W3, D, out=X)
    np.multiply(W3, 1 / 720, out=D)
    X += D
    np.multiply(W2, 1 / 120, out=D)
    X += D
    np.multiply(W, 1 / 24, out=D)
    X += D                        # B1 + W3 B2
    np.matmul(W3, X, out=D)
    W3 *= 1 / 6
    D += W3
    W2 *= 0.5
    D += W2
    D += W                        # B0 + W3 (B1 + W3 B2)
    for j in range(squarings):
        np.matmul(D, D, out=X)
        X += D
        X += D
        np.copyto(D, X, where=(halvings > j)[..., None, None])


def _step_increments(hB, D, P, Q, S, X):
    """D_n = exp(Omega_n) - I for each Magnus step of a chunk, written into
    ``D``, shape (n, K, 4, 4); ``P``, ``Q``, ``S`` and ``X`` are scratch of
    the same shape.

    ``hB`` holds B = h J4 A at the chunk's first Gauss nodes, then its
    midpoints, then its last Gauss nodes: three stacks B1, B2, B3 of n
    steps.  The sixth-order Magnus generator (Blanes, Casas & Ros, BIT 40,
    2000) is, with a1 = B2, a2 = (sqrt(15)/3)(B3 - B1),
    a3 = (10/3)(B3 - 2 B2 + B1), C1 = [a1, a2] and
    C2 = -[a1, 2 a3 + C1]/60,
    Omega = a1 + a3/12 + [-20 a1 - a3 + C1, a2 + C2]/240.
    Below, -20 a1 - a3 + C1 is formed as (2 a3 + C1) - 3 a3 - 20 a1.
    """
    n = hB.shape[0] // 3
    B1, B2, B3 = hB[:n], hB[n:2 * n], hB[2 * n:]
    np.subtract(B3, B1, out=P)
    P *= np.sqrt(15.0) / 3.0      # a2
    np.add(B3, B1, out=Q)
    np.multiply(B2, 2.0, out=X)
    Q -= X
    Q *= 10.0 / 3.0               # a3
    np.matmul(B2, P, out=S)
    np.matmul(P, B2, out=X)
    S -= X                        # C1
    np.multiply(Q, 2.0, out=X)
    S += X                        # 2 a3 + C1
    np.matmul(S, B2, out=D)
    np.matmul(B2, S, out=X)
    D -= X
    D /= 60.0                     # C2
    P += D                        # a2 + C2
    np.multiply(Q, 3.0, out=X)
    S -= X
    np.multiply(B2, 20.0, out=X)
    S -= X                        # -20 a1 - a3 + C1
    np.matmul(S, P, out=D)
    np.matmul(P, S, out=X)
    D -= X
    D /= 240.0
    Q /= 12.0
    Q += B2
    Q += D                        # Omega
    _expm1(Q, D, P, S, X)


def _times(Ts, steps, positions):
    """Times at the given positions, counted in steps, on each flow's
    uniform grid of ``steps`` steps over [0, Ts[k]]; shape
    (len(positions), K)."""
    return (positions / steps)[:, None] * Ts


# An overflowing flow shows as a NaN drift (NonConformingFlowError), not as warnings.
@np.errstate(over="ignore", invalid="ignore")
def _flows(curve, gamma_init, horizons, steps, eps_values, drift_tol, keep):
    """The chunk engine behind ``endpoints``, with its arguments.  Returns
    the K horizons, the endpoints, the drifts and, when ``keep``, every
    state of the first flow, shape (steps + 1, 4, 4) (else None).  Raises
    NonConformingFlowError naming the worst flow when any drift exceeds
    ``drift_tol`` or is NaN."""
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
    # Equal horizons share their times: a column against the row of eps.
    T_col = Ts[:1] if np.all(Ts == Ts[0]) else Ts
    eps_row = eps[None, :]
    G = np.repeat(np.real(G).astype(float)[None], K, axis=0)
    m = min(_CHUNK, steps)
    hB = _hB_workspace(m, h)
    D, P, Q, S, X = np.empty((5, m, K, 4, 4))
    drifts = _drift(G[None], (P[:1], Q[:1], D[:1]))
    trajectory = np.empty((steps + 1, 4, 4)) if keep else None
    if keep:
        trajectory[0] = G[0]
    for start in range(0, steps, _CHUNK):
        n = min(_CHUNK, steps - start)
        # The chunk's n first Gauss nodes, n midpoints and n last Gauss
        # nodes, as rows; so hB[i] is the contiguous stack of all K
        # matrices at point i.
        mids = start + np.arange(n) + 0.5
        ts = _times(T_col, steps, np.concatenate([mids - _GAUSS, mids, mids + _GAUSS]))
        _scaled_j4a(hB[:3 * n], curve, ts, eps_row, h)
        _step_increments(hB[:3 * n], D[:n], P[:n], Q[:n], S[:n], X[:n])
        # Inclusive prefix composition: afterwards I + D[i] is the product
        # (I + D_i) ... (I + D_0), built in log2(n) levels from
        # (I + X)(I + Y) = I + (X + Y + X Y), never forming I + D.
        d = 1
        while d < n:
            XY = np.matmul(D[d:n], D[:n - d], out=P[:n - d])
            XY += D[:n - d]
            D[d:n] += XY
            d *= 2
        states = S[:n]
        np.matmul(D[:n], G, out=states)
        states += G
        if keep:
            trajectory[start + 1:start + n + 1] = states[:, 0]
        drifts = np.maximum(drifts, _drift(states, (P[:n], Q[:n], D[:n])))
        G = states[-1].copy()  # the next chunk overwrites S
    worst = int(np.argmax(drifts))  # argmax picks the first NaN, if any
    if not drifts[worst] <= drift_tol:
        raise NonConformingFlowError(
            f"symplectic drift {drifts[worst]:.3e} exceeds {drift_tol:.3e} on the flow "
            f"to T = {float(Ts[worst])!r} at eps = {float(eps[worst])!r}")
    return Ts, G, drifts, trajectory


def integrate_batch(curve, gamma_init, T, steps, eps_values, drift_tol=1e-8):
    """The flows over [0, T] at each of ``eps_values`` (a scalar or 1-D
    array) in one batch: the solution of the first, every state kept, and
    the endpoints of all, shape (K, 4, 4).  Bit for bit what ``integrate``
    and ``endpoints`` return, with their errors."""
    Ts, ends, drifts, gammas = _flows(curve, gamma_init, T, steps, eps_values, drift_tol,
                                      keep=True)
    ts = _times(Ts[:1], steps, np.arange(len(gammas)))[:, 0]
    sol = FlowSolution(ts=ts, gammas=gammas, eps=float(np.ravel(eps_values)[0]),
                       drift=float(drifts[0]), drift_tol=float(drift_tol))
    return sol, ends


def integrate(curve, gamma_init, T, steps, eps=0.0, drift_tol=1e-8):
    """Solve dG/dt = J4 A(t, eps) G over [0, T] from G(0) = gamma_init.

    Sixth-order Magnus steps, ``steps`` of them on a uniform grid, with A
    evaluated at each step's three Gauss-Legendre nodes.  A step is exact
    where A is constant; for smooth A the global error is O(h^6), so
    halving h divides it by about 64.  ``T`` may be negative, in
    which case the system is integrated backward.  The initial condition
    must be symplectic to 1e-8.  Raises NonConformingFlowError when the
    drift exceeds ``drift_tol`` or is NaN.

    Real arithmetic throughout: the states are float64 arrays, and a
    complex ``gamma_init`` contributes only its real part.
    """
    return integrate_batch(curve, gamma_init, T, steps, eps, drift_tol)[0]


def endpoints(curve, gamma_init, horizons, steps, eps_values=0.0, drift_tol=1e-8):
    """Endpoints of K flows from one initial condition, in one batch.

    ``horizons`` and ``eps_values`` (scalars or 1-D arrays) broadcast to
    K flows; flow k runs over [0, horizons[k]] at eps_values[k] on its own
    uniform grid of ``steps`` steps.  Returns the endpoints, shape
    (K, 4, 4), and each flow's drift over all its grid points, shape (K,).
    Endpoint k and its drift equal those of ``integrate`` with the same
    arguments bit for bit.

    Raises the errors ``integrate`` raises; NonConformingFlowError names
    the worst flow.
    """
    _, ends, drifts, _ = _flows(curve, gamma_init, horizons, steps, eps_values, drift_tol,
                                keep=False)
    return ends, drifts


def endpoint(sol):
    """The final grid matrix G(T)."""
    return sol.gammas[-1].copy()


def perturbation_hamiltonian(curve, sol):
    """Effective symmetric generator of the endpoint's eps-motion.

    For the flow started at the identity, the derivative of the endpoint
    with respect to eps equals J4 B G(T) where

        B = integral_0^T (G(T)^-1)^T G(t)^T dA/deps(t, eps) G(t) G(T)^-1 dt.

    dA/deps is the curve's symbolic derivative, exact up to rounding,
    evaluated at every grid time.  Composite Boole quadrature on the
    solution's grid, whose step count must be a multiple of 4: weights 7,
    32, 12, 32, 14, ..., 32, 7 times 2h/45, an O(h^6) error like the flow's.
    The result is symmetrized; the asymmetry it removes measures
    quadrature error and triggers a warning above 1e-6.
    """
    if max_abs(sol.gammas[0] - np.eye(4)) > 1e-12:
        raise ValueError("perturbation generator needs a flow started at the identity")
    n = sol.ts.size - 1
    if n % 4:
        raise ValueError(f"Boole's rule needs a step count divisible by 4, got {n}")

    Gend = sol.gammas[-1]
    Ginv = symplectic_inverse(Gend)
    if max_abs(Gend @ Ginv - np.eye(4)) > 1e-6:
        raise CorruptedSolutionError("endpoint failed symplectic inversion sanity check")

    Aprime = curve.d_eps_matrix_batch(sol.ts, sol.eps)
    W = sol.gammas @ Ginv
    integrand = np.transpose(W, (0, 2, 1)) @ Aprime @ W

    weights = np.full(n + 1, 32.0)
    weights[2::4] = 12.0
    weights[4::4] = 14.0
    weights[[0, n]] = 7.0
    h = sol.ts[1] - sol.ts[0]
    B = (2.0 * h / 45.0) * np.tensordot(weights, integrand, axes=(0, 0))

    asym = max_abs(B - B.T)
    if asym > 1e-6:
        warnings.warn(f"perturbation generator asymmetry {asym:.3e} exceeds 1e-6; "
                      "quadrature grid may be too coarse", RuntimeWarning)
    return (B + B.T) / 2.0
