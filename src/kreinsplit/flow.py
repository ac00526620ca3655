"""Integration of the linear Hamiltonian system dG/dt = J4 A(t, eps) G.

Fixed-step classical Runge-Kutta on the 4x4 matrix unknown.  Uniform
grids keep the quadrature of the effective perturbation generator simple
and runs reproducible; there is no adaptivity and no dense output.

Two entry points share one step function.  ``integrate`` keeps the whole
trajectory of one flow, which the perturbation quadrature needs.
``endpoints`` runs K flows from one initial condition in a single loop
over a stacked (K, 4, 4) state, each flow with its own horizon, grid and
eps, and keeps only the endpoints.  It evaluates A and checks the drift
chunk by chunk: it holds A and the states for K * _CHUNK steps at a time,
never for K * steps (only the K time grids span every step).
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import CorruptedSolutionError, NonConformingFlowError, NonSymplecticError
from .linalg import J4, is_symplectic, max_abs, symplectic_inverse

# Time steps per chunk of ``endpoints``: A(t, eps) is evaluated for the
# nodes and midpoints of a chunk of every flow in one call, and the
# chunk's states are held for the drift check.
_CHUNK = 128


def _nonconforming(drift, drift_tol, T, eps):
    return NonConformingFlowError(
        f"symplectic drift {drift:.3e} exceeds {drift_tol:.3e} on the flow "
        f"to T = {T!r} at eps = {eps!r}")


@dataclass(frozen=True)
class FlowSolution:
    """Flow values on a uniform time grid.

    ``gammas[i]`` is the solution at ``ts[i]``; ``gammas[0]`` is the
    supplied initial condition, bit for bit.  ``drift`` is the largest
    entrywise deviation of G^T J4 G from J4 over the grid; solutions whose
    drift exceeds ``drift_tol`` are kept but flagged non-conforming.
    """

    ts: np.ndarray
    gammas: np.ndarray
    eps: float
    drift: float
    drift_tol: float

    @property
    def conforming(self):
        return self.drift <= self.drift_tol

    @property
    def T(self):
        return float(self.ts[-1])

    def require_conforming(self):
        """Raise NonConformingFlowError when the drift exceeds its tolerance."""
        if not self.conforming:
            raise _nonconforming(self.drift, self.drift_tol, self.T, self.eps)


def _initial_condition(gamma_init, steps):
    """Validated real copy of the initial condition; also rejects a step
    count below 2, in the order ``integrate`` always checked."""
    Ga = np.asarray(gamma_init)
    if Ga.shape != (4, 4):
        raise ValueError("gamma_init must be 4x4")
    if not is_symplectic(Ga.astype(complex), 1e-8):
        raise NonSymplecticError("initial condition is not symplectic within 1e-8")
    if int(steps) < 2:
        raise ValueError("steps must be at least 2")
    return np.ascontiguousarray(Ga.real if np.iscomplexobj(Ga) else Ga, dtype=float)


def _rk4_step(G, An, Am, An1, h):
    """One classical Runge-Kutta step from G; broadcasts over leading axes,
    with ``h`` shaped to broadcast against G."""
    k1 = J4 @ (An @ G)
    k2 = J4 @ (Am @ (G + (h / 2.0) * k1))
    k3 = J4 @ (Am @ (G + (h / 2.0) * k2))
    k4 = J4 @ (An1 @ (G + h * k3))
    return G + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _drift(gammas):
    """Largest entrywise |G^T J4 G - J4| of each matrix in a stack."""
    residual = np.swapaxes(gammas, -1, -2) @ J4 @ gammas - J4
    return np.max(np.abs(residual), axis=(-2, -1))


def integrate(curve, gamma_init, T, steps, eps=0.0, drift_tol=1e-8):
    """Solve dG/dt = J4 A(t, eps) G over [0, T] from G(0) = gamma_init.

    Classical fourth-order Runge-Kutta with ``steps`` uniform steps;
    global error is O(h^4) for smooth curves.  ``T`` may be negative, in
    which case the system is integrated backward.  The initial condition
    must be symplectic to 1e-8.

    Real arithmetic throughout: every stored matrix has exactly zero
    imaginary part.
    """
    G = _initial_condition(gamma_init, steps)
    steps = int(steps)
    if T == 0:
        raise ValueError("T must be nonzero")

    ts = np.linspace(0.0, float(T), steps + 1)
    h = ts[1] - ts[0]
    mids = ts[:-1] + h / 2.0
    A_nodes = curve.eval_matrix_batch(ts, eps)
    A_mids = curve.eval_matrix_batch(mids, eps)

    gammas = np.empty((steps + 1, 4, 4))
    gammas[0] = G
    for i in range(steps):
        gammas[i + 1] = _rk4_step(gammas[i], A_nodes[i], A_mids[i], A_nodes[i + 1], h)

    return FlowSolution(ts=ts, gammas=gammas, eps=float(eps),
                        drift=float(np.max(_drift(gammas))), drift_tol=float(drift_tol))


def endpoints(curve, gamma_init, horizons, steps, eps_values=0.0, drift_tol=1e-8):
    """Endpoints of K flows from one initial condition, in one RK4 loop.

    ``horizons`` and ``eps_values`` (scalars or 1-D arrays) broadcast to
    K flows; flow k runs over [0, horizons[k]] at eps_values[k] on its own
    uniform grid of ``steps`` steps.  Returns the endpoints, shape
    (K, 4, 4), and each flow's drift over all its grid points, shape (K,).
    Endpoint k and its drift equal those of ``integrate`` with the same
    arguments bit for bit.

    Raises the errors ``integrate`` raises, and NonConformingFlowError
    naming the worst flow when any drift exceeds ``drift_tol``.
    """
    G = _initial_condition(gamma_init, steps)
    steps = int(steps)
    Ts, eps = (np.asarray(a, dtype=float).ravel()
               for a in np.broadcast_arrays(horizons, eps_values))
    if np.any(Ts == 0):
        raise ValueError("horizons must be nonzero")
    K = Ts.size

    ts = np.linspace(0.0, Ts, steps + 1, axis=1)
    h = ts[:, 1] - ts[:, 0]
    hb = h[:, None, None]
    drifts = np.full(K, _drift(G))
    G = np.repeat(G[None], K, axis=0)
    for start in range(0, steps, _CHUNK):
        n = min(_CHUNK, steps - start)
        nodes = ts[:, start:start + n + 1]
        # Rows are time points (n + 1 nodes, then n midpoints), columns are
        # flows, so A[i] is the contiguous stack of all K matrices at point i.
        points = np.concatenate([nodes, nodes[:, :-1] + h[:, None] / 2.0], axis=1).T
        A = curve.eval_matrix_batch(
            points.ravel(), np.broadcast_to(eps, points.shape).ravel()
        ).reshape(2 * n + 1, K, 4, 4)
        states = np.empty((n, K, 4, 4))
        for i in range(n):
            G = states[i] = _rk4_step(G, A[i], A[n + 1 + i], A[i + 1], hb)
        drifts = np.maximum(drifts, np.max(_drift(states), axis=0))

    worst = int(np.argmax(drifts))
    if drifts[worst] > drift_tol:
        raise _nonconforming(float(drifts[worst]), drift_tol, float(Ts[worst]), float(eps[worst]))
    return G, drifts


def endpoint(sol):
    """The final grid matrix G(T)."""
    return sol.gammas[-1].copy()


def perturbation_hamiltonian(curve, sol, T=None, h_eps=None):
    """Effective symmetric generator of the endpoint's eps-motion.

    For the flow started at the identity, the derivative of the endpoint
    with respect to eps equals J4 B G(T) where

        B = integral_0^T (G(T)^-1)^T G(t)^T dA/deps(t, eps) G(t) G(T)^-1 dt.

    Composite Simpson quadrature on the solution's grid (one trapezoid
    panel absorbs an odd step count).  The result is symmetrized; the
    asymmetry it removes measures quadrature error and triggers a warning
    above 1e-6.
    """
    if max_abs(sol.gammas[0] - np.eye(4)) > 1e-12:
        raise ValueError("perturbation generator needs a flow started at the identity")
    if T is not None and abs(sol.T - T) > 1e-12 * max(1.0, abs(T)):
        raise ValueError(f"solution covers [0, {sol.T}], not [0, {T}]")

    Gend = sol.gammas[-1]
    Ginv = symplectic_inverse(Gend)
    if max_abs(Gend @ Ginv - np.eye(4)) > 1e-6:
        raise CorruptedSolutionError("endpoint failed symplectic inversion sanity check")

    Aprime = curve.d_eps_matrix_batch(sol.ts, sol.eps, h=h_eps)
    W = sol.gammas @ Ginv
    integrand = np.transpose(W, (0, 2, 1)) @ Aprime @ W

    n = sol.ts.size - 1
    h = sol.ts[1] - sol.ts[0]
    if n % 2 == 0:
        m = n
        tail = 0.0
    else:
        m = n - 1
        tail = (h / 2.0) * (integrand[n - 1] + integrand[n])
    weights = np.ones(m + 1)
    weights[1:m:2] = 4.0
    weights[2:m:2] = 2.0
    body = (h / 3.0) * np.tensordot(weights, integrand[:m + 1], axes=(0, 0))
    B = body + tail

    asym = max_abs(B - B.T)
    if asym > 1e-6:
        warnings.warn(f"perturbation generator asymmetry {asym:.3e} exceeds 1e-6; "
                      "quadrature grid may be too coarse", RuntimeWarning)
    return (B + B.T) / 2.0
