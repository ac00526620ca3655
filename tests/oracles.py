"""Independent reference implementations used only by tests.

These deliberately avoid the package's own code paths: determinants by
cofactor expansion, the matrix exponential by scaling and squaring,
characteristic coefficients by sampling the determinant and solving a
Vandermonde system, flow endpoints by the sequential RK4 loop, mixed
exterior powers by one determinant call per column assignment, and
eps-derivatives by walking the tree at one point at a time.
"""

from itertools import combinations, permutations

import numpy as np

from kreinsplit.expr import Add, Call, Div, Mul, Neg, Num, Pow, Sub, Var, evaluate


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
    """Matrix exponential by scaling and squaring with a Taylor core."""
    Y = np.asarray(X, dtype=float)
    squarings = 0
    while np.max(np.abs(Y)) > 0.25:
        Y = Y / 2.0
        squarings += 1
    E = np.eye(Y.shape[0])
    term = np.eye(Y.shape[0])
    for k in range(1, order):
        term = term @ Y / k
        E = E + term
    for _ in range(squarings):
        E = E @ E
    return E


def charpoly_by_sampling(M, center):
    """Coefficients of det(lambda I - M) in powers of (lambda - center),
    from five determinant samples and a Vandermonde solve."""
    M = np.asarray(M, dtype=complex)
    xs = np.array([0.6 + 0.2j, -0.8 + 0.5j, 1.1 - 0.4j, -0.3 - 0.9j, 0.15 + 1.2j])
    vand = np.vander(xs, 5, increasing=True)
    vals = np.array([det_cofactor((center + x) * np.eye(4) - M) for x in xs])
    return np.linalg.solve(vand, vals)


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
