"""Degenerate unit-circle eigenvalues of real symplectic 4x4 matrices.

Detects a non-semisimple double multiplier pair {L, conj(L)} on the unit
circle and extracts the normalized eigenvector/generalized-eigenvector
pair (eta1, eta2) with

    M eta1 = L eta1,        M eta2 = L eta2 + L eta1,

note the superdiagonal entry L rather than the textbook 1: every closed
form downstream assumes this normalization.  The double pair is found
from two traces, tr M and the discriminant of the quartic in
w = lambda + 1/lambda, with no root extraction; rank decisions and the
chain come from one LAPACK SVD of lambda0 I - M.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateAngleError,
    DegeneratePairingError,
    ExcludedCaseError,
    InconsistentChainError,
    NotAJordanBlockError,
)
from .linalg import (_ID4, as_mat4, charpoly, discriminant, is_symplectic, quartic_roots,
                     symplectic_form)

_RANK_RTOL = 1e-8  # sigma below this times sigma_max counts as zero
_GAUGE_TIE = 1e-9  # entries of eta1 within this relative modulus tie


def eigenvalues(M):
    """All four eigenvalues of M, the roots of its characteristic quartic.
    A stack (n, 4, 4) gives an (n, 4) array from one batch of
    characteristic polynomials."""
    coeffs = charpoly(M, 0j)
    roots = [quartic_roots(c, 0j) for c in coeffs.reshape(-1, 5)]
    return np.array(roots).reshape(coeffs.shape[:-1] + (4,))


def detect_double_unitary(M, tol_cluster=1e-6, tol_circle=1e-6):
    """Find a double unit-circle multiplier with positive imaginary part
    from two traces, without roots.

    With w = lambda + 1/lambda, a real symplectic M's characteristic
    quartic becomes w^2 - tr M w + e2 - 2, whose roots w+- have mean
    w = tr M / 2 and squared gap :func:`discriminant`.  A double pair
    exp(+-i theta0) has w = 2 cos theta0 and Delta = 0.  Returns the mean
    L of the pair lambda(w+-), w/2 + i sin theta0 - i Delta / (32
    sin^3 theta0) to O(Delta^2), when M is symplectic to ``tol_circle``
    (max |M^T J4 M - J4|, the reciprocity the reduction rests on),
    |w| < 2, L lies further than 10 * tol_cluster from both +1 and -1,
    and the pair's spread sqrt|Delta| / (2 sin theta0) is at most
    ``tol_cluster``.  Returns None otherwise; absence is a value, not an
    error.  A semisimple double pair is accepted here; :func:`jordan_pair`
    rejects it.
    """
    if not is_symplectic(M, tol_circle):
        return None
    M = np.real(M)
    w = float(M.trace()) / 2.0
    if not abs(w) < 2.0:
        return None
    # On the circle |L -+ 1| = sqrt(2 -+ w).
    if min(2.0 - w, 2.0 + w) <= (10.0 * tol_cluster) ** 2:
        return None
    sin0 = math.sqrt(1.0 - w * w / 4.0)
    delta = discriminant(M)
    if math.sqrt(abs(delta)) / (2.0 * sin0) > tol_cluster:
        return None
    return complex(w / 2.0, sin0 - delta / (32.0 * sin0 ** 3))


def make_jordan_symplectic(theta0, C):
    """Symplectic test matrix with a double multiplier exp(i*theta0).

    Block form [[R, R C], [0, R]] with R the rotation by theta0 and C real
    symmetric; block-triangular symplecticity needs exactly C = C^T.  The
    eigenvalues are exp(+-i*theta0), each of algebraic multiplicity two.
    The geometric multiplicity is one exactly when trace(C) != 0 (the
    chain obstruction <C v, v> against the rotation eigenvector v reduces
    to the trace); traceless C, including C = 0, gives the semisimple
    case.
    """
    theta0 = float(theta0)
    if abs(np.sin(theta0)) < 1e-12:
        raise DegenerateAngleError("theta0 is a multiple of pi; the multiplier would be +-1")
    C = np.asarray(C, dtype=float)
    if C.shape != (2, 2):
        raise ValueError("C must be 2x2")
    if C[0, 1] != C[1, 0]:
        raise ValueError("C must be symmetric")
    R = np.array([[np.cos(theta0), -np.sin(theta0)],
                  [np.sin(theta0), np.cos(theta0)]])
    M = np.zeros((4, 4))
    M[:2, :2] = R
    M[:2, 2:] = R @ C
    M[2:, 2:] = R
    return M


@dataclass(frozen=True)
class JordanPair:
    """Eigenvector eta1 and generalized eigenvector eta2 at multiplier
    lambda0, with the three symplectic pairings attached.

    For a genuine non-semisimple unit multiplier away from +-1 the
    pairings satisfy: form_21 real and nonzero, form_12 = -form_21, and
    form_22 purely imaginary; additionally eta1 pairs to zero with itself
    and with both conjugates, as does eta2 with the conjugates.  From
    :func:`jordan_pair`, ``diagnostics`` holds the residuals of the two
    equations it checks: ``eigvec_residual`` = |M eta1 - lambda0 eta1| and
    ``chain_residual`` = |K eta2 + lambda0 eta1|.
    """

    lambda0: complex
    eta1: np.ndarray
    eta2: np.ndarray
    form_21: complex
    form_12: complex
    form_22: complex
    diagnostics: dict = field(default_factory=dict, compare=False)


def pair_from_vectors(lambda0, eta1, eta2, diagnostics=None):
    """Assemble a JordanPair from given vectors, recomputing the forms."""
    eta1 = np.asarray(eta1, dtype=complex)
    eta2 = np.asarray(eta2, dtype=complex)
    return JordanPair(
        lambda0=complex(lambda0),
        eta1=eta1,
        eta2=eta2,
        form_21=complex(symplectic_form(eta2, eta1)),
        form_12=complex(symplectic_form(eta1, eta2)),
        form_22=complex(symplectic_form(eta2, eta2)),
        diagnostics=diagnostics or {},
    )


def _norm(v):
    # np.linalg.norm's own formula for a complex vector, bit for bit,
    # without its dispatch
    re, im = v.real, v.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def jordan_pair(M, lambda0):
    """Extract the normalized chain at a detected double multiplier.

    eta1 spans the null space of K = lambda0 I - M (smallest singular
    direction); eta2 solves K eta2 = -lambda0 eta1 in least squares
    restricted to the orthogonal complement of the null space.  Gauge:
    eta1 is scaled so that its first entry of largest modulus (ties within
    a relative 1e-9 count as equal) is exactly 1, and eta2 carries no
    Euclidean component along eta1 (the minimum-norm solution already
    guarantees this).  All derived quantities are gauge-invariant; the
    gauge only makes runs reproducible.
    """
    M = as_mat4(M)
    lambda0 = complex(lambda0)
    if abs(abs(lambda0) - 1.0) > 1e-6:
        raise ExcludedCaseError(f"|lambda0| = {abs(lambda0):.12f} is not on the unit circle")
    if abs(lambda0 - 1.0) <= 1e-6 or abs(lambda0 + 1.0) <= 1e-6:
        raise ExcludedCaseError("multiplier at +-1 is outside the covered case")

    K = lambda0 * _ID4 - M
    U, s, Vh = np.linalg.svd(K)
    V = Vh.conj().T
    null_mask = s <= _RANK_RTOL * s[0]
    ndim = int(np.count_nonzero(null_mask))
    if ndim == 0:
        raise NotAJordanBlockError(
            f"no null direction at lambda0 (smallest sigma {s[-1]:.3e}); "
            "lambda0 is not an eigenvalue to working precision")
    if ndim >= 2:
        raise NotAJordanBlockError(
            "geometric multiplicity exceeds one; the multiplier is semisimple")

    eta1 = V[:, 3]
    # Gauge: the first entry of largest modulus becomes exactly 1.  Entries
    # tied to within roundoff count as equal, so the choice does not hang
    # on the SVD's last bits.
    mod = np.abs(eta1)
    idx = int(np.argmax(mod >= (1.0 - _GAUGE_TIE) * mod.max()))
    eta1 = eta1 / eta1[idx]

    b = -lambda0 * eta1
    coeffs = U.conj().T @ b
    w = np.zeros(4, dtype=complex)
    for i in range(3):
        w += (coeffs[i] / s[i]) * V[:, i]
    residual = _norm(K @ w - b)
    scale = float(s[0] * _norm(w) + _norm(b) + 1.0)
    if residual > 1e-8 * scale:
        raise InconsistentChainError(
            f"chain equation residual {residual:.3e} exceeds tolerance; "
            "the Jordan structure is not consistent at this multiplier")
    pair = pair_from_vectors(lambda0, eta1, w)
    eta2 = pair.eta2
    if abs(pair.form_21) < 1e-10:
        raise DegeneratePairingError(
            f"|<eta2, J eta1>| = {abs(pair.form_21):.3e} is numerically zero")

    eigvec_res = _norm(M @ eta1 - lambda0 * eta1)
    pair.diagnostics.update(eigvec_residual=eigvec_res, chain_residual=residual)
    chain_res = _norm(M @ eta2 - lambda0 * eta2 - lambda0 * eta1)
    vec_scale = _norm(eta1) + _norm(eta2)
    if eigvec_res > 1e-8 * vec_scale or chain_res > 1e-8 * vec_scale:
        raise InconsistentChainError(
            "extracted pair does not satisfy the normalization to 1e-8")
    return pair
