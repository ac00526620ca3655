"""Closed-form splitting asymptotics at a degenerate unit multiplier.

Let M(s) be a smooth symplectic family whose derivative at s = 0 is
J4 A M(0), and let (eta1, eta2) be the normalized chain at the double
multiplier L of M(0).  The two eigenvalues bifurcating from L behave as

    lambda_j(s) = L + (-1)^j * a * sqrt(s) + mu * s + o(s),    j = 1, 2,

where a^2 = L^2 * kappa with the first-order rate

    kappa = <A eta1, eta1> / <eta2, J eta1>        (real),

and mu is L/2 times the four-term bracket assembled below.  The same
algebra applies verbatim to the endpoint-in-eps family once A is replaced
by the effective perturbation generator, so there is a single code path.
Everything here is a pure function of the chain and of A; the coefficient
ladder offers an independent exterior-power route to the same numbers.
The records hold only what the formulas compute (L stays with the chain,
``JordanPair.lambda0``), and the stability verdict is one of two strings.
"""

import cmath
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateCaseError, ExcludedCaseError, InconclusiveError
from .linalg import as_mat4, charpoly_mixed, inner

#: Verdict strings for the strong-stability dichotomy.
UNSTABLE_FORWARD = "unstable_forward_stable_backward"
STABLE_FORWARD = "stable_forward_unstable_backward"


@dataclass(frozen=True)
class CoefficientLadder:
    """Characteristic-coefficient data at the collision.

    ``c`` holds the five recentred characteristic coefficients of M(0) in
    ascending powers; for a genuine double pair c[0] = c[1] = 0,
    c[2] = (L - conj L)^2 and c[3] = 2 (L - conj L).  ``c31`` and ``c21``
    are the first-order mixed exterior powers driving the sqrt and linear
    terms, and a_squared = c31 / c[2].
    """

    c: tuple
    c31: complex
    c21: complex
    a_squared: complex


@dataclass(frozen=True)
class ExpansionCoefficients:
    """Evaluated splitting asymptotics at one collision.

    ``kappa`` is the real first-order rate; ``a`` is the principal square
    root of lambda0^2 * kappa (so for kappa > 0 branch 2 leaves along
    +a).  ``second_order`` is the coefficient mu of s in each branch and
    ``sum_derivative`` = 2 * mu is the derivative of the branch sum, whose
    product with conj(lambda0) has real part exactly kappa.
    ``kappa_imag_residual`` logs the imaginary part dropped from the
    kappa ratio rather than silently discarding it.
    """

    kappa: float
    a: complex
    second_order: complex
    sum_derivative: complex
    bracket: complex
    kappa_imag_residual: float = field(default=0.0, compare=False)


def ladder(gamma0, gammadot0, lambda0):
    """Exterior-power route to the expansion coefficients.

    ``gammadot0`` is the derivative of the family at the collision, i.e.
    J4 A M(0) for a coefficient matrix A.  Raises when the recentred
    quadratic coefficient vanishes, which happens exactly when the
    multiplier sits at +-1.
    """
    c, c31, c21 = charpoly_mixed(gamma0, lambda0, gammadot0)
    if abs(c[2]) < 1e-10:
        raise ExcludedCaseError(
            "quadratic coefficient vanishes; multiplier too close to +-1")
    return CoefficientLadder(c=c, c31=c31, c21=c21, a_squared=c31 / c[2])


def expansion_t(pair, A0):
    """Splitting asymptotics for the time family driven by A0 = A(0).

    Requires |<A0 eta1, eta1>| > 1e-10; below that the square-root term
    degenerates and no verdict is possible at this order.
    """
    A0 = as_mat4(A0)
    lam = pair.lambda0
    num = inner(A0 @ pair.eta1, pair.eta1)
    if abs(num) <= 1e-10:
        raise DegenerateCaseError(num)
    ratio = num / pair.form_21
    g2 = inner(A0 @ pair.eta1, pair.eta2) / pair.form_12
    g3 = inner(A0 @ pair.eta2, pair.eta1) / pair.form_21
    g4 = num * pair.form_22 / (pair.form_21 * pair.form_12)
    kappa = float(ratio.real)
    bracket = ratio + g2 + g3 - g4
    sum_derivative = lam * bracket
    a = cmath.sqrt(lam * lam * kappa)
    return ExpansionCoefficients(
        kappa=kappa,
        a=a,
        second_order=sum_derivative / 2.0,
        sum_derivative=sum_derivative,
        bracket=bracket,
        kappa_imag_residual=abs(ratio.imag),
    )


def expansion_eps(pair, B):
    """Splitting asymptotics for the endpoint-in-eps family.

    The chain must come from the endpoint matrix at eps = 0 and B must be
    its effective perturbation generator; the algebra is then identical to
    the time case with A0 replaced by B, because the bilinear forms of B
    against the chain equal the corresponding time integrals of the
    transported vectors.
    """
    try:
        return expansion_t(pair, B)
    except DegenerateCaseError as exc:
        raise DegenerateCaseError(
            exc.measured,
            f"degenerate case: |<B eta1, eta1>| = {abs(exc.measured):.3e}") from None


def classify_stability(coeffs, tol=1e-10):
    """Strong-stability dichotomy from the sign of kappa: the verdict
    string :data:`UNSTABLE_FORWARD` or :data:`STABLE_FORWARD`.

    kappa > 0: the family is unstable for small positive parameter and
    strongly stable for small negative parameter; kappa < 0 is the mirror
    image.  |kappa| <= tol is inconclusive at this order.
    """
    kappa = coeffs.kappa
    if abs(kappa) <= tol:
        raise InconclusiveError(
            f"first-order rate {kappa:.3e} is zero within {tol:.1e}; "
            "the dichotomy needs higher-order analysis")
    return UNSTABLE_FORWARD if kappa > 0 else STABLE_FORWARD


def predict_branches(coeffs, lambda0, s):
    """Two-term branch prediction lambda_j(s) = L + (-1)^j a sqrt(s) + mu s.

    For s < 0, sqrt(s) = i sqrt(|s|), the analytic continuation of the
    series in sqrt(s) (Moro, Burke & Overton, SIMAX 18, 1997), so the
    prediction covers both sides of the collision.  Returns (lambda_1,
    lambda_2); the branch sum is 2 L + 2 mu s exactly, on either side.
    """
    lambda0 = complex(lambda0)
    root = 1j * coeffs.a * np.sqrt(-s) if s < 0 else coeffs.a * np.sqrt(s)
    mu = coeffs.second_order
    return (lambda0 - root + mu * s, lambda0 + root + mu * s)
