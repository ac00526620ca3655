"""Brute-force verification of the splitting predictions.

The oracle flows each family (time or perturbation strength) to the
eight parameters s = max(grid) (+-1/4, +-2/4, +-3/4, +-1) in one engine
call, takes the two roots nearest the double multiplier lambda0 of each
endpoint's recentred characteristic quartic, and fits the pair's
symmetric functions (z1 - z2)^2 = 4 a^2 s + ... and z1 + z2 =
2 lambda0 + 2 mu s + ... by polynomials in s.  Both are analytic on both
sides of s = 0 (Moro, Burke & Overton, SIMAX 18, 1997), so the fit needs
no branch labels and no sqrt(s).  Its slopes give kappa and the sum
derivative, compared against the closed forms.  The oracle reads nothing
but the roots and lambda0, so it is independent of the prediction
pipeline: the eps family's flows at eps = s are full flows, never a
Taylor polynomial of the derivative slot that gives the prediction its
B.  ``track`` continues labelled branches over a whole grid, for the CSV
tracks of ``verify --out``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .bifurcation import ExpansionCoefficients, expansion_eps, expansion_t
from .errors import (CorruptedSolutionError, ExcludedCaseError, IllConditionedFitError,
                     InputError, NoDoubleMultiplierError, TrackingAmbiguityError)
from .flow import endpoints
from .linalg import (J4, charpoly, discriminant, is_symplectic, max_abs, poly_value,
                     quartic_roots, symplectic_inverse)
from .scenario import MAX_STEPS
from .spectral import CIRCLE, CLUSTER, JordanPair, detect_double_unitary, jordan_pair, near_one


def _nearest_pair(z, lambda0, s):
    """The two of the roots ``z`` nearest lambda0.  Raises
    TrackingAmbiguityError, naming the parameter ``s``, when the third
    lies within twice the second's distance."""
    dist = np.abs(z - lambda0)
    order = np.argsort(dist)
    if dist[order[2]] <= 2.0 * dist[order[1]]:
        raise TrackingAmbiguityError(
            float(s),
            f"third eigenvalue at distance {dist[order[2]]:.3e} crowds the "
            f"tracked pair (spread {dist[order[1]]:.3e}) at parameter {float(s)!r}")
    return [z[order[0]], z[order[1]]]


@dataclass(frozen=True)
class BranchTrack:
    """Continuously matched eigenvalue branches near the multiplier.

    At every grid point the two stored values are the two eigenvalues
    closest to the collision point, each closer to it than half the gap
    to the remaining spectrum; ``residuals[i]`` holds the characteristic
    polynomial magnitudes |p(branch)| as a root-quality record.
    """

    grid: np.ndarray
    branch1: np.ndarray
    branch2: np.ndarray
    residuals: np.ndarray


def track(polys, roots, lambda0, grid, a_seed=None):
    """Track the two near eigenvalues of a matrix family over a grid.

    ``polys[n]`` is the coefficient row of the characteristic quartic of
    the family's matrix at ``grid[n]``, recentred at ``lambda0`` to keep
    the nearly-double roots well conditioned (:func:`charpoly`), and
    ``roots[n]`` are its four roots from :func:`quartic_roots`.  Branch
    labels continue by nearest-neighbor matching from the previous grid
    point; at the first point, ``a_seed`` (the predicted square-root
    coefficient) orients branch 2 along +a_seed when given.  The grid
    must be strictly monotone and positive; a decreasing grid simply runs
    the continuation from the other end.

    Raises TrackingAmbiguityError when a third eigenvalue comes within
    twice the pair spread of the collision point.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size < 1 or np.any(grid <= 0):
        raise ValueError("grid values must be positive")
    if grid.size > 1:
        d = np.diff(grid)
        if not (np.all(d > 0) or np.all(d < 0)):
            raise ValueError("grid must be strictly monotonic")
    if not len(polys) == len(roots) == grid.size:
        raise ValueError(f"need one quartic and its roots per grid point, got "
                         f"{len(polys)} and {len(roots)} for {grid.size} points")
    lambda0 = complex(lambda0)

    pairs, prev = [], None
    for s, z in zip(grid, roots):
        pair = _nearest_pair(z, lambda0, s)
        if prev is None:
            if a_seed is not None and a_seed != 0:
                target2 = lambda0 + a_seed * np.sqrt(s)
                if abs(pair[0] - target2) < abs(pair[1] - target2):
                    pair.reverse()
        else:
            keep = abs(pair[0] - prev[0]) + abs(pair[1] - prev[1])
            swap = abs(pair[0] - prev[1]) + abs(pair[1] - prev[0])
            if swap < keep:
                pair.reverse()
        prev = pair
        pairs.append(pair)
    b1, b2 = np.array(pairs, dtype=complex).T
    res = np.array([[abs(poly_value(poly, lambda0, z)) for z in pair]
                    for poly, pair in zip(polys, pairs)])
    return BranchTrack(grid=grid, branch1=b1, branch2=b2, residuals=res)


# --- end-to-end comparison ---------------------------------------------------

@dataclass(frozen=True)
class ModeComparison:
    """Closed forms vs oracle for one parameter family."""

    mode: str
    lambda0: complex
    kappa_predicted: float
    kappa_empirical: float
    sum_derivative_predicted: complex
    sum_derivative_empirical: complex
    a_predicted: complex
    a_empirical: complex
    relative_errors: dict
    sqrt_ratio: float
    quotient_growth: float

    @property
    def max_relative_error(self):
        return max(self.relative_errors.values())


@dataclass(frozen=True)
class StabilityProbe:
    """Numerical check of the strong-stability dichotomy on the oracle's rows.

    The side of s = 0 where sign(s) = sign(kappa) (+ for kappa = 0) must
    have a multiplier off the unit circle in every row, the other side
    four distinct multipliers on it in every row.  ``probe`` is the least
    |s| judged, max(grid) / 4.
    """

    kappa: float
    probe: float
    forward_max_modulus: float
    forward_off_circle: bool
    backward_max_circle_deviation: float
    backward_min_separation: float
    backward_on_circle_distinct: bool
    passed: bool


def _relative_error(emp, pred):
    return abs(emp - pred) / max(abs(pred), 1e-12)


# The stability probe's judgments of the multipliers of the oracle's rows.
_OFF_TOL = 1e-6  # off the unit circle: some modulus above 1 + _OFF_TOL
_CIRCLE_TOL = 1e-6  # on it: every modulus within _CIRCLE_TOL of 1,
_SEP_TOL = 1e-3  # and every two multipliers more than _SEP_TOL apart
_I, _J = np.triu_indices(4, 1)  # the six pairs of a row's four multipliers


def _stability_probe(roots, s, kappa):
    """Judge the dichotomy from the multipliers ``roots`` of the flow's
    endpoints at the parameters ``s``, one row of four per parameter."""
    roots, s = np.asarray(roots), np.asarray(s)
    unstable = (s > 0) == (kappa >= 0)
    # "forward" means the side the dichotomy claims unstable.
    fwd_max = float(np.abs(roots[unstable]).max(axis=1).min())
    off_circle = fwd_max > 1.0 + _OFF_TOL
    stable = roots[~unstable]
    bwd_dev = float(np.abs(np.abs(stable) - 1.0).max())
    min_sep = float(np.abs(stable[:, _I] - stable[:, _J]).min())
    on_circle_distinct = bwd_dev <= _CIRCLE_TOL and min_sep > _SEP_TOL
    return StabilityProbe(
        kappa=kappa,
        probe=float(np.abs(s).min()),
        forward_max_modulus=fwd_max,
        forward_off_circle=off_circle,
        backward_max_circle_deviation=bwd_dev,
        backward_min_separation=min_sep,
        backward_on_circle_distinct=on_circle_distinct,
        passed=off_circle and on_circle_distinct,
    )


@dataclass(frozen=True)
class OracleReport:
    """Everything the verification run measured."""

    name: str
    t: ModeComparison | None
    eps: ModeComparison | None
    stability: StabilityProbe | None

    @property
    def max_relative_error(self):
        return max((part.max_relative_error for part in (self.t, self.eps)
                    if part is not None), default=float("inf"))


@dataclass(frozen=True)
class Family:
    """Base point of one parameter family and its closed-form expansion.

    For the time family the base is the initial matrix and the drive is
    A(0, 0); for the eps family the base is the endpoint G(T) at eps = 0
    and the drive is the effective perturbation generator B, with
    dG(T)/deps = J4 B G(T) for the exact eps-derivative of the discrete
    flow (:func:`eps_base`, :func:`_generator`).  ``ends`` are
    the family's matrices at the parameters :func:`family` was given,
    shape (len(params), 4, 4).
    """

    base: np.ndarray
    pair: JordanPair
    drive: np.ndarray
    coeffs: ExpansionCoefficients
    ends: np.ndarray


def eps_base(scenario, params=()):
    """Step count of the eps family, its endpoint at eps = 0 with that
    endpoint's eps-derivative, and its endpoints at ``params``, from one
    engine call over eps in [0, *params] whose derivative slot follows the
    eps = 0 flow (:func:`flow.endpoints`).  The count starts at
    :meth:`Scenario.steps`; while the base's |discriminant| is above
    CLUSTER^2/4, the whole batch reruns at the count that Delta's steps^-6
    law predicts, at most 8 times the last and at most MAX_STEPS (else
    InputError), unless Delta fell by less than 16x per doubling: then no
    double multiplier is there to converge to, and :func:`family` reports
    none."""
    eps = np.concatenate([[0.0], params])
    steps = scenario.steps("eps")
    ends, _, d_base = endpoints(scenario.curve, np.eye(4), scenario.T, steps, eps, derivative=True)
    delta, bound = abs(discriminant(ends[0])), CLUSTER ** 2 / 4.0
    while delta > bound:
        finer = min(8 * steps, math.ceil(steps * (delta / bound) ** (1 / 6)))
        if finer > MAX_STEPS:
            raise InputError(f"the endpoint at eps = 0 needs {finer} steps to resolve its "
                             f"double multiplier, above the cap of {MAX_STEPS}")
        finer_ends, _, finer_d = endpoints(scenario.curve, np.eye(4), scenario.T, finer, eps,
                                           derivative=True)
        finer_delta = abs(discriminant(finer_ends[0]))
        if finer_delta * (finer / steps) ** 4 >= delta:
            break
        steps, ends, d_base, delta = finer, finer_ends, finer_d, finer_delta
    return steps, ends[0], d_base, ends[1:]


# B = J4^-1 dG G^-1 is symmetric up to roundoff (1.2e-16 of max|B| on
# resonant_eps); an asymmetry above this share of max|B| is a fault.
_ASYMMETRY_TOL = 1e-6


def _generator(base, d_base):
    """The symmetric generator B of the eps family's motion at eps = 0,
    d_base = J4 B base, so B = -J4 d_base base^-1, symmetrized.  Raises
    CorruptedSolutionError when its asymmetry exceeds _ASYMMETRY_TOL times
    max|B|, or is not finite."""
    B = -J4 @ d_base @ symplectic_inverse(base)
    asym, size = max_abs(B - B.T), max_abs(B)
    if not asym <= _ASYMMETRY_TOL * size:
        raise CorruptedSolutionError(
            f"the eps-derivative generator's asymmetry {asym:.3e} exceeds "
            f"{_ASYMMETRY_TOL:g} times its largest entry {size:.3e}")
    return (B + B.T) / 2.0


def family(scenario, mode, params=()):
    """Detect the double multiplier of the ``mode`` family, extract its chain
    and expand the splitting, for the predictions and the oracle, and flow
    the family to ``params`` (the eps family in the same engine call as its
    base).  A base without a double pair is a NoDoubleMultiplierError,
    one within 10 * CLUSTER of +-1 an ExcludedCaseError."""
    scenario.require(mode)
    if mode == "eps":
        _, base, d_base, ends = eps_base(scenario, params)
        where = "endpoint at eps = 0"
    else:
        base, where = scenario.gamma0, "initial matrix"
    lam = detect_double_unitary(base)
    if lam is None:
        _near_one(base, where)
        raise NoDoubleMultiplierError(f"{where} has no double unit-circle multiplier pair")
    pair = jordan_pair(base, lam)
    if mode == "eps":
        drive = _generator(base, d_base)
        coeffs = expansion_eps(pair, drive)
    else:
        drive = scenario.curve.eval_matrix(0.0, 0.0)
        coeffs = expansion_t(pair, drive)
        ends = family_endpoints(scenario, mode, params) if len(params) else np.empty((0, 4, 4))
    return Family(base=base, pair=pair, drive=drive, coeffs=coeffs, ends=ends)


def _near_one(base, where):
    """Raise ExcludedCaseError when :func:`detect_double_unitary` turned
    ``base`` down for its closeness to +-1: symplectic to CIRCLE, with
    w = tr M / 2 inside (-2, 2) and near +-2 by :func:`spectral.near_one`."""
    w = float(np.real(base).trace()) / 2.0
    if abs(w) < 2.0 and near_one(w) and is_symplectic(base, CIRCLE):
        raise ExcludedCaseError(
            f"{where} has a multiplier pair within 10 * cluster of {'+1' if w > 0 else '-1'} "
            f"(tr M / 2 = {w!r}), which the expansion excludes")


def family_endpoints(scenario, mode, params):
    """The family's matrix at every parameter in ``params``, in one engine
    call: the flow from the initial matrix to time s ("t"), or the flow
    from the identity over [0, T] at eps = s ("eps"), batched with the
    eps = 0 base that refines its steps (:func:`eps_base`), each at the
    family's count from :meth:`Scenario.steps`.  Shape (len(params), 4, 4)."""
    if mode == "eps":
        return eps_base(scenario, params)[3]
    return endpoints(scenario.curve, scenario.gamma0, params, scenario.steps(mode))[0]


# The oracle's parameters x = s / max(grid), four on each side of 0, and
# its fit: polynomials of degree 5 in x.  Both fitted functions vanish at
# s = 0, so an intercept not below _INTERCEPT_TOL times the function's
# least |value| at x = +-1/4 is roundoff that the fit cannot see past.
_X = np.array([1.0, 2.0, 3.0, 4.0, -1.0, -2.0, -3.0, -4.0]) / 4.0
_VANDER = np.vander(_X, 6, increasing=True)
_INTERCEPT_TOL = 1e-3


def _oracle(scenario, mode):
    """Closed forms and oracle for one family.

    One engine call flows the family to s = max(grid) x for x in _X; one
    batch of quartics recentred at lambda0 and one root solve each follow.
    In each of the eight rows the two roots z1, z2 nearest lambda0 give the
    pair's symmetric functions (z1 - z2)^2 = 4 a^2 s + ... and
    z1 + z2 - 2 lambda0 = 2 mu s + ..., fitted by one least-squares solve
    in x.  The slopes give kappa = Re(a^2 / lambda0^2) and the sum
    derivative 2 mu.  Raises IllConditionedFitError when an intercept is
    not small against the smallest |s|'s values (_INTERCEPT_TOL): the
    grid is too small to resolve the pair above roundoff.  Returns the
    ModeComparison and, for the t family, the StabilityProbe of the same
    rows (else None).
    """
    top = float(np.max(scenario.grid(mode)))
    s = top * _X
    fam = family(scenario, mode, s)
    lam, coeffs = fam.pair.lambda0, fam.coeffs
    polys = charpoly(fam.ends, lam)
    roots = [quartic_roots(p, lam) for p in polys]

    # The pair's offsets from lambda0: its sum is fitted recentred, so that
    # the solve's roundoff scales with the offsets, not with |2 lambda0|.
    off = np.array([_nearest_pair(z, lam, x) for z, x in zip(roots, s)]) - lam
    sym = np.stack([(off[:, 0] - off[:, 1]) ** 2, off.sum(axis=1)], axis=1)
    coef = np.linalg.lstsq(_VANDER, sym, rcond=None)[0]
    floor = _INTERCEPT_TOL * np.abs(sym[[0, 4]]).min(axis=0)
    if not np.all(np.abs(coef[0]) < floor):
        raise IllConditionedFitError(
            f"the fitted (z1 - z2)^2 and z1 + z2 - 2 lambda0 at s = 0 ({abs(coef[0, 0]):.3e}, "
            f"{abs(coef[0, 1]):.3e}) are not below {_INTERCEPT_TOL:g} times their values at "
            f"s = +-{top / 4:.3e}: the {mode} grid is too small to resolve the pair")
    sq1, sumder_emp = (complex(c) for c in coef[1] / top)
    a_emp = complex(np.sqrt(sq1)) / 2.0  # signed as a_predicted: a label only
    if (a_emp * np.conj(coeffs.a)).real < 0:
        a_emp = -a_emp
    kappa_emp = float((sq1 / (4.0 * lam * lam)).real)
    # The pair's mean distance from lambda0 grows like sqrt(s), so dev(max/4)
    # / dev(max) -> 1/2, and dev(s) / s grows by 2 when s shrinks by 4.
    dev = np.abs(off).mean(axis=1)
    ratio = float(dev[0] / dev[3])
    part = ModeComparison(
        mode=mode,
        lambda0=lam,
        kappa_predicted=coeffs.kappa,
        kappa_empirical=kappa_emp,
        sum_derivative_predicted=coeffs.sum_derivative,
        sum_derivative_empirical=sumder_emp,
        a_predicted=coeffs.a,
        a_empirical=a_emp,
        relative_errors={
            "kappa": _relative_error(kappa_emp, coeffs.kappa),
            "sum_derivative": _relative_error(sumder_emp, coeffs.sum_derivative),
        },
        sqrt_ratio=ratio,
        quotient_growth=4.0 * ratio,
    )
    return part, _stability_probe(roots, s, coeffs.kappa) if mode == "t" else None


def compare(scenario, mode="both"):
    """Run predictions and the oracle on a scenario.

    ``mode`` selects the time family ("t"), the endpoint-in-eps family
    ("eps"), or "both", where the eps family runs only when the curve
    mentions eps.  The grids are the scenario's (change them with
    ``dataclasses.replace``), and the t family's rows also judge the
    stability dichotomy.  Returns an OracleReport; tolerance judgments belong to the
    caller.
    """
    if mode not in ("t", "eps", "both"):
        raise ValueError(f"unknown mode {mode!r}")
    t_part = eps_part = stability = None
    if mode in ("t", "both"):
        t_part, stability = _oracle(scenario, "t")
    if mode == "eps" or (mode == "both" and scenario.curve.has_eps):
        eps_part, _ = _oracle(scenario, "eps")
    return OracleReport(name=scenario.name, t=t_part, eps=eps_part, stability=stability)
