"""Brute-force verification of the splitting predictions.

Tracks the two eigenvalues bifurcating from a double unit multiplier
across a parameter grid (time or perturbation strength), fits the
two-term Puiseux model, and compares the fitted first- and second-order
data against the closed forms.  Tracking rests on nothing but repeated
root extraction and nearest-neighbor continuation, so it is an
independent oracle for the whole prediction pipeline.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .bifurcation import ExpansionCoefficients, expansion_eps, expansion_t
from .errors import (ExcludedCaseError, IllConditionedFitError, InputError,
                     NoDoubleMultiplierError, TrackingAmbiguityError)
from .flow import endpoint, endpoints, integrate, perturbation_hamiltonian
from .linalg import charpoly, discriminant, is_symplectic, poly_value, quartic_roots
from .scenario import MAX_STEPS
from .spectral import JordanPair, detect_double_unitary, jordan_pair


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
        dist = np.abs(z - lambda0)
        order = np.argsort(dist)
        pair = [z[order[0]], z[order[1]]]
        if dist[order[2]] <= 2.0 * dist[order[1]]:
            raise TrackingAmbiguityError(
                float(s),
                f"third eigenvalue at distance {dist[order[2]]:.3e} crowds the "
                f"tracked pair (spread {dist[order[1]]:.3e}) at parameter {s!r}")
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
    track: BranchTrack = field(compare=False)

    @property
    def max_relative_error(self):
        return max(self.relative_errors.values())


@dataclass(frozen=True)
class StabilityProbe:
    """Numerical check of the strong-stability dichotomy at +-probe.

    For positive first-order rate the forward side must have a multiplier
    off the unit circle while the backward side shows four distinct
    multipliers on it; a negative rate mirrors the two sides.
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


# The stability probe's judgments of the multipliers at +-probe.
_OFF_TOL = 1e-6  # off the unit circle: some modulus above 1 + _OFF_TOL
_CIRCLE_TOL = 1e-6  # on it: every modulus within _CIRCLE_TOL of 1,
_SEP_TOL = 1e-3  # and every two multipliers more than _SEP_TOL apart


def _stability_probe(evs_f, evs_b, kappa, probe):
    """Judge the dichotomy from the multipliers of the flow's endpoints at
    +probe (``evs_f``) and -probe (``evs_b``)."""
    if kappa < 0:
        evs_f, evs_b = evs_b, evs_f
    # "forward" now means the side the dichotomy claims unstable.
    fwd_max = float(np.max(np.abs(evs_f)))
    off_circle = fwd_max > 1.0 + _OFF_TOL
    bwd_dev = float(np.max(np.abs(np.abs(evs_b) - 1.0)))
    seps = [abs(evs_b[i] - evs_b[j]) for i in range(4) for j in range(i + 1, 4)]
    min_sep = float(min(seps))
    on_circle_distinct = bwd_dev <= _CIRCLE_TOL and min_sep > _SEP_TOL
    return StabilityProbe(
        kappa=kappa,
        probe=probe,
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
    and the drive is the effective perturbation generator B.  ``steps`` is
    the step count of its flows (:meth:`Scenario.steps`, :func:`eps_base`).
    """

    steps: int
    base: np.ndarray
    pair: JordanPair
    drive: np.ndarray
    coeffs: ExpansionCoefficients


def eps_base(scenario):
    """Step count of the eps family and its flow at eps = 0 (every state
    kept, for B's quadrature).  A scenario's own steps_eps is used as given.
    Else the count starts at :meth:`Scenario.steps`; while the base's
    |discriminant| is above cluster^2/4, the base reruns at the count that
    Delta's steps^-6 law predicts, a multiple of 4, at most 8 times the last
    and at most MAX_STEPS (else InputError), unless Delta fell by less than
    16x per doubling: then no double multiplier is there to converge to."""
    tol = scenario.tolerances
    steps = scenario.steps("eps")
    sol = integrate(scenario.curve, np.eye(4), scenario.T, steps, 0.0, tol.drift)
    delta, bound = abs(discriminant(endpoint(sol))), tol.cluster ** 2 / 4.0
    while tol.steps_eps is None and delta > bound:
        finer = min(8 * steps, 4 * math.ceil(steps * (delta / bound) ** (1 / 6) / 4))
        if finer > MAX_STEPS:
            raise InputError(f"the endpoint at eps = 0 needs {finer} steps to resolve its "
                             f"double multiplier, above the cap of {MAX_STEPS}")
        finer_sol = integrate(scenario.curve, np.eye(4), scenario.T, finer, 0.0, tol.drift)
        finer_delta = abs(discriminant(endpoint(finer_sol)))
        if finer_delta * (finer / steps) ** 4 >= delta:
            break
        steps, sol, delta = finer, finer_sol, finer_delta
    return steps, sol


def family(scenario, mode):
    """Detect the double multiplier of the ``mode`` family, extract its chain
    and expand the splitting, for the predictions and the oracle.  When a
    scenario's steps_eps leaves the eps = 0 endpoint without a double pair,
    but its discriminant falls 16x or more at twice the steps, the error
    says to raise steps_eps; a pair within 10 * cluster of +-1 is an
    ExcludedCaseError."""
    tol = scenario.tolerances
    curve = scenario.curve
    scenario.require(mode)
    if mode == "eps":
        steps, sol0 = eps_base(scenario)
        base, where = endpoint(sol0), "endpoint at eps = 0"
    else:
        steps, base, where = scenario.steps(mode), scenario.gamma0, "initial matrix"
    lam = detect_double_unitary(base, tol.cluster, tol.circle)
    if lam is None:
        _near_one(base, tol, where)
        if mode == "eps" and tol.steps_eps is not None:
            finer, _ = endpoints(curve, np.eye(4), scenario.T, 2 * steps, 0.0, tol.drift)
            if abs(discriminant(base)) >= 16.0 * abs(discriminant(finer[0])):
                raise NoDoubleMultiplierError(
                    f"{where} is not resolved at steps_eps = {steps}; raise steps_eps")
        raise NoDoubleMultiplierError(f"{where} has no double unit-circle multiplier pair")
    pair = jordan_pair(base, lam)
    if mode == "eps":
        drive = perturbation_hamiltonian(curve, sol0)
        coeffs = expansion_eps(pair, drive)
    else:
        drive = curve.eval_matrix(0.0, 0.0)
        coeffs = expansion_t(pair, drive)
    return Family(steps=steps, base=base, pair=pair, drive=drive, coeffs=coeffs)


def _near_one(base, tol, where):
    """Raise ExcludedCaseError when :func:`detect_double_unitary` turned
    ``base`` down for its closeness to +-1: symplectic to ``tol.circle``,
    with w = tr M / 2 inside (-2, 2) and within (10 * cluster)^2 of +-2."""
    w = float(np.real(base).trace()) / 2.0
    near = abs(w) < 2.0 and 2.0 - abs(w) <= (10.0 * tol.cluster) ** 2
    if near and is_symplectic(base, tol.circle):
        raise ExcludedCaseError(
            f"{where} has a multiplier pair within 10 * cluster of {'+1' if w > 0 else '-1'} "
            f"(tr M / 2 = {w!r}), which the expansion excludes")


def family_endpoints(scenario, mode, params, steps=None):
    """The family's matrix at every parameter in ``params``, in one batch:
    the flow from the initial matrix to time s ("t"), or the flow from the
    identity over [0, T] at eps = s ("eps"), each of ``steps`` steps
    (``Family.steps``; by default ``scenario.steps("t")`` or the count of
    :func:`eps_base`).  Shape (len(params), 4, 4)."""
    tol = scenario.tolerances
    if steps is None:
        steps = eps_base(scenario)[0] if mode == "eps" else scenario.steps(mode)
    if mode == "eps":
        ends, _ = endpoints(scenario.curve, np.eye(4), scenario.T, steps, params, tol.drift)
    else:
        ends, _ = endpoints(scenario.curve, scenario.gamma0, params, steps, 0.0, tol.drift)
    return ends


def _oracle(scenario, mode):
    """Closed forms and oracle for one family.

    One endpoint batch, one batch of quartics recentred at lambda0 and one
    root solve each cover the grid, the scaling probe at four times its
    foot and, for the t family, the stability probes at +-probe.  Returns
    the ModeComparison and the StabilityProbe (None for the eps family).
    """
    fam = family(scenario, mode)
    lam, coeffs, grid = fam.pair.lambda0, fam.coeffs, scenario.grid(mode)
    probe = scenario.tolerances.probe
    n = grid.size
    params = np.concatenate([grid, [4.0 * np.min(grid)], [probe, -probe] if mode == "t" else []])
    polys = charpoly(family_endpoints(scenario, mode, params, fam.steps), lam)
    roots = [quartic_roots(p, lam) for p in polys]

    tr = track(polys[:n], roots[:n], lam, grid, a_seed=coeffs.a)
    fit = fit_puiseux(tr, lam)
    kappa_emp = float((fit.a ** 2 / (lam * lam)).real)
    sumder_emp = 2.0 * fit.mu_sum
    rel = {
        "kappa": _relative_error(kappa_emp, coeffs.kappa),
        "sum_derivative": _relative_error(sumder_emp, coeffs.sum_derivative),
    }

    # Scaling probes at the foot of the grid: deviations should scale as
    # sqrt(s), so dev(s)/dev(4s) -> 1/2 and the one-sided difference
    # quotient grows by 2 when s shrinks by 4.
    foot = int(np.argmin(tr.grid))
    s0 = float(tr.grid[foot])
    scaling = track([polys[foot], polys[n]], [roots[foot], roots[n]], lam,
                    np.array([s0, 4.0 * s0]), a_seed=coeffs.a)
    dev = 0.5 * (np.abs(scaling.branch1 - lam) + np.abs(scaling.branch2 - lam))

    part = ModeComparison(
        mode=mode,
        lambda0=lam,
        kappa_predicted=coeffs.kappa,
        kappa_empirical=kappa_emp,
        sum_derivative_predicted=coeffs.sum_derivative,
        sum_derivative_empirical=sumder_emp,
        a_predicted=coeffs.a,
        a_empirical=fit.a,
        relative_errors=rel,
        sqrt_ratio=float(dev[0] / dev[1]),
        quotient_growth=float((dev[0] / s0) / (dev[1] / (4.0 * s0))),
        track=tr,
    )
    stability = None
    if mode == "t":
        stability = _stability_probe(roots[n + 1], roots[n + 2], coeffs.kappa, probe)
    return part, stability


def compare(scenario, mode="both"):
    """Run predictions and the tracking oracle on a scenario.

    ``mode`` selects the time family ("t"), the endpoint-in-eps family
    ("eps"), or "both", where the eps family runs only when the curve
    mentions eps.  The grids are the scenario's (change them with
    ``dataclasses.replace``), and the t family always runs the stability
    probes.  Returns an OracleReport; tolerance judgments belong to the
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
