import json
import math
import random
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from kreinsplit import (
    charpoly,
    compare,
    detect_double_unitary,
    expansion_t,
    jordan_pair,
    make_jordan_symplectic,
    predict_branches,
    quartic_roots,
    track,
)
from kreinsplit.errors import (
    IllConditionedFitError,
    InputError,
    TrackingAmbiguityError,
)
from kreinsplit import flow, verify
from kreinsplit.cli import main
from kreinsplit.scenario import GridSpec, Scenario, load_scenario, parse_scenario
from kreinsplit.verify import BranchTrack, _stability_probe, family, family_endpoints
from oracles import (
    boole_eps_coefficients,
    discriminant_oracle,
    fit_joint,
    fit_puiseux,
    separations,
)

SCENARIOS = Path(__file__).parent.parent / "scenarios"


def stacked(fn, grid):
    """The family ``fn`` at every grid point, stacked."""
    return np.stack([fn(float(s)) for s in grid])


def spectra(matrices, lam):
    """The quartics of ``matrices`` recentred at ``lam`` and their roots,
    as ``track`` takes them."""
    polys = charpoly(matrices, lam)
    return polys, [quartic_roots(p, lam) for p in polys]


def grid_track(scenario, mode, part):
    """``track`` over the scenario's ``mode`` grid, its branches labelled
    from ``part``'s predicted a, as ``verify --out`` writes it."""
    grid, lam = scenario.grid(mode), part.lambda0
    return track(*spectra(family_endpoints(scenario, mode, grid), lam), lam, grid,
                 a_seed=part.a_predicted)


def synthetic_track(lambda0, a, mu, grid, extra=None):
    grid = np.asarray(grid, dtype=float)
    roots = np.sqrt(grid)
    tail = extra(grid) if extra is not None else 0.0
    b2 = lambda0 + a * roots + mu * grid + tail
    b1 = lambda0 - a * roots + mu * grid - tail
    return BranchTrack(grid=grid, branch1=b1, branch2=b2,
                       residuals=np.zeros((grid.size, 2)))


def test_track_constant_family():
    M = make_jordan_symplectic(np.pi / 3, np.eye(2))
    lam = detect_double_unitary(M)
    tr = track(*spectra(np.repeat(M[None], 6, axis=0), lam), lam, np.geomspace(1e-6, 1e-3, 6))
    assert np.max(np.abs(tr.branch1 - lam)) < 1e-7
    assert np.max(np.abs(tr.branch2 - lam)) < 1e-7


def test_track_requires_positive_monotone_grid():
    M = make_jordan_symplectic(np.pi / 3, np.eye(2))
    lam = detect_double_unitary(M)
    with pytest.raises(ValueError):
        track(*spectra(np.repeat(M[None], 3, axis=0), lam), lam, [1e-3, 1e-6, 1e-4])
    with pytest.raises(ValueError):
        track(*spectra(np.repeat(M[None], 2, axis=0), lam), lam, [-1e-3, 1e-6])
    with pytest.raises(ValueError):
        track(*spectra(np.repeat(M[None], 2, axis=0), lam), lam, [1e-6, 1e-4, 1e-3])


def test_track_ambiguity_detection():
    lam = np.exp(1j * np.pi / 3)

    def crowded(s):
        d = np.sqrt(s)
        return np.diag([lam + d, lam - d, lam + 1.9 * d, np.conj(lam)])

    grid = np.geomspace(1e-8, 1e-5, 5)
    with pytest.raises(TrackingAmbiguityError):
        track(*spectra(stacked(crowded, grid), lam), lam, grid)


def test_track_continuity_and_reversal(pi3_scenario, pi3_report):
    report, _ = pi3_report
    tr = grid_track(pi3_scenario, "t", report.t)
    seps = separations(tr)
    steps1 = np.abs(np.diff(tr.branch1))
    steps2 = np.abs(np.diff(tr.branch2))
    # matching is continuous: consecutive moves stay below the branch gap
    assert np.all(steps1 < seps[1:])
    assert np.all(steps2 < seps[1:])


def test_track_reversed_grid_matches():
    M0 = make_jordan_symplectic(np.pi / 3, np.eye(2))
    lam = detect_double_unitary(M0)

    def family(s):
        out = M0.copy()
        out[0, 2] += s
        out[2, 0] += s
        return out

    grid = np.geomspace(1e-7, 1e-4, 8)
    fwd = track(*spectra(stacked(family, grid), lam), lam, grid)
    rev = track(*spectra(stacked(family, grid[::-1]), lam), lam, grid[::-1])
    same = max(np.max(np.abs(fwd.branch1 - rev.branch1[::-1])),
               np.max(np.abs(fwd.branch2 - rev.branch2[::-1])))
    swapped = max(np.max(np.abs(fwd.branch1 - rev.branch2[::-1])),
                  np.max(np.abs(fwd.branch2 - rev.branch1[::-1])))
    assert min(same, swapped) < 1e-12


def test_tracked_quartet_mirrors_conjugate_cluster(pi3_scenario):
    from kreinsplit import endpoint, integrate
    curve = pi3_scenario.curve
    g0 = pi3_scenario.gamma0
    lam = detect_double_unitary(g0)

    def family(s):
        return endpoint(integrate(curve, g0, s, 2000, 0.0))

    grid = np.geomspace(1e-6, 1e-4, 5)
    up = track(*spectra(stacked(family, grid), lam), lam, grid)
    down = track(*spectra(stacked(family, grid), np.conj(lam)), np.conj(lam), grid)
    for i in range(grid.size):
        got = sorted([down.branch1[i], down.branch2[i]], key=lambda z: z.imag)
        want = sorted([np.conj(up.branch1[i]), np.conj(up.branch2[i])],
                      key=lambda z: z.imag)
        assert abs(got[0] - want[0]) < 1e-9
        assert abs(got[1] - want[1]) < 1e-9


def test_shared_quartic_batch_equals_separate_calls(pi3_scenario, pi3_report):
    # The oracle solves one batch of quartics for its eight points
    # s = max(grid) (+-1/4, +-2/4, +-3/4, +-1).  Its roots equal separate
    # charpoly and quartic_roots calls on the same endpoints bit for bit;
    # sqrt_ratio is the pair's mean distance from lambda0 at max/4 over that
    # at max, and the same eight rows give the stability block.
    report, _ = pi3_report
    part = report.t
    lam = part.lambda0
    top = pi3_scenario.t_grid.points().max()
    x = np.array([1.0, 2.0, 3.0, 4.0, -1.0, -2.0, -3.0, -4.0]) / 4.0
    ends = family_endpoints(pi3_scenario, "t", top * x)

    evs = [quartic_roots(charpoly(M, lam), lam) for M in ends]
    for got, want in zip(spectra(ends, lam)[1], evs):
        assert got.tobytes() == want.tobytes()
    dev = [np.mean(sorted(np.abs(z - lam))[:2]) for z in evs[:4]]
    assert part.sqrt_ratio == float(dev[0] / dev[3])
    assert part.quotient_growth == 4.0 * part.sqrt_ratio
    assert report.stability == _stability_probe(evs, top * x, part.kappa_predicted)
    # Given -kappa, the probe judges the sides the other way round, and fails.
    flipped = _stability_probe(evs, top * x, -part.kappa_predicted)
    assert not flipped.forward_off_circle and not flipped.backward_on_circle_distinct
    assert not flipped.passed


def test_stability_probe_reports_the_least_judged_parameter(pi3_scenario, pi3_report,
                                                            pi3_neg_scenario, pi3_neg_report):
    # The dichotomy is judged on the eight rows at s = max(grid) (+-1/4, ..., +-1),
    # the nearest to s = 0 at max(grid) / 4.
    for scenario, (report, _) in ((pi3_scenario, pi3_report), (pi3_neg_scenario, pi3_neg_report)):
        assert report.stability.probe == scenario.t_grid.points().max() / 4
        assert report.stability.passed


def test_fit_recovers_exact_model():
    lam = np.exp(0.9j)
    tr = synthetic_track(lam, 1.0 + 0.0j, 0.5j, np.geomspace(1e-7, 1e-3, 12))
    fit = fit_puiseux(tr, lam)
    assert abs(fit.a - 1.0) < 1e-10
    # the sum estimator divides an O(eps)-cancelled difference by 2e-7
    assert abs(fit.mu_sum - 0.5j) < 1e-9


def test_fit_bias_under_three_halves_contamination():
    lam = np.exp(0.9j)
    c = 0.8
    grid = np.geomspace(1e-7, 1e-3, 12)
    tr = synthetic_track(lam, 1.0 + 0.0j, 0.5j, grid,
                         extra=lambda s: c * s ** 1.5)
    fit = fit_puiseux(tr, lam)
    assert abs(fit.mu_sum - 0.5j) <= c * np.sqrt(grid.max())
    assert abs(fit.a - 1.0) <= c * grid.max()


def test_parity_split_fit_matches_joint_solve(pi3_scenario, pi3_report, pi3_neg_scenario,
                                              pi3_neg_report, resonant_scenario,
                                              resonant_report):
    # The 1/s-weighted joint fit's two columns are orthogonal, so the odd
    # projection gives its a up to roundoff, and mu_sum and the Richardson
    # spread, which read only q, are untouched.
    lam = np.exp(0.9j)
    grid = np.geomspace(1e-7, 1e-3, 12)
    gauge_scenario = load_scenario(SCENARIOS / "resonant_eps_gauge.json")
    gauge = compare(gauge_scenario, mode="eps").eps
    parts = ((pi3_scenario, "t", pi3_report[0].t), (pi3_neg_scenario, "t", pi3_neg_report[0].t),
             (resonant_scenario, "eps", resonant_report[0].eps), (gauge_scenario, "eps", gauge))
    cases = [(grid_track(*args), args[2].lambda0) for args in parts]
    cases += [(synthetic_track(lam, 1.0 + 0.0j, 0.5j, grid), lam),
              (synthetic_track(lam, 1.0 + 0.0j, 0.5j, grid, extra=lambda s: 0.8 * s ** 1.5), lam)]
    for tr, lam0 in cases:
        got, want = fit_puiseux(tr, lam0), fit_joint(tr, lam0)
        assert abs(got.a - want.a) <= 1e-15 * abs(want.a)
        assert set(got.diagnostics) == {"richardson_spread"}
        pairs = [(got.mu_sum, want.mu_sum)]
        pairs += [(value, want.diagnostics[key]) for key, value in got.diagnostics.items()]
        for value, ref in pairs:
            assert type(value) is type(ref) and repr(value) == repr(ref)


def test_fit_needs_four_points():
    lam = np.exp(0.9j)
    tr = synthetic_track(lam, 1.0, 0.5j, [1e-6, 1e-5, 1e-4])
    with pytest.raises(IllConditionedFitError):
        fit_puiseux(tr, lam)


def test_reference_scenario_oracle_agreement(pi3_report):
    report, elapsed = pi3_report
    part = report.t
    assert part.relative_errors["kappa"] <= 1e-12
    assert part.relative_errors["sum_derivative"] <= 1e-11
    assert abs(part.sqrt_ratio - 0.5) <= 0.025
    assert abs(part.quotient_growth - 2.0) <= 0.2
    assert report.stability is not None and report.stability.passed
    assert report.eps is None  # curve has no eps
    assert part.kappa_predicted < 0
    assert elapsed < 10.0


def test_flipped_scenario_positive_rate(pi3_neg_report):
    report, _ = pi3_neg_report
    assert report.t.kappa_predicted > 0
    assert report.t.relative_errors["kappa"] <= 1e-12
    assert report.stability.passed


def test_eps_scenario_oracle_agreement(resonant_report):
    report, elapsed = resonant_report
    part = report.eps
    assert part is not None
    assert part.relative_errors["kappa"] <= 1e-12
    assert part.relative_errors["sum_derivative"] <= 1e-11
    assert abs(part.sqrt_ratio - 0.5) <= 0.025
    assert report.t is None
    assert elapsed < 30.0


def test_sum_derivative_oracle_error_below_roundoff_growth(pi3_report, pi3_neg_report,
                                                          resonant_report):
    # The flow engine composes step increments without forming I + D, the
    # default t-family flows fit in one chunk, and the oracle fits the
    # pair's sum recentred at lambda0, so roundoff swamps neither G nor the
    # second-order coefficient (8.5e-14 to 6.2e-13 on the anchors).
    assert pi3_report[0].t.relative_errors["sum_derivative"] <= 1e-11
    assert pi3_neg_report[0].t.relative_errors["sum_derivative"] <= 1e-11
    assert resonant_report[0].eps.relative_errors["sum_derivative"] <= 1e-11


def test_eps_family_sizes_its_steps_once(resonant_scenario, monkeypatch):
    # Sizing the eps flows evaluates A at 17 points; the family's endpoint
    # batch reuses the count that family() sized.
    modes = []
    sized = Scenario.steps
    monkeypatch.setattr(Scenario, "steps",
                        lambda self, mode: modes.append(mode) or sized(self, mode))
    compare(resonant_scenario, mode="eps")
    assert modes == ["eps"]


def test_default_steps_t_agrees_with_128_times_more(pi3_scenario, pi3_report):
    # Two-step-count check of the default: 512 Magnus steps (4 chunks)
    # move neither fitted coefficient by more than 1e-8 relative.
    tol = replace(pi3_scenario.tolerances, steps_t=128 * pi3_scenario.tolerances.steps_t)
    fine = compare(replace(pi3_scenario, tolerances=tol), mode="t").t
    base = pi3_report[0].t
    for name in ("kappa_empirical", "sum_derivative_empirical"):
        ref = getattr(base, name)
        assert abs(getattr(fine, name) - ref) <= 1e-8 * abs(ref), name


@pytest.mark.parametrize("name, grid", [
    ("jordan_pi3", None),
    ("jordan_pi3_neg", None),
    ("jordan_pi3", GridSpec(lo=1e-7, hi=1e-1, count=16)),
], ids=["jordan_pi3", "jordan_pi3_neg", "jordan_pi3-grid-to-1e-1"])
def test_default_steps_t_matches_128_steps_at_roundoff(name, grid):
    # The Magnus error at the default 4 steps is below roundoff on the
    # default grid, so 128 steps move the fitted coefficients only at
    # roundoff, even on a grid reaching s = 1e-1, and leave the stability
    # verdict as it is.
    scenario = load_scenario(SCENARIOS / f"{name}.json")
    if grid is not None:
        scenario = replace(scenario, t_grid=grid)
    base = compare(scenario, mode="t")
    tol = replace(scenario.tolerances, steps_t=128)
    fine = compare(replace(scenario, tolerances=tol), mode="t")
    for attr, bound in (("kappa_empirical", 1e-14), ("sum_derivative_empirical", 1e-11)):
        ref = getattr(fine.t, attr)
        assert abs(getattr(base.t, attr) - ref) <= bound * abs(ref), attr
    assert base.stability.passed == fine.stability.passed


def test_eps_mode_requires_eps(pi3_scenario):
    with pytest.raises(InputError):
        compare(pi3_scenario, mode="eps")


def test_compare_rejects_unknown_mode(pi3_scenario):
    with pytest.raises(ValueError):
        compare(pi3_scenario, mode="sideways")


def test_predicted_branches_match_oracle(pi3_scenario, pi3_report):
    report, _ = pi3_report
    part = report.t
    g0 = pi3_scenario.gamma0
    pair = jordan_pair(g0, part.lambda0)
    coeffs = expansion_t(pair, pi3_scenario.curve.eval_matrix(0.0, 0.0))
    tr = grid_track(pi3_scenario, "t", part)
    errors = []
    for i, s in enumerate(tr.grid):
        p1, p2 = predict_branches(coeffs, part.lambda0, float(s))
        tracked = {tr.branch1[i], tr.branch2[i]}
        err = min(max(abs(p1 - x), abs(p2 - y))
                  for x in tracked for y in tracked if x != y or len(tracked) == 1)
        errors.append(err / s ** 1.5)
    # o(s) remainder: the error measured in units of s^{3/2} stays bounded
    assert max(errors) < 10 * np.median(errors) + 1e-6


@pytest.mark.parametrize("name", ["jordan_pi3", "jordan_pi3_neg"])
def test_predicted_branches_match_oracle_on_the_negative_side(name):
    # The expansion continued to s < 0 (sqrt(s) = i sqrt(|s|)) against the
    # two roots nearest lambda0 of the flow's endpoints at t = -grid: the
    # error stays below |s|^{3/2} (measured 0.36-0.40 |s|^{3/2}).
    scenario = load_scenario(SCENARIOS / f"{name}.json")
    fam = family(scenario, "t")
    lam = fam.pair.lambda0
    grid = -scenario.grid("t")
    for s, roots in zip(grid, spectra(family_endpoints(scenario, "t", grid), lam)[1]):
        x, y = sorted(roots, key=lambda z: abs(z - lam))[:2]
        p1, p2 = predict_branches(fam.coeffs, lam, float(s))
        err = min(max(abs(p1 - x), abs(p2 - y)), max(abs(p1 - y), abs(p2 - x)))
        assert err <= abs(s) ** 1.5, s


def test_sum_slope_stable_under_grid_halving(pi3_report, pi3_halved_report):
    full, _ = pi3_report
    halved, _ = pi3_halved_report
    a = full.t.sum_derivative_empirical
    b = halved.t.sum_derivative_empirical
    assert abs(a - b) <= 1e-5 * abs(a)


def test_branch_quotient_diverges(pi3_report):
    report, _ = pi3_report
    # one-sided difference quotient doubles when s shrinks by four
    assert abs(report.t.quotient_growth - 2.0) <= 0.2


def _gauge_scenario(tmp_path, c, k=1):
    """resonant_eps_gauge.json with the rotation c sin(2 pi k t) in place of
    0.5 sin(2 pi t), written under ``tmp_path``."""
    text = (SCENARIOS / "resonant_eps_gauge.json").read_text()
    text = text.replace("0.5*sin(", f"{c!r}*sin(")
    text = text.replace("3.141592653589793*cos", f"{2 * np.pi * k * c!r}*cos")
    text = text.replace("6.283185307179586*t", f"{2 * np.pi * k!r}*t")
    path = tmp_path / f"gauge_{k}_{c!r}.json"
    path.write_text(text)
    return path


@pytest.mark.parametrize("c", [0.25, 0.5, 1.0, 2.0])
def test_gauge_rotated_resonant_scenario_keeps_predictions_and_passes(
        c, resonant_scenario, tmp_path, capsys):
    # resonant_eps_gauge is resonant_eps under the time-periodic rotation
    # R(phi) of the (q1, p1) plane with phi = c sin(2 pi t), shipped with
    # c = 0.5: A' = phi' diag(1, 0, 1, 0) + R A R^T, so G'(t) = R(phi(t)) G(t).
    # As phi(0) = phi(T) = 0, G'(T, eps) = G(T, eps) for every eps and the
    # generator B is unchanged, while A'(t, 0) depends on t.  At c = 2 the
    # predictions hold 1e-12 at the step count sized from A (468 steps).
    path = _gauge_scenario(tmp_path, c)
    gauge = load_scenario(path)
    A0 = gauge.curve.eval_matrix_batch(np.linspace(0.0, 1.0, 9), 0.0)
    assert np.max(np.ptp(A0, axis=0)) > 1.0
    want = family(resonant_scenario, "eps").coeffs
    got = family(gauge, "eps").coeffs
    assert abs(got.kappa - want.kappa) <= 1e-12 * abs(want.kappa)
    assert abs(got.sum_derivative - want.sum_derivative) <= 1e-12 * abs(want.sum_derivative)
    assert main(["verify", str(path), "--mode", "eps"]) == 0
    assert json.loads(capsys.readouterr().out)["max_relative_error"] < 1e-5


def test_fast_gauge_passes_at_the_sized_step_count(tmp_path, capsys):
    # At c = 4 the count sized from A(t, 0) is 886, where the base's
    # discriminant, 3.3e-13, is above cluster^2/4 = 2.5e-13; the steps^-6
    # law predicts 927, which leaves 2.53e-13, and a second rerun lands at
    # 929.
    path = _gauge_scenario(tmp_path, 4.0)
    assert load_scenario(path).steps("eps") == 886
    assert verify.eps_base(load_scenario(path))[0] == 929
    assert main(["verify", str(path), "--mode", "eps"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("k, c, steps", [(8, 0.05, 340), (16, 0.02, 512), (32, 0.01, 814)])
def test_gauge_at_high_frequency_is_refined_until_resolved(k, c, steps, tmp_path, capsys):
    # A(t, 0) rotates k times over [0, T] with a small amplitude, so its row
    # sums, and the count sized from them (133, 116, 116), stay small while
    # the base needs more steps to resolve its double multiplier; the
    # discriminant check finds that from the base alone.
    path = _gauge_scenario(tmp_path, c, k=k)
    assert verify.eps_base(load_scenario(path))[0] == steps
    assert main(["verify", str(path), "--mode", "eps"]) == 0
    assert json.loads(capsys.readouterr().out)["max_relative_error"] < 1e-5


def test_refined_steps_past_the_cap_stop_before_that_flow(tmp_path, monkeypatch):
    # The k = 8 gauge starts at 133 steps and is refined to 340; under a cap
    # of 300 the refinement is an input error, and only the first flow ran.
    counts = []
    flows = verify.endpoints
    monkeypatch.setattr(verify, "endpoints",
                        lambda curve, g, T, steps, *rest, **kw: counts.append(steps)
                        or flows(curve, g, T, steps, *rest, **kw))
    monkeypatch.setattr(verify, "MAX_STEPS", 300)
    path = _gauge_scenario(tmp_path, 0.05, k=8)
    with pytest.raises(InputError, match="needs 340 steps .* above the cap of 300$"):
        family(load_scenario(path), "eps")
    assert counts == [133]


# The oracle_eps benchmark pool's recipe: resonant_eps's base with a definite
# coupling D, either eps (D + 0.3 sin t) or sin(eps D) (1 + 0.3 cos t).
_RESONANT_BASE = {(0, 0): "0.4", (1, 1): "0.4", (0, 3): "1.0471975511965976",
                  (1, 2): "-1.0471975511965976"}


def _pool_scenario(seed, linear):
    rng = random.Random(seed)
    sign = rng.choice((-1.0, 1.0))
    entries = {}
    for i in range(4):
        for j in range(i, 4):
            d = round(sign * rng.uniform(0.5, 1.5) if i == j else rng.uniform(-0.15, 0.15), 6)
            text = (f"eps*({d!r} + 0.3*sin(t))" if linear
                    else f"sin(eps*({d!r}))*(1 + 0.3*cos(t))")
            base = _RESONANT_BASE.get((i, j))
            entries[f"{i},{j}"] = text if base is None else f"{base} + {text}"
    doc = json.loads((SCENARIOS / "resonant_eps.json").read_text())
    doc["curve"]["entries"] = entries
    return parse_scenario(doc)


def _boole_reference(scenario):
    """Boole's expansion of the eps family at a multiple of 4 at least 32
    times the family's own step count."""
    return boole_eps_coefficients(scenario, 4 * math.ceil(32 * verify.eps_base(scenario)[0] / 4))


@pytest.mark.parametrize("name", ["resonant_eps", "resonant_eps_gauge", "pool-linear-1",
                                  "pool-nonlinear-2", "pool-linear-3"])
def test_eps_predictions_match_boole_at_32_times_the_steps(name):
    # B from the derivative slot at the sized count (16 steps where A(t, 0)
    # is constant, 153 on the gauge) against B from Boole's rule at 32 times
    # the steps: kappa and the sum derivative within 1e-13 (measured 3.3e-15
    # and 3.5e-15 on resonant_eps, 6.8e-14 and 7.4e-14 on the gauge, at most
    # 7.3e-15 on the pool curves; Boole's rule at 52 steps read 1.3e-14 to
    # 2.4e-14 on them).
    if name.startswith("pool"):
        _, kind, seed = name.split("-")
        scenario = _pool_scenario(int(seed), kind == "linear")
    else:
        scenario = load_scenario(SCENARIOS / f"{name}.json")
    got = family(scenario, "eps").coeffs
    want = _boole_reference(scenario)
    assert abs(got.kappa - want.kappa) <= 1e-13 * abs(want.kappa)
    assert abs(got.sum_derivative - want.sum_derivative) <= 1e-13 * abs(want.sum_derivative)


def test_fast_coupling_no_worse_than_boole_at_the_old_count():
    # eps (1 + sin(20 t)) on resonant_eps's base varies fast in t, yet
    # A(t, 0) is constant, so the slot runs 16 steps where Boole's rule ran
    # 52.  Against Boole at 32 times the steps the slot is off by 5.7e-8,
    # Boole's rule at 52 steps by 2.1e-7.
    doc = json.loads((SCENARIOS / "resonant_eps.json").read_text().replace(
        "eps*(1 + 0.3*sin(t))", "eps*(1 + sin(20*t))"))
    scenario = parse_scenario(doc)
    assert scenario.steps("eps") == 16
    got = family(scenario, "eps").coeffs
    old = boole_eps_coefficients(scenario, 52)
    want = _boole_reference(scenario)
    for attr in ("kappa", "sum_derivative"):
        ref = getattr(want, attr)
        assert abs(getattr(got, attr) - ref) <= abs(getattr(old, attr) - ref), attr


@pytest.mark.parametrize("text, constant", [
    ("1.0471975511965976", True),
    ("0.4 + eps*(1 + 0.3*sin(t))", True),
    ("sin(3*eps)*(1 + 0.3*cos(t))", True),
    ("0.2*exp(eps*t) - 0.2", True),
    ("sqrt((t - 0.51)*(t - 0.55))*0", True),
    ("(0.29382249538221383 + eps)*cos(6.283185307179586*t)", False),
    ("0*t + t", False),
], ids=["number", "linear-in-eps", "sin-of-eps", "exp-of-eps-t", "product-with-0", "periodic",
        "t-left-after-folding"])
def test_constant_at_eps0_is_read_from_the_trees(text, constant):
    doc = json.loads((SCENARIOS / "resonant_eps.json").read_text())
    doc["curve"]["entries"]["0,1"] = text
    scenario = parse_scenario(doc)
    assert scenario.curve.constant_at_eps0() is constant
    A = scenario.curve.eval_matrix_batch(np.linspace(0.0, 1.0, 17), 0.0)
    beta = np.abs(A).sum(axis=-1).max()
    assert scenario.steps("eps") == math.ceil(max(16.0, beta / (0.12 if constant else 0.03)))


def test_sampled_constant_trap_is_sized_at_the_fine_rate():
    # cos(100.53... t) = cos(32 pi t) takes the value 1 at all 17 sizing
    # samples t = 0, 1/16, ..., 1.  Sized as constant it would run 16 steps;
    # at h beta <= 0.03 it runs 82.
    doc = json.loads((SCENARIOS / "resonant_eps.json").read_text())
    doc["curve"]["entries"]["0,1"] = "0.2*eps*t + cos(100.53096491487338*t)"
    scenario = parse_scenario(doc)
    A = scenario.curve.eval_matrix_batch(np.linspace(0.0, 1.0, 17), 0.0)
    assert np.ptp(A, axis=0).max() < 1e-12
    assert not scenario.curve.constant_at_eps0()
    assert scenario.steps("eps") == 82


def test_asymmetric_generator_is_a_corrupted_solution(monkeypatch, capsys):
    # J4^-1 dG G^-1 is symmetric up to roundoff (1.2e-16 of max|B| on
    # resonant_eps).  A slot endpoint off by 1e-3 in one entry makes B
    # asymmetric far beyond 1e-6 of max|B|; a NaN one too.  Each is one typed
    # error line, exit 2.
    flows = verify.endpoints

    for bad in (1e-3, np.nan):
        def corrupted(*args, **kwargs):
            ends, drifts, d_end = flows(*args, **kwargs)
            d_end = d_end.copy()
            d_end[0, 1] += bad
            return ends, drifts, d_end

        monkeypatch.setattr(verify, "endpoints", corrupted)
        assert main(["verify", str(SCENARIOS / "resonant_eps.json"), "--mode", "eps"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("error: CorruptedSolutionError: the eps-derivative generator's "
                              "asymmetry ")


def test_base_without_double_multiplier_is_reported_as_such(tmp_path, capsys):
    # A p1^2 term in the base detunes its two rotations: the nearest
    # multipliers stay 0.49 apart however many steps are taken.
    doc = json.loads((SCENARIOS / "resonant_eps.json").read_text())
    doc["curve"]["entries"]["2,2"] = "0.3 + eps*(1 + 0.3*sin(t))"
    path = tmp_path / "detuned.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path), "--mode", "eps"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: NoDoubleMultiplierError: endpoint at eps = 0 has no "
                          "double unit-circle multiplier pair")


@pytest.mark.parametrize("name, mode", [
    ("jordan_pi3", "t"), ("jordan_pi3_neg", "t"),
    ("resonant_eps", "eps"), ("resonant_eps_gauge", "eps"),
])
def test_root_free_oracle_agrees_with_the_symmetric_fit(name, mode):
    # Two oracles that share only the endpoint batch: the traces' fit of
    # Delta and e1 (no root) and the roots' fit of (z1 - z2)^2 and z1 + z2.
    scenario = load_scenario(SCENARIOS / f"{name}.json")
    part = getattr(compare(scenario, mode=mode), mode)
    kappa, sum_derivative = discriminant_oracle(scenario, mode, part.lambda0)
    assert abs(kappa - part.kappa_empirical) <= 1e-11 * abs(part.kappa_empirical)
    assert (abs(sum_derivative - part.sum_derivative_empirical)
            <= 1e-11 * abs(part.sum_derivative_empirical))


def test_one_engine_call_and_one_quartic_batch_per_family(monkeypatch, capsys):
    # verify makes one flow._flows call per family (the eps family's base
    # rides in it) over the eight points of _X, and solves 8 quartics for
    # each family; sweep --mode eps flows its base and grid in one call too.
    calls = {"flows": 0, "roots": 0}
    flows, roots = flow._flows, verify.quartic_roots
    sizes = []

    def counted_flows(*args, **kwargs):
        calls["flows"] += 1
        out = flows(*args, **kwargs)
        sizes.append(len(out[1]))
        return out

    def counted_roots(*args):
        calls["roots"] += 1
        return roots(*args)

    monkeypatch.setattr(flow, "_flows", counted_flows)
    monkeypatch.setattr(verify, "quartic_roots", counted_roots)
    for argv, want in ((["verify", "jordan_pi3.json", "--mode", "t"], {"flows": 1, "roots": 8}),
                       (["verify", "resonant_eps.json", "--mode", "eps"], {"flows": 1, "roots": 8}),
                       (["sweep", "resonant_eps.json", "--mode", "eps"], {"flows": 1, "roots": 0})):
        calls.update(flows=0, roots=0)
        assert main([argv[0], str(SCENARIOS / argv[1]), *argv[2:]]) == 0
        assert calls == want, argv
    # 8 endpoints for t; the eps = 0 base and 8 for eps; the base and 16 for sweep.
    assert sizes == [8, 9, 17]
    capsys.readouterr()


@pytest.mark.parametrize("grid", ["1e-300,1e-299,4", "1e-20,1e-18,4"])
def test_grid_too_small_to_resolve_the_pair_is_an_ill_conditioned_fit(grid, capsys):
    # At s = 1e-299 the flows' endpoints round to the initial matrix; at
    # 1e-18 (z1 - z2)^2 still shows the splitting but z1 + z2 - 2 lambda0
    # does not rise above roundoff.  Both are one typed error, without a
    # numpy warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["verify", str(SCENARIOS / "jordan_pi3.json"), "--mode", "t", "--grid", grid])
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: IllConditionedFitError: ") and err.count("\n") == 1
    assert "too small to resolve the pair" in err


def test_ambiguity_messages_print_plain_floats(capsys):
    # At eps up to 100 a third multiplier crowds the pair; the parameter is
    # printed as a float, not as a numpy repr, by the oracle and by track.
    assert main(["verify", str(SCENARIOS / "resonant_eps.json"), "--mode", "eps",
                 "--grid", "1e-7,100,16"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: TrackingAmbiguityError: ") and "np.float64(" not in err
    assert err.rstrip().endswith("at parameter 50.0")
    lam = np.exp(1j * np.pi / 3)
    crowded = np.diag([lam + 1e-3, lam - 1e-3, lam + 1.9e-3, np.conj(lam)])
    with pytest.raises(TrackingAmbiguityError) as info:
        track(*spectra(crowded[None], lam), lam, np.array([1e-6]))
    assert "np.float64(" not in str(info.value)
    assert str(info.value).endswith("at parameter 1e-06")
