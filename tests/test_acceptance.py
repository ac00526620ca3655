"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s``; captured
output is replayed on failure).  Expensive end-to-end comparisons are
shared session fixtures, so their wall time is measured once where the
work happens.
"""

import time

import numpy as np
import pytest

from kreinsplit import (
    J4,
    charpoly,
    detect_double_unitary,
    endpoint,
    expansion_t,
    exterior_power,
    inner,
    integrate,
    jordan_pair,
    ladder,
    make_jordan_symplectic,
    pair_from_vectors,
    quartic_roots,
)
from kreinsplit.errors import NotAJordanBlockError

from conftest import COUPLINGS, THETAS
from oracles import (
    det_cofactor,
    expm_taylor,
    krein_pairings,
    krein_pairings_ok,
    ladder_closed_forms,
    perturbation_hamiltonian,
    random_symmetric2,
    random_symmetric4,
    to_absolute,
)


def _report(number, label, ok, detail):
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'} - {label} ({detail})")
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_1_exterior_powers():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_det = 0.0
    for _ in range(100):
        A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        ref = det_cofactor(A)
        worst_det = max(worst_det, abs(exterior_power(4, 0, A) - ref) / abs(ref))
    worst_center = 0.0
    for _ in range(20):
        M = rng.normal(size=(4, 4))
        pa = to_absolute(charpoly(M, 0.4 + 0.7j), 0.4 + 0.7j)
        pb = to_absolute(charpoly(M, -0.9 - 0.3j), -0.9 - 0.3j)
        scale = max(max(abs(c) for c in pa), 1.0)
        worst_center = max(worst_center,
                           max(abs(a - b) for a, b in zip(pa, pb)) / scale)
    elapsed = time.perf_counter() - start
    ok = worst_det <= 1e-12 and worst_center <= 1e-12 and elapsed < 1.0
    _report(1, "exterior powers vs cofactor determinant, center independence",
            ok, f"det rel {worst_det:.2e}, recentre rel {worst_center:.2e}, {elapsed:.2f}s")


def test_criterion_2_pairing_relations():
    start = time.perf_counter()
    # Couplings restricted to nonzero trace: the traceless coupling listed
    # alongside these produces a semisimple double multiplier (no chain),
    # which the extractor must reject rather than measure.
    count = 0
    worst = 0.0
    for theta in THETAS:
        for C in COUPLINGS:
            M = make_jordan_symplectic(theta, C)
            lam = detect_double_unitary(M)
            pair = jordan_pair(M, lam)
            d = krein_pairings(pair)
            residuals = [abs(d[k]) for k in ("pair_11", "pair_1c1", "pair_1c2",
                                             "pair_2c1", "pair_2c2", "pair_c1c1")]
            residuals.append(abs(pair.form_21.imag))
            residuals.append(abs(pair.form_12 + pair.form_21))
            residuals.append(abs(pair.form_22.real))
            worst = max(worst, max(residuals))
            assert krein_pairings_ok(pair, tol=1e-8)
            count += 1
    with pytest.raises(NotAJordanBlockError):
        jordan_pair(make_jordan_symplectic(np.pi / 3, np.diag([1.0, -1.0])),
                    np.exp(1j * np.pi / 3))
    elapsed = time.perf_counter() - start
    ok = count >= 10 and worst <= 1e-8 and elapsed < 1.0
    _report(2, f"pairing relations on {count} generated chain scenarios",
            ok, f"worst residual {worst:.2e}, {elapsed:.2f}s")


def test_criterion_3_dual_path_ladder():
    start = time.perf_counter()
    rng = np.random.default_rng(103)
    worst = 0.0
    produced = 0
    while produced < 20:
        theta = rng.uniform(0.35, np.pi - 0.35)
        C = random_symmetric2(rng)
        if abs(np.trace(C)) < 0.3:
            continue
        M = make_jordan_symplectic(theta, C)
        lam = detect_double_unitary(M)
        if lam is None:
            continue
        pair = jordan_pair(M, lam)
        A0 = random_symmetric4(rng)
        if abs(inner(A0 @ pair.eta1, pair.eta1)) < 1e-2:
            continue
        lad = ladder(M, J4 @ A0 @ M, lam)
        c31, c21 = ladder_closed_forms(pair, A0)
        worst = max(worst,
                    abs(lad.c31 - c31) / abs(c31),
                    abs(lad.c21 - c21) / abs(c21))
        produced += 1
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 1.0
    _report(3, "first-order coefficients: exterior powers vs closed forms",
            ok, f"worst rel {worst:.2e} over 20 scenarios, {elapsed:.2f}s")


def test_criterion_4_time_family_end_to_end(pi3_report):
    report, elapsed = pi3_report
    part = report.t
    kappa_err = part.relative_errors["kappa"]
    sum_err = part.relative_errors["sum_derivative"]
    ratio_err = abs(part.sqrt_ratio - 0.5) / 0.5
    ok = kappa_err <= 1e-4 and sum_err <= 1e-4 and ratio_err <= 0.05 and elapsed < 10.0
    _report(4, "time-family oracle agreement on the reference scenario",
            ok, f"kappa rel {kappa_err:.2e}, sum rel {sum_err:.2e}, "
                f"sqrt-ratio dev {ratio_err:.2%}, {elapsed:.1f}s")


def test_criterion_5_eps_family_end_to_end(resonant_scenario, resonant_report):
    report, elapsed = resonant_report
    start = time.perf_counter()
    part = report.eps
    kappa_err = part.relative_errors["kappa"]

    # Bilinear identities between the effective generator, from Boole's rule
    # at a fixed 52 steps, and the transported chain.  The right-hand sides
    # use a separate flow solution on a different (odd) grid, so the two
    # quadrature routes share no arithmetic.
    curve = resonant_scenario.curve
    sol0 = integrate(curve, np.eye(4), resonant_scenario.T, 52, 0.0)
    G_T = endpoint(sol0)
    pair = jordan_pair(G_T, detect_double_unitary(G_T))
    B = perturbation_hamiltonian(curve, sol0)

    sol_alt = integrate(curve, np.eye(4), resonant_scenario.T, 1537, 0.0)
    Ap = curve.d_eps_matrix_batch(sol_alt.ts, 0.0)
    e1t = sol_alt.gammas @ pair.eta1
    e2t = sol_alt.gammas @ pair.eta2
    h = sol_alt.ts[1] - sol_alt.ts[0]
    n = sol_alt.ts.size - 1
    m = n if n % 2 == 0 else n - 1
    weights = np.ones(m + 1)
    weights[1:m:2] = 4.0
    weights[2:m:2] = 2.0

    def quad(values):
        values = np.asarray(values)
        body = (h / 3.0) * np.dot(weights, values[:m + 1])
        if m == n:
            return body
        return body + (h / 2.0) * (values[n - 1] + values[n])

    pairs = {
        "11": (inner(B @ pair.eta1, pair.eta1),
               quad([inner(Ap[i] @ e1t[i], e1t[i]) for i in range(n + 1)])),
        "12": (inner(B @ pair.eta1, pair.eta2),
               quad([inner(Ap[i] @ e1t[i], e2t[i] - e1t[i]) for i in range(n + 1)])),
        "21": (inner(B @ pair.eta2, pair.eta1),
               quad([inner(Ap[i] @ (e2t[i] - e1t[i]), e1t[i]) for i in range(n + 1)])),
    }
    worst_identity = max(abs(lhs - rhs) / abs(rhs) for lhs, rhs in pairs.values())
    elapsed_total = elapsed + (time.perf_counter() - start)
    ok = kappa_err <= 1e-4 and worst_identity <= 1e-6 and elapsed_total < 30.0
    _report(5, "eps-family oracle agreement and generator identities",
            ok, f"kappa rel {kappa_err:.2e}, identity rel {worst_identity:.2e}, "
                f"{elapsed_total:.1f}s")


def test_criterion_6_stability_dichotomy(pi3_scenario, pi3_neg_scenario):
    start = time.perf_counter()
    results = {}
    for name, scenario in (("negative", pi3_scenario), ("positive", pi3_neg_scenario)):
        gamma0 = scenario.gamma0
        lam = detect_double_unitary(gamma0)
        pair = jordan_pair(gamma0, lam)
        kappa = expansion_t(pair, scenario.curve.eval_matrix(0.0, 0.0)).kappa
        plus = quartic_roots(charpoly(endpoint(
            integrate(scenario.curve, gamma0, 1e-4, 10000, 0.0)), lam), lam)
        minus = quartic_roots(charpoly(endpoint(
            integrate(scenario.curve, gamma0, -1e-4, 10000, 0.0)), lam), lam)
        unstable_side, stable_side = (plus, minus) if kappa > 0 else (minus, plus)
        escapes = float(np.max(np.abs(unstable_side))) > 1.0 + 1e-6
        circle_dev = float(np.max(np.abs(np.abs(stable_side) - 1.0)))
        seps = [abs(stable_side[i] - stable_side[j])
                for i in range(4) for j in range(i + 1, 4)]
        results[name] = (kappa, escapes, circle_dev <= 1e-6, min(seps) > 1e-3)
    elapsed = time.perf_counter() - start
    ok = (results["negative"][0] < 0 and results["positive"][0] > 0
          and all(all(r[1:]) for r in results.values()) and elapsed < 5.0)
    _report(6, "strong-stability dichotomy at +-1e-4",
            ok, f"kappa<0: {results['negative']}, kappa>0: {results['positive']}, "
                f"{elapsed:.1f}s")


def test_criterion_7_differentiability_contrast(pi3_report, pi3_halved_report):
    full, _ = pi3_report
    halved, _ = pi3_halved_report
    a = full.t.sum_derivative_empirical
    b = halved.t.sum_derivative_empirical
    slope_change = abs(a - b) / abs(a)
    growth_dev = abs(full.t.quotient_growth - 2.0) / 2.0
    ok = slope_change <= 1e-5 and growth_dev <= 0.10
    _report(7, "branch sum slope stable, individual quotient divergent",
            ok, f"slope change {slope_change:.2e}, quotient growth "
                f"{full.t.quotient_growth:.4f}")


def test_criterion_8_gauge_invariance():
    rng = np.random.default_rng(108)
    M = make_jordan_symplectic(np.pi / 3, np.eye(2))
    pair = jordan_pair(M, detect_double_unitary(M))
    A0 = random_symmetric4(rng)
    base = expansion_t(pair, A0)
    worst = 0.0
    done = 0
    while done < 20:
        c = rng.normal() + 1j * rng.normal()
        d = rng.normal() + 1j * rng.normal()
        if abs(c) < 0.1:
            continue
        moved = pair_from_vectors(pair.lambda0, c * pair.eta1,
                                  c * pair.eta2 + d * pair.eta1)
        co = expansion_t(moved, A0)
        worst = max(worst,
                    abs(co.kappa - base.kappa) / abs(base.kappa),
                    abs(co.a ** 2 - base.a ** 2) / abs(base.a ** 2),
                    abs(co.second_order - base.second_order) / abs(base.second_order))
        done += 1
    ok = worst <= 1e-9
    _report(8, "gauge invariance over 20 random chain rescalings",
            ok, f"worst rel change {worst:.2e}")


def test_criterion_9_flow_quality(pi3_scenario, pi3_neg_scenario, resonant_scenario):
    # The Magnus step is sixth order: on the t-dependent curves, halving it
    # divides the endpoint's error by about 64.  resonant_eps's A(t, 0) is
    # constant, where every step is exact, so its endpoint is held to the
    # matrix exponential instead.
    worst_drift = 0.0
    ratios = {}
    for scenario in (pi3_scenario, pi3_neg_scenario, resonant_scenario):
        gamma0 = scenario.gamma0
        T = scenario.T
        sol = integrate(scenario.curve, gamma0, T, int(1000 * T), 0.0)
        worst_drift = max(worst_drift, sol.drift)
    for scenario in (pi3_scenario, pi3_neg_scenario):
        e1, e2, e3 = (endpoint(integrate(scenario.curve, scenario.gamma0, scenario.T, steps, 0.0))
                      for steps in (8, 16, 32))
        ratios[scenario.name] = np.max(np.abs(e1 - e2)) / np.max(np.abs(e2 - e3))
    A = resonant_scenario.curve.eval_matrix(0.0, 0.0)
    exact = expm_taylor(resonant_scenario.T * J4 @ A) @ resonant_scenario.gamma0
    const_err = max(
        np.max(np.abs(endpoint(integrate(resonant_scenario.curve, resonant_scenario.gamma0,
                                         resonant_scenario.T, steps, 0.0)) - exact))
        for steps in (8, 16, 32))
    ok = (worst_drift <= 1e-8 and all(48.0 <= r <= 80.0 for r in ratios.values())
          and const_err <= 1e-13)
    _report(9, "symplectic drift and sixth-order step ratio on the corpus",
            ok, f"drift {worst_drift:.2e}, ratios " +
                ", ".join(f"{k}={v:.1f}" for k, v in ratios.items()) +
                f", constant curve vs expm {const_err:.2e}")
