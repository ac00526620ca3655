import numpy as np
import pytest

from kreinsplit import (
    J4,
    SymmetricCurve,
    endpoint,
    integrate,
    is_symplectic,
    make_jordan_symplectic,
)
from kreinsplit.errors import (
    CorruptedSolutionError,
    ExprDomainError,
    NonConformingFlowError,
    NonSymplecticError,
)
from kreinsplit.flow import (
    _CHUNK,
    _GAUSS,
    FlowSolution,
    _expm1,
    _halvings,
    _hB_workspace,
    _scaled_j4a,
    endpoints,
)
from kreinsplit.spectral import eigenvalues

from oracles import (
    _j4,
    best_match_distance,
    expm1_decimal,
    expm1_horner,
    expm_taylor,
    flows_allocating,
    magnus_reference,
    perturbation_hamiltonian,
    random_symmetric4,
    rk4_reference,
)

SMOOTH_ENTRIES = {
    "0,0": "1 + 0.4*sin(t)",
    "1,1": "1 - 0.3*t",
    "2,2": "1 + 0.2*t^2",
    "3,3": "1",
    "0,1": "0.5*sin(t)",
    "0,2": "0.25*t",
    "1,3": "0.1*(1 - cos(t))",
}


def smooth_curve():
    return SymmetricCurve.from_strings(SMOOTH_ENTRIES)


def constant_curve(S):
    return SymmetricCurve.from_strings(
        {f"{i},{j}": repr(float(S[i, j])) for i in range(4) for j in range(i, 4)})


def test_zero_curve_is_constant():
    sol = integrate(SymmetricCurve.from_strings({}), np.eye(4), 1.0, 16)
    assert sol.drift == 0.0
    assert np.array_equal(endpoint(sol), np.eye(4))
    assert np.array_equal(sol.gammas[7], np.eye(4))


def test_initial_condition_stored_exactly():
    g0 = make_jordan_symplectic(np.pi / 3, np.eye(2))
    sol = integrate(smooth_curve(), g0, 0.5, 64)
    assert np.array_equal(sol.gammas[0], g0)


def test_constant_curve_matches_matrix_exponential():
    # A Magnus step is exp(h J4 A) when A is constant, so any step count
    # gives the matrix exponential to roundoff (measured 5.8e-15).
    rng = np.random.default_rng(30)
    S = random_symmetric4(rng)
    ref = expm_taylor(J4 @ S)
    for steps in (2, 16, 1000):
        sol = integrate(constant_curve(S), np.eye(4), 1.0, steps)
        assert np.max(np.abs(endpoint(sol) - ref)) <= 1e-13, steps


def test_identity_coefficient_gives_double_rotation():
    theta = 0.8
    curve = SymmetricCurve.from_strings({f"{i},{i}": "1" for i in range(4)})
    sol = integrate(curve, np.eye(4), theta, 500)
    evs = eigenvalues(endpoint(sol))
    want = [np.exp(1j * theta)] * 2 + [np.exp(-1j * theta)] * 2
    assert best_match_distance(evs, want) < 1e-7


def test_endpoint_symplectic_within_drift():
    sol = integrate(smooth_curve(), make_jordan_symplectic(np.pi / 3, np.eye(2)),
                    1.0, 1000)
    assert is_symplectic(endpoint(sol), max(10 * sol.drift, 1e-14))


def test_semigroup_split_integration():
    # Second leg uses the time-shifted curve so both runs share the clock.
    shifted = {k: v.replace("t", "(t + 0.5)") for k, v in SMOOTH_ENTRIES.items()}
    g0 = make_jordan_symplectic(np.pi / 3, np.eye(2))
    full = endpoint(integrate(smooth_curve(), g0, 1.0, 1000))
    half = endpoint(integrate(smooth_curve(), g0, 0.5, 500))
    two = endpoint(integrate(SymmetricCurve.from_strings(shifted), half, 0.5, 500))
    assert np.max(np.abs(two - full)) < 1e-8


def test_rejects_non_symplectic_start():
    with pytest.raises(NonSymplecticError):
        integrate(smooth_curve(), 2 * np.eye(4), 1.0, 100)


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        integrate(smooth_curve(), np.eye(4), 1.0, 1)
    with pytest.raises(ValueError):
        integrate(smooth_curve(), np.eye(4), 0.0, 100)


def test_expression_domain_error_surfaces():
    curve = SymmetricCurve.from_strings({"0,0": "sqrt(0.5 - t)"})
    with pytest.raises(ExprDomainError):
        integrate(curve, np.eye(4), 1.0, 100)


def test_backward_integration():
    g0 = make_jordan_symplectic(np.pi / 3, np.eye(2))
    sol = integrate(smooth_curve(), g0, -1e-2, 100)
    assert sol.ts[-1] == -1e-2
    assert is_symplectic(endpoint(sol), 1e-10)


def test_realness_of_grid():
    sol = integrate(smooth_curve(), np.eye(4), 1.0, 64)
    assert sol.gammas.dtype == np.float64


def test_drift_within_tolerance_at_thousand_steps():
    sol = integrate(smooth_curve(), make_jordan_symplectic(np.pi / 3, np.eye(2)),
                    1.0, 1000)
    assert sol.drift <= 1e-8
    assert sol.conforming


def test_sixth_order_convergence():
    # Halving the step divides a sixth-order error by 64.  At 8, 16 and 32
    # steps the differences (2e-9 and 3e-11) sit far above roundoff.
    g0 = make_jordan_symplectic(np.pi / 3, np.eye(2))
    e1 = endpoint(integrate(smooth_curve(), g0, 1.0, 8))
    e2 = endpoint(integrate(smooth_curve(), g0, 1.0, 16))
    e3 = endpoint(integrate(smooth_curve(), g0, 1.0, 32))
    ratio = np.max(np.abs(e1 - e2)) / np.max(np.abs(e2 - e3))
    assert 48.0 <= ratio <= 80.0


def test_perturbation_generator_eps_free_curve_is_zero():
    sol = integrate(smooth_curve(), np.eye(4), 1.0, 100)
    assert np.array_equal(perturbation_hamiltonian(smooth_curve(), sol),
                          np.zeros((4, 4)))


def test_perturbation_generator_linear_autonomous():
    rng = np.random.default_rng(31)
    A1 = random_symmetric4(rng)
    entries = {f"{i},{j}": f"eps*({float(A1[i, j])!r})"
               for i in range(4) for j in range(i, 4)}
    curve = SymmetricCurve.from_strings(entries)
    for steps in (100, 104):
        sol = integrate(curve, np.eye(4), 1.3, steps, eps=0.0)
        B = perturbation_hamiltonian(curve, sol)
        assert np.max(np.abs(B - 1.3 * A1)) < 1e-12
    # Boole's rule works on panels of four steps.
    with pytest.raises(ValueError, match="divisible by 4, got 101"):
        perturbation_hamiltonian(curve, integrate(curve, np.eye(4), 1.3, 101, eps=0.0))


def test_perturbation_generator_is_symmetric():
    sc_entries = dict(SMOOTH_ENTRIES)
    sc_entries["0,0"] = "1 + 0.4*sin(t) + eps*cos(t)"
    sc_entries["1,2"] = "eps*(1 - t)"
    curve = SymmetricCurve.from_strings(sc_entries)
    sol = integrate(curve, np.eye(4), 1.0, 200)
    B = perturbation_hamiltonian(curve, sol)
    assert np.array_equal(B, B.T)


def test_perturbation_generator_requires_identity_start():
    g0 = make_jordan_symplectic(np.pi / 3, np.eye(2))
    sol = integrate(smooth_curve(), g0, 1.0, 100)
    with pytest.raises(ValueError):
        perturbation_hamiltonian(smooth_curve(), sol)


def test_perturbation_generator_rejects_corrupt_solution():
    sol = integrate(smooth_curve(), np.eye(4), 1.0, 100)
    bad_gammas = sol.gammas.copy()
    bad_gammas[-1] = 0.0
    bad = FlowSolution(ts=sol.ts, gammas=bad_gammas, eps=0.0,
                       drift=sol.drift, drift_tol=sol.drift_tol)
    with pytest.raises(CorruptedSolutionError):
        perturbation_hamiltonian(smooth_curve(), bad)


def test_derivative_generator_matches_finite_difference(resonant_scenario):
    # The quadrature result must act as the actual eps-derivative generator
    # of the endpoint family: dG/deps = J4 B G.
    curve = resonant_scenario.curve
    T = resonant_scenario.T
    sol0 = integrate(curve, np.eye(4), T, 1500, 0.0)
    B = perturbation_hamiltonian(curve, sol0)
    h = 1e-6
    Gp = endpoint(integrate(curve, np.eye(4), T, 1500, +h))
    Gm = endpoint(integrate(curve, np.eye(4), T, 1500, -h))
    dG = (Gp - Gm) / (2 * h)
    assert np.max(np.abs(dG - J4 @ B @ endpoint(sol0))) < 1e-7


def _generator_error(scenario, steps, ref_steps=4096):
    """Largest entry of |B - B_ref| over that of |B_ref|, with B_ref from
    ``ref_steps`` steps."""
    B, ref = (perturbation_hamiltonian(scenario.curve,
                                       integrate(scenario.curve, np.eye(4), scenario.T, n, 0.0))
              for n in (steps, ref_steps))
    return np.max(np.abs(B - ref)) / np.max(np.abs(ref))


def test_perturbation_generator_is_sixth_order(resonant_scenario):
    # Boole's rule: halving the step divides B's error by about 64, as it
    # does the flow's (criterion 9).  At 16, 32 and 64 steps the errors are
    # 2.9e-9, 4.6e-11 and 7.1e-13.
    e16, e32, e64 = (_generator_error(resonant_scenario, n) for n in (16, 32, 64))
    assert 48.0 <= e16 / e32 <= 80.0
    assert 48.0 <= e32 / e64 <= 80.0


def _slot_generator_error(scenario, steps, ref_steps=4096):
    """Largest entry of |B - B_ref| over that of |B_ref|, with B from the
    derivative slot of ``steps`` steps and B_ref from Boole's rule at
    ``ref_steps`` steps."""
    ends, _, d_end = endpoints(scenario.curve, np.eye(4), scenario.T, steps, 0.0,
                               derivative=True)
    B = -J4 @ d_end @ np.linalg.inv(ends[0])
    ref = perturbation_hamiltonian(
        scenario.curve, integrate(scenario.curve, np.eye(4), scenario.T, ref_steps, 0.0))
    return np.max(np.abs(B - ref)) / np.max(np.abs(ref))


def test_slot_generator_is_sixth_order_from_the_sized_count(resonant_scenario):
    # resonant_eps's A(t, 0) is constant, so its eps flows are sized at
    # h beta <= 0.12, 16 steps.  From there the slot's B, the eps-derivative
    # of the discrete flow, converges like the steps: halving the step
    # divides its error by about 64 (measured 5.8e-10, 9.1e-12 and 1.4e-13
    # at 8, 16 and 32 steps).
    assert resonant_scenario.steps("eps") == 16
    e8, e16, e32 = (_slot_generator_error(resonant_scenario, n) for n in (8, 16, 32))
    assert 48.0 <= e8 / e16 <= 80.0
    assert 48.0 <= e16 / e32 <= 80.0
    assert e16 <= 1e-11


# --- batched endpoints ----------------------------------------------------------

NONLINEAR_EPS_ENTRIES = {
    **SMOOTH_ENTRIES,
    "0,0": "1 + 0.4*sin(t) + sin(3*eps)*(1 + 0.3*cos(t))",
    "2,3": "0.2*exp(eps*t) - 0.2",
    "1,1": "1 - 0.3*t + eps^2",
}

ENDPOINT_CASES = {
    # curve entries, horizons, eps values
    "mixed_horizons": (SMOOTH_ENTRIES, [0.7, -0.4, 1e-3, -1e-4, 1.3], 0.0),
    "eps_values": (NONLINEAR_EPS_ENTRIES, 1.0, [0.0, 1e-7, 3e-4, -0.05, 0.2]),
    "both_vary": (NONLINEAR_EPS_ENTRIES, [0.9, -0.6, 0.25], [0.1, -2e-3, 5e-6]),
}


@pytest.mark.parametrize("steps", [50, _CHUNK, 3 * _CHUNK + 7])
@pytest.mark.parametrize("case", sorted(ENDPOINT_CASES))
def test_endpoints_bitwise_equal_integrate(case, steps):
    entries, horizons, eps_values = ENDPOINT_CASES[case]
    curve = SymmetricCurve.from_strings(entries)
    g0 = make_jordan_symplectic(np.pi / 3, np.eye(2))
    ends, drifts = endpoints(curve, g0, horizons, steps, eps_values, drift_tol=1.0)
    Ts, eps = np.broadcast_arrays(horizons, eps_values)
    assert ends.shape == (Ts.size, 4, 4) and drifts.shape == (Ts.size,)
    for k in range(Ts.size):
        sol = integrate(curve, g0, float(Ts[k]), steps, float(eps[k]))
        assert np.array_equal(ends[k], endpoint(sol)), k
        assert drifts[k] == sol.drift, k


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


EPS_CASES = sorted(k for k, v in ENDPOINT_CASES.items() if v[2] != 0.0)


@pytest.mark.parametrize("steps", [2, 50, 3 * _CHUNK + 7])
@pytest.mark.parametrize("case", EPS_CASES)
def test_derivative_slot_leaves_the_endpoints_bitwise_equal(case, steps):
    # The slot rides in the batch after the K flows and changes no bit of
    # their endpoints or drifts, in one chunk or several, halved or not.
    entries, horizons, eps_values = ENDPOINT_CASES[case]
    curve = SymmetricCurve.from_strings(entries)
    g0 = make_jordan_symplectic(np.pi / 3, np.eye(2))
    ends, drifts = endpoints(curve, g0, horizons, steps, eps_values, drift_tol=1.0)
    with_slot, slot_drifts, d_end = endpoints(curve, g0, horizons, steps, eps_values,
                                              drift_tol=1.0, derivative=True)
    assert _bits(with_slot) == _bits(ends)
    assert _bits(slot_drifts) == _bits(drifts)
    assert d_end.shape == (4, 4)


@pytest.mark.parametrize("steps, T", [(2, 3.0), (50, 1.0), (3 * _CHUNK + 7, 1.0)])
def test_derivative_slot_matches_a_difference_quotient(steps, T):
    # dG/deps of flow 0 against the fourth-order central difference of the
    # plain engine's endpoints at eps0 +- delta, +- 2 delta, on the same
    # step count: the slot differentiates the discrete flow, through the
    # halving branch (2 steps to T = 3) and across chunks.  Measured at most
    # 1.3e-11 relative, the difference quotient's own error.
    curve = SymmetricCurve.from_strings(NONLINEAR_EPS_ENTRIES)
    g0 = make_jordan_symplectic(np.pi / 3, np.eye(2))
    eps0, delta = 0.1, 1e-5
    _, _, d_end = endpoints(curve, g0, T, steps, [eps0, -0.05], drift_tol=np.inf,
                            derivative=True)
    e = endpoints(curve, g0, T, steps, eps0 + delta * np.array([1.0, -1.0, 2.0, -2.0]),
                  drift_tol=np.inf)[0]
    quotient = (8.0 * (e[0] - e[1]) - (e[2] - e[3])) / (12.0 * delta)
    assert np.max(np.abs(d_end - quotient)) <= 1e-10 * np.max(np.abs(d_end))


def test_derivative_slot_names_a_domain_error_of_the_derivative():
    # sqrt(eps) is finite at eps = 0, its eps-derivative is not; the slot
    # meets it at flow 0's first Gauss node and names the derivative.
    curve = SymmetricCurve.from_strings({**SMOOTH_ENTRIES, "2,3": "eps + sqrt(eps)"})
    endpoints(curve, np.eye(4), 1.0, 100, [0.0, 0.1])
    with pytest.raises(ExprDomainError) as err:
        endpoints(curve, np.eye(4), 1.0, 100, [0.0, 0.1], derivative=True)
    first = float((0.5 - _GAUSS) / 100)
    assert str(err.value).startswith("d/deps of entry (2,3): division by zero at (t, eps) = "
                                     f"({first!r}, 0.0)")


@pytest.mark.parametrize("steps", [2, 50, _CHUNK, 3 * _CHUNK + 7])
@pytest.mark.parametrize("case", sorted(ENDPOINT_CASES))
def test_engine_bitwise_equal_allocating_reference(case, steps):
    # The engine against the sequential Magnus loop, one flow and one step
    # at a time, on equal horizons (a column of times against a row of eps)
    # and mixed ones alike.  The prefix scan composes the steps in another
    # order, so the two agree to roundoff (measured at most 2.5e-14), not
    # bit for bit; so does integrate's state halfway.
    entries, horizons, eps_values = ENDPOINT_CASES[case]
    curve = SymmetricCurve.from_strings(entries)
    g0 = make_jordan_symplectic(np.pi / 3, np.eye(2))
    ends, _ = endpoints(curve, g0, horizons, steps, eps_values, drift_tol=np.inf)
    Ts, eps = np.broadcast_arrays(horizons, eps_values)
    half = steps // 2
    for k in range(Ts.size):
        T, e = float(Ts[k]), float(eps[k])
        assert np.max(np.abs(ends[k] - magnus_reference(curve, g0, T, steps, e))) <= 1e-13, k
        sol = integrate(curve, g0, T, steps, e, drift_tol=np.inf)
        want = magnus_reference(curve, g0, sol.ts[half], half, e)
        assert np.max(np.abs(sol.gammas[half] - want)) <= 1e-13, k


@pytest.mark.parametrize("case", sorted(ENDPOINT_CASES))
def test_engine_agrees_with_rk4_references(case):
    # Two methods that share no step formula: Magnus at 64 steps against
    # RK4 at 2,000, the chunked RK4 loop on every flow and the sequential
    # one on the first.  RK4's truncation error there is at most 4e-14
    # (on the flow to T = 1.3).
    entries, horizons, eps_values = ENDPOINT_CASES[case]
    curve = SymmetricCurve.from_strings(entries)
    g0 = make_jordan_symplectic(np.pi / 3, np.eye(2))
    ends, _ = endpoints(curve, g0, horizons, 64, eps_values, drift_tol=1.0)
    _, _, chunked, _ = flows_allocating(curve, g0, horizons, 2000, eps_values, keep=False)
    assert np.max(np.abs(ends - chunked)) <= 1e-13
    Ts, eps = np.broadcast_arrays(horizons, eps_values)
    ref = rk4_reference(curve, g0, float(Ts[0]), 2000, float(eps[0]))
    assert np.max(np.abs(ends[0] - ref)) <= 1e-13


@pytest.mark.parametrize("entries", [SMOOTH_ENTRIES, NONLINEAR_EPS_ENTRIES, {"1,3": "eps"}, {}])
def test_scaled_j4a_bitwise_equal_filled_matrices(entries):
    # Written entry by entry into the workspace, h J4 A has the bits of the
    # filled, J4-multiplied and scaled stack, down to the signs of its zeros.
    curve = SymmetricCurve.from_strings(entries)
    h = np.array([0.01, -0.02, 0.003])
    ts = np.linspace(-1.0, 1.0, 9)[:, None] * np.array([1.0, 0.5, -2.0])
    eps = np.array([[0.0, -0.1, 0.3]])
    hB = _hB_workspace(3, h)
    _scaled_j4a(hB, curve, ts, eps, h)
    A = curve.eval_matrix_batch(ts.ravel(), np.broadcast_to(eps, ts.shape).ravel())
    want = _j4(A.reshape(9, 3, 4, 4)) * h[:, None, None]
    assert _bits(hB) == _bits(want)


def _hamiltonian_stack(rng, row_sums, K):
    """Matrices J4 S, S random symmetric, scaled to the given max row sums
    of their absolute values; shape (len(row_sums) // K, K, 4, 4)."""
    W = np.array([J4 @ random_symmetric4(rng) for _ in row_sums])
    W *= (np.asarray(row_sums) / np.abs(W).sum(axis=-1).max(axis=-1))[:, None, None]
    return W.reshape(-1, K, 4, 4)


def _per_matrix_halvings(W):
    """The halvings that bring every matrix's max row sum of |W| below
    1/16, matrix by matrix."""
    return np.maximum(np.frexp(np.abs(W).sum(axis=-1).max(axis=-1) * 16.0)[1], 0)


def test_expm1_matches_horner_and_decimal_references():
    # One stack whose max row sums span 1e-8 to 8 and straddle 1/16, so
    # that halved and unhalved matrices share a call.  Per matrix, against
    # the degree-10 Horner series and the 50-digit Taylor sum, relative to
    # the largest entry of exp(W) - I (measured at most 4.5e-16 and
    # 7.6e-16).  The last two matrices have equal entries, so their powers
    # grow as fast as their row sums allow, and the series' last terms count
    # most just below and just above 1/16.
    rng = np.random.default_rng(41)
    row_sums = np.concatenate([np.geomspace(1e-8, 8.0, 20), [0.0624, 0.0626, 0.09, 0.11]])
    equal = np.ones((1, 2, 4, 4)) * np.array([0.0624, 0.0626])[None, :, None, None] / 4.0
    W = np.concatenate([_hamiltonian_stack(rng, row_sums, K=2), equal])
    assert 0 < np.count_nonzero(_per_matrix_halvings(W)) < W.shape[0] * W.shape[1]
    D = np.empty_like(W)
    _expm1(W.copy(), D, *np.empty((3,) + W.shape))
    horner = np.empty_like(W)
    expm1_horner(W.copy(), horner, np.empty_like(W))
    for idx in np.ndindex(W.shape[:2]):
        ref = expm1_decimal(W[idx])
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(D[idx] - ref)) <= 1e-15 * scale, idx
        assert np.max(np.abs(D[idx] - horner[idx])) <= 1e-15 * scale, idx


@pytest.mark.parametrize("row_sums", [
    np.geomspace(1e-8, 1e-3, 8),        # far below the stack-wide bound
    np.full(8, 0.0624),                 # bound fails, yet no matrix is halved
    np.full(8, 1 / 16),                 # on the threshold: halved once or not at all
    np.geomspace(1e-8, 8.0, 8),         # halved and unhalved in one stack
    np.append(np.full(7, 1e-8), 0.1),   # one flow's last step alone is halved
])
def test_halvings_match_the_per_matrix_rule(row_sums):
    # The stack-wide bound, the row sums of the entrywise max of |W|, gives
    # the per-matrix rule's halvings.  A matrix whose first row alone is
    # filled has its max row sum in that row and every column sum at a
    # quarter of it, so a bound on the wrong axis lets it through.
    rng = np.random.default_rng(42)
    W = _hamiltonian_stack(rng, row_sums, K=2)
    one_row = np.zeros((4, 4))
    one_row[0] = row_sums[0] / 4.0
    for W_case in (W, np.broadcast_to(one_row, W.shape).copy()):
        got = _halvings(W_case, np.empty_like(W_case))
        assert np.array_equal(np.broadcast_to(got, W_case.shape[:2]),
                              _per_matrix_halvings(W_case))


def _chunk_points(horizons, steps, eps_values):
    """The points at which the engine evaluates A in a flow's first chunk,
    flattened in the engine's order: every step's first Gauss node, then
    the midpoints, then the last Gauss nodes, each a row of the K flows."""
    Ts, eps = np.broadcast_arrays(np.asarray(horizons, dtype=float), eps_values)
    mids = np.arange(min(steps, _CHUNK)) + 0.5
    x = np.concatenate([mids - _GAUSS, mids, mids + _GAUSS]) / steps
    ts = x[:, None] * Ts
    return ts.ravel(), np.broadcast_to(eps, ts.shape).ravel()


@pytest.mark.parametrize("horizons", [1.0, [1.0, 0.5, 1.0]], ids=["equal", "mixed"])
@pytest.mark.parametrize("text", ["eps/eps", "sqrt(0.1 - eps)", "sqrt(0.5 - t)",
                                  "sqrt(0.5 - t - eps)", "sqrt(t - 0.5*eps)", "sqrt(0.5 + eps - t)"])
def test_domain_error_located_as_by_the_allocating_reference(text, horizons):
    # The locator names the first bad (time, flow) pair in the order a flat
    # evaluation of the engine's points visits them, also when A is
    # evaluated on a column of times against a row of eps.  A is never
    # evaluated at a grid node, so each text fails at some Gauss node.
    curve = SymmetricCurve.from_strings({**SMOOTH_ENTRIES, "2,3": text})
    eps_values = [0.3, 0.0, 0.2]
    with pytest.raises(ExprDomainError) as got:
        endpoints(curve, np.eye(4), horizons, 100, eps_values)
    with pytest.raises(ExprDomainError) as want:
        curve.eval_matrix_batch(*_chunk_points(horizons, 100, eps_values))
    assert str(got.value) == str(want.value)
    if text == "eps/eps":
        first = float((0.5 - _GAUSS) / 100 * np.broadcast_to(horizons, 3)[1])
        assert "entry (2,3): " in str(got.value)
        assert f"(t, eps) = ({first!r}, 0.0)" in str(got.value)


def test_endpoints_rejects_what_integrate_rejects():
    curve = smooth_curve()
    with pytest.raises(NonSymplecticError):
        endpoints(curve, 2 * np.eye(4), [1.0], 100)
    with pytest.raises(ValueError):
        endpoints(curve, np.eye(4), [1.0, 0.5], 1)
    with pytest.raises(ValueError):
        endpoints(curve, np.eye(4), [1.0, 0.0, -1.0], 100)
    with pytest.raises(ExprDomainError):
        endpoints(SymmetricCurve.from_strings({"0,0": "sqrt(0.5 - t)"}), np.eye(4), [0.2, 1.0], 100)


def test_endpoints_raise_on_nonconforming_drift():
    curve = SymmetricCurve.from_strings(NONLINEAR_EPS_ENTRIES)
    g0 = make_jordan_symplectic(np.pi / 3, np.eye(2))
    _, drifts = endpoints(curve, g0, 1.0, 200, [0.0, 0.2], drift_tol=1.0)
    with pytest.raises(NonConformingFlowError) as err:
        endpoints(curve, g0, 1.0, 200, [0.0, 0.2], drift_tol=1e-30)
    worst = int(np.argmax(drifts))
    assert f"{drifts[worst]:.3e}" in str(err.value)
    assert f"eps = {[0.0, 0.2][worst]!r}" in str(err.value)


def test_integrate_raises_on_nonconforming_drift_like_endpoints():
    curve = SymmetricCurve.from_strings(NONLINEAR_EPS_ENTRIES)
    g0 = make_jordan_symplectic(np.pi / 3, np.eye(2))
    with pytest.raises(NonConformingFlowError) as want:
        endpoints(curve, g0, 1.0, 200, 0.2, drift_tol=1e-30)
    with pytest.raises(NonConformingFlowError) as got:
        integrate(curve, g0, 1.0, 200, 0.2, drift_tol=1e-30)
    assert str(got.value) == str(want.value)
    assert "T = 1.0 at eps = 0.2" in str(got.value)


def test_endpoints_raise_on_nan_drift_like_integrate():
    # Overflow turns the flow and its drift into NaN, which compares false
    # against any tolerance; both entry points must still reject it.
    curve = SymmetricCurve.from_strings({"0,0": "1e200", "2,2": "1e200", "0,2": "1e200"})
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonConformingFlowError, match="nan"):
            integrate(curve, np.eye(4), 1.0, 50)
        with pytest.raises(NonConformingFlowError, match="nan"):
            endpoints(curve, np.eye(4), [1.0, 0.5], 50)


@pytest.mark.parametrize("steps, horizons, eps_values", [
    (2, [0.9, -0.6], [0.1, -2e-3]),
    (50, [0.9, -0.6], [0.1, -2e-3]),
    (_CHUNK, [0.9, -0.6], [0.1, -2e-3]),
    (3 * _CHUNK + 7, [0.9, -0.6], [0.1, -2e-3]),
    (10_000, [1e-6, -1e-6], [0.1, 0.0]),
])
def test_endpoints_match_sequential_rk4(steps, horizons, eps_values):
    # Against the sequential Magnus loop (the name predates the Magnus
    # step).  Over 10,000 steps the loop's own roundoff, which rounds each
    # step against the identity, reaches 3e-13.
    curve = SymmetricCurve.from_strings(NONLINEAR_EPS_ENTRIES)
    g0 = make_jordan_symplectic(np.pi / 3, np.eye(2))
    ends, _ = endpoints(curve, g0, horizons, steps, eps_values, drift_tol=1.0)
    for k, (T, eps) in enumerate(zip(horizons, eps_values)):
        ref = magnus_reference(curve, g0, T, steps, eps)
        assert np.max(np.abs(ends[k] - ref)) <= 1e-12, k
