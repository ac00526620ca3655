import numpy as np
import pytest

from kreinsplit import (
    J4,
    charpoly,
    exterior_power,
    inner,
    is_symplectic,
    make_jordan_symplectic,
    poly_value,
    quartic_roots,
    symplectic_form,
)
from kreinsplit import linalg
from kreinsplit.errors import DegeneratePolynomialError

from conftest import COUPLINGS, SEMISIMPLE_COUPLINGS, THETAS
from oracles import (
    best_match_distance,
    charpoly_by_sampling,
    charpoly_loop,
    det_cofactor,
    expm_taylor,
    exterior_power_loop,
    magnitude,
    polish_loop,
    random_symmetric4,
    to_absolute,
)

E = np.eye(4, dtype=complex)


def test_inner_examples():
    assert inner(E[0], E[0]) == 1
    assert inner(E[0], E[1]) == 0
    # conjugation sits on the second slot
    assert inner([1j, 0, 0, 0], E[0]) == 1j
    assert inner(E[0], [1j, 0, 0, 0]) == -1j


def test_symplectic_form_examples():
    assert symplectic_form(E[0], E[2]) == 1
    assert symplectic_form(E[0], E[0]) == 0


def test_symplectic_form_diagonal_purely_imaginary():
    rng = np.random.default_rng(11)
    for _ in range(50):
        x = rng.normal(size=4) + 1j * rng.normal(size=4)
        val = symplectic_form(x, x)
        assert abs(val.real) < 1e-12 * (1 + abs(val))


def test_symplectic_form_conjugate_antisymmetry():
    rng = np.random.default_rng(12)
    for _ in range(50):
        x = rng.normal(size=4) + 1j * rng.normal(size=4)
        y = rng.normal(size=4) + 1j * rng.normal(size=4)
        assert abs(symplectic_form(x, y) + np.conj(symplectic_form(y, x))) < 1e-12


def test_is_symplectic():
    assert is_symplectic(np.eye(4), 1e-12)
    assert is_symplectic(J4, 1e-12)
    assert not is_symplectic(2 * np.eye(4), 1e-8)
    for bad in (complex(np.nan, 0.0), complex(0.0, np.nan), complex(0.0, 1e-6)):
        assert not is_symplectic(J4 + bad * np.eye(4), 1e-8), bad
    with pytest.raises(ValueError):
        is_symplectic(np.eye(4), 0.0)


def test_exterior_power_basic():
    rng = np.random.default_rng(13)
    A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert exterior_power(0, 0, A) == 1
    assert abs(exterior_power(1, 0, A) - np.trace(A)) < 1e-12
    alpha = 0.7 - 0.3j
    assert abs(exterior_power(2, 0, alpha * np.eye(4)) - 6 * alpha ** 2) < 1e-12


def test_exterior_power_is_determinant():
    rng = np.random.default_rng(14)
    for _ in range(20):
        A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        ref = det_cofactor(A)
        assert abs(exterior_power(4, 0, A) - ref) <= 1e-12 * abs(ref)


def test_exterior_power_binomial_identity():
    rng = np.random.default_rng(15)
    A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    from math import comb
    for k1 in range(5):
        for k2 in range(5 - k1):
            lhs = exterior_power(k1, k2, A, A)
            rhs = comb(k1 + k2, k1) * exterior_power(k1 + k2, 0, A)
            assert abs(lhs - rhs) <= 1e-12 * (1 + abs(rhs))


def test_exterior_power_preconditions():
    A = np.eye(4)
    with pytest.raises(ValueError):
        exterior_power(3, 2, A, A)
    with pytest.raises(ValueError):
        exterior_power(-1, 0, A)
    with pytest.raises(ValueError):
        exterior_power(0, 1, A)  # A2 missing


def test_charpoly_double_pair_coefficients():
    # J4 has eigenvalues {i, i, -i, -i}; recentring at i exposes the
    # double-pair structure of the low coefficients.
    p = charpoly(J4, 1j)
    assert abs(p[0]) < 1e-12
    assert abs(p[1]) < 1e-12
    assert abs(p[2] - (2j) ** 2) < 1e-12
    assert abs(p[3] - 2 * 2j) < 1e-12
    assert p[4] == 1


def test_charpoly_matches_sampled_determinant():
    rng = np.random.default_rng(16)
    for _ in range(10):
        M = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        lam0 = rng.normal() + 1j * rng.normal()
        got = charpoly(M, lam0)
        ref = charpoly_by_sampling(M, lam0)
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(got - ref)) < 1e-10 * scale


def test_charpoly_zero_matrix():
    p = charpoly(np.zeros((4, 4)), 0.0)
    assert tuple(p[:4]) == (0, 0, 0, 0)
    assert p[4] == 1


def test_charpoly_center_independence():
    rng = np.random.default_rng(17)
    for _ in range(10):
        M = rng.normal(size=(4, 4))
        pa = to_absolute(charpoly(M, 0.3 + 0.4j), 0.3 + 0.4j)
        pb = to_absolute(charpoly(M, -1.1 + 0.2j), -1.1 + 0.2j)
        scale = max(max(abs(c) for c in pa), 1.0)
        assert max(abs(a - b) for a, b in zip(pa, pb)) < 1e-12 * scale


def test_stacked_det_path_equals_per_assignment_loop():
    # Same determinants, summed in the same order: equal bit for bit.
    rng = np.random.default_rng(20)
    for _ in range(10):
        A1 = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        A2 = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        for k1 in range(5):
            for k2 in range(5 - k1):
                assert exterior_power(k1, k2, A1, A2) == exterior_power_loop(k1, k2, A1, A2)
        lam0 = rng.normal() + 1j * rng.normal()
        assert tuple(charpoly(A1, lam0)) == charpoly_loop(A1, A1, lam0)


def test_charpoly_bitwise_equals_loop_on_near_jordan_matrices():
    # A double unit multiplier with a perturbation from roundoff to 1e-2,
    # recentred at the unperturbed multiplier: one matrix at a time and in
    # stacks of three, equal bit for bit to the per-assignment loop.
    rng = np.random.default_rng(21)
    for _ in range(20):
        theta = rng.uniform(0.2, 3.0)
        C = rng.normal(size=(2, 2))
        base = make_jordan_symplectic(theta, C + C.T)
        stack = base + 10.0 ** rng.uniform(-14, -2) * rng.normal(size=(3, 4, 4))
        lam0 = np.exp(1j * theta)
        assert tuple(charpoly(base, lam0)) == charpoly_loop(base, base, lam0)
        for M, p in zip(stack, charpoly(stack, lam0)):
            assert tuple(p) == charpoly_loop(M, M, lam0)


def test_charpoly_stacked_equals_one_matrix_calls():
    rng = np.random.default_rng(19)
    for n in (1, 5, 16):
        G0 = rng.normal(size=(n, 4, 4)) + 1j * rng.normal(size=(n, 4, 4))
        Gt = G0 + 1e-3 * rng.normal(size=(n, 4, 4))
        lam0 = rng.normal() + 1j * rng.normal()
        batch = charpoly(G0, lam0)
        assert batch.shape == (n, 5)
        for i, p in enumerate(batch):
            assert p.tobytes() == charpoly(G0[i], lam0).tobytes()
        ext = exterior_power(2, 1, G0, Gt)
        assert ext.shape == (n,)
        assert all(ext[i] == exterior_power(2, 1, G0[i], Gt[i]) for i in range(n))


def test_quartic_roots_simple():
    roots = quartic_roots((-1, 0, 0, 0, 1), 0j)
    assert best_match_distance(roots, [1, -1, 1j, -1j]) < 1e-12


def test_quartic_roots_quadruple():
    roots = quartic_roots((16, -32, 24, -8, 1), 0j)
    assert best_match_distance(roots, [2, 2, 2, 2]) < 1e-8


def test_quartic_roots_vs_companion():
    rng = np.random.default_rng(18)
    for _ in range(50):
        c = rng.normal(size=4) + 1j * rng.normal(size=4)
        p = (*c, 1.0)
        companion = np.zeros((4, 4), dtype=complex)
        companion[1:, :3] = np.eye(3)
        companion[:, 3] = -c
        ref = np.linalg.eigvals(companion)
        assert best_match_distance(quartic_roots(p, 0j), ref) < 1e-9


def test_quartic_roots_coefficient_round_trip():
    rng = np.random.default_rng(19)
    for _ in range(50):
        c = rng.normal(size=4) + 1j * rng.normal(size=4)
        p = (*c, 1.0)
        roots = quartic_roots(p, 0j)
        rebuilt = np.poly(roots)[::-1]  # ascending
        scale = 1 + np.max(np.abs(c))
        assert np.max(np.abs(rebuilt - np.array(p))) < 1e-9 * scale


def test_quartic_roots_polish_criterion():
    rng = np.random.default_rng(20)
    for _ in range(50):
        c = rng.normal(size=4) + 1j * rng.normal(size=4)
        p, center = (*c, 1.0), rng.normal() + 1j * rng.normal()
        bound = 1e-12 * (1 + magnitude(p))
        assert all(abs(poly_value(p, center, r)) <= bound for r in quartic_roots(p, center))


def test_quartic_roots_bitwise_equal_method_call_polish(monkeypatch):
    # The inline Horner forms repeat the method-call loop's operations, so
    # the roots agree bit for bit: on 1,024 quartics of near-Jordan
    # matrices (perturbations 1e-12 to 1e-2, recentred at the unperturbed
    # multiplier), on a quadruple root and on exact closed-form roots (both
    # return at f == 0), and on an overflowing quartic (NaN guesses, the
    # non-finite break).
    rng = np.random.default_rng(22)
    polys = []
    for _ in range(256):
        theta = rng.uniform(0.2, 3.0)
        C = rng.normal(size=(2, 2))
        base = make_jordan_symplectic(theta, C + C.T)
        size = 10.0 ** rng.uniform(-12, -2, size=(4, 1, 1))
        lam = np.exp(1j * theta)
        polys += [(p, lam) for p in charpoly(base + size * rng.normal(size=(4, 4, 4)), lam)]
    polys += [((16, -32, 24, -8, 1), 0j), ((-1, 0, 0, 0, 1), 0j), ((1, 0, 0, 1e200, 1), 0j)]
    got = [quartic_roots(*p) for p in polys]
    monkeypatch.setattr(linalg, "_polish", polish_loop)
    want = [quartic_roots(*p) for p in polys]
    assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))
    assert np.all(got[-3] == 2) and np.all(np.isnan(got[-1]))


def test_quartic_roots_rejects_degenerate():
    with pytest.raises(DegeneratePolynomialError):
        quartic_roots((1, 2, 3, 4, 0), 0j)
    with pytest.raises(ValueError, match="five coefficients"):
        quartic_roots((1, 2, 3, 1), 0j)


def test_quartic_poly_recentring_evaluation():
    lam = 2.5 - 0.5j
    x = lam - (1 + 1j)
    assert abs(poly_value((1, 2, 0, 0, 1), 1 + 1j, lam) - (1 + 2 * x + x ** 4)) < 1e-12


# --- discriminant -------------------------------------------------------------

def test_discriminant_vanishes_at_a_double_multiplier():
    for theta in THETAS:
        for C in COUPLINGS + SEMISIMPLE_COUPLINGS:
            assert abs(linalg.discriminant(make_jordan_symplectic(theta, C))) <= 1e-14


def _squared_w_gap(M):
    """(w1 - w2)^2 with w = lambda + 1/lambda over the roots of M's
    characteristic quartic, no trace taken."""
    lams = quartic_roots(charpoly(M, 0.0), 0.0)
    w = lams + 1.0 / lams
    return (w[0] - w[np.argmax(np.abs(w - w[0]))]) ** 2


@pytest.mark.parametrize("on_circle", [True, False], ids=["four-unit", "quartet"])
def test_discriminant_is_the_squared_gap_of_w(on_circle):
    # M = P M0 P^-1 with P = exp(J4 S) for a random symmetric S.  M0 turns
    # (q1, p1) by a and (q2, p2) by b, giving four distinct unit
    # multipliers, or is diag(L, L^-T) with L = r R(phi), giving the quartet
    # r^+-1 exp(+-i phi) off the circle.
    rng = np.random.default_rng(41)
    for _ in range(20):
        if on_circle:
            a, b = rng.uniform(0.3, 1.3), rng.uniform(1.7, 2.8)
            M0 = expm_taylor(J4 @ np.diag([a, b, a, b]))
        else:
            r, phi = rng.uniform(1.1, 2.0), rng.uniform(0.3, 2.8)
            L = r * np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
            M0 = np.zeros((4, 4))
            M0[:2, :2] = L
            M0[2:, 2:] = np.linalg.inv(L).T
        P = expm_taylor(J4 @ random_symmetric4(rng, 0.3))
        M = P @ M0 @ linalg.symplectic_inverse(P)
        assert is_symplectic(M, 1e-12)
        delta, gap = linalg.discriminant(M), _squared_w_gap(M)
        assert (delta > 0) == on_circle
        assert abs(delta - gap) <= 1e-13 * max(1.0, abs(gap))
