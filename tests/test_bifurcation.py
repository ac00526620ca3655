import numpy as np
import pytest

from kreinsplit import (
    J4,
    STABLE_FORWARD,
    UNSTABLE_FORWARD,
    charpoly,
    classify_stability,
    detect_double_unitary,
    expansion_eps,
    expansion_t,
    exterior_power,
    jordan_pair,
    ladder,
    make_jordan_symplectic,
    pair_from_vectors,
    predict_branches,
)
from kreinsplit.bifurcation import ExpansionCoefficients
from kreinsplit.errors import DegenerateCaseError, ExcludedCaseError, InconclusiveError

from oracles import (
    conjugated,
    forward_unstable,
    ladder_closed_forms,
    random_symmetric2,
    random_symmetric4,
)


def reference_pair():
    M = make_jordan_symplectic(np.pi / 3, np.eye(2))
    return M, jordan_pair(M, detect_double_unitary(M))


def random_jordan_scenario(rng):
    """Random generated matrix with a genuine chain, plus a random
    symmetric coefficient with a non-degenerate first-order rate."""
    while True:
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
        from kreinsplit import inner
        if abs(inner(A0 @ pair.eta1, pair.eta1)) < 1e-2:
            continue
        return M, pair, A0


def test_ladder_zero_velocity():
    M, pair = reference_pair()
    lad = ladder(M, np.zeros((4, 4)), pair.lambda0)
    assert lad.c31 == 0
    assert lad.c21 == 0
    assert lad.a_squared == 0


def test_ladder_low_coefficients_vanish_at_collision():
    M, pair = reference_pair()
    lam = pair.lambda0
    d = lam - np.conj(lam)
    lad = ladder(M, J4 @ np.eye(4) @ M, lam)
    assert abs(lad.c[0]) < 1e-8
    assert abs(lad.c[1]) < 1e-8
    assert abs(lad.c[2] - d * d) < 1e-8
    assert abs(lad.c[3] - 2 * d) < 1e-8
    assert lad.c[4] == 1


def test_ladder_coefficients_are_the_recentred_charpoly():
    # Bit for bit: the ladder's c is the oracle's quartic at the collision,
    # and both are the exterior powers of lambda0 I - M(0).
    rng = np.random.default_rng(52)
    for _ in range(10):
        M, pair, A0 = random_jordan_scenario(rng)
        lam = pair.lambda0
        c = ladder(M, J4 @ A0 @ M, lam).c
        assert c == tuple(charpoly(M, lam))
        assert c == tuple(exterior_power(4 - k, 0, lam * np.eye(4) - M) for k in range(5))


def _bits(*values):
    return np.array(values, dtype=complex).tobytes()


def test_ladder_is_charpoly_and_exterior_powers_bitwise():
    # One stacked determinant gives the same c, c31 and c21 as charpoly and
    # two exterior_power calls, bit for bit.
    rng = np.random.default_rng(53)
    for _ in range(20):
        M, pair, A0 = random_jordan_scenario(rng)
        lam = pair.lambda0
        Mdot = J4 @ A0 @ M
        lad = ladder(M, Mdot, lam)
        K = lam * np.eye(4) - M
        assert _bits(*lad.c) == _bits(*charpoly(M, lam))
        assert _bits(lad.c31) == _bits(exterior_power(3, 1, K, Mdot))
        assert _bits(lad.c21) == _bits(exterior_power(2, 1, K, Mdot))
        assert _bits(lad.a_squared) == _bits(lad.c31 / lad.c[2])


def test_ladder_rejects_multiplier_at_one():
    with pytest.raises(ExcludedCaseError):
        ladder(np.eye(4), np.zeros((4, 4)), 1.0)


def test_ladder_matches_closed_forms_on_random_scenarios():
    rng = np.random.default_rng(50)
    for _ in range(20):
        M, pair, A0 = random_jordan_scenario(rng)
        lad = ladder(M, J4 @ A0 @ M, pair.lambda0)
        c31, c21 = ladder_closed_forms(pair, A0)
        assert abs(lad.c31 - c31) <= 1e-9 * abs(c31)
        assert abs(lad.c21 - c21) <= 1e-9 * abs(c21)


def test_closed_forms_miss_the_ladder_of_another_drive():
    # The reference must see the drive: closed forms of an independent drive
    # miss the exterior-power ladder of A0 by far more than criterion 3's
    # 1e-9 (by at least 0.22 relative over these 20 draws).
    rng = np.random.default_rng(55)
    for _ in range(20):
        M, pair, A0 = random_jordan_scenario(rng)
        lad = ladder(M, J4 @ A0 @ M, pair.lambda0)
        c31, c21 = ladder_closed_forms(pair, random_symmetric4(rng))
        assert abs(lad.c31 - c31) > 1e-2 * abs(lad.c31)
        assert abs(lad.c21 - c21) > 1e-2 * abs(lad.c21)


def test_expansion_consistent_with_ladder():
    rng = np.random.default_rng(51)
    for _ in range(10):
        M, pair, A0 = random_jordan_scenario(rng)
        co = expansion_t(pair, A0)
        lad = ladder(M, J4 @ A0 @ M, pair.lambda0)
        lam = pair.lambda0
        assert abs(co.a ** 2 - lad.a_squared) <= 1e-9 * abs(lad.a_squared)
        assert abs(co.a ** 2 - lam * lam * co.kappa) < 1e-10
        assert abs(abs(co.a) ** 2 - abs(co.kappa)) < 1e-10


def test_expansion_degenerate_numerator():
    _, pair = reference_pair()
    with pytest.raises(DegenerateCaseError) as err:
        expansion_t(pair, np.zeros((4, 4)))
    assert err.value.measured == 0


def test_expansion_reality_structure():
    rng = np.random.default_rng(52)
    for _ in range(10):
        _, pair, A0 = random_jordan_scenario(rng)
        co = expansion_t(pair, A0)
        lam = pair.lambda0
        assert co.kappa_imag_residual < 1e-8
        # the sum-derivative identity: Re(conj(L) * d(sum)) = kappa
        assert abs((np.conj(lam) * co.sum_derivative).real - co.kappa) < 1e-8
        # everything in the bracket beyond the rate is purely imaginary
        assert abs((co.bracket - co.kappa).real) < 1e-8
        assert co.second_order == co.sum_derivative / 2


def test_expansion_gauge_invariance():
    rng = np.random.default_rng(53)
    _, pair, A0 = random_jordan_scenario(rng)
    base = expansion_t(pair, A0)
    for _ in range(20):
        c = rng.normal() + 1j * rng.normal()
        d = rng.normal() + 1j * rng.normal()
        if abs(c) < 0.1:
            continue
        moved = pair_from_vectors(pair.lambda0, c * pair.eta1,
                                  c * pair.eta2 + d * pair.eta1)
        co = expansion_t(moved, A0)
        assert abs(co.kappa - base.kappa) <= 1e-9 * abs(base.kappa)
        assert abs(co.a ** 2 - base.a ** 2) <= 1e-9 * abs(base.a ** 2)
        assert abs(co.second_order - base.second_order) <= 1e-9 * abs(base.second_order)


def test_expansion_conjugate_symmetry():
    rng = np.random.default_rng(54)
    _, pair, A0 = random_jordan_scenario(rng)
    co = expansion_t(pair, A0)
    co_conj = expansion_t(conjugated(pair), A0)
    assert abs(co_conj.kappa - co.kappa) < 1e-9
    assert abs(co_conj.sum_derivative - np.conj(co.sum_derivative)) < 1e-9
    assert abs(co_conj.a ** 2 - np.conj(co.a ** 2)) < 1e-9


def test_expansion_eps_same_algebra():
    _, pair = reference_pair()
    B = np.diag([0.7, 0.7, 0.4, 0.4])
    t_version = expansion_t(pair, B)
    eps_version = expansion_eps(pair, B)
    assert eps_version == t_version
    with pytest.raises(DegenerateCaseError):
        expansion_eps(pair, np.zeros((4, 4)))


def test_classify_stability():
    def with_kappa(k):
        return ExpansionCoefficients(kappa=k, a=0j, second_order=0j,
                                     sum_derivative=0j, bracket=0j)

    assert classify_stability(with_kappa(0.7)) == UNSTABLE_FORWARD
    assert classify_stability(with_kappa(-0.7)) == STABLE_FORWARD
    assert forward_unstable(classify_stability(with_kappa(0.7)))
    with pytest.raises(InconclusiveError):
        classify_stability(with_kappa(0.0))


def test_predict_branches_at_zero():
    _, pair = reference_pair()
    co = expansion_t(pair, np.eye(4))
    b1, b2 = predict_branches(co, pair.lambda0, 0.0)
    assert b1 == pair.lambda0
    assert b2 == pair.lambda0


def test_predict_branches_sum_identity():
    _, pair = reference_pair()
    co = expansion_t(pair, np.eye(4))
    for s in (1e-8, 1e-5, 1e-3):
        b1, b2 = predict_branches(co, pair.lambda0, s)
        want = 2 * pair.lambda0 + 2 * co.second_order * s
        assert abs((b1 + b2) - want) < 1e-15


def test_predict_branches_negative_gate():
    # s < 0 is predicted with sqrt(s) = i sqrt(|s|): the branch sum keeps its
    # identity, and the branches differ by 2 i a sqrt(|s|).
    _, pair = reference_pair()
    co = expansion_t(pair, np.eye(4))
    for s in (-1e-8, -1e-5, -1e-3):
        b1, b2 = predict_branches(co, pair.lambda0, s)
        want = 2 * pair.lambda0 + 2 * co.second_order * s
        assert abs((b1 + b2) - want) < 1e-15
        assert abs((b2 - b1) - 2j * co.a * np.sqrt(-s)) < 1e-15
