import numpy as np
import pytest

from kreinsplit import (
    J4,
    charpoly,
    detect_double_unitary,
    eigenvalues,
    inner,
    is_symplectic,
    jordan_pair,
    load_scenario,
    make_jordan_symplectic,
    pair_from_vectors,
    quartic_roots,
)
from kreinsplit import linalg, spectral, verify
from kreinsplit.cli import main
from kreinsplit.errors import (
    DegenerateAngleError,
    ExcludedCaseError,
    NotAJordanBlockError,
)

from conftest import COUPLINGS, SCENARIOS, SEMISIMPLE_COUPLINGS, THETAS
from oracles import (
    best_match_distance,
    conjugated,
    detect_double_unitary_roots,
    expm_taylor,
    krein_pairings_ok,
    random_symmetric4,
)


def test_eigenvalues_simple_cases():
    assert best_match_distance(eigenvalues(np.eye(4)), [1, 1, 1, 1]) < 1e-8
    assert best_match_distance(eigenvalues(J4), [1j, 1j, -1j, -1j]) < 1e-8
    M = np.diag([2.0, 2.0, 0.5, 0.5])
    assert best_match_distance(eigenvalues(M), [2, 2, 0.5, 0.5]) < 1e-8


def test_eigenvalues_of_a_stack_equal_one_matrix_calls():
    rng = np.random.default_rng(42)
    stack = rng.normal(size=(5, 4, 4))
    batch = eigenvalues(stack)
    assert batch.shape == (5, 4)
    for M, got in zip(stack, batch):
        assert got.tobytes() == quartic_roots(charpoly(M, 0j), 0j).tobytes()


def test_eigenvalue_quartet_symmetry_for_random_symplectic():
    rng = np.random.default_rng(41)
    for _ in range(20):
        S = random_symmetric4(rng, scale=0.8)
        M = expm_taylor(J4 @ S)
        evs = eigenvalues(M)
        mirrored = []
        for z in evs:
            mirrored += [np.conj(z), 1.0 / z, 1.0 / np.conj(z)]
        # every eigenvalue's conjugate and inverse must appear in the set
        for z in mirrored:
            assert min(abs(z - w) for w in evs) < 1e-7


def test_detect_on_generated_matrices():
    lam = detect_double_unitary(make_jordan_symplectic(np.pi / 3, np.eye(2)))
    assert abs(lam - np.exp(1j * np.pi / 3)) < 1e-9
    assert detect_double_unitary(J4) is not None
    assert abs(detect_double_unitary(J4) - 1j) < 1e-9


def test_detect_refines_to_machine_accuracy():
    lam = detect_double_unitary(make_jordan_symplectic(np.pi / 3, np.eye(2)))
    assert abs(lam - np.exp(1j * np.pi / 3)) < 1e-13


def test_detect_rejects_off_circle_and_real_spectra():
    assert detect_double_unitary(np.diag([2.0, 3.0, 0.5, 1.0 / 3.0])) is None
    assert detect_double_unitary(np.eye(4)) is None  # quadruple at +1
    # distinct simple pairs on the circle
    th1, th2 = 0.4, 1.3
    R = lambda t: np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
    M = np.zeros((4, 4))
    M[:2, :2] = R(th1)
    M[2:, 2:] = R(th2)
    # block diag of two rotations in (q1,q2,p1,p2) coordinates is not our
    # symplectic layout, so build via the generator instead
    S = np.diag([th1, th2, th1, th2])
    M = expm_taylor(J4 @ S)
    assert detect_double_unitary(M) is None


def _rotations(th1, th2):
    """Four distinct unit multipliers exp(+-i th1), exp(+-i th2)."""
    return expm_taylor(J4 @ np.diag([th1, th2, th1, th2]))


def _detector_corpus():
    near_ends = (1e-6, 5e-6, 9e-6)  # |L -+ 1| within 10 * cluster = 1e-5
    corpus = [make_jordan_symplectic(th, C) for th in THETAS for C in COUPLINGS]
    corpus += [make_jordan_symplectic(th, C) for th in THETAS for C in SEMISIMPLE_COUPLINGS]
    corpus += [_rotations(th1, th2) for th1, th2 in ((0.4, 1.3), (0.2, 2.9), (1.0, 1.1))]
    corpus += [make_jordan_symplectic(th, np.eye(2)) for th in near_ends]
    corpus += [make_jordan_symplectic(np.pi - th, np.eye(2)) for th in near_ends]
    corpus += [np.diag([2.0, 3.0, 0.5, 1.0 / 3.0]),
               # off the circle by twice tol_circle
               (1.0 + 2e-6) * make_jordan_symplectic(np.pi / 3, np.eye(2))]
    return corpus


def test_detect_decisions_match_the_root_reference():
    # The trace rule accepts and rejects exactly where the root-based
    # detector does, and on acceptance both give the same lambda0.
    accepted = 0
    for M in _detector_corpus():
        got, want = detect_double_unitary(M), detect_double_unitary_roots(M)
        assert (got is None) == (want is None), M
        if got is not None:
            accepted += 1
            assert abs(got - want) <= 1e-12
    assert accepted == len(THETAS) * (len(COUPLINGS) + len(SEMISIMPLE_COUPLINGS))


def test_detect_rejects_a_slightly_scaled_double_that_the_roots_accepted():
    # Scaling by f = 1 + 5e-7 moves the double pair off the circle by 5e-7,
    # within the root detector's tol_circle = 1e-6, so it accepted.  The
    # trace rule reads the pair through Delta, which scales to
    # 8 (1 - f^2) = -8e-6: a spread of about 1.6e-3, far above the cluster
    # tolerance, so it rejects, also with the reciprocity bound relaxed.
    M = (1.0 + 5e-7) * make_jordan_symplectic(np.pi / 3, np.eye(2))
    assert detect_double_unitary_roots(M) is not None
    assert detect_double_unitary(M) is None
    assert detect_double_unitary(M, tol_circle=1e-3) is None


def test_detect_reads_the_reciprocity_bound():
    # Multipliers +-0.5i and +-sqrt(1.75)i: tr M = 0 and tr M^2 = -4, the
    # traces of a double pair at i, but M is not symplectic, so the
    # w-reduction does not hold.  tol_circle bounds max |M^T J4 M - J4|.
    quarter = np.array([[0.0, -1.0], [1.0, 0.0]])
    M = np.zeros((4, 4))
    M[:2, :2] = 0.5 * quarter
    M[2:, 2:] = np.sqrt(1.75) * quarter
    assert detect_double_unitary_roots(M) is None
    assert detect_double_unitary(M) is None
    assert detect_double_unitary(M, tol_circle=10.0) == 1j


@pytest.mark.parametrize("command", ["analyze", "classify"])
def test_closed_forms_solve_no_quartic(command, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("quartic_roots called")

    for module in (linalg, spectral, verify):
        monkeypatch.setattr(module, "quartic_roots", refuse)
    assert main([command, str(SCENARIOS / "jordan_pi3.json")]) == 0
    assert capsys.readouterr().err == ""


def test_make_jordan_symplectic_properties():
    for theta in THETAS:
        for C in COUPLINGS:
            M = make_jordan_symplectic(theta, C)
            assert is_symplectic(M, 1e-12)
            want = [np.exp(1j * theta)] * 2 + [np.exp(-1j * theta)] * 2
            assert best_match_distance(eigenvalues(M), want) < 1e-7


def test_make_jordan_symplectic_rejects_degenerate_angle():
    with pytest.raises(DegenerateAngleError):
        make_jordan_symplectic(0.0, np.eye(2))
    with pytest.raises(DegenerateAngleError):
        make_jordan_symplectic(np.pi, np.eye(2))
    with pytest.raises(ValueError):
        make_jordan_symplectic(np.pi / 3, np.array([[1.0, 0.5], [0.4, 1.0]]))


def test_jordan_pair_rejects_semisimple():
    with pytest.raises(NotAJordanBlockError):
        jordan_pair(J4, 1j)
    # traceless couplings produce semisimple double multipliers, which
    # detection accepts (Delta = 0) and the chain extraction rejects
    for theta in THETAS:
        for C in SEMISIMPLE_COUPLINGS:
            M = make_jordan_symplectic(theta, C)
            lam = detect_double_unitary(M)
            assert abs(lam - np.exp(1j * theta)) < 1e-13
            with pytest.raises(NotAJordanBlockError):
                jordan_pair(M, lam)


def test_jordan_pair_rejects_excluded_multipliers():
    M = make_jordan_symplectic(np.pi / 3, np.eye(2))
    with pytest.raises(ExcludedCaseError):
        jordan_pair(M, 1.0 + 0j)
    with pytest.raises(ExcludedCaseError):
        jordan_pair(M, 1.2 * np.exp(1j * np.pi / 3))


def test_jordan_pair_reference_eigenvector():
    M = make_jordan_symplectic(np.pi / 3, np.eye(2))
    pair = jordan_pair(M, detect_double_unitary(M))
    # eta1 proportional to (1, -i, 0, 0)
    v = np.array([1.0, -1j, 0.0, 0.0])
    proj = inner(pair.eta1, v) / inner(v, v)
    assert np.linalg.norm(pair.eta1 - proj * v) < 1e-10


def test_jordan_pair_normalization_and_pairings_across_corpus():
    for theta in THETAS:
        for C in COUPLINGS:
            M = make_jordan_symplectic(theta, C)
            lam = detect_double_unitary(M)
            assert lam is not None
            pair = jordan_pair(M, lam)
            scale = np.linalg.norm(pair.eta1) + np.linalg.norm(pair.eta2)
            # the chain normalization carries the multiplier on the
            # superdiagonal: M eta2 = lam eta2 + lam eta1
            assert np.linalg.norm(M @ pair.eta1 - lam * pair.eta1) < 1e-8 * scale
            assert np.linalg.norm(
                M @ pair.eta2 - lam * pair.eta2 - lam * pair.eta1) < 1e-8 * scale
            assert krein_pairings_ok(pair, tol=1e-8)
            assert abs(pair.form_21) > 1e-10


def test_krein_pairings_reject_random_vectors():
    # Vectors that are no chain fail the pairing relations.
    rng = np.random.default_rng(60)
    for _ in range(5):
        eta1, eta2 = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
        assert not krein_pairings_ok(pair_from_vectors(np.exp(1j * np.pi / 3), eta1, eta2))


def test_jordan_pair_k_action_table():
    M = make_jordan_symplectic(2 * np.pi / 3, np.diag([2.0, 1.0]))
    lam = detect_double_unitary(M)
    pair = jordan_pair(M, lam)
    K = lam * np.eye(4) - M
    d = lam - np.conj(lam)
    e1b, e2b = np.conj(pair.eta1), np.conj(pair.eta2)
    assert np.linalg.norm(K @ pair.eta1) < 1e-8
    assert np.linalg.norm(K @ pair.eta2 + lam * pair.eta1) < 1e-8
    assert np.linalg.norm(K @ e1b - d * e1b) < 1e-8
    assert np.linalg.norm(K @ e2b - d * e2b + np.conj(lam) * e1b) < 1e-8


def test_jordan_pair_gauge_is_deterministic():
    M = make_jordan_symplectic(np.pi / 6, np.array([[1.0, 1.0], [1.0, 0.0]]))
    lam = detect_double_unitary(M)
    p1 = jordan_pair(M, lam)
    p2 = jordan_pair(M, lam)
    assert np.array_equal(p1.eta1, p2.eta1)
    assert np.array_equal(p1.eta2, p2.eta2)
    idx = int(np.argmax(np.abs(p1.eta1)))
    assert p1.eta1[idx] == 1.0 + 0.0j


def test_gauge_breaks_modulus_ties_at_the_first_index():
    # jordan_pi3's eta1 is proportional to (1, -i, 0, 0): two entries of
    # equal modulus.  Which of them comes out larger depends on the SVD's
    # last bits, so the gauge takes the first one within a relative 1e-9.
    scenario = load_scenario(SCENARIOS / "jordan_pi3.json")
    M = scenario.gamma0
    eta1 = jordan_pair(M, detect_double_unitary(M)).eta1
    mod = np.abs(eta1)
    tied = np.flatnonzero(mod >= (1.0 - 1e-9) * mod.max())
    assert tied.tolist() == [0, 1]
    assert eta1[0] == 1.0 + 0.0j
    assert abs(eta1[1] + 1j) < 1e-12


def test_conjugated_pair_is_valid():
    M = make_jordan_symplectic(np.pi / 3, np.eye(2))
    pair = jordan_pair(M, detect_double_unitary(M))
    conj = conjugated(pair)
    lam = conj.lambda0
    scale = np.linalg.norm(conj.eta1) + np.linalg.norm(conj.eta2)
    assert np.linalg.norm(M @ conj.eta1 - lam * conj.eta1) < 1e-8 * scale
    assert np.linalg.norm(M @ conj.eta2 - lam * conj.eta2 - lam * conj.eta1) < 1e-8 * scale


def test_pair_from_vectors_recomputes_forms():
    M = make_jordan_symplectic(np.pi / 3, np.eye(2))
    pair = jordan_pair(M, detect_double_unitary(M))
    rebuilt = pair_from_vectors(pair.lambda0, pair.eta1, pair.eta2)
    assert rebuilt.form_21 == pair.form_21
    assert rebuilt.form_12 == pair.form_12
