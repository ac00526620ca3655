"""Fixed-shape complex linear algebra for dimension four.

Everything here is specialized to 4x4 matrices: the standard symplectic
form, mixed exterior powers of one or two linear maps, the characteristic
polynomial recentred at a point (one stacked determinant for a stack of
matrices), and a closed-form quartic solver with Newton polishing.  A
quartic is a row of five coefficients in ascending powers of (lambda -
center), with its centre passed beside it.  All scalars are double
precision; matrices are plain numpy arrays.
"""

import cmath
from itertools import combinations
from math import isfinite

import numpy as np

from .errors import DegeneratePolynomialError

#: The standard symplectic form on R^4, block form [[0, I], [-I, 0]].
J4 = np.block([[np.zeros((2, 2)), np.eye(2)], [-np.eye(2), np.zeros((2, 2))]])

_ID4 = np.eye(4)


def as_mat4(m):
    """Coerce to a complex 4x4 matrix or a stack (..., 4, 4) of them,
    rejecting non-finite entries."""
    a = np.asarray(m, dtype=complex)
    a = a.reshape(a.shape[:-2] + (4, 4))
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    return a


def inner(x, y):
    """Hermitian inner product sum_j x_j * conj(y_j).

    Conjugation sits on the *second* argument, so ``inner((i,0,0,0), e1)``
    is ``i`` and not ``-i``.
    """
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    return complex(np.vdot(y, x))


def symplectic_form(x, y):
    """The pairing <x, J4 y>.  Antisymmetric under conjugated swap:
    symplectic_form(x, y) == -conj(symplectic_form(y, x)), hence purely
    imaginary on the diagonal."""
    return inner(x, J4 @ np.asarray(y, dtype=complex))


def max_abs(m):
    """Entrywise max-norm."""
    return float(np.abs(m).max())


def is_symplectic(M, tol):
    """True iff M is real (imaginary parts below tol) and M^T J4 M = J4
    to entrywise tolerance tol."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    M = np.asarray(M)
    if np.iscomplexobj(M):
        if not max_abs(M.imag) <= tol:  # a NaN part fails too
            return False
        M = M.real
    return max_abs(M.T @ J4 @ M - J4) <= tol


def symplectic_inverse(M):
    """Inverse of a real symplectic matrix via -J4 M^T J4 (exact on the
    group, cheaper than LU, and self-correcting against drift)."""
    M = np.asarray(M)
    return -J4 @ M.T @ J4


def discriminant(M):
    """Delta = 2 tr(M^2) - (tr M)^2 + 8, the discriminant in w = lambda +
    1/lambda of a real symplectic M's characteristic polynomial (Howard &
    MacKay, J. Math. Phys. 28, 1987): 0 at a double pair exp(+-i theta0),
    which splits by sqrt|Delta| / (2 sin theta0); > 0 for four distinct unit
    multipliers; < 0 for a quartet off the circle."""
    M = np.asarray(M, dtype=float)
    tr = M.trace()
    return float(2.0 * (M * M.T).sum() - tr * tr + 8.0)


def _assignment_table():
    """Every assignment of {identity, A1, A2} (0, 1, 2) to the four columns,
    grouped by occurrence counts (k1, k2), A1's columns chosen first, then
    A2's, each in lexicographic order; and the rows of each class.  The
    classes run over k1 within k2, so the 16 rows without A2 come first."""
    rows, classes = [], {}
    for k2 in range(5):
        for k1 in range(5 - k2):
            start = len(rows)
            for ones in combinations(range(4), k1):
                for twos in combinations([i for i in range(4) if i not in ones], k2):
                    rows.append([1 if i in ones else 2 if i in twos else 0 for i in range(4)])
            classes[k1, k2] = slice(start, len(rows))
    return np.array(rows), classes


_ASSIGN, _CLASSES = _assignment_table()


def _gather(rows):
    """Index arrays that take the column matrices of the table rows
    ``rows`` from a choice stack (..., 3, 4, 4) of (identity, A1, A2):
    cols[..., r, i, j] = choices[..., _ASSIGN[rows][r, j], i, j]."""
    return ..., _ASSIGN[rows, None, :], np.arange(4)[:, None], np.arange(4)


def _dets(A1, A2, gather):
    """Determinants of the column matrices that ``gather`` (:func:`_gather`)
    takes, over the stack axes of A1 and A2, from one stacked det; shape
    (..., rows).  A single map and a stack fill one choice stack alike."""
    choices = np.empty(np.broadcast(A1, A2).shape[:-2] + (3, 4, 4), dtype=complex)
    choices[..., 0, :, :] = _ID4
    choices[..., 1, :, :] = A1
    choices[..., 2, :, :] = A2
    return np.linalg.det(choices[gather])


def _fold(dets):
    """Left-to-right sum over the last axis (np.sum adds pairwise)."""
    return np.add.accumulate(dets, axis=-1)[..., -1]


def exterior_power(k1, k2, A1, A2=None):
    """Scaling factor of the mixed exterior power of two maps on C^4.

    Sums, over all assignments of {identity, A1, A2} to the four basis
    columns using A1 exactly ``k1`` times and A2 exactly ``k2`` times
    (k1, k2 >= 0, k1 + k2 <= 4), the determinant of the resulting column
    matrix.  Special cases: ``exterior_power(0, 0, ...)`` is 1,
    ``exterior_power(1, 0, A)`` is trace(A) and ``exterior_power(4, 0, A)``
    is det(A).  A2 may be omitted when k2 == 0.  Returns a complex, or an
    array over the stack axes when a map is a stack of 4x4 matrices.
    """
    if k1 < 0 or k2 < 0 or k1 + k2 > 4:
        raise ValueError(f"invalid occurrence counts k1={k1}, k2={k2}")
    if A2 is None and k2 > 0:
        raise ValueError("A2 required when k2 > 0")
    A1, A2 = (_ID4 if A is None else as_mat4(A) for A in (A1, A2))
    total = _fold(_dets(A1, A2, _gather(_CLASSES[k1, k2])))
    return complex(total) if total.ndim == 0 else total


_CHARPOLY_GATHER = _gather(slice(0, 16))


def charpoly(M, lambda0):
    """Characteristic polynomial of ``M`` recentred at ``lambda0``.

    With K = lambda0*I - M, det(lambda*I - M) = det((lambda - lambda0)*I + K),
    so the coefficient of (lambda - lambda0)^k is the exterior power
    ``exterior_power(4 - k, 0, K)``.  Recentring at a near-double root
    avoids catastrophic cancellation when the roots are later extracted.
    Returns the coefficients in ascending powers of (lambda - lambda0),
    shape (5,) for one matrix; a stack (n, 4, 4) gives an (n, 5) array of
    rows from one stacked determinant over the 16 column assignments of
    each matrix.  The leading coefficient is 1.
    """
    K = complex(lambda0) * _ID4 - as_mat4(M)
    dets = _dets(K, _ID4, _CHARPOLY_GATHER)
    return np.stack([_fold(dets[..., _CLASSES[4 - k, 0]]) for k in range(5)], axis=-1)


# charpoly's 16 rows, then the (3, 1) and (2, 1) classes: the determinants of
# the coefficient ladder as one stack.
_C31, _C21 = _CLASSES[3, 1], _CLASSES[2, 1]
_LADDER_GATHER = _gather(np.r_[0:16, _C31, _C21])
_SPLIT = 16 + _C31.stop - _C31.start


def charpoly_mixed(M, lambda0, A):
    """``charpoly(M, lambda0)`` as a tuple, ``exterior_power(3, 1, K, A)`` and
    ``exterior_power(2, 1, K, A)`` with K = lambda0*I - M, for one 4x4 M,
    from one stacked determinant; bitwise what those three calls return."""
    K = complex(lambda0) * _ID4 - as_mat4(M)
    dets = _dets(K, as_mat4(A), _LADDER_GATHER)
    coeffs = tuple(complex(_fold(dets[_CLASSES[4 - k, 0]])) for k in range(5))
    return coeffs, complex(_fold(dets[16:_SPLIT])), complex(_fold(dets[_SPLIT:]))


def _quadratic_roots(b, c):
    # Monic y^2 + b y + c, numerically stable branch choice.
    disc = cmath.sqrt(b * b - 4.0 * c)
    if (b.conjugate() * disc).real < 0.0:
        disc = -disc
    q = -(b + disc) / 2.0
    if q == 0:
        return 0j, -b
    return q, c / q


def _cubic_roots(a2, a1, a0):
    # Monic z^3 + a2 z^2 + a1 z + a0 via Cardano, all three roots.
    shift = -a2 / 3.0
    p = a1 - a2 * a2 / 3.0
    q = a0 - a2 * a1 / 3.0 + 2.0 * a2 ** 3 / 27.0
    disc = cmath.sqrt((q / 2.0) ** 2 + (p / 3.0) ** 3)
    u1 = -q / 2.0 + disc
    u2 = -q / 2.0 - disc
    u = u1 if abs(u1) >= abs(u2) else u2
    if u == 0:
        return [shift, shift, shift]
    big = u ** (1.0 / 3.0)
    omega = complex(-0.5, 0.8660254037844386)
    roots = []
    for k in range(3):
        ck = big * omega ** k
        roots.append(ck - p / (3.0 * ck) + shift)
    return roots


def poly_value(coeffs, center, lam):
    """The quartic with ``coeffs`` in ascending powers of (lambda -
    center), evaluated at ``lam`` by the centred Horner form from 0j."""
    x = complex(lam) - complex(center)
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * x + complex(c)
    return acc


def _polish(coeffs, center, x):
    # Newton iteration on the centred Horner form, which keeps near-double
    # roots well conditioned.  Both forms are written out from 0j with the
    # operations of poly_value and of k * c_k, so the roots are the
    # per-call loop's bit for bit; each new iterate's f is reused.
    c0, c1, c2, c3, c4 = coeffs
    d1, d2, d3, d4 = 1 * c1, 2 * c2, 3 * c3, 4 * c4
    lam = best_lam = center + x
    y = lam - center
    f = ((((0j * y + c4) * y + c3) * y + c2) * y + c1) * y + c0
    res = best_res = abs(f)
    for _ in range(40):
        if f == 0:
            return lam
        df = (((0j * y + d4) * y + d3) * y + d2) * y + d1
        if df == 0:
            break
        step = f / df
        lam_new = lam - step
        y = lam_new - center
        f = ((((0j * y + c4) * y + c3) * y + c2) * y + c1) * y + c0
        res_new = abs(f)
        if not isfinite(res_new):
            break
        if res_new < best_res:
            best_res = res_new
            best_lam = lam_new
        if res_new >= res or abs(step) <= 1e-17 * (1.0 + abs(lam_new)):
            break
        lam, res = lam_new, res_new
    return best_lam


def quartic_roots(coeffs, center):
    """All four roots of the quartic with ``coeffs`` in ascending powers of
    (lambda - center), in absolute coordinates.

    Primary path is the closed-form resolvent-cubic factorization of the
    depressed quartic, followed by Newton polishing on the recentred
    polynomial; companion-matrix eigenvalues are deliberately not used so
    eigenvalue extraction elsewhere can rest on this routine without
    circularity.  Clustered roots are reported individually; no
    multiplicity inference is attempted.

    Raises ValueError unless there are exactly five coefficients, and
    DegeneratePolynomialError when the leading one is zero.  Returns a
    numpy array of four complex numbers sorted by (real, imag).
    """
    if len(coeffs) != 5:
        raise ValueError("need exactly five coefficients")
    # Python complex arithmetic: numpy scalars do not always round alike.
    c0, c1, c2, c3, c4 = coeffs = tuple(complex(c) for c in coeffs)
    if c4 == 0:
        raise DegeneratePolynomialError("leading coefficient is zero")
    center = complex(center)
    b = c3 / c4
    c = c2 / c4
    d = c1 / c4
    e = c0 / c4
    # Depressed quartic y^4 + pp y^2 + qq y + rr with x = y - b/4.
    b2 = b * b
    pp = c - 3.0 * b2 / 8.0
    qq = d - b * c / 2.0 + b * b2 / 8.0
    rr = e - b * d / 4.0 + b2 * c / 16.0 - 3.0 * b2 * b2 / 256.0
    shift = -b / 4.0
    scale = 1.0 + max(abs(pp), abs(qq), abs(rr))
    if abs(qq) <= 1e-14 * scale:
        z1, z2 = _quadratic_roots(pp, rr)
        s1 = cmath.sqrt(z1)
        s2 = cmath.sqrt(z2)
        ys = [s1, -s1, s2, -s2]
    else:
        res = _cubic_roots(2.0 * pp, pp * pp - 4.0 * rr, -qq * qq)
        big = max(res, key=abs)
        u = cmath.sqrt(big)
        s = (pp + big - qq / u) / 2.0
        w = (pp + big + qq / u) / 2.0
        y1, y2 = _quadratic_roots(u, s)
        y3, y4 = _quadratic_roots(-u, w)
        ys = [y1, y2, y3, y4]
    roots = [_polish(coeffs, center, y + shift) for y in ys]
    roots.sort(key=lambda z: (z.real, z.imag))
    return np.array(roots, dtype=complex)
