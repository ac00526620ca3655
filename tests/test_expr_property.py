"""Property tests on random trees, evaluated by the tree walker on arrays
of points: the symbolic eps-derivative agrees with a fourth-order central
difference of the tree, the walker is bitwise equal to the
generated-source compiler it replaced, and a non-finite entry is located
at the first node, children before parents, whose value is non-finite."""

import itertools
import warnings

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from kreinsplit.expr import (  # noqa: E402
    _FUNCTIONS,
    Add,
    Call,
    Div,
    Mul,
    Neg,
    Num,
    Pow,
    Sub,
    SymmetricCurve,
    Var,
    _value,
    d_eps,
)
from kreinsplit.errors import ExprDomainError  # noqa: E402
from oracles import compile_generated  # noqa: E402

LEAVES = st.one_of(
    st.sampled_from([Var("t"), Var("eps")]),
    st.integers(-20, 20).map(lambda k: Num(k / 10.0)),
)


def _extend(children):
    return st.one_of(
        st.builds(Neg, children),
        st.builds(Call, st.sampled_from(_FUNCTIONS), children),
        st.builds(lambda op, a, b: op(a, b), st.sampled_from([Add, Sub, Mul, Div, Pow]),
                  children, children),
    )


TREES = st.recursive(LEAVES, _extend, max_leaves=8)
# with leaves that overflow a product, a quotient or exp
WIDE_TREES = st.recursive(
    st.one_of(LEAVES, st.sampled_from([Num(1e200), Num(-1e200), Num(1e-200), Num(800.0)])),
    _extend, max_leaves=8)


def _abs_arguments(e):
    if type(e) in (Num, Var):
        return []
    if type(e) in (Neg, Call):
        return ([e.arg] if type(e) is Call and e.fn == "abs" else []) + _abs_arguments(e.arg)
    return _abs_arguments(e.lhs) + _abs_arguments(e.rhs)


def _stencil(tree, t, eps, h):
    """The values of a tree at eps + h*(-2, -1, 1, 2)."""
    offsets = np.array([-2.0, -1.0, 1.0, 2.0])
    with np.errstate(all="ignore"):
        return np.broadcast_to(_value(tree, np.full(4, t), eps + h * offsets), (4,))


def _fourth_order_difference(f, h):
    # Non-finite stencils are discarded by assume(), without a numpy warning.
    with np.errstate(all="ignore"):
        return (f[0] - 8.0 * f[1] + 8.0 * f[2] - f[3]) / (12.0 * h)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(TREES, st.floats(0.1, 1.5), st.floats(-0.5, 0.5))
def test_d_eps_walk_matches_fourth_order_difference(tree, t, eps):
    dtree = d_eps(tree)
    with np.errstate(all="ignore"):
        exact = float(np.broadcast_to(_value(dtree, np.array([t]), eps), (1,))[0])
    f_coarse = _stencil(tree, t, eps, 2e-3)
    f_fine = _stencil(tree, t, eps, 1e-3)
    coarse = _fourth_order_difference(f_coarse, 2e-3)
    fine = _fourth_order_difference(f_fine, 1e-3)
    assume(np.isfinite(exact) and np.isfinite(coarse) and np.isfinite(fine))
    # The difference sees the derivative only where the tree is smooth
    # over the stencil: no abs argument changes sign there, the derivative
    # barely moves across it, and the two step sizes agree to their
    # O(h^4) error.
    for arg in _abs_arguments(tree):
        u = _stencil(arg, t, eps, 2e-3)
        assume(np.all(u > 0) or np.all(u < 0))
    d_all = np.append(_stencil(dtree, t, eps, 2e-3), exact)
    assume(np.ptp(d_all) <= 0.1 * (1.0 + np.max(np.abs(d_all))))
    resolved = 1e-6 * (1.0 + abs(fine) + np.max(np.abs(f_coarse)))
    assume(abs(coarse - fine) <= resolved)
    assert abs(exact - fine) <= resolved


@settings(max_examples=300, deadline=None, derandomize=True)
@given(TREES, st.floats(-2.0, 2.0), st.floats(-0.5, 0.5))
def test_walker_bitwise_equal_generated_source(tree, t, eps):
    ts = np.array([t, t + 0.25, t + 1.0])
    for trees in ([tree], [d_eps(tree)], [tree, d_eps(tree)]):
        for e in (eps, ts * eps):
            with np.errstate(all="ignore"):
                got = [_value(one, ts, e) for one in trees]
            want = compile_generated(trees)(ts, e)
            assert [type(g) for g in got] == [type(w) for w in want]
            assert [np.asarray(g).tobytes() for g in got] == [np.asarray(w).tobytes() for w in want]


def _postorder(e):
    """The subtrees of a tree, children before parents, left before right."""
    if type(e) in (Num, Var):
        return [e]
    if type(e) in (Neg, Call):
        return _postorder(e.arg) + [e]
    return _postorder(e.lhs) + _postorder(e.rhs) + [e]


def _numbered(e, counter):
    """The same tree with every node at its own offset, in postorder."""
    if type(e) is Num:
        return Num(e.value, next(counter))
    if type(e) is Var:
        return Var(e.name, next(counter))
    if type(e) is Neg:
        return Neg(_numbered(e.arg, counter), next(counter))
    if type(e) is Call:
        return Call(e.fn, _numbered(e.arg, counter), next(counter))
    lhs = _numbered(e.lhs, counter)
    return type(e)(lhs, _numbered(e.rhs, counter), next(counter))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(WIDE_TREES, st.floats(-2.0, 2.0), st.floats(-0.5, 0.5))
def test_domain_error_located_at_the_first_non_finite_node(tree, t, eps):
    tree = _numbered(tree, itertools.count())
    nodes = _postorder(tree)
    with np.errstate(all="ignore"):
        values = [float(np.broadcast_to(_value(node, np.array([t]), eps), (1,))[0])
                  for node in nodes]
    curve = SymmetricCurve({(0, 0): tree})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if np.isfinite(values[-1]):
            assert curve.eval_matrix_batch([t], eps)[0, 0, 0] == values[-1]
            return
        with pytest.raises(ExprDomainError) as err:
            curve.eval_matrix_batch([t], eps)
    first = next(node for node, v in zip(nodes, values) if not np.isfinite(v))
    assert err.value.offset == first.offset
