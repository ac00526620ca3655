"""The expression front end: syntax-tree nodes, the flat parser against the
reference parser it replaced, and point evaluation against the array
walk of eval_matrix_batch."""

import warnings

import pytest

from kreinsplit.errors import (
    ExprDepthError,
    ExprDomainError,
    ExprSyntaxError,
    UnknownIdentifierError,
)
from kreinsplit.expr import (
    MAX_DEPTH,
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
    parse,
)
from oracles import parse_reference, pretty

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from test_expr import _NESTINGS  # noqa: E402
from test_expr_property import TREES, WIDE_TREES  # noqa: E402

# --- nodes ------------------------------------------------------------------


@pytest.mark.parametrize("binary", [Add, Sub, Mul, Div, Pow])
def test_binary_nodes_differ_by_class(binary):
    a, b = Var("t"), Num(2.0)
    assert binary(a, b) == binary(a, b)
    for other in {Add, Sub, Mul, Div, Pow} - {binary}:
        assert binary(a, b) != other(a, b)


def test_offset_is_not_compared():
    pairs = [(Num(1.0, 0), Num(1.0, 7)), (Var("t", 0), Var("t", 3)),
             (Neg(Var("t"), 0), Neg(Var("t", 9), 4)),
             (Call("sin", Var("t"), 0), Call("sin", Var("t", 4), 0)),
             (Add(Num(1.0), Var("eps"), 1), Add(Num(1.0, 5), Var("eps", 8), 6))]
    for x, y in pairs:
        assert x == y and not x != y
        assert hash(x) == hash(y)
    assert Num(1.0) != Num(2.0) and Var("t") != Var("eps")
    assert Call("sin", Var("t")) != Call("cos", Var("t"))
    assert Neg(Var("t")) != Var("t") and Num(0.0) != 0.0


@settings(max_examples=200, deadline=None, derandomize=True)
@given(TREES, TREES)
def test_hash_consistent_with_equality(x, y):
    if x == y:
        assert hash(x) == hash(y)
    assert (x == y) == (pretty(x) == pretty(y))
    assert len({x, y}) == (1 if x == y else 2)


# --- the parser against the reference ---------------------------------------


def _shape(e):
    """A tree as nested tuples holding every class, field and offset."""
    kind = type(e)
    if kind is Num:
        return kind, e.offset, e.value
    if kind is Var:
        return kind, e.offset, e.name
    if kind is Neg:
        return kind, e.offset, _shape(e.arg)
    if kind is Call:
        return kind, e.offset, e.fn, _shape(e.arg)
    return kind, e.offset, _shape(e.lhs), _shape(e.rhs)


def _outcome(parser, text):
    try:
        return _shape(parser(text))
    except (ExprSyntaxError, UnknownIdentifierError, ExprDepthError) as exc:
        return (type(exc), getattr(exc, "offset", None), getattr(exc, "expected", None),
                getattr(exc, "name", None), str(exc))


FRAGMENTS = [
    "t", "eps", "1", "0.5", "2.75e-3", "1e5", "3E+2", "7.", ".5",
    "sin(", "cos(", "exp(", "sqrt(", "abs(", "sin", "(", ")", "((", "))",
    "+", "-", "*", "/", "^", "--", " ", "\t",
    # malformed: unknown identifiers, bad literals, stray characters
    "foo", "x", "_a", "log(", "sign(", "1.2.3", ".e5", "1e400", ".", "e", "E5",
    "..", "1e", "e-", "٣", "²", "１", "$", ",", "t2",
]


@st.composite
def _rendered(draw, trees):
    """A tree written back as text, with random spacing and parentheses."""
    def text(e):
        kind = type(e)
        if kind is Num:
            body = repr(e.value)
        elif kind is Var:
            body = e.name
        elif kind is Call:
            body = f"{e.fn}({text(e.arg)})"
        elif kind is Neg:
            body = f"-{text(e.arg)}"
        else:
            op = {Add: "+", Sub: "-", Mul: "*", Div: "/", Pow: "^"}[kind]
            space = draw(st.sampled_from(["", " "]))
            body = f"({text(e.lhs)}{space}{op}{space}{text(e.rhs)})"
        return f"({body})" if draw(st.booleans()) and kind is not Num else body

    return text(draw(trees))


TEXTS = st.one_of(
    st.lists(st.sampled_from(FRAGMENTS), max_size=12).map("".join),
    _rendered(TREES),
    st.builds(lambda nest, n, tail: nest(n) + tail,
              st.sampled_from(list(_NESTINGS.values())),
              st.sampled_from([MAX_DEPTH - 1, MAX_DEPTH, MAX_DEPTH + 1]),
              st.sampled_from(["", ")", "+", "*foo", "^-t", "1.2.3"])),
)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(TEXTS)
def test_parser_matches_reference(text):
    assert _outcome(parse, text) == _outcome(parse_reference, text)


@pytest.mark.parametrize("text", [
    "", "1.2.3", ".e5", "1e400", "foo(t)", "sin t", "(1 + t", "1 + t)", "٣ + t",
    "²", "2^-3^2", "-t^2", "t*-t", "--t",
])
def test_parser_matches_reference_on_examples(text):
    assert _outcome(parse, text) == _outcome(parse_reference, text)


@pytest.mark.parametrize("nest", _NESTINGS.values(), ids=_NESTINGS)
def test_parser_matches_reference_at_the_depth_limit(nest):
    for n in (MAX_DEPTH, MAX_DEPTH + 1):
        assert _outcome(parse, nest(n)) == _outcome(parse_reference, nest(n))


# --- point evaluation against the batch -------------------------------------


def _same(curve, t, eps):
    """eval_matrix(t, eps) is eval_matrix_batch([t], eps)[0] bitwise, or
    both raise an ExprDomainError with the same offset and text."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            want = curve.eval_matrix_batch([t], eps)[0]
        except ExprDomainError as exc:
            with pytest.raises(ExprDomainError) as err:
                curve.eval_matrix(t, eps)
            assert (err.value.offset, str(err.value)) == (exc.offset, str(exc))
            return
        got = curve.eval_matrix(t, eps)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(WIDE_TREES, TREES, st.floats(-2.0, 2.0), st.floats(-0.5, 0.5))
def test_eval_matrix_is_the_batch_at_one_point(tree, other, t, eps):
    _same(SymmetricCurve({(0, 0): tree, (1, 2): other}), t, eps)


@pytest.mark.parametrize("text", [
    "1 + 1/(1e200*1e200)",  # an intermediate overflows, the value does not
    "1e200*(t+1)*1e200*0 + 1",
    "1/t", "sqrt(t - 1)", "(-8)^(1/3)", "exp(800*t)", "-t", "-eps", "0*-1",
])
def test_eval_matrix_is_the_batch_on_examples(text):
    curve = SymmetricCurve.from_strings({"0,0": text, "1,3": "sin(t)*eps"})
    for t in (0.0, 1.0, -0.0):
        _same(curve, t, 0.0)
        _same(curve, t, -0.0)


def test_intermediate_overflow_evaluates():
    curve = SymmetricCurve.from_strings({"0,0": "1 + 1/(1e200*1e200) + 0.4*sin(t)"})
    assert curve.eval_matrix(0.0, 0.0)[0, 0] == 1.0


@pytest.mark.parametrize("nest", _NESTINGS.values(), ids=_NESTINGS)
def test_eval_matrix_at_the_depth_limit(nest):
    _same(SymmetricCurve.from_strings({"0,0": nest(MAX_DEPTH)}), 0.5, 0.0)


def test_point_walker_held_to_the_depth_limit():
    tree = Var("t")
    for _ in range(MAX_DEPTH + 1):
        tree = Neg(tree)
    curve = SymmetricCurve({(0, 0): tree})  # built, not parsed: nothing checked yet
    with pytest.raises(ExprDepthError):
        curve.eval_matrix(0.5)
    with pytest.raises(ExprDepthError):
        curve.eval_matrix_batch([0.5])


def test_curve_of_any_depth_constructs():
    # The eps scan of the constructor walks an explicit stack: a tree built
    # in code 5,000 levels deep constructs, and only evaluation refuses it.
    tree = Var("eps")
    for _ in range(5000):
        tree = Neg(tree)
    curve = SymmetricCurve({(0, 0): tree})
    assert curve.has_eps
    with pytest.raises(ExprDepthError):
        curve.eval_matrix(0.5)
