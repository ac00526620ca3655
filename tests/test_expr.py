import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

import kreinsplit.expr as expr
from kreinsplit import SymmetricCurve, parse
from kreinsplit.errors import (
    ExprDepthError,
    ExprDomainError,
    ExprSyntaxError,
    SymmetryConflictError,
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
    Var,
    _value,
    d_eps,
)
from oracles import compile_generated, d_eps_exact, evaluate, pretty

SCENARIOS = Path(__file__).parent.parent / "scenarios"

# Corpus for round-trip and compilation-equivalence checks.
CORPUS = [
    "1", "0.5", "2.75e-3", "t", "eps",
    "t + eps", "t - eps", "t*eps", "t/2", "t^2",
    "-t", "--t", "-t^2", "2^-3", "2^3^2",
    "1 + 2*t", "(1 + t)*(1 - t)", "t*(t + 1)/(t + 2)",
    "sin(t)", "cos(t)", "exp(-t)", "sqrt(t + 2)", "abs(-t)",
    "sin(cos(t))", "exp(sin(t) + cos(eps))",
    "1 - 0.3*t", "1 + 0.2*t^2", "0.5*sin(t)", "0.1*(1 - cos(t))",
    "0.4 + eps*(1 + 0.3*sin(t))", "0.2*eps*t",
    "t + 2*eps", "eps*sin(t)", "t^2*eps", "eps/2", "eps/(1 + t^2)",
    "sqrt(abs(t - eps))", "3/4/5", "8 - 4 - 2", "2*t^3 - t^2 + 4*t - 7",
    "sin(t)^2 + cos(t)^2", "exp(t)/(1 + exp(t))",
    "1e2", "1.5e-4", "12.25", "0.0001*t",
    "t^2^2", "abs(t)*abs(eps)", "-(t + eps)", "-sin(t)", "cos(-t)",
]
assert len(CORPUS) >= 50


def test_parse_structure():
    tree = parse("sin(t)+2*eps")
    assert tree == Add(Call("sin", Var("t")), Mul(Num(2.0), Var("eps")))


def test_literal():
    assert parse("1") == Num(1.0)


def test_power_right_associative():
    assert evaluate(parse("2^3^2"), 0, 0) == 512.0


def test_precedence():
    assert evaluate(parse("-2^2"), 0, 0) == -4.0
    assert evaluate(parse("2*-3"), 0, 0) == -6.0
    assert evaluate(parse("1+2*3^2"), 0, 0) == 19.0


def test_left_associativity():
    assert evaluate(parse("8/4/2"), 0, 0) == 1.0
    assert evaluate(parse("8-4-2"), 0, 0) == 2.0


def test_whitespace_insensitive():
    assert parse(" 1 +  2 * t ") == parse("1+2*t")


def test_eval_examples():
    assert evaluate(parse("t*t"), 3.0, 0.0) == 9.0
    assert evaluate(parse("cos(0)"), 0.0, 0.0) == 1.0


def test_eval_domain_errors():
    with pytest.raises(ExprDomainError):
        evaluate(parse("1/t"), 0.0, 0.0)
    with pytest.raises(ExprDomainError):
        evaluate(parse("sqrt(-1)"), 0.0, 0.0)
    with pytest.raises(ExprDomainError):
        evaluate(parse("(-8)^0.5"), 0.0, 0.0)
    with pytest.raises(ExprDomainError):
        evaluate(parse("exp(t)"), 1e6, 0.0)


def test_domain_error_carries_offset():
    src = "1 + t/(t - 1)"
    with pytest.raises(ExprDomainError) as err:
        evaluate(parse(src), 1.0, 0.0)
    assert err.value.offset == src.index("/")


def test_syntax_error_offset_and_expected():
    with pytest.raises(ExprSyntaxError) as err:
        parse("2*+3")
    assert err.value.offset == 2
    assert "(" in err.value.expected
    with pytest.raises(ExprSyntaxError) as err:
        parse("sin t")
    assert err.value.expected == ("(",)
    with pytest.raises(ExprSyntaxError):
        parse("1 $ 2")
    with pytest.raises(ExprSyntaxError):
        parse("(1 + t")


def test_unknown_identifier():
    with pytest.raises(UnknownIdentifierError) as err:
        parse("foo(t)")
    assert err.value.name == "foo"
    with pytest.raises(UnknownIdentifierError):
        parse("x + 1")


def test_pretty_round_trip_corpus():
    for src in CORPUS:
        tree = parse(src)
        assert parse(pretty(tree)) == tree, src


def test_array_walker_agrees_with_evaluate():
    # the walker on arrays of points, alone and as the entries of one checked walk
    rng = np.random.default_rng(21)
    trees = [parse(src) for src in CORPUS]
    entries = {(k, k): tree for k, tree in enumerate(trees)}
    for k, (src, tree) in enumerate(zip(CORPUS, trees)):
        ts = rng.uniform(0.1, 2.0, size=5)
        ep = 0.3
        want = np.array([evaluate(tree, t, ep) for t in ts])
        got = np.broadcast_to(_value(tree, ts, ep), ts.shape)
        # numpy's power and exp kernels may differ from libm by an ulp
        assert np.allclose(got, want, rtol=5e-16, atol=0.0), src
        together = dict(expr._checked(entries, ts, ep, "entry"))
        assert np.array_equal(np.broadcast_to(together[(k, k)], ts.shape), got), src


def _bitwise_equal(got, want):
    """Two tuples of evaluated values hold the same types and the same bytes."""
    return len(got) == len(want) and all(
        type(g) is type(w) and np.asarray(g).tobytes() == np.asarray(w).tobytes()
        for g, w in zip(got, want))


def test_walker_bitwise_equal_generated_source():
    trees = [parse(src) for src in CORPUS]
    for path in sorted(SCENARIOS.glob("*.json")):
        trees += [parse(text) for text in json.loads(path.read_text())["curve"]["entries"].values()]
    trees += [d_eps(tree) for tree in trees]
    trees += [Div(Num(1.0), Num(0.0)), Neg(Num(0.0))]  # Python-float operands
    ts = np.linspace(-0.5, 2.0, 11)
    for t, eps in ((ts, 0.3), (ts, 0.0), (ts, np.linspace(-0.2, 0.2, 11)),
                   (ts[:, None], np.linspace(0.0, 1e-3, 3))):
        with np.errstate(all="ignore"):
            got = tuple([_value(e, t, eps) for e in trees])
        assert _bitwise_equal(got, compile_generated(trees)(t, eps))


_NESTINGS = {
    "parentheses": lambda n: "(" * n + "t" + ")" * n,
    "calls": lambda n: "sin(" * n + "t" + ")" * n,
    "unary-minus": lambda n: "-" * n + "t",
    "power": lambda n: "^".join(["t"] * (n + 1)),
    "sum": lambda n: "+".join(["t"] * (n + 1)),
    "quotient": lambda n: "/".join(["t"] * (n + 1)),
    # a chain's operators all sit above its first operand
    "chain-over-parentheses": lambda n: "(" * 50 + "t" + ")" * 50 + "-t" * (n - 50),
    "negated-groups": lambda n: "-(" * 25 + "*".join(["t"] * (n - 49)) + ")" * 25,
}


@pytest.mark.parametrize("nest", _NESTINGS.values(), ids=_NESTINGS)
def test_depth_limit_is_exact(nest):
    tree = parse(nest(MAX_DEPTH))
    value = evaluate(tree, 0.5, 0.0)
    assert _value(tree, np.array([0.5]), 0.0) == pytest.approx(value, rel=1e-15)
    with pytest.raises(ExprDepthError, match=f"deeper than {MAX_DEPTH} levels at offset"):
        parse(nest(MAX_DEPTH + 1))


def test_walker_rejects_a_deep_tree_without_recursion_error():
    tree = Var("t")
    for _ in range(5000):
        tree = Neg(tree)
    with pytest.raises(ExprDepthError):
        _value(tree, np.array([0.5]), 0.0)


def test_d_eps_held_to_the_depth_limit():
    # about 63 levels of text, but the product rule doubles the depth
    curve = SymmetricCurve.from_strings({"0,0": "eps" + "*(1 + eps)" * 60, "1,1": "t"})
    assert curve.eval_matrix(0.5, 0.0)[1, 1] == 0.5
    with pytest.raises(ExprDepthError, match="eps-derivative"):
        curve.d_eps_matrix_batch([0.5])
    shallow = SymmetricCurve.from_strings({"0,0": "eps" + "*(1 + eps)" * 40})
    assert shallow.d_eps_matrix_batch([0.5], 0.0)[0, 0, 0] == 1.0


def test_codegen_helpers_stay_out_of_the_parser():
    for name in ("log", "sign"):
        with pytest.raises(UnknownIdentifierError):
            parse(f"{name}(t)")
    assert evaluate(Call("sign", Num(-2.0)), 0.0, 0.0) == -1.0
    assert evaluate(Call("sign", Num(0.0)), 0.0, 0.0) == 0.0
    assert evaluate(Call("log", Var("t")), math.e, 0.0) == 1.0
    with pytest.raises(ExprDomainError):
        evaluate(Call("log", Var("t")), 0.0, 0.0)


def test_d_eps_exact_linear():
    # the reference walker the symbolic derivative is held to
    assert d_eps_exact(parse("t + 2*eps"), 0.7, 0.0) == 2.0
    tree = parse("eps*sin(t)")
    assert d_eps_exact(tree, 0.7, 0.0) == math.sin(0.7)
    assert d_eps_exact(parse("0.2*eps*t"), 0.7, 0.0) == pytest.approx(0.14)


def test_d_eps_folds_to_the_coefficient():
    assert d_eps(parse("0.4 + eps*(1 + 0.3*sin(t))")) == parse("1 + 0.3*sin(t)")
    assert d_eps(parse("0.2*eps*t")) == parse("0.2*t")
    assert d_eps(parse("eps/(1 + t)")) == parse("1/(1 + t)")
    assert d_eps(parse("t - eps")) == parse("-1")
    assert d_eps(parse("sin(t)*exp(t)")) == Num(0.0)
    assert d_eps(parse("0*eps/t")) == Num(0.0)


def test_d_eps_folds_without_comparing_trees(monkeypatch):
    # Zero terms and unit factors are recognised by value: no node equality
    # runs while a nonlinear coupling of the eps workload differentiates.
    tree = parse("0.4 + sin(eps*(1.334184))*(1 + 0.3*cos(t))")
    calls = []

    def counting(self, other):
        calls.append(self)
        return NotImplemented

    monkeypatch.setattr(expr._Node, "__eq__", counting)
    derivative = d_eps(tree)
    assert calls == []
    monkeypatch.undo()
    assert derivative == parse("cos(eps*(1.334184))*1.334184*(1 + 0.3*cos(t))")


def test_curve_symmetry_is_bitwise():
    curve = SymmetricCurve.from_strings({"0,1": "sin(t)*0.3", "2,3": "t^2"})
    M = curve.eval_matrix(0.37)
    assert np.array_equal(M, M.T)
    assert M[0, 1] == M[1, 0] != 0


def test_curve_defaults_and_identity():
    zero = SymmetricCurve.from_strings({})
    assert np.array_equal(zero.eval_matrix(1.3), np.zeros((4, 4)))
    ident = SymmetricCurve.from_strings({f"{i},{i}": "1" for i in range(4)})
    assert np.array_equal(ident.eval_matrix(0.5), np.eye(4))


def test_curve_mirrored_entries():
    curve = SymmetricCurve.from_strings({"1,2": "t", "2,1": "t"})
    M = curve.eval_matrix(0.25)
    assert M[1, 2] == M[2, 1] == 0.25


def test_curve_symmetry_conflict():
    with pytest.raises(SymmetryConflictError):
        SymmetricCurve.from_strings({"0,1": "t", "1,0": "2*t"})


def test_curve_bad_keys():
    with pytest.raises(ValueError):
        SymmetricCurve.from_strings({"0,4": "t"})
    with pytest.raises(ValueError):
        SymmetricCurve.from_strings({"nonsense": "t"})


def test_curve_has_eps():
    assert not SymmetricCurve.from_strings({"0,0": "t"}).has_eps
    assert SymmetricCurve.from_strings({"0,0": "t + eps"}).has_eps


def test_curve_domain_error_names_entry():
    curve = SymmetricCurve.from_strings({"1,3": "1/t"})
    with pytest.raises(ExprDomainError) as err:
        curve.eval_matrix(0.0)
    assert "(1,3)" in str(err.value)


def test_overflow_is_located_at_the_node_that_overflowed():
    # the first * past 1e200*(t+1) overflows, not the root
    src = "1e200*(t+1)*1e200*0 + 1"
    curve = SymmetricCurve.from_strings({"0,0": src})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ExprDomainError) as err:
            curve.eval_matrix(0.0)
    assert err.value.offset == 11 == src.index("*", src.index(")"))
    assert err.value.reason == "entry (0,0): overflow at (t, eps) = (0.0, 0.0)"


def test_curve_batch_matches_scalar():
    curve = SymmetricCurve.from_strings(
        {"0,0": "1 + 0.4*sin(t)", "0,1": "0.5*sin(t)", "1,3": "0.1*(1 - cos(t))"})
    ts = np.linspace(0.0, 2.0, 9)
    batch = curve.eval_matrix_batch(ts)
    for i, t in enumerate(ts):
        assert np.array_equal(batch[i], curve.eval_matrix(t))


def test_d_eps_matrix_linear_fast_path():
    curve = SymmetricCurve.from_strings({"0,0": "t + 2*eps", "0,1": "eps*sin(t)"})
    D = curve.d_eps_matrix_batch([0.7])[0]
    assert D[0, 0] == 2.0
    assert D[0, 1] == D[1, 0] == math.sin(0.7)


def test_d_eps_matrix_eps_free_is_zero():
    curve = SymmetricCurve.from_strings({"0,0": "sin(t)"})
    assert np.array_equal(curve.d_eps_matrix_batch([0.3, 1.2]), np.zeros((2, 4, 4)))


def test_d_eps_matrix_finite_difference():
    curve = SymmetricCurve.from_strings({"0,0": "sin(eps)"})
    D = curve.d_eps_matrix_batch([0.0], 0.0)[0]
    fd = (curve.eval_matrix(0.0, 1e-5) - curve.eval_matrix(0.0, -1e-5)) / 2e-5
    assert D[0, 0] == 1.0
    assert abs(D[0, 0] - fd[0, 0]) < 1e-9


def test_d_eps_linear_fast_path_matches_finite_difference():
    curve = SymmetricCurve.from_strings(
        {"0,0": "t + 2*eps", "1,2": "eps*(1 + 0.3*sin(t))", "3,3": "0.2*eps*t"})
    exact = curve.d_eps_matrix_batch([0.0, 0.4, 1.7], 0.0)
    for t, D in zip((0.0, 0.4, 1.7), exact):
        fd = (curve.eval_matrix(t, 1e-6) - curve.eval_matrix(t, -1e-6)) / 2e-6
        assert np.max(np.abs(D - fd)) < 1e-8


def _linear_couplings():
    doc = json.loads((SCENARIOS / "resonant_eps.json").read_text())
    rng = np.random.default_rng(5)
    seeded = {f"{i},{j}": f"eps*({float(d)!r} + 0.3*sin(t))"
              for (i, j), d in zip([(0, 0), (0, 2), (1, 3), (3, 3)], rng.uniform(-1, 1, 4))}
    return [pytest.param(doc["curve"]["entries"], id="resonant_eps"),
            pytest.param(seeded, id="seeded"),
            pytest.param({"0,1": "0.2*eps*t"}, id="0.2*eps*t")]


@pytest.mark.parametrize("entries", _linear_couplings())
def test_d_eps_linear_couplings_bitwise_equal_reference_walker(entries):
    curve = SymmetricCurve.from_strings(entries)
    ts = np.linspace(0.0, 1.0, 3001)
    for eps in (0.0, 1e-3):
        D = curve.d_eps_matrix_batch(ts, eps)
        want = np.zeros_like(D)
        for (i, j), tree in curve.entries.items():
            vals = [d_eps_exact(tree, t, eps) for t in ts]
            want[:, i, j] = want[:, j, i] = vals
        assert np.array_equal(D, want)


@pytest.mark.parametrize("src", [
    "sin(2*eps + t)",
    "cos(eps*t + 0.3)",
    "exp(eps - t)",
    "sqrt(1 + eps + t)",
    "abs(eps - 0.5)*t",
    "t/(1.5 + eps)",
    "(1 + eps + t)^2.5",
    "(1 + t)^eps",
    "(1.2 + eps)^(t - eps)",
    "sin(eps*0.7)*(1 + 0.3*cos(t))",
    "-eps^2 + 3 - eps*t",
])
def test_d_eps_matches_central_difference(src):
    curve = SymmetricCurve.from_strings({"1,2": src})
    ts = np.linspace(0.0, 1.0, 11)
    h = 1e-5
    for eps in (0.0, 0.2):
        D = curve.d_eps_matrix_batch(ts, eps)[:, 1, 2]
        fd = (curve.eval_matrix_batch(ts, eps + h)
              - curve.eval_matrix_batch(ts, eps - h))[:, 1, 2] / (2.0 * h)
        assert np.max(np.abs(D - fd)) <= 1e-8, src


def test_d_eps_domain_error_is_located_in_the_source():
    src = "0.2*eps*t + 0.01*sqrt(eps)"
    curve = SymmetricCurve.from_strings({"0,1": src})
    assert np.all(np.isfinite(curve.eval_matrix_batch([0.0, 0.5], 0.0)))
    with pytest.raises(ExprDomainError) as err:
        curve.d_eps_matrix_batch([0.0, 0.5], 0.0)
    assert err.value.offset == src.index("sqrt")
    assert "entry (0,1)" in str(err.value)
    assert "(t, eps) = (0.0, 0.0)" in str(err.value)


def test_d_eps_taken_once_per_call_and_only_for_eps_entries(monkeypatch):
    # d_eps runs once per eps entry per d_eps_matrix_batch call, and never
    # for A itself; calls that d_eps makes on subtrees are not counted
    differentiated = []
    nesting = 0

    def counting(e):
        nonlocal nesting
        if nesting == 0:
            differentiated.append(e)
        nesting += 1
        try:
            return real(e)
        finally:
            nesting -= 1

    real = expr.d_eps
    monkeypatch.setattr(expr, "d_eps", counting)
    curve = SymmetricCurve.from_strings({"0,0": "1 + t", "1,1": "eps*sin(t)", "2,3": "2"})
    assert differentiated == []  # nothing at construction
    curve.eval_matrix(0.1, 0.0)
    curve.eval_matrix_batch([0.1, 0.2], 0.0)
    curve.eval_matrix_batch([0.3], 0.0)
    assert differentiated == []
    assert curve.d_eps_matrix_batch([0.1, 0.2])[1, 1, 1] == pytest.approx(math.sin(0.2), rel=1e-15)
    curve.d_eps_matrix_batch([0.3])
    assert differentiated == [parse("eps*sin(t)")] * 2
    eps_free = SymmetricCurve.from_strings({"0,0": "1 + t"})
    assert not eps_free.d_eps_matrix_batch([0.5]).any()
    assert len(differentiated) == 2


def test_d_eps_makes_no_contains_eps_call(monkeypatch):
    calls = []
    real = expr.contains_eps
    monkeypatch.setattr(expr, "contains_eps", lambda e: calls.append(e) or real(e))
    for src in CORPUS + ["exp(eps)*sqrt(1 + eps^2) + abs(t - eps)/(2 + cos(eps))"]:
        d_eps(parse(src))
    assert calls == []


def _neg_chain(depth, offset):
    tree = Var("t", offset)
    for _ in range(depth):
        tree = Neg(tree, offset)
    return tree


def test_error_order_of_a_checked_walk():
    # every entry is walked before any is checked: a depth error beats a
    # domain error, the first entry too deep is named, and a domain error
    # names the first non-finite entry in entry order
    bad = parse("1/t")
    deep0, deep7 = _neg_chain(MAX_DEPTH + 1, 0), _neg_chain(MAX_DEPTH + 1, 7)
    at_depth = f"nests deeper than {MAX_DEPTH} levels at offset"
    with pytest.raises(ExprDepthError, match=f"{at_depth} 0$"):
        SymmetricCurve({(0, 0): bad, (1, 1): deep0}).eval_matrix_batch([0.0, 1.0])
    with pytest.raises(ExprDepthError, match=f"{at_depth} 0$"):
        SymmetricCurve({(0, 0): deep0, (1, 1): deep7}).eval_matrix_batch([0.0, 1.0])
    with pytest.raises(ExprDepthError, match=f"{at_depth} 7$"):
        SymmetricCurve({(0, 0): deep7, (1, 1): deep0}).eval_matrix_batch([0.0, 1.0])
    with pytest.raises(ExprDomainError, match=r"^entry \(1,1\): division by zero"):
        SymmetricCurve({(1, 1): bad, (0, 0): parse("sqrt(t - 1)")}).eval_matrix_batch([0.0, 1.0])
    with pytest.raises(ExprDomainError, match=r"^entry \(0,0\): sqrt out of domain"):
        SymmetricCurve({(0, 0): parse("sqrt(t - 1)"), (1, 1): bad}).eval_matrix_batch([0.0, 1.0])
