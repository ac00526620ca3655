import csv
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from kreinsplit import cli, expr, flow
from kreinsplit.cli import (
    _DEFAULT_MODE,
    _emit_json,
    apply_grid_override,
    build_parser,
    main,
)
from kreinsplit.errors import InputError, NonSymplecticError, SchemaError, SymmetryConflictError
from kreinsplit.expr import MAX_DEPTH, SymmetricCurve
from kreinsplit.scenario import (
    MAX_GRID_COUNT,
    MAX_STEPS,
    GridSpec,
    load_scenario,
    parse_scenario,
)
from kreinsplit.spectral import detect_double_unitary, make_jordan_symplectic

DATA = Path(__file__).parent / "data"
SCENARIOS = Path(__file__).parent.parent / "scenarios"
GOLDEN = Path(__file__).parent / "golden"


# --- scenario loading --------------------------------------------------------

def test_load_minimal_scenario_fills_defaults():
    sc = load_scenario(DATA / "degenerate_a0.json")
    assert sc.name == "degenerate_a0"
    assert sc.T == 1.0
    assert sc.t_grid.count == 16
    # 4 Magnus steps is the t-family default: on the short t flows the
    # sixth-order step's error stays below roundoff (2 to 128 steps give the
    # same oracle errors on the shipped t scenarios).
    assert sc.tolerances.steps_t == 4
    assert sc.gamma0.tobytes() == make_jordan_symplectic(np.pi / 3, np.eye(2)).tobytes()


def test_scenario_requires_exactly_one_start():
    base = {"curve": {"entries": {}}}
    with pytest.raises(SchemaError):
        parse_scenario({**base, "gamma0": {}})
    with pytest.raises(SchemaError) as err:
        parse_scenario({**base, "gamma0": {
            "matrix": [[0] * 4] * 4,
            "generator": {"theta0": 1.0, "C": [[1, 0], [0, 1]]}}})
    assert "/gamma0" in str(err.value)
    with pytest.raises(SchemaError):
        parse_scenario(base)  # gamma0 missing entirely


def test_scenario_rejects_unknown_keys():
    doc = {"gamma0": {"generator": {"theta0": 1.0, "C": [[1, 0], [0, 1]]}},
           "curve": {"entries": {}}, "frobnicate": 1}
    with pytest.raises(SchemaError) as err:
        parse_scenario(doc)
    assert "/frobnicate" in str(err.value)


def test_scenario_rejects_bad_grid():
    doc = {"gamma0": {"generator": {"theta0": 1.0, "C": [[1, 0], [0, 1]]}},
           "curve": {"entries": {}},
           "grids": {"t": {"min": 1e-3, "max": 1e-7}}}
    with pytest.raises(SchemaError) as err:
        parse_scenario(doc)
    assert "/grids/t" in str(err.value)
    doc["grids"] = {"t": {"min": 1e-7, "max": 1e-3, "count": 2}}
    with pytest.raises(SchemaError):
        parse_scenario(doc)


@pytest.mark.parametrize("log", [True, False])
def test_scenario_rejects_collapsed_grid(log):
    # min and max one ulp apart pass "max must exceed min", but 40 points
    # between them cannot all be distinct doubles.
    grid = {"min": 1e-4, "max": 1.0000000000000002e-4, "count": 40, "log": log}
    doc = {"gamma0": {"generator": {"theta0": 1.0, "C": [[1, 0], [0, 1]]}},
           "curve": {"entries": {}}, "grids": {"eps": grid}}
    with pytest.raises(SchemaError) as err:
        parse_scenario(doc)
    assert str(err.value).startswith("/grids/eps: ")
    assert "strictly increasing" in str(err.value)


def test_explicit_gamma0_must_be_symplectic():
    doc = json.loads((DATA / "non_symplectic.json").read_text(encoding="utf-8"))
    with pytest.raises(NonSymplecticError, match="not symplectic within 1e-8"):
        parse_scenario(doc)
    # gamma0 is resolved after every schema check: a malformed file is
    # malformed input first.
    with pytest.raises(SchemaError, match="/T"):
        parse_scenario({**doc, "T": -1.0})
    symplectic = load_scenario(DATA / "no_double.json").gamma0
    assert symplectic.dtype == float and symplectic.shape == (4, 4)


def test_scenario_rejects_asymmetric_curve_pair():
    doc = {"gamma0": {"generator": {"theta0": 1.0, "C": [[1, 0], [0, 1]]}},
           "curve": {"entries": {"0,1": "t", "1,0": "2*t"}}}
    with pytest.raises(SymmetryConflictError):
        parse_scenario(doc)


def test_scenario_rejects_asymmetric_generator_block():
    doc = {"gamma0": {"generator": {"theta0": 1.0, "C": [[1, 0.5], [0.4, 1]]}},
           "curve": {"entries": {}}}
    with pytest.raises(SchemaError) as err:
        parse_scenario(doc)
    assert "/gamma0/generator/C" in str(err.value)


# --- exit codes --------------------------------------------------------------

def test_analyze_reference_exit_zero(capsys):
    rc = main(["analyze", str(SCENARIOS / "jordan_pi3.json")])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["kappa"] == pytest.approx(-1.0, abs=1e-9)
    assert doc["stability"] == "stable_forward_unstable_backward"
    assert {"lambda0", "eta1", "eta2", "forms", "a", "second_order",
            "sum_derivative", "ladder"} <= set(doc)


def test_analyze_degenerate_exit_two(capsys):
    rc = main(["analyze", str(DATA / "degenerate_a0.json")])
    assert rc == 2
    assert "DegenerateCase" in capsys.readouterr().err


def test_analyze_no_double_multiplier_exit_two(capsys):
    rc = main(["analyze", str(DATA / "no_double.json")])
    assert rc == 2
    assert "multiplier" in capsys.readouterr().err


@pytest.mark.parametrize("theta0, near", [(1e-7, "+1"), (np.pi - 1e-7, "-1")])
def test_pair_near_one_is_an_excluded_case(tmp_path, capsys, theta0, near):
    # The trace rule turns a pair within 10 * cluster of +-1 down; the family
    # names the excluded case instead of a missing multiplier.
    doc = json.loads((SCENARIOS / "jordan_pi3.json").read_text())
    doc["gamma0"]["generator"]["theta0"] = theta0
    path = tmp_path / "near.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert detect_double_unitary(load_scenario(path).gamma0) is None
    for command in ("analyze", "classify", "verify"):
        assert main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ExcludedCaseError: initial matrix has a multiplier "
                              f"pair within 10 * cluster of {near} ")
        assert err.count("\n") == 1


def test_malformed_file_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["analyze", str(bad)]) == 1
    assert main(["analyze", str(tmp_path / "missing.json")]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("name, data, start", [
    ("missing.json", None, "cannot read {path}: "),
    ("bad.json", b"{not json", "invalid JSON in {path}: Expecting property name"),
    ("bad.json", b'{"name": "caf\xe9"}', "cannot decode {path} as UTF-8: "),
], ids=["missing", "invalid-json", "not-utf8"])
def test_unreadable_file_error_names_the_file(tmp_path, capsys, name, data, start):
    path = tmp_path / name
    if data is not None:
        path.write_bytes(data)
    assert main(["analyze", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: " + start.format(path=path)), err
    assert err.count("\n") == 1


@pytest.mark.parametrize("data", [
    pytest.param(b'{"name": "caf\xe9"}', id="not-utf8"),
    pytest.param(b"[" * 100_000 + b"]" * 100_000, id="deep-json"),
    pytest.param(b'{"T": 1' + b"0" * 5000 + b"}", id="int-past-digit-limit"),
])
def test_unreadable_scenario_text_exit_one(tmp_path, capsys, data):
    bad = tmp_path / "bad.json"
    bad.write_bytes(data)
    with pytest.raises(SchemaError):
        load_scenario(bad)
    assert main(["analyze", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_schema_error_exit_one(tmp_path, capsys):
    doc = tmp_path / "bad_schema.json"
    doc.write_text(json.dumps({"curve": {"entries": {}}}), encoding="utf-8")
    assert main(["analyze", str(doc)]) == 1
    capsys.readouterr()


def _one_error_line(capsys, starts):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {starts}") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_probe_tolerance_is_an_unknown_key(tmp_path, capsys):
    # The stability dichotomy is judged on the oracle's own rows; no
    # tolerance sets an offset for it.
    doc = json.loads((SCENARIOS / "jordan_pi3.json").read_text())
    doc["tolerances"] = {"probe": 1e-4}
    path = tmp_path / "probe.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path), "--mode", "t"]) == 1
    _one_error_line(capsys, "/tolerances/probe: unknown key")


def _entry_3_3(text):
    return lambda doc: doc["curve"]["entries"].update({"3,3": text})


# Each of these ended in a RecursionError or SyntaxError traceback when the
# curve was compiled from generated source.
_TOO_DEEP = {
    "199-parentheses": "(" * 199 + "1" + ")" * 199,
    "199-calls": "abs(" * 199 + "1" + ")" * 199,
    "201-term-sum": "+".join(["t"] * 201),
    "200-unary-minus": "-" * 200 + "1",
    "5000-unary-minus": "-" * 5000 + "1",
    "5000-term-power": "^".join(["1"] * 5000),
    "20000-term-sum": "+".join(["t"] * 20000),
}


@pytest.mark.parametrize("text", _TOO_DEEP.values(), ids=_TOO_DEEP)
def test_too_deep_expression_exit_one(tmp_path, capsys, text):
    path = _scenario_copy(tmp_path, SCENARIOS / "jordan_pi3.json", _entry_3_3(text))
    assert main(["analyze", path]) == 1
    _one_error_line(capsys, f"/curve/entries: expression nests deeper than {MAX_DEPTH} levels")


def test_deep_expression_data_file_exit_one(capsys):
    assert main(["analyze", str(DATA / "deep_expression.json")]) == 1
    _one_error_line(capsys, "/curve/entries: ")


@pytest.mark.parametrize("text", [
    pytest.param("(" * MAX_DEPTH + "1" + ")" * MAX_DEPTH, id="parentheses"),
    pytest.param("-" * (MAX_DEPTH - 1) + "-1", id="unary-minus"),
    pytest.param("^".join(["1"] * (MAX_DEPTH + 1)), id="power"),
    pytest.param("+".join(["0"] * MAX_DEPTH) + "+1", id="sum"),
])
def test_expression_at_the_depth_limit_loads(tmp_path, capsys, text):
    # Each text evaluates to 1, the shipped entry, so the output is the
    # shipped scenario's.
    assert main(["analyze", str(SCENARIOS / "jordan_pi3.json")]) == 0
    want = capsys.readouterr().out
    path = _scenario_copy(tmp_path, SCENARIOS / "jordan_pi3.json", _entry_3_3(text))
    assert main(["analyze", path]) == 0
    assert capsys.readouterr().out == want


def test_eps_derivative_past_the_depth_limit_exit_one(tmp_path, capsys):
    # A 61-factor product loads (about 63 levels), and equals the shipped
    # entry at eps = 0, but its eps-derivative is about 120 levels deep.
    def edit(doc):
        doc["curve"]["entries"]["2,2"] += "*(1 + eps)" * 60

    path = _scenario_copy(tmp_path, SCENARIOS / "resonant_eps.json", edit)
    assert main(["analyze", path]) == 2  # the t family is degenerate
    capsys.readouterr()
    assert main(["analyze", path, "--mode", "eps"]) == 1
    _one_error_line(capsys, f"expression (or its eps-derivative) nests deeper than {MAX_DEPTH}")


@pytest.mark.parametrize("name", ["../escaped", "a/b", "a\\b", "a\0b", ".", ".."])
def test_name_with_path_parts_exit_one(tmp_path, capsys, name):
    path = _scenario_copy(tmp_path, SCENARIOS / "jordan_pi3.json",
                          lambda doc: doc.update(name=name))
    with pytest.raises(SchemaError, match="^/name: "):
        load_scenario(path)
    out = tmp_path / "o" / "sub"
    assert main(["sweep", path, "--out", str(out)]) == 1
    _one_error_line(capsys, "/name: ")
    assert sorted(p.name for p in tmp_path.rglob("*")) == [Path(path).name]


def test_escaping_name_data_file_writes_nothing(tmp_path, capsys):
    out = tmp_path / "o" / "sub"
    assert main(["sweep", str(DATA / "escaping_name.json"), "--out", str(out)]) == 1
    _one_error_line(capsys, "/name: ")
    assert not (tmp_path / "o").exists()


def test_name_too_long_for_a_file_exit_one(tmp_path, capsys):
    path = _scenario_copy(tmp_path, SCENARIOS / "jordan_pi3.json",
                          lambda doc: doc.update(name="n" * 300))
    out = tmp_path / "o"
    assert main(["sweep", path, "--out", str(out)]) == 1
    _one_error_line(capsys, f"cannot write {out / ('n' * 300)}_sweep_t.csv: ")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("argv", [["sweep"], ["verify", "--mode", "t"]],
                         ids=["sweep", "verify"])
def test_out_naming_a_file_exit_one(tmp_path, capsys, argv):
    out = tmp_path / "taken"
    out.write_text("kept", encoding="utf-8")
    argv = [*argv, str(SCENARIOS / "jordan_pi3.json"), "--out", str(out)]
    assert main(argv) == 1
    _one_error_line(capsys, f"cannot write {out}: ")
    assert out.read_text(encoding="utf-8") == "kept"


@pytest.mark.parametrize("argv", [
    pytest.param(["analyze", "x.json", "--grid", "nonsense"], id="grid-nonsense"),
    pytest.param(["verify", "FAST", "--grid", "nan,1e-3,8"], id="verify-grid-nan"),
    pytest.param(["sweep", "FAST", "--grid", "nan,1e-3,8"], id="sweep-grid-nan"),
    pytest.param(["analyze", "FAST", "--grid", "nan,1e-3,8"], id="analyze-grid-nan"),
    pytest.param(["verify", "FAST", "--grid", "1e-7,inf,8"], id="verify-grid-inf"),
    pytest.param(["analyze", "FAST", "--grid", "1e-7,inf,8"], id="analyze-grid-inf"),
    pytest.param(["verify", "FAST", "--tol", "nan"], id="tol-nan"),
    pytest.param(["verify", "FAST", "--tol", "inf"], id="tol-inf"),
    pytest.param(["verify", "FAST", "--tol=-1e-3"], id="tol-negative"),
    pytest.param(["verify", "FAST", "--grid", "1e-4,1.0000000000000002e-4,40"],
                 id="verify-grid-collapsed"),
    # past the grid cap: a MemoryError and an OverflowError traceback without it
    pytest.param(["analyze", "FAST", "--grid", "1e-7,1e-3,10000000000000"], id="grid-count-huge"),
    pytest.param(["analyze", "FAST", "--grid", "1e-7,1e-3,1" + "0" * 400], id="grid-count-10e400"),
    pytest.param(["sweep", "FAST", "--grid", "1e-4,1.0000000000000002e-4,40,lin"],
                 id="sweep-grid-collapsed-lin"),
])
def test_bad_flag_exit_one(argv, capsys):
    # Flags get the checks a scenario file's values get: a non-finite
    # grid or tolerance is malformed input, not a degenerate flow.
    argv = [str(DATA / "pi3_fast.json") if a == "FAST" else a for a in argv]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "RuntimeWarning" not in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_options_may_precede_the_command(capsys):
    path = str(SCENARIOS / "jordan_pi3_neg.json")
    assert main(["--mode", "t", "classify", path]) == 0
    before = capsys.readouterr().out
    assert main(["classify", path, "--mode", "t"]) == 0
    assert capsys.readouterr().out == before


def test_parser_is_built_once(capsys):
    assert build_parser() is build_parser()
    path = str(DATA / "pi3_fast.json")
    runs = [["verify", path, "--grid", "1e-6,1e-4,8,lin", "--tol", "1e-15", "--mode", "t"],
            ["verify", path], ["classify", path, "--mode", "t"], ["classify", path]]
    shared = []
    for argv in runs:
        shared.append((main(argv), capsys.readouterr()))
    fresh = []
    for argv in runs:
        build_parser.cache_clear()
        fresh.append((main(argv), capsys.readouterr()))
    assert shared == fresh
    assert [rc for rc, _ in shared] == [3, 0, 0, 0]


def test_help_names_every_command_and_exit_code():
    text = build_parser().format_help()
    for word in ("analyze", "verify", "sweep", "classify", "Exit codes", "0 success",
                 "1 malformed input", "2 mathematical degeneracy", "3 verification"):
        assert word in text, word


def test_verify_fast_scenario(tmp_path, capsys):
    out = tmp_path / "csv"
    rc = main(["verify", str(DATA / "pi3_fast.json"), "--out", str(out)])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["max_relative_error"] <= 1e-3
    assert doc["t"]["relative_errors"]["kappa"] <= 1e-3
    assert doc["stability"]["passed"] is True
    track_file = out / "pi3_fast_track_t.csv"
    assert track_file.exists()
    with open(track_file, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "s"
    assert len(rows) == 1 + 8
    float(rows[1][1])  # cells are plain numbers


def test_verify_json_schema(capsys):
    assert main(["verify", str(DATA / "pi3_fast.json")]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc) == ["name", "max_relative_error", "t", "stability"]
    assert list(doc["t"]) == [
        "lambda0", "kappa_predicted", "kappa_empirical", "sum_derivative_predicted",
        "sum_derivative_empirical", "a_predicted", "a_empirical", "relative_errors",
        "sqrt_ratio", "quotient_growth"]


def test_verify_tight_tolerance_exit_three(capsys):
    rc = main(["verify", str(DATA / "pi3_fast.json"), "--tol", "1e-15"])
    assert rc == 3
    capsys.readouterr()


def test_verify_hypothesis_failure_exit_two(capsys):
    rc = main(["verify", str(DATA / "no_double.json")])
    assert rc == 2
    assert "has no double unit-circle multiplier pair" in capsys.readouterr().err


def test_verify_eps_mode(capsys):
    rc = main(["verify", str(SCENARIOS / "resonant_eps.json"), "--mode", "eps",
               "--grid", "1e-6,1e-4,8,log"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert "eps" in doc and "t" not in doc


def test_sweep_constant_family(capsys):
    rc = main(["sweep", str(DATA / "degenerate_a0.json"),
               "--grid", "1e-6,1e-4,4,log"])
    assert rc == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0][0] == "s"
    body = [[float(x) for x in row] for row in rows[1:]]
    # zero curve: the eigenvalues never move
    for col in range(1, 13):
        vals = [row[col] for row in body]
        assert max(vals) - min(vals) < 1e-9


def test_sweep_positive_rate_moduli_straddle_circle(capsys):
    rc = main(["sweep", str(SCENARIOS / "jordan_pi3_neg.json"),
               "--grid", "1e-5,1e-4,4,log"])
    assert rc == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    for row in rows[1:]:
        mods = [float(x) for x in row[9:13]]
        assert max(mods) > 1 + 1e-6
        assert min(mods) < 1 - 1e-6


def test_sweep_eps_without_eps_is_usage_error(capsys):
    rc = main(["sweep", str(SCENARIOS / "jordan_pi3.json"), "--mode", "eps"])
    assert rc == 1
    assert "eps" in capsys.readouterr().err


@pytest.mark.parametrize("command, mode, overridden", [
    ("analyze", None, {"t"}),
    ("analyze", "eps", {"eps"}),
    ("verify", None, {"t", "eps"}),
    ("verify", "t", {"t"}),
    ("verify", "eps", {"eps"}),
    ("sweep", None, {"t"}),
    ("sweep", "eps", {"eps"}),
])
def test_grid_override_covers_every_family_run(command, mode, overridden):
    sc = load_scenario(SCENARIOS / "resonant_eps.json")
    grid = GridSpec(lo=1e-6, hi=1e-4, count=8, log=False)
    resolved = mode or _DEFAULT_MODE[command]
    assert apply_grid_override(sc, resolved, None) is sc
    got = apply_grid_override(sc, resolved, grid)
    for family in ("t", "eps"):
        want = grid if family in overridden else getattr(sc, f"{family}_grid")
        assert getattr(got, f"{family}_grid") == want, family


def _scenario_copy(tmp_path, source, edit):
    doc = json.loads(source.read_text(encoding="utf-8"))
    edit(doc)
    path = tmp_path / source.name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_grid_count_is_capped(tmp_path, capsys):
    doc = {"gamma0": {"generator": {"theta0": 1.0, "C": [[1, 0], [0, 1]]}},
           "curve": {"entries": {}}, "grids": {"t": {"count": MAX_GRID_COUNT}}}
    assert parse_scenario(doc).t_grid.count == MAX_GRID_COUNT
    doc["grids"]["t"]["count"] = MAX_GRID_COUNT + 1
    with pytest.raises(SchemaError, match="^/grids/t/count: "):
        parse_scenario(doc)
    path = _scenario_copy(tmp_path, SCENARIOS / "jordan_pi3.json",
                          lambda doc: doc["grids"]["t"].update(count=10000000000000))
    assert main(["analyze", path]) == 1
    _one_error_line(capsys, f"/grids/t/count: count must be at most {MAX_GRID_COUNT}")


@pytest.mark.parametrize("key", ["steps_t"])
def test_step_counts_are_capped(key):
    doc = {"gamma0": {"generator": {"theta0": 1.0, "C": [[1, 0], [0, 1]]}},
           "curve": {"entries": {}}, "tolerances": {key: MAX_STEPS}}
    assert getattr(parse_scenario(doc).tolerances, key) == MAX_STEPS
    doc["tolerances"][key] = MAX_STEPS + 1
    with pytest.raises(SchemaError, match=f"^/tolerances/{key}: must be at most {MAX_STEPS}"):
        parse_scenario(doc)


def test_steps_eps_is_an_unknown_key(tmp_path, capsys):
    # The eps family's step count is sized from the curve and refined on the
    # base's discriminant; no tolerance sets it.
    path = _scenario_copy(tmp_path, SCENARIOS / "resonant_eps.json",
                          lambda doc: doc.update(tolerances={"steps_eps": 128}))
    assert main(["verify", path, "--mode", "eps"]) == 1
    _one_error_line(capsys, "/tolerances/steps_eps: unknown key")


def test_sized_steps_past_the_cap_stop_before_any_flow(tmp_path, capsys, monkeypatch):
    # resonant_eps at T = 1e6 sizes the eps flows at 12,059,980 steps (T beta /
    # 0.12 rounded up, A(t, 0) being constant); at T = 1e308, T beta / 0.12
    # overflows to inf.  No flow may start.
    def no_flow(*args, **kwargs):
        raise AssertionError("a flow ran")

    monkeypatch.setattr(flow, "_flows", no_flow)
    for T, count in ((1e6, "12059980"), (1e308, "inf")):
        path = _scenario_copy(tmp_path, SCENARIOS / "resonant_eps.json",
                              lambda doc: doc.update(T=T))
        with pytest.raises(InputError, match=f" {count} steps"):
            load_scenario(path).steps("eps")
        assert main(["analyze", path, "--mode", "eps"]) == 1
        _one_error_line(capsys, f"T = {T!r} sizes the eps flows at {count} steps, "
                                f"above the cap of {MAX_STEPS}")


def test_nonconforming_flow_exit_two(tmp_path, capsys):
    path = _scenario_copy(tmp_path, DATA / "pi3_fast.json",
                          lambda doc: doc["tolerances"].update(drift=1e-30))
    assert main(["verify", path]) == 2
    err = capsys.readouterr().err
    assert "NonConformingFlowError" in err
    assert "drift" in err and "T = " in err


@pytest.mark.parametrize("argv", [["analyze"], ["analyze", "--mode", "eps"], ["classify"],
                                  ["verify"], ["verify", "--mode", "eps"], ["sweep"]],
                         ids="-".join)
def test_non_symplectic_gamma0_exit_two(argv, capsys):
    assert main([argv[0], str(DATA / "non_symplectic.json"), *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: NonSymplecticError: initial condition is not "
                            "symplectic within 1e-8\n")


def test_generator_at_multiplier_one_exit_two_at_load(tmp_path, capsys):
    # The eps family never flows from gamma0, yet gamma0 is made, and so
    # checked, when the file is loaded.
    start = {"generator": {"theta0": 0.0, "C": [[1.0, 0.0], [0.0, 1.0]]}}
    path = _scenario_copy(tmp_path, SCENARIOS / "resonant_eps.json",
                          lambda doc: doc.update(gamma0=start))
    assert main(["verify", path, "--mode", "eps"]) == 2
    assert "DegenerateAngleError" in capsys.readouterr().err


def test_overflowing_flow_exit_two_without_numpy_warnings(tmp_path, capsys):
    def edit(doc):
        doc["curve"]["entries"]["0,0"] = "1 + 1e300*t"

    path = _scenario_copy(tmp_path, DATA / "pi3_fast.json", edit)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["verify", path, "--mode", "t"]) == 2
    err = capsys.readouterr().err
    assert "NonConformingFlowError" in err and "nan" in err
    assert "RuntimeWarning" not in err


def test_eps_batch_domain_error_is_located(tmp_path, capsys):
    # eps*sqrt(1e-5 - eps) vanishes at eps = 0, so the resonance survives,
    # and is non-finite beyond eps = 1e-5, inside the eps grid.
    def edit(doc):
        doc["curve"]["entries"]["0,1"] += " + eps*sqrt(1e-5 - eps)"

    path = _scenario_copy(tmp_path, SCENARIOS / "resonant_eps.json", edit)
    assert main(["verify", path, "--mode", "eps"]) == 2
    err = capsys.readouterr().err
    assert "ExprDomainError" in err
    assert "entry (0,1)" in err and "(t, eps) = " in err


@pytest.mark.parametrize("text, reason, where", [
    # Finite at eps = 0 and not above 5e-4: the batch of the base and the
    # oracle's eps values, which evaluates A on a column of times against a
    # row of eps, fails at its first Gauss node, t = (1/2 - sqrt(15)/10) / 16,
    # and its first eps above 5e-4, 3/4 of the grid's maximum.
    ("0.2*eps*t + sqrt(5e-4 - eps)*0", "sqrt out of domain",
     "(t, eps) = (0.007043854086203644, 0.00075) (subexpression at offset 12)"),
    # No Gauss node of the base flow meets the pole at t = 0.5, but the
    # sizing of the eps flows samples A(t, 0) at t = 0, 1/16, ..., 1 first.
    ("1/(t - 0.5 - eps*100)*0", "division by zero",
     "(t, eps) = (0.5, 0.0) (subexpression at offset 1)"),
    # Finite at the 17 sizing samples, which miss (0.51, 0.55), so the base
    # flow at eps = 0 meets the domain error at the first of its Gauss nodes
    # there in the engine's order (first nodes, midpoints, last nodes): the
    # midpoint 0.53125 of the ninth of 16 steps.  The product with 0 leaves
    # A(t, 0) constant, which sizes 16 steps.
    ("sqrt((t - 0.51)*(t - 0.55))*0", "sqrt out of domain",
     "(t, eps) = (0.53125, 0.0) (subexpression at offset 0)"),
    # A quotient in eps alone, non-finite only at the top of the eps grid.
    ("0.2*eps*t + (eps - 1e-3)/(eps - 1e-3)*0", "division by zero",
     "(t, eps) = (0.007043854086203644, 0.001) (subexpression at offset 24)"),
], ids=["batch-sqrt", "base-pole", "base-sqrt", "batch-eps-quotient"])
def test_eps_family_domain_error_names_entry_and_point(tmp_path, capsys, text, reason,
                                                       where):
    def edit(doc):
        doc["curve"]["entries"]["0,1"] = text

    path = _scenario_copy(tmp_path, SCENARIOS / "resonant_eps.json", edit)
    assert main(["verify", path, "--mode", "eps"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: ExprDomainError: entry (0,1): {reason}")
    assert err.rstrip().endswith(f" at {where}")


def test_eps_derivative_domain_error_is_located_on_the_family(tmp_path, capsys):
    # sqrt(eps) is finite on the family but its eps-derivative is not at
    # eps = 0, where the derivative slot of the flow batch evaluates it, at
    # the first Gauss node of 16 steps.
    def edit(doc):
        doc["curve"]["entries"]["0,1"] += " + 0.01*sqrt(eps)"

    path = _scenario_copy(tmp_path, SCENARIOS / "resonant_eps.json", edit)
    assert main(["analyze", path, "--mode", "eps"]) == 2
    err = capsys.readouterr().err
    assert "ExprDomainError" in err and "entry (0,1)" in err
    offset = "0.2*eps*t + 0.01*sqrt(eps)".index("sqrt")
    assert f"(subexpression at offset {offset})" in err
    assert err.startswith("error: ExprDomainError: d/deps of entry (0,1): division by zero ")
    assert "(t, eps) = (0.007043854086203644, 0.0)" in err


def test_classify_verdicts(capsys):
    assert main(["classify", str(SCENARIOS / "jordan_pi3.json")]) == 0
    assert "stable_forward_unstable_backward" in capsys.readouterr().out
    assert main(["classify", str(SCENARIOS / "jordan_pi3_neg.json")]) == 0
    assert "unstable_forward_stable_backward" in capsys.readouterr().out
    assert main(["classify", str(DATA / "degenerate_a0.json")]) == 2
    capsys.readouterr()


# --- golden output -----------------------------------------------------------

def _assert_same_structure(got, want, path="$"):
    assert type(got) is type(want), f"{path}: {type(got)} != {type(want)}"
    if isinstance(want, dict):
        assert set(got) == set(want), f"{path}: keys differ"
        for k in want:
            _assert_same_structure(got[k], want[k], f"{path}.{k}")
    elif isinstance(want, list):
        assert len(got) == len(want), f"{path}: length differs"
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_same_structure(g, w, f"{path}[{i}]")
    elif isinstance(want, float):
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12), path
    else:
        assert got == want, path


def test_analyze_golden(capsys):
    rc = main(["analyze", str(SCENARIOS / "jordan_pi3.json")])
    assert rc == 0
    got = json.loads(capsys.readouterr().out)
    want = json.loads((GOLDEN / "analyze_pi3.json").read_text())
    _assert_same_structure(got, want)


class _Writes:
    """A stdout that keeps each write call."""

    def __init__(self):
        self.calls = []

    def write(self, text):
        self.calls.append(text)
        return len(text)


def _json_default(obj):
    """The reference's JSON form of complex and numpy values: complex
    numbers as {"re": ..., "im": ...} objects."""
    if isinstance(obj, (complex, np.complexfloating)):
        return {"re": float(obj.real), "im": float(obj.imag)}
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


class _Printed:
    """The document that the CLI call ``argv`` hands to ``_emit_json``."""

    def __init__(self, *argv):
        self.argv = [str(a) for a in argv]

    def __repr__(self):
        return " ".join([self.argv[0], Path(self.argv[1]).stem, *self.argv[2:]])

    def document(self, monkeypatch):
        docs = []
        with monkeypatch.context() as m:
            m.setattr(cli, "_emit_json", docs.append)
            main(self.argv)
        [doc] = docs
        return doc


def _printed():
    """Every document that analyze (t, and eps where the curve has eps) and
    verify (--mode t and --mode eps) print for the shipped scenarios and
    pi3_fast."""
    for path in [*sorted(SCENARIOS.glob("*.json")), DATA / "pi3_fast.json"]:
        if path.stem != "resonant_eps":  # its t family is degenerate: exit 2, no document
            yield _Printed("analyze", path)
            yield _Printed("verify", path, "--mode", "t")
        if load_scenario(path).curve.has_eps:
            yield _Printed("analyze", path, "--mode", "eps")
            yield _Printed("verify", path, "--mode", "eps")


@pytest.mark.parametrize("doc", [
    {"name": "jordan_π3 ψ", "lambda0": 0.5 + 0.8660254037844386j,
     "eta1": np.array([1 + 2j, -0.0, 3.5, 1e-300j]), "kappa": np.float64(-0.25),
     "steps": np.int64(52), "flag": np.bool_(True), "c": [np.complex128(1 - 1j), 2.0],
     "diagnostics": {"nan": float("nan"), "inf": float("inf"), "-inf": -np.inf,
                     "none": None, "empty": [], "nested": {}}},
    {"matrix": np.arange(16.0).reshape(4, 4), "ints": np.arange(3), "s": "ü\n\"q\""},
    [1.0, np.nan, -np.inf, np.float32(0.1)],
    {"edges": [-0.0, 5e-324, 1e308, (1, "two", (3.0,), ()), np.int64(-7), np.bool_(False),
               complex(float("nan"), 1.0), np.complex64(2 - 0.5j), True, False, 0, -12]},
    *_printed(),
], ids=lambda doc: repr(doc) if isinstance(doc, _Printed) else None)
def test_emit_json_is_one_write_of_json_dump(monkeypatch, doc):
    if isinstance(doc, _Printed):
        doc = doc.document(monkeypatch)
    want = io.StringIO()
    json.dump(doc, want, indent=2, default=_json_default)
    want.write("\n")
    stdout = _Writes()
    monkeypatch.setattr("sys.stdout", stdout)
    _emit_json(doc)
    assert stdout.calls == [want.getvalue()]


@pytest.mark.parametrize("doc", [{"x": object()}, [1.0, {2.0}], {"kappa": b"bytes"}])
def test_emit_json_rejects_what_json_cannot_encode(doc):
    with pytest.raises(TypeError):
        _emit_json(doc)


@pytest.mark.parametrize("argv", [
    ["analyze", SCENARIOS / "resonant_eps_gauge.json"],
    ["classify", SCENARIOS / "resonant_eps_gauge.json"],
    ["verify", SCENARIOS / "resonant_eps_gauge.json", "--mode", "t"],
    ["analyze", SCENARIOS / "jordan_pi3.json"],
    ["classify", DATA / "pi3_fast.json"],
])
def test_t_commands_make_no_contains_eps_call(monkeypatch, capsys, argv):
    # has_eps is computed on its first read, and no t-only command reads it
    calls = []
    real = expr.contains_eps
    monkeypatch.setattr(expr, "contains_eps", lambda e: calls.append(e) or real(e))
    assert main([str(a) for a in argv]) == 0
    assert calls == []


@pytest.mark.parametrize("name, mode", [("resonant_eps_gauge", []),
                                        ("resonant_eps", ["--mode", "eps"])])
def test_has_eps_is_scanned_once_per_curve(monkeypatch, capsys, name, mode):
    # verify's default mode reads has_eps after the t family; on resonant_eps
    # that family exits 2 first, so its eps family runs alone here
    scans = []
    has_eps = SymmetricCurve.__dict__["has_eps"]
    real = has_eps.func
    monkeypatch.setattr(has_eps, "func", lambda curve: scans.append(curve) or real(curve))
    assert main(["verify", str(SCENARIOS / f"{name}.json"), *mode]) == 0
    assert "eps" in json.loads(capsys.readouterr().out)
    assert len(scans) == 1


def test_closed_stdout_ends_quietly_with_exit_one():
    # A reader that takes one line and closes the pipe (``| head -1``): the
    # 1,000 sweep rows overflow the pipe, the write fails, and the command
    # ends with exit 1 and nothing on stderr, not a BrokenPipeError traceback.
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.Popen(
        [sys.executable, "-m", "kreinsplit", "sweep", str(SCENARIOS / "jordan_pi3.json"),
         "--grid", "1e-7,1e-3,1000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline().startswith(b"s,re_1,")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""
