"""Tests of the benchmark itself: seeded inputs and the per-call checks.

Run from the root of the repository with

    PYTHONPATH=src python -m pytest -q perfbench
"""

import contextlib
import io
import json
import math
from pathlib import Path

import pytest

import spans
import workloads

from kreinsplit.cli import main as cli_main

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def _pool_bytes(workload, seed, directory):
    calls, digest = workloads.materialize(workload, seed, SCENARIOS, directory)
    files = {p.name: p.read_bytes() for p in sorted(directory.iterdir())}
    return files, digest, calls


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(tmp_path, workload):
    first, digest1, calls1 = _pool_bytes(workload, 7, tmp_path / "a")
    second, digest2, calls2 = _pool_bytes(workload, 7, tmp_path / "b")
    assert first == second
    assert digest1 == digest2
    assert [c["argv"][0] for c in calls1] == [c["argv"][0] for c in calls2]
    _, digest3, _ = _pool_bytes(workload, 8, tmp_path / "c")
    assert digest3 != digest1


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_anchors_come_first_unchanged(tmp_path, workload):
    calls, _ = workloads.materialize(workload, 3, SCENARIOS, tmp_path)
    anchors = workloads.ANCHORS[workload]
    for call, name in zip(calls[::2 if workload == "closed_form" else 1], anchors):
        assert call["anchor"] == name
        path = Path(call["argv"][1])
        assert path.read_bytes() == (SCENARIOS / f"{name}.json").read_bytes()


def test_closed_form_rejects_one_input_in_four(tmp_path):
    calls, _ = workloads.materialize("closed_form", 5, SCENARIOS, tmp_path)
    seeded = {c["input"]: c for c in calls if c["anchor"] is None}
    rejects = [c for c in seeded.values() if c["kind"] == "reject"]
    assert len(rejects) == len(seeded) // 4
    assert {c["error"] for c in rejects} == {"NotAJordanBlockError", "NoDoubleMultiplierError"}
    assert {c["argv"][0] for c in rejects} == {"analyze", "classify"}


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def closed_form_calls(tmp_path_factory):
    calls, _ = workloads.materialize("closed_form", 11, SCENARIOS,
                                     tmp_path_factory.mktemp("closed_form"))
    return calls


def test_closed_form_outputs_pass_their_checks(closed_form_calls):
    state = workloads.CheckState()
    for call in closed_form_calls[:40]:
        assert workloads.check(call, *_run(call["argv"]), state) is None, call["argv"]
    assert state.worst["ladder"] <= workloads.LADDER_TOL


def test_corrupted_analyze_output_fails(closed_form_calls):
    analyze = next(c for c in closed_form_calls if c["kind"] == "analyze")
    code, out, err = _run(analyze["argv"])
    assert workloads.check(analyze, code, out, err, workloads.CheckState()) is None

    doc = json.loads(out)
    doc["ladder"]["a_squared"]["re"] *= 1.0 + 1e-6
    bad_ladder = json.dumps(doc)
    doc = json.loads(out)
    doc["lambda0"]["im"] = -doc["lambda0"]["im"]
    bad_lambda = json.dumps(doc)
    for corrupted_code, corrupted in ((code, out[:-20]), (code, bad_ladder),
                                      (code, bad_lambda), (code, ""), (1, out)):
        state = workloads.CheckState()
        assert workloads.check(analyze, corrupted_code, corrupted, err, state) is not None


def test_corrupted_classify_and_reject_outputs_fail(closed_form_calls):
    state = workloads.CheckState()
    index = next(i for i, c in enumerate(closed_form_calls) if c["kind"] == "classify")
    analyze, classify = closed_form_calls[index - 1], closed_form_calls[index]
    assert workloads.check(analyze, *_run(analyze["argv"]), state) is None
    code, out, err = _run(classify["argv"])
    assert workloads.check(classify, code, out, err, state) is None
    verdict, kappa = out.split()
    flipped = {"unstable_forward_stable_backward": "stable_forward_unstable_backward",
               "stable_forward_unstable_backward": "unstable_forward_stable_backward"}
    assert workloads.check(classify, code, f"{flipped[verdict]} {kappa}\n", err, state)
    assert workloads.check(classify, code, "", err, state)

    reject = next(c for c in closed_form_calls if c["kind"] == "reject")
    code, out, err = _run(reject["argv"])
    assert workloads.check(reject, code, out, err, state) is None
    assert workloads.check(reject, 0, out, err, state)
    assert workloads.check(reject, code, out, "error: SomeOtherError: x", state)


def _verify_doc(kappa_err, sum_err, passed=True):
    return json.dumps({"name": "x", "max_relative_error": max(kappa_err, sum_err),
                       "t": {"relative_errors": {"kappa": kappa_err,
                                                 "sum_derivative": sum_err}},
                       "stability": {"passed": passed}})


def test_corrupted_verify_output_fails():
    call = {"argv": ["verify", "x.json", "--mode", "t"], "kind": "verify_t",
            "anchor": None, "input": 0}
    state = workloads.CheckState()
    assert workloads.check(call, 0, _verify_doc(1e-6, 2e-6), "", state) is None
    assert state.worst == {"kappa": 1e-6, "sum_derivative": 2e-6, "ladder": 0.0}
    assert workloads.check(call, 0, _verify_doc(1e-6, 2e-3), "", state)
    assert workloads.check(call, 0, _verify_doc(1e-6, 2e-6, passed=False), "", state)
    assert workloads.check(call, 3, _verify_doc(1e-6, 2e-6), "", state)
    assert workloads.check(call, 0, _verify_doc(1e-6, 2e-6)[:-1], "", state)
    assert workloads.check(call, 0, _verify_doc(math.nan, 2e-6), "", state)


def test_anchor_error_growth_fails():
    call = {"argv": ["verify", "x.json", "--mode", "t"], "kind": "verify_t",
            "anchor": "jordan_pi3", "input": 0}
    seed_errors = workloads.ANCHOR_ERRORS["jordan_pi3"]
    good = _verify_doc(seed_errors["kappa"], seed_errors["sum_derivative"])
    assert workloads.check(call, 0, good, "", workloads.CheckState()) is None
    worse = _verify_doc(seed_errors["kappa"] * 1.3, seed_errors["sum_derivative"])
    assert workloads.check(call, 0, worse, "", workloads.CheckState())


def test_self_time_subtracts_children():
    tracer = spans.Tracer()
    tracer.spans = [["root", 0.0, 10.0, -1], ["a", 1.0, 4.0, 0], ["b", 2.0, 3.0, 1],
                    ["a", 5.0, 6.0, 0]]
    totals = tracer.totals()
    assert totals["root"] == (1, 10.0, 6.0)
    assert totals["a"] == (2, 4.0, 3.0)
    assert totals["b"] == (1, 1.0, 1.0)


def test_installed_wrappers_are_restored_and_keep_stdout(closed_form_calls):
    import kreinsplit.cli
    import kreinsplit.expr
    import kreinsplit.flow

    before = (kreinsplit.cli.integrate, kreinsplit.cli.build_parser,
              kreinsplit.expr.SymmetricCurve.__dict__["from_strings"], kreinsplit.flow.warnings)
    analyze = next(c for c in closed_form_calls if c["kind"] == "analyze")
    plain = _run(analyze["argv"])
    tracer = spans.Tracer()
    with spans.Installed(tracer):
        assert kreinsplit.cli.integrate is not before[0]
        tracer.start("cli.main")
        traced = _run(analyze["argv"])
        tracer.stop()
    after = (kreinsplit.cli.integrate, kreinsplit.cli.build_parser,
             kreinsplit.expr.SymmetricCurve.__dict__["from_strings"], kreinsplit.flow.warnings)
    assert after == before
    assert traced == plain
    totals = tracer.totals()
    for name in ("cli.parser", "scenario.load", "expr.compile", "spectral.jordan_pair",
                 "bifurcation.ladder"):
        assert totals[name][0] == 1, name
    assert "flow.integrate" not in totals
