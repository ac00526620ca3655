"""Command-line interface.

Subcommands:

    analyze   closed-form expansion data for a scenario (JSON on stdout)
    verify    predictions vs the tracking oracle (JSON on stdout, CSV
              tracks under --out), exit 3 when errors exceed --tol
    sweep     raw eigenvalue trajectories over the grid as CSV
    classify  one-line strong-stability verdict

Exit codes: 0 success, 1 malformed input (I/O, schema, expressions),
2 mathematical degeneracy or hypothesis failure, 3 verification tolerance
exceeded.  All floating-point output is full double precision.
"""

import argparse
import csv
import io
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .bifurcation import classify_stability, ladder
from .errors import AnalysisError, InputError
from .flow import integrate  # noqa: F401  (looked up here by perfbench/spans.py)
from .linalg import J4
from .scenario import GridSpec, load_scenario
from .spectral import eigenvalues
from .verify import compare, family, family_endpoints


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InputError(message)


def _jsonify(obj):
    """Recursively convert to JSON-encodable data; complex numbers become
    {"re": ..., "im": ...} objects."""
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, (np.complexfloating,)):
        return {"re": float(obj.real), "im": float(obj.imag)}
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    return obj


def _emit_json(doc, stream=None):
    json.dump(_jsonify(doc), stream or sys.stdout, indent=2)
    (stream or sys.stdout).write("\n")


def _grid_override(text):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) not in (3, 4):
        raise InputError("--grid expects min,max,count[,log|lin]")
    try:
        lo = float(parts[0])
        hi = float(parts[1])
        count = int(parts[2])
    except ValueError:
        raise InputError(f"bad --grid value {text!r}") from None
    log = True
    if len(parts) == 4:
        if parts[3] not in ("log", "lin"):
            raise InputError("--grid spacing must be 'log' or 'lin'")
        log = parts[3] == "log"
    if lo <= 0 or hi <= lo or count < 4:
        raise InputError("--grid needs 0 < min < max and count >= 4")
    return GridSpec(lo=lo, hi=hi, count=count, log=log)


def _analysis_doc(scenario, mode):
    fam = family(scenario, mode)
    pair, coeffs = fam.pair, fam.coeffs
    verdict = classify_stability(coeffs)
    lad = ladder(fam.base, J4 @ fam.drive @ fam.base, pair.lambda0)
    return {
        "name": scenario.name,
        "mode": mode,
        "lambda0": pair.lambda0,
        "eta1": pair.eta1,
        "eta2": pair.eta2,
        "forms": {
            "form_21": pair.form_21,
            "form_12": pair.form_12,
            "form_22": pair.form_22,
        },
        "kappa": coeffs.kappa,
        "a": coeffs.a,
        "second_order": coeffs.second_order,
        "sum_derivative": coeffs.sum_derivative,
        "stability": verdict.verdict,
        "ladder": {
            "c": list(lad.c),
            "c31": lad.c31,
            "c21": lad.c21,
            "a_squared": lad.a_squared,
        },
        "diagnostics": {
            "kappa_imag_residual": coeffs.kappa_imag_residual,
            "chain_residual": pair.diagnostics.get("chain_residual"),
            "eigvec_residual": pair.diagnostics.get("eigvec_residual"),
        },
    }


def cmd_analyze(scenario, args):
    _emit_json(_analysis_doc(scenario, args.mode or "t"))
    return 0


def cmd_classify(scenario, args):
    coeffs = family(scenario, args.mode or "t").coeffs
    verdict = classify_stability(coeffs)
    print(f"{verdict.verdict} kappa={coeffs.kappa!r}")
    return 0


def _track_rows(track):
    header = ["s", "re_branch1", "im_branch1", "re_branch2", "im_branch2",
              "residual1", "residual2"]
    rows = []
    for i, s in enumerate(track.grid):
        rows.append([repr(float(s)),
                     repr(float(track.branch1[i].real)), repr(float(track.branch1[i].imag)),
                     repr(float(track.branch2[i].real)), repr(float(track.branch2[i].imag)),
                     repr(float(track.residuals[i, 0])), repr(float(track.residuals[i, 1]))])
    return header, rows


def _write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def cmd_verify(scenario, args):
    mode = args.mode or "both"
    report = compare(scenario, mode=mode)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        for part in (report.t, report.eps):
            if part is not None:
                header, rows = _track_rows(part.track)
                _write_csv(out / f"{scenario.name}_track_{part.mode}.csv", header, rows)

    doc = {"name": report.name, "max_relative_error": report.max_relative_error}
    for part in (report.t, report.eps):
        if part is None:
            continue
        doc[part.mode] = {
            "lambda0": part.lambda0,
            "kappa_predicted": part.kappa_predicted,
            "kappa_empirical": part.kappa_empirical,
            "sum_derivative_predicted": part.sum_derivative_predicted,
            "sum_derivative_empirical": part.sum_derivative_empirical,
            "a_predicted": part.a_predicted,
            "a_empirical": part.a_empirical,
            "relative_errors": part.relative_errors,
            "sqrt_ratio": part.sqrt_ratio,
            "quotient_growth": part.quotient_growth,
        }
    if report.stability is not None:
        doc["stability"] = asdict(report.stability)
    _emit_json(doc)
    return 0 if report.max_relative_error <= args.tol else 3


def cmd_sweep(scenario, args):
    mode = args.mode or "t"
    if mode == "eps":
        if not scenario.curve.has_eps:
            raise InputError("scenario curve does not mention eps; eps mode unavailable")
        grid = scenario.eps_grid.points()
    else:
        grid = scenario.t_grid.points()
    ends = family_endpoints(scenario, mode, grid)

    header = ["s"]
    for k in range(1, 5):
        header += [f"re_{k}", f"im_{k}"]
    header += [f"mod_{k}" for k in range(1, 5)]
    rows = []
    for s, roots in zip(grid, eigenvalues(ends)):
        evs = sorted(roots, key=lambda z: (np.angle(z), abs(z)))
        row = [repr(float(s))]
        for z in evs:
            row += [repr(float(z.real)), repr(float(z.imag))]
        row += [repr(float(abs(z))) for z in evs]
        rows.append(row)

    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        _write_csv(out / f"{scenario.name}_sweep_{mode}.csv", header, rows)
    else:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(header)
        writer.writerows(rows)
        sys.stdout.write(buf.getvalue())
    return 0


_COMMANDS = {
    "analyze": cmd_analyze,
    "verify": cmd_verify,
    "sweep": cmd_sweep,
    "classify": cmd_classify,
}


def build_parser():
    parser = _Parser(prog="kreinsplit",
                     description="Splitting asymptotics of degenerate unit multipliers "
                                 "of 4x4 linear Hamiltonian flows")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("analyze", "print closed-form expansion data as JSON"),
        ("verify", "compare closed forms against the tracking oracle"),
        ("sweep", "emit raw eigenvalue trajectories as CSV"),
        ("classify", "print the strong-stability verdict"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("scenario", help="path to a scenario JSON file")
        p.add_argument("--out", help="directory for CSV output")
        p.add_argument("--tol", type=float, default=1e-3,
                       help="verification tolerance on relative errors (verify only)")
        p.add_argument("--grid", type=_grid_override, default=None,
                       help="override the grid of every family the command runs: "
                            "min,max,count[,log|lin]")
        p.add_argument("--mode", choices=("t", "eps"), default=None,
                       help="parameter family (default: t; verify runs both)")
    return parser


def apply_grid_override(scenario, command, mode, grid):
    """The scenario with ``grid`` in place of the grid of every family
    ``command`` runs: the ``mode`` family when given, else both families
    for ``verify`` and the time family for the other subcommands."""
    if grid is None:
        return scenario
    if mode is not None:
        modes = (mode,)
    else:
        modes = ("t", "eps") if command == "verify" else ("t",)
    return replace(scenario, **{f"{m}_grid": grid for m in modes})


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        scenario = apply_grid_override(load_scenario(args.scenario), args.command,
                                       args.mode, args.grid)
        return _COMMANDS[args.command](scenario, args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AnalysisError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
