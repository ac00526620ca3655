"""kreinsplit: splitting asymptotics of degenerate unit multipliers of 4x4
linear Hamiltonian flows.

Commands:

    analyze   closed-form expansion data for a scenario (JSON on stdout)
    verify    predictions vs the eigenvalue oracle (JSON on stdout, CSV
              tracks under --out), exit 3 when errors exceed --tol or
              the t family's stability judgment fails
    sweep     raw eigenvalue trajectories over the grid as CSV
    classify  one-line strong-stability verdict

Exit codes: 0 success, 1 malformed input (I/O, schema, expressions,
flags), 2 mathematical degeneracy or hypothesis failure, 3 verification
failed (a tolerance exceeded or the stability judgment failed).  All
floating-point output is full double precision.
"""

import argparse
import csv
import functools
import os
import sys
from dataclasses import asdict, fields, replace
from json.encoder import encode_basestring_ascii as _ascii
from pathlib import Path

import numpy as np

from .bifurcation import classify_stability, ladder
from .errors import AnalysisError, InputError
from .flow import integrate  # noqa: F401  (looked up here by perfbench/spans.py)
from .linalg import J4, charpoly, quartic_roots
from .scenario import load_scenario, parse_grid
from .spectral import eigenvalues
from .verify import ModeComparison, compare, family, family_endpoints, track


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InputError(message)


_INF = float("inf")


def _float_text(x):
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


def _json_text(obj, pad):
    """``obj`` as ``json.dumps(obj, indent=2)`` writes it, byte for byte, at
    the nesting whose line break and indent is ``pad``.  Complex numbers
    become {"re": ..., "im": ...} objects, numpy arrays lists and numpy
    scalars Python ones; dict keys must be strings.  The common types are
    tested first."""
    if isinstance(obj, float):
        return _float_text(obj)
    if isinstance(obj, str):
        return _ascii(obj)
    inner = pad + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [_ascii(k) + ": " + _json_text(v, inner) for k, v in obj.items()]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [_json_text(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    if isinstance(obj, (complex, np.complexfloating)):
        return ("{" + inner + '"re": ' + _float_text(float(obj.real)) + "," + inner
                + '"im": ' + _float_text(float(obj.imag)) + pad + "}")
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, np.ndarray):
        return _json_text(obj.tolist(), pad)
    if isinstance(obj, np.generic):
        return _json_text(obj.item(), pad)
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _emit_json(doc):
    sys.stdout.write(_json_text(doc, "\n") + "\n")


def _grid_arg(text):
    """``--grid min,max,count[,log|lin]``, validated as a scenario grid."""
    parts = [p.strip() for p in text.split(",")]
    if len(parts) not in (3, 4) or parts[3:] not in ([], ["log"], ["lin"]):
        raise InputError("--grid expects min,max,count[,log|lin]")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise InputError(f"bad --grid value {text!r}") from None
    return parse_grid({"min": lo, "max": hi, "count": count, "log": parts[3:] != ["lin"]},
                      "--grid")


def _tol_arg(text):
    try:
        tol = float(text)
    except ValueError:
        raise InputError(f"bad --tol value {text!r}") from None
    if not (np.isfinite(tol) and tol >= 0):
        raise InputError(f"--tol must be a finite number >= 0, got {text!r}")
    return tol


def cmd_analyze(scenario, args):
    fam = family(scenario, args.mode)
    pair, coeffs = fam.pair, fam.coeffs
    verdict = classify_stability(coeffs)
    lad = ladder(fam.base, J4 @ fam.drive @ fam.base, pair.lambda0)
    _emit_json({
        "name": scenario.name,
        "mode": args.mode,
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
        "stability": verdict,
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
    })
    return 0


def cmd_classify(scenario, args):
    coeffs = family(scenario, args.mode).coeffs
    print(f"{classify_stability(coeffs)} kappa={coeffs.kappa!r}")
    return 0


def _track_rows(scenario, part):
    """The CSV table of ``track`` over the grid of ``part``'s family, its
    branches labelled from the predicted a; one more engine call."""
    grid, lam = scenario.grid(part.mode), part.lambda0
    polys = charpoly(family_endpoints(scenario, part.mode, grid), lam)
    tr = track(polys, [quartic_roots(p, lam) for p in polys], lam, grid, a_seed=part.a_predicted)
    header = ["s", "re_branch1", "im_branch1", "re_branch2", "im_branch2",
              "residual1", "residual2"]
    rows = [[repr(float(v)) for v in (s, b1.real, b1.imag, b2.real, b2.imag, *res)]
            for s, b1, b2, res in zip(tr.grid, tr.branch1, tr.branch2, tr.residuals)]
    return header, rows


def _write_csv(out, name, header, rows):
    """Write a CSV table to the file ``name`` in the directory ``out``,
    made when missing, or to stdout when ``out`` is not given.  A path
    that cannot be written is an InputError."""
    if not out:
        csv.writer(sys.stdout).writerows([header, *rows])
        return
    try:
        Path(out).mkdir(parents=True, exist_ok=True)
        with open(Path(out) / name, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([header, *rows])
    except OSError as exc:
        raise InputError(f"cannot write {exc.filename or Path(out) / name}: "
                         f"{exc.strerror or exc}") from None


# The JSON block of each family: ModeComparison's fields, in order.
_COMPARISON_KEYS = [f.name for f in fields(ModeComparison) if f.name != "mode"]


def cmd_verify(scenario, args):
    report = compare(scenario, mode=args.mode)
    parts = [part for part in (report.t, report.eps) if part is not None]
    if args.out:
        for part in parts:
            _write_csv(args.out, f"{scenario.name}_track_{part.mode}.csv",
                       *_track_rows(scenario, part))

    doc = {"name": report.name, "max_relative_error": report.max_relative_error}
    for part in parts:
        doc[part.mode] = {key: getattr(part, key) for key in _COMPARISON_KEYS}
    if report.stability is not None:
        doc["stability"] = asdict(report.stability)
    _emit_json(doc)
    judged = report.stability is None or report.stability.passed
    return 0 if report.max_relative_error <= args.tol and judged else 3


# An eigenvalue whose imaginary part is below this share of its modulus is
# real: the shipped scenarios' sweeps to s = 10 give real roots at most 8e-17.
_REAL_RTOL = 1e-12


def _column_key(z):
    """Column order of a sweep row: by angle in (-pi, pi], then by modulus.
    A real eigenvalue sorts at angle exactly 0 or pi, so the sign of a
    roundoff imaginary part cannot reorder the columns."""
    if abs(z.imag) <= _REAL_RTOL * abs(z):
        return (0.0 if z.real > 0 else np.pi, abs(z))
    return (np.angle(z), abs(z))


def cmd_sweep(scenario, args):
    grid = scenario.grid(args.mode)
    ends = family_endpoints(scenario, args.mode, grid)

    header = ["s"]
    for k in range(1, 5):
        header += [f"re_{k}", f"im_{k}"]
    header += [f"mod_{k}" for k in range(1, 5)]
    rows = []
    for s, roots in zip(grid, eigenvalues(ends)):
        evs = sorted(roots, key=_column_key)
        row = [repr(float(s))]
        for z in evs:
            row += [repr(float(z.real)), repr(float(z.imag))]
        row += [repr(float(abs(z))) for z in evs]
        rows.append(row)
    _write_csv(args.out, f"{scenario.name}_sweep_{args.mode}.csv", header, rows)
    return 0


_COMMANDS = {
    "analyze": cmd_analyze,
    "verify": cmd_verify,
    "sweep": cmd_sweep,
    "classify": cmd_classify,
}

# The family each command runs when --mode is not given.
_DEFAULT_MODE = {"analyze": "t", "verify": "both", "sweep": "t", "classify": "t"}


@functools.cache
def build_parser():
    """The command-line parser, built on the first call and shared after."""
    parser = _Parser(prog="kreinsplit", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("command", choices=_COMMANDS, help="subcommand (see above)")
    parser.add_argument("scenario", help="path to a scenario JSON file")
    parser.add_argument("--out", help="directory for CSV output")
    parser.add_argument("--tol", type=_tol_arg, default=1e-3,
                        help="verification tolerance on relative errors (verify only)")
    parser.add_argument("--grid", type=_grid_arg, default=None,
                        help="override the grid of every family the command runs: "
                             "min,max,count[,log|lin]")
    parser.add_argument("--mode", choices=("t", "eps"), default=None,
                        help="parameter family (default: t; verify runs both)")
    return parser


def apply_grid_override(scenario, mode, grid):
    """The scenario with ``grid`` in place of the grid of every family
    ``mode`` runs: the t or eps family, or both for "both"."""
    if grid is None:
        return scenario
    modes = ("t", "eps") if mode == "both" else (mode,)
    return replace(scenario, **{f"{m}_grid": grid for m in modes})


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        args.mode = args.mode or _DEFAULT_MODE[args.command]
        scenario = apply_grid_override(load_scenario(args.scenario), args.mode, args.grid)
        code = _COMMANDS[args.command](scenario, args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout (``| head``): exit 1 quietly, with stdout
        # on devnull so the flush at exit cannot fail again (Python docs, SIGPIPE).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AnalysisError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
