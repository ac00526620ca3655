"""Scenario files: JSON schema, validation and defaults.

A scenario bundles the starting symplectic matrix (explicit or generated
from a rotation angle and a symmetric coupling block), the coefficient
curve A(t, eps) as expression text, the horizon T for the eps family,
parameter grids, and tolerance overrides.  Validation is strict: unknown
keys are rejected, and every complaint carries a JSON-pointer-style path.
"""

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import ExprDepthError, InputError, NonSymplecticError, SchemaError
from .expr import SymmetricCurve
from .linalg import is_symplectic
from .spectral import make_jordan_symplectic

# Caps on a grid's points and a flow's steps: steps_t, and the eps family's count
# as sized and refined.  A grid point is one flow of the endpoint batch (128 KiB
# of chunk workspace); the eps = 0 base keeps 128 B a step.
MAX_GRID_COUNT = 1024
MAX_STEPS = 1_000_000


@dataclass(frozen=True)
class GridSpec:
    """Parameter grid: count points in [lo, hi], log- or linearly spaced."""

    lo: float = 1e-7
    hi: float = 1e-3
    count: int = 16
    log: bool = True

    def points(self):
        """The grid's points, computed on the first call; each call returns
        a fresh copy."""
        return self._points.copy()

    @cached_property
    def _points(self):
        if self.log:
            return np.geomspace(self.lo, self.hi, self.count)
        return np.linspace(self.lo, self.hi, self.count)


@dataclass(frozen=True)
class Tolerances:
    """Documented defaults, overridable per scenario.

    cluster bounds the detected double pair's spread and, times 10, its
    distance from +-1; circle bounds max |M^T J4 M - J4|, the reciprocity
    behind detection's trace rule; drift flags flow solutions; steps_t is
    the step count, at most MAX_STEPS, of the time family's sixth-order
    Magnus flows (flow.endpoints).  The eps family's count is sized from
    the curve (:meth:`Scenario.steps`, :func:`verify.eps_base`).

    A Magnus step is exact where A is constant, and its error over [0, s]
    falls like steps^-6 with the variation of B = J4 A over the step
    (Iserles & Norsett, Phil. Trans. R. Soc. A 357, 1999).  The t family's
    flows are short (s <= 1e-3 on the default grid), so steps_t = 4 keeps
    that error below roundoff.  Measured on jordan_pi3: the eigenvalues
    of sweep --grid 1e-2,1e-1,4 at 4 steps agree with 1,024 steps to
    6.4e-15; at s = 1 they are 2.5e-8 off, where 128 steps agree to
    8.3e-16; at s = 10 the flow stops with NonConformingFlowError (drift
    4.8e30).  verify --mode t --grid 1e-3,1e-1,4 reads the same errors at
    4, 16 and 128 steps (kappa 5.9e-9, sum_derivative 1.8e-8).  Raise
    steps_t for sweeps and tracks beyond s ~ 1e-1.
    """

    cluster: float = 1e-6
    circle: float = 1e-6
    drift: float = 1e-8
    steps_t: int = 4


@dataclass(frozen=True)
class Scenario:
    name: str
    curve: SymmetricCurve
    gamma0: np.ndarray  # float 4x4, symplectic within 1e-8
    T: float = 1.0
    t_grid: GridSpec = field(default_factory=GridSpec)
    eps_grid: GridSpec = field(default_factory=GridSpec)
    tolerances: Tolerances = field(default_factory=Tolerances)

    def require(self, mode):
        """Raise InputError unless the scenario has the ``mode`` family:
        "t", or "eps" when the curve mentions eps."""
        if mode == "eps" and not self.curve.has_eps:
            raise InputError("scenario curve does not mention eps; eps mode unavailable")

    def grid(self, mode):
        """Grid points of the ``mode`` family (:meth:`require`)."""
        self.require(mode)
        return getattr(self, f"{mode}_grid").points()

    def steps(self, mode):
        """Step count of the ``mode`` family's flows: ``steps_t`` for "t";
        for "eps", the least multiple of 4 at least max(16, T beta / 0.03),
        beta the largest row sum of |A(t, 0)| at 17 equally spaced t in
        [0, T]: h beta <= 0.03, 52 steps on resonant_eps; past MAX_STEPS or
        infinite, InputError.  verify.eps_base refines it."""
        if mode == "t":
            return self.tolerances.steps_t
        A = self.curve.eval_matrix_batch(np.linspace(0.0, self.T, 17), 0.0)
        beta = float(np.abs(A).sum(axis=-1).max())
        size = max(16.0, self.T * beta / 0.03)
        steps = 4 * math.ceil(size / 4) if math.isfinite(size) else size
        if steps > MAX_STEPS:
            raise InputError(f"T = {self.T!r} sizes the eps flows at {steps} steps, "
                             f"above the cap of {MAX_STEPS}")
        return steps


def _require_keys(obj, allowed, required, path):
    if not isinstance(obj, dict):
        raise SchemaError(path, f"expected an object, got {type(obj).__name__}")
    for key in obj:
        if key not in allowed:
            raise SchemaError(f"{path}/{key}", "unknown key")
    for key in required:
        if key not in obj:
            raise SchemaError(path, f"missing required key {key!r}")


def _number(value, path, positive=False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(path, f"expected a number, got {type(value).__name__}")
    v = float(value)
    if not math.isfinite(v):
        raise SchemaError(path, "number must be finite")
    if positive and v <= 0:
        raise SchemaError(path, "number must be positive")
    return v


def _matrix(value, shape, path):
    try:
        arr = np.array(value, dtype=float)
    except (TypeError, ValueError):
        raise SchemaError(path, "expected a numeric matrix") from None
    if arr.shape != shape:
        raise SchemaError(path, f"expected shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise SchemaError(path, "matrix entries must be finite")
    return arr


def parse_grid(obj, path):
    """Validate a grid object (keys min, max, count, log) into a GridSpec;
    complaints are located under ``path``."""
    _require_keys(obj, {"min", "max", "count", "log"}, (), path)
    lo = _number(obj.get("min", 1e-7), f"{path}/min", positive=True)
    hi = _number(obj.get("max", 1e-3), f"{path}/max", positive=True)
    if hi <= lo:
        raise SchemaError(path, "max must exceed min")
    count = obj.get("count", 16)
    if isinstance(count, bool) or not isinstance(count, int) or count < 4:
        raise SchemaError(f"{path}/count", "count must be an integer >= 4")
    if count > MAX_GRID_COUNT:
        raise SchemaError(f"{path}/count", f"count must be at most {MAX_GRID_COUNT}")
    log = obj.get("log", True)
    if not isinstance(log, bool):
        raise SchemaError(f"{path}/log", "log must be a boolean")
    grid = GridSpec(lo=lo, hi=hi, count=count, log=log)
    points = grid.points()
    if not (points[1:] > points[:-1]).all():
        raise SchemaError(path, "grid points must be strictly increasing; widen [min, max]")
    return grid


def _tolerances(obj, path):
    _require_keys(obj, {"cluster", "circle", "drift", "steps_t"}, (), path)
    kwargs = {}
    for key in ("cluster", "circle", "drift"):
        if key in obj:
            kwargs[key] = _number(obj[key], f"{path}/{key}", positive=True)
    if "steps_t" in obj:
        v = obj["steps_t"]
        if isinstance(v, bool) or not isinstance(v, int) or v < 2:
            raise SchemaError(f"{path}/steps_t", "must be an integer >= 2")
        if v > MAX_STEPS:
            raise SchemaError(f"{path}/steps_t", f"must be at most {MAX_STEPS}")
        kwargs["steps_t"] = v
    return Tolerances(**kwargs)


def parse_scenario(obj, default_name="scenario"):
    """Validate a decoded JSON object into a Scenario.

    The initial matrix is resolved last, after every schema check: a
    generator becomes :func:`make_jordan_symplectic`, and an explicit
    matrix that is not symplectic within 1e-8 raises NonSymplecticError."""
    _require_keys(obj, {"name", "gamma0", "curve", "T", "grids", "tolerances"},
                  ("gamma0", "curve"), "")
    name = obj.get("name", default_name)
    if not isinstance(name, str) or not name:
        raise SchemaError("/name", "name must be a non-empty string")
    if any(c in name for c in "/\\\0") or name in (".", ".."):
        raise SchemaError("/name", "name must not contain /, \\ or NUL, nor be . or ..")

    g0 = obj["gamma0"]
    _require_keys(g0, {"matrix", "generator"}, (), "/gamma0")
    if ("matrix" in g0) == ("generator" in g0):
        raise SchemaError("/gamma0", "give exactly one of 'matrix' or 'generator'")
    generator = None
    if "matrix" in g0:
        gamma0 = _matrix(g0["matrix"], (4, 4), "/gamma0/matrix")
    else:
        gen = g0["generator"]
        _require_keys(gen, {"theta0", "C"}, ("theta0", "C"), "/gamma0/generator")
        theta0 = _number(gen["theta0"], "/gamma0/generator/theta0")
        C = _matrix(gen["C"], (2, 2), "/gamma0/generator/C")
        if C[0, 1] != C[1, 0]:
            raise SchemaError("/gamma0/generator/C", "coupling block must be symmetric")
        generator = (theta0, C)

    cur = obj["curve"]
    _require_keys(cur, {"entries"}, ("entries",), "/curve")
    entries = cur["entries"]
    if not isinstance(entries, dict):
        raise SchemaError("/curve/entries", "expected an object of 'i,j': expression")
    for key, text in entries.items():
        if not isinstance(text, str):
            raise SchemaError(f"/curve/entries/{key}", "expression must be a string")
    # Syntax and symmetry errors propagate as-is; they already carry their
    # own locations and belong to the same input-error family.
    try:
        curve = SymmetricCurve.from_strings(entries)
    except (ValueError, ExprDepthError) as exc:
        raise SchemaError("/curve/entries", str(exc)) from None

    T = _number(obj.get("T", 1.0), "/T", positive=True)
    grids = obj.get("grids", {})
    _require_keys(grids, {"t", "eps"}, (), "/grids")
    t_grid = parse_grid(grids["t"], "/grids/t") if "t" in grids else GridSpec()
    eps_grid = parse_grid(grids["eps"], "/grids/eps") if "eps" in grids else GridSpec()
    tolerances = _tolerances(obj.get("tolerances", {}), "/tolerances")

    if generator is not None:
        gamma0 = make_jordan_symplectic(*generator)
    elif not is_symplectic(gamma0, 1e-8):
        raise NonSymplecticError("initial condition is not symplectic within 1e-8")
    return Scenario(name=name, curve=curve, gamma0=gamma0, T=T, t_grid=t_grid,
                    eps_grid=eps_grid, tolerances=tolerances)


def load_scenario(path):
    """Load and validate a scenario JSON file."""
    p = Path(path)
    try:
        text = p.read_bytes().decode("utf-8")
    except OSError as exc:
        raise SchemaError("", f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise SchemaError("", f"cannot decode {path} as UTF-8: {exc}") from None
    if "\r" in text:  # a text-mode read's newlines, which JSON's error positions count
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    try:
        obj = json.loads(text)
    except ValueError as exc:  # also an integer past Python's 4,300 digits
        raise SchemaError("", f"invalid JSON in {path}: {exc}") from None
    except RecursionError:
        raise SchemaError("", f"invalid JSON in {path}: nested too deeply") from None
    return parse_scenario(obj, default_name=p.stem)
