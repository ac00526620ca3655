"""Seeded inputs and per-call correctness checks for the three workloads.

Every workload is a list of calls into ``kreinsplit.cli.main``.  A call
is an argv list plus the facts its output must show.  The shipped
scenarios come first as fixed anchors; the rest of the pool is drawn
from ``random.Random(seed)``, so one seed always gives the same bytes.
The pool is cycled when a run makes more calls than it holds.

Inputs are drawn so that the theory's hypotheses hold by construction
(a curve with a definite symmetric part, a coupling with nonzero trace);
an input that then fails is counted as failed, never skipped or redrawn.
"""

import cmath
import hashlib
import json
import math
import random
from pathlib import Path

WORKLOADS = ("oracle_t", "oracle_eps", "closed_form")

# Angles and couplings of the generated degenerate multipliers; the same
# corpus the package's own tests use.
THETAS = (math.pi / 6, math.pi / 3, math.pi / 2, 2 * math.pi / 3, 5 * math.pi / 6)
COUPLINGS = (
    ((1.0, 0.0), (0.0, 1.0)),
    ((1.0, 1.0), (1.0, 0.0)),
    ((2.0, 0.0), (0.0, 1.0)),
    ((2.0, 1.0), (1.0, 1.0)),
)
# Traceless couplings give a semisimple double multiplier: no chain.
SEMISIMPLE_COUPLINGS = (
    ((0.0, 0.0), (0.0, 0.0)),
    ((1.0, 0.0), (0.0, -1.0)),
    ((0.0, 1.0), (1.0, 0.0)),
)

POOL_SIZE = {"oracle_t": 64, "oracle_eps": 64, "closed_form": 256}
ANCHORS = {
    "oracle_t": ("jordan_pi3", "jordan_pi3_neg"),
    "oracle_eps": ("resonant_eps",),
    "closed_form": ("jordan_pi3", "jordan_pi3_neg"),
}

# Correctness bounds (README acceptance criteria and the verify default).
ORACLE_TOL = 1e-3
LADDER_TOL = 1e-9
LAMBDA_TOL = 1e-6

# Oracle errors of the anchors at the seed commit (kreinsplit 0.1.0).  An
# anchor error that grows past ANCHOR_ERROR_GROWTH times its seed value
# fails the call: a speedup that makes the oracle worse is a regression.
ANCHOR_ERRORS = {
    "jordan_pi3": {"kappa": 5.688983006901793e-07, "sum_derivative": 4.303356279031125e-06},
    "jordan_pi3_neg": {"kappa": 5.323512176635958e-07, "sum_derivative": 4.192582053902966e-06},
    "resonant_eps": {"kappa": 1.9769124590652733e-06, "sum_derivative": 2.0136407885847546e-07},
}
ANCHOR_ERROR_GROWTH = 1.25

# Base of the shipped resonant_eps scenario: the eps = 0 flow over [0, 1]
# ends at a double non-semisimple multiplier exp(i pi/3).
_RESONANT_GAMMA0 = [
    [0.5, -0.8660254037844386, 0.0, 0.0],
    [0.8660254037844386, 0.5, 0.0, 0.0],
    [-0.2, 0.34641016151377546, 0.5, -0.8660254037844386],
    [-0.34641016151377546, -0.2, 0.8660254037844386, 0.5],
]
_RESONANT_BASE = {
    (0, 0): "0.4",
    (1, 1): "0.4",
    (0, 3): "1.0471975511965976",
    (1, 2): "-1.0471975511965976",
}
_UPPER = [(i, j) for i in range(4) for j in range(i, 4)]
_GRID = {"min": 1e-7, "max": 1e-3, "count": 16, "log": True}


def _definite(rng):
    """Symmetric 4x4 with a common-sign diagonal of size 0.5 to 1.5 and
    off-diagonal entries below 0.15, so it is diagonally dominant and
    hence definite.  A definite drive keeps <A eta1, eta1> away from 0."""
    sign = rng.choice((-1.0, 1.0))
    return {(i, j): round(sign * rng.uniform(0.5, 1.5), 6) if i == j
            else round(rng.uniform(-0.15, 0.15), 6) for (i, j) in _UPPER}


def _symmetric(rng, scale):
    return {(i, j): round(scale * rng.uniform(-1.0, 1.0), 6) for (i, j) in _UPPER}


def _entries(texts):
    return {f"{i},{j}": text for (i, j), text in texts.items()}


def _generator(theta0, C):
    return {"generator": {"theta0": theta0, "C": [list(row) for row in C]}}


def _sin_curve(rng):
    # A(t) = S + P sin t with P scaled by 0.3.
    S = _definite(rng)
    P = _symmetric(rng, 0.3)
    return _entries({k: f"{S[k]!r} + ({P[k]!r})*sin(t)" for k in _UPPER})


def _t_scenario(rng, name):
    theta0 = rng.choice(THETAS)
    C = rng.choice(COUPLINGS)
    return {"name": name, "gamma0": _generator(theta0, C),
            "curve": {"entries": _sin_curve(rng)}, "T": 1.0, "grids": {"t": _GRID}}


def _eps_scenario(rng, name, linear):
    D = _definite(rng)
    texts = {}
    for k in _UPPER:
        base = _RESONANT_BASE.get(k)
        if linear:
            coupling = f"eps*({D[k]!r} + 0.3*sin(t))"
        else:
            coupling = f"sin(eps*({D[k]!r}))*(1 + 0.3*cos(t))"
        texts[k] = coupling if base is None else f"{base} + {coupling}"
    return {"name": name, "gamma0": {"matrix": _RESONANT_GAMMA0},
            "curve": {"entries": _entries(texts)}, "T": 1.0,
            "grids": {"t": _GRID, "eps": _GRID}}


def _no_double_matrix(rng):
    """Symplectic matrix with four distinct unit multipliers: rotations by
    two different angles in the (q1, p1) and (q2, p2) planes, conjugated by
    the symplectic shear [[I, Q], [0, I]].  Plain Python arithmetic, so the
    written bytes do not depend on the numpy build."""
    a, b = rng.sample(THETAS, 2)
    R = [[0.0] * 4 for _ in range(4)]
    for k, ang in ((0, a), (1, b)):
        c, s = math.cos(ang), math.sin(ang)
        R[k][k], R[k][k + 2], R[k + 2][k], R[k + 2][k + 2] = c, s, -s, c
    q = [round(rng.uniform(-1.0, 1.0), 6) for _ in range(3)]
    Q = [[q[0], q[1]], [q[1], q[2]]]
    S = [[1.0 if i == j else 0.0 for j in range(4)] for i in range(4)]
    Sinv = [row[:] for row in S]
    for i in range(2):
        for j in range(2):
            S[i][j + 2] = Q[i][j]
            Sinv[i][j + 2] = -Q[i][j]

    def mul(X, Y):
        return [[sum(X[i][k] * Y[k][j] for k in range(4)) for j in range(4)]
                for i in range(4)]

    return mul(mul(S, R), Sinv)


def _reject_scenario(rng, name, kind):
    curve = {"entries": _sin_curve(rng)}
    if kind == "NotAJordanBlockError":
        gamma0 = _generator(rng.choice(THETAS), rng.choice(SEMISIMPLE_COUPLINGS))
    else:
        gamma0 = {"matrix": _no_double_matrix(rng)}
    return {"name": name, "gamma0": gamma0, "curve": curve, "T": 1.0, "grids": {"t": _GRID}}


def _dump(doc):
    return (json.dumps(doc, indent=1, sort_keys=True) + "\n").encode("utf-8")


def generate(workload, seed, scenario_dir):
    """The workload's input pool: a list of (name, file bytes, calls).

    Anchors are the shipped scenarios, byte for byte; the rest is drawn
    from the seed.  Each call is a dict with ``argv`` (the scenario path
    left as None), ``kind`` and the facts the output must show.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    pool = []
    for name in ANCHORS[workload]:
        data = (Path(scenario_dir) / f"{name}.json").read_bytes()
        pool.append((name, data, _calls(workload, json.loads(data), None, name)))
    for k in range(POOL_SIZE[workload] - len(pool)):
        name = f"{workload}_{seed}_{k:03d}"
        reject = None
        if workload == "oracle_eps":
            doc = _eps_scenario(rng, name, linear=k % 2 == 0)
        elif workload == "closed_form" and k % 4 == 3:
            # One input in four must be rejected; the two kinds and the two
            # commands alternate.
            error = ("NotAJordanBlockError", "NoDoubleMultiplierError")[(k // 4) % 2]
            reject = (error, ("analyze", "classify")[(k // 8) % 2])
            doc = _reject_scenario(rng, name, error)
        else:
            doc = _t_scenario(rng, name)
        pool.append((name, _dump(doc), _calls(workload, doc, reject, None)))
    return pool


def _calls(workload, doc, reject, anchor):
    if workload != "closed_form":
        mode = "eps" if workload == "oracle_eps" else "t"
        calls = [{"argv": ["verify", None, "--mode", mode], "kind": f"verify_{mode}"}]
    elif reject is not None:
        calls = [{"argv": [reject[1], None], "kind": "reject", "error": reject[0]}]
    else:
        theta0 = doc["gamma0"]["generator"]["theta0"]
        calls = [{"argv": ["analyze", None], "kind": "analyze", "theta0": theta0},
                 {"argv": ["classify", None], "kind": "classify"}]
    for call in calls:
        call["anchor"] = anchor
    return calls


def materialize(workload, seed, scenario_dir, out_dir):
    """Write the pool under ``out_dir``; return (calls, digest).

    Calls carry the written path and the index of their input; the digest
    is the SHA-256 over the names and bytes of the pool files in order.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    digest = hashlib.sha256()
    calls = []
    for k, (name, data, file_calls) in enumerate(generate(workload, seed, scenario_dir)):
        path = out_dir / f"{name}.json"
        path.write_bytes(data)
        digest.update(name.encode() + b"\0" + data)
        for call in file_calls:
            call["argv"][1] = str(path)
            call["input"] = k
            calls.append(call)
    return calls, digest.hexdigest()


class CheckState:
    """Worst errors seen over a run, plus what one call tells a later one
    (the ``analyze`` kappa that the ``classify`` verdict must agree with)."""

    def __init__(self):
        self.worst = {"kappa": 0.0, "sum_derivative": 0.0, "ladder": 0.0}
        self.anchor_errors = {}
        self.kappa_of = {}

    def note(self, key, value):
        self.worst[key] = max(self.worst[key], value)


def check(call, code, out, err, state):
    """Return None when the captured outcome of ``call`` is correct, else
    a one-line reason.  Updates the worst errors in ``state``."""
    kind = call["kind"]
    if kind == "reject":
        if code != 2:
            return f"expected exit 2, got {code}"
        if f"error: {call['error']}:" not in err:
            return f"expected {call['error']} on stderr, got {err.strip()[:120]!r}"
        return None
    if code != 0:
        return f"exit {code}: {err.strip()[:200]}"
    if kind == "classify":
        words = out.split()
        kappa = state.kappa_of.get(call["input"])
        if len(words) != 2 or not words[1].startswith("kappa="):
            return f"unexpected classify output {out.strip()[:120]!r}"
        if kappa is None:
            return "no analyze kappa recorded for this input"
        want = ("stable_forward_unstable_backward" if kappa < 0
                else "unstable_forward_stable_backward")
        return None if words[0] == want else f"verdict {words[0]} disagrees with kappa {kappa!r}"
    try:
        doc = json.loads(out)
    except ValueError:
        return "stdout is not JSON"
    try:
        if kind == "analyze":
            return _check_analyze(call, doc, state)
        return _check_verify(call, doc, state)
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"


def _complex(obj):
    return complex(float(obj["re"]), float(obj["im"]))


def _check_analyze(call, doc, state):
    lam = _complex(doc["lambda0"])
    a = _complex(doc["a"])
    a_squared = _complex(doc["ladder"]["a_squared"])
    kappa = float(doc["kappa"])
    ladder_err = abs(a * a - a_squared) / abs(a * a)
    state.note("ladder", ladder_err)
    state.kappa_of[call["input"]] = kappa
    if not ladder_err <= LADDER_TOL:
        return f"ladder relative error {ladder_err:.3e} exceeds {LADDER_TOL:g}"
    if not abs(lam - cmath.exp(1j * call["theta0"])) <= LAMBDA_TOL:
        return f"lambda0 {lam!r} is not exp(i theta0)"
    return None


def _check_verify(call, doc, state):
    mode = "t" if call["kind"] == "verify_t" else "eps"
    errors = doc[mode]["relative_errors"]
    kappa_err = float(errors["kappa"])
    sum_err = float(errors["sum_derivative"])
    state.note("kappa", kappa_err)
    state.note("sum_derivative", sum_err)
    anchor = call.get("anchor")
    if anchor is not None:
        state.anchor_errors[anchor] = {"kappa": kappa_err, "sum_derivative": sum_err}
        for key, err in state.anchor_errors[anchor].items():
            ceiling = ANCHOR_ERROR_GROWTH * ANCHOR_ERRORS[anchor][key]
            if not err <= ceiling:
                return f"anchor {key} error {err:.3e} exceeds {ceiling:.3e}"
    worst = float(doc["max_relative_error"])
    if not worst <= ORACLE_TOL:
        return f"max_relative_error {worst:.3e} exceeds {ORACLE_TOL:g}"
    if mode == "t" and doc["stability"]["passed"] is not True:
        return "stability probe did not pass"
    return None
