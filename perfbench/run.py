"""Benchmark of the kreinsplit CLI: seeded workloads, checked outputs.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload oracle_t --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` measures the end-to-end metrics of BENCHMARK.json and
``--trace 1`` its per-layer metrics; the last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--workload all`` runs every workload and prints every metric by name
with its unit.  A record of each run (seed, input digest, machine,
every metric, failures) is written under ``.perfbench_out/`` and the
spans of a traced run next to it.

The program is imported from ``src/`` of the checkout; nothing is built
or installed.  Set-up time is measured in fresh interpreters, then the
workload runs in one child process (perfbench/worker.py) with BLAS
threading pinned to one thread.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 11
TIME_LIMIT_S = 170.0
_IMPORT_PROBE = ("import time; t = time.perf_counter(); import kreinsplit; "
                 "print(repr(time.perf_counter() - t))")

# Spans whose per-call count and self time are per-layer metrics.
LAYER_SPANS = (
    "flow.integrate", "flow.quadrature", "expr.eval_batch", "expr.d_eps",
    "expr.compile", "scenario.load", "linalg.charpoly", "linalg.quartic_roots",
    "spectral.detect", "spectral.jordan_pair", "bifurcation.expansion",
    "bifurcation.ladder", "verify.track", "verify.fit", "cli.parser",
)


def _child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _setup_seconds(env, deadline):
    """Median import time of the package over fresh interpreters."""
    values = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env, cwd=ROOT,
                             capture_output=True, text=True, check=True,
                             timeout=max(1.0, deadline - time.monotonic()))
        values.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(values), values


def _machine():
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model or platform.processor(),
            "python": platform.python_version()}


def _percentile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _end_to_end(res, setup_s):
    times = res["call_times_s"]
    correct_calls = res["attempted"] - res["failed"]
    return {
        "op_p50_s": statistics.median(times),
        "op_p99_s": _percentile(times, 99),
        "ops_per_s": correct_calls / res["elapsed_s"],
        "setup_s": setup_s,
        "peak_rss_mb": res["peak_rss_mb"],
    }


def _per_layer(res):
    n = res["traced_calls"]
    spans = res["spans"]
    counts = res["counts"]
    maxima = res["maxima"]
    out = {}
    for name in LAYER_SPANS:
        calls, total, self_time = spans.get(name, (0, 0.0, 0.0))
        out[f"{name}.calls"] = calls / n
        out[f"{name}.self_s"] = self_time / n
    for key in ("flow.integrate.steps", "flow.quadrature.warnings", "flow.nonconforming",
                "spectral.jordan_pair.rejects", "verify.track.points"):
        out[key] = counts.get(key, 0) / n
    steps = counts.get("flow.integrate.steps", 0)
    integrate = spans.get("flow.integrate", (0, 0.0, 0.0))
    out["flow.integrate.ns_per_step"] = integrate[2] / steps * 1e9 if steps else 0.0
    quadrature = spans.get("flow.quadrature", (0, 0.0, 0.0))
    out["flow.trajectory_use_ratio"] = quadrature[0] / integrate[0] if integrate[0] else 0.0
    for key in ("flow.drift_max", "spectral.chain_residual_max", "verify.richardson_spread_max"):
        out[key] = maxima.get(key, 0.0)
    _, main_total, main_self = spans["cli.main"]
    out["cli.main.self_s"] = main_self / n
    out["trace.span_coverage"] = 1.0 - main_self / main_total
    out["trace.overhead_ratio"] = res["overhead_ratio"]
    worst = res["worst_errors"]
    out["verify.kappa_rel_err_max"] = worst["kappa"]
    out["verify.sum_derivative_rel_err_max"] = worst["sum_derivative"]
    out["bifurcation.ladder_rel_err_max"] = worst["ladder"]
    return out


def _extras(workload, res, measured):
    """Metrics printed and recorded but not in BENCHMARK.json, as
    (value, unit): each is zero when correct, defined on some workloads
    only, or too noisy to carry a bound (see NOTES.md)."""
    worst = res["worst_errors"]
    out = {"fail_ratio": (res["failed"] / res["attempted"], "1")}
    if "op_p50_s" in measured:
        out["op_p50_s"] = (measured["op_p50_s"], "s")
    if workload == "closed_form":
        if "op_p99_s" in measured:
            out["op_p99_s"] = (measured["op_p99_s"], "s")
        out["ladder_rel_err_max"] = (worst["ladder"], "1")
    else:
        out["kappa_rel_err_max"] = (worst["kappa"], "1")
        out["sum_derivative_rel_err_max"] = (worst["sum_derivative"], "1")
    return out


def run_workload(workload, seed, seconds, trace, spec):
    """Run one workload; return (result line, record)."""
    deadline = time.monotonic() + TIME_LIMIT_S
    env = _child_env()
    work = ROOT / ".perfbench_work" / f"{workload}-{seed}-{trace}-{os.getpid()}"
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{trace}"
    try:
        setup_s, setup_values = _setup_seconds(env, deadline)
        calls, digest = workloads.materialize(workload, seed, ROOT / "scenarios", work / "inputs")
        job = {"workload": workload, "seconds": seconds, "trace": bool(trace), "calls": calls,
               "span_log": str(out_dir / f"{stem}.spans.jsonl") if trace else None}
        (work / "job.json").write_text(json.dumps(job), encoding="utf-8")
        subprocess.run([sys.executable, str(HERE / "worker.py"),
                        str(work / "job.json"), str(work / "result.json")],
                       env=env, cwd=ROOT, stdout=sys.stderr, check=True,
                       timeout=max(1.0, deadline - time.monotonic()))
        res = json.loads((work / "result.json").read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    measured = _per_layer(res) if trace else _end_to_end(res, setup_s)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}
    line = {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "inputs_sha256": digest, "pool_size": workloads.POOL_SIZE[workload],
        "machine": dict(_machine(), numpy=res["numpy"]),
        "failures": res["failures"],
        "setup_s_values": setup_values,
        "call_times_s": res["call_times_s"],
        "metrics": measured,
        "extras": _extras(workload, res, measured),
        "anchor_errors": res["anchor_errors"],
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    return line, record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (ROOT / "BENCHMARK.json", ROOT / "src" / "kreinsplit" / "cli.py",
                           ROOT / "scenarios" / "jordan_pi3.json") if not p.is_file()]
    if missing:
        print(f"perfbench: not a kreinsplit checkout, missing {missing[0]}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    if args.workload != "all":
        line, record = run_workload(args.workload, args.seed, args.seconds, args.trace, spec)
        print(f"perfbench: {json.dumps(record['machine'])} inputs {record['inputs_sha256']}",
              file=sys.stderr)
        print(json.dumps(line))
        return 0

    lines = {}
    for workload in workloads.WORKLOADS:
        line, record = run_workload(workload, args.seed, args.seconds, args.trace, spec)
        lines[workload] = line
        print(f"{workload}: seed {args.seed}, inputs {record['inputs_sha256'][:16]}, "
              f"{line['attempted']} calls, {line['failed']} failed")
        rows = [(name, m["value"], m["unit"]) for name, m in line["metrics"].items()]
        rows += [(name, value, unit) for name, (value, unit) in record["extras"].items()]
        rows += [(f"anchor.{anchor}.{key}_rel_err", value, "1")
                 for anchor, errors in record["anchor_errors"].items()
                 for key, value in errors.items()]
        for name, value, unit in rows:
            print(f"  {name:44s} {value!r} {unit}")
    print(json.dumps(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
