"""One workload in a closed loop, in its own process.

Usage: python3 perfbench/worker.py JOB.json RESULT.json

Reads the call list written by run.py, makes one untimed warm-up call,
then calls ``kreinsplit.cli.main(argv)`` in-process, one call after the
other, with stdout and stderr captured, until the time budget is spent.
Every call is checked.  With tracing on, each input is called twice,
once traced and once not (alternating which goes first): the untraced
time is the base of the tracing overhead, and the two stdouts must be
identical.
"""

import contextlib
import io
import json
import resource
import sys
import time
import traceback

import spans
import workloads


def _call(main, argv):
    """Run one CLI call; an exception escaping ``main`` is a failed call
    with exit code None and the traceback on stderr."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception:
            code = None
            traceback.print_exc()
    return code, time.perf_counter() - start, out.getvalue(), err.getvalue()


def run(job):
    import numpy
    from kreinsplit.cli import main

    calls = job["calls"]
    mode = "eps" if job["workload"] == "oracle_eps" else "t"
    _call(main, ["analyze", calls[0]["argv"][1], "--mode", mode])

    tracer = spans.Tracer() if job["trace"] else None
    state = workloads.CheckState()
    times, traced_times, failures = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    n = 0
    while n == 0 or time.perf_counter() - start < job["seconds"]:
        call = calls[n % len(calls)]
        outcomes = []
        if tracer is None:
            order = (False,)
        else:
            order = (False, True) if n % 2 == 0 else (True, False)
        for traced in order:
            if traced:
                with spans.Installed(tracer):
                    tracer.start("cli.main")
                    try:
                        outcome = _call(main, call["argv"])
                    finally:
                        tracer.stop()
                traced_times.append(outcome[1])
            else:
                outcome = _call(main, call["argv"])
                times.append(outcome[1])
            outcomes.append(outcome)
        for code, _, out, err in outcomes:
            attempted += 1
            reason = workloads.check(call, code, out, err, state)
            if reason is None and tracer and out != outcomes[0][2]:
                reason = "traced stdout differs from untraced stdout"
            if reason is not None:
                failed += 1
                failures.append(f"{' '.join(call['argv'])}: {reason}")
        n += 1
    elapsed = time.perf_counter() - start

    result = {
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "elapsed_s": elapsed,
        "call_times_s": times,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": numpy.__version__,
        "worst_errors": state.worst,
        "anchor_errors": state.anchor_errors,
    }
    if tracer:
        result["traced_calls"] = len(traced_times)
        result["overhead_ratio"] = sum(traced_times) / sum(times) - 1.0
        result["spans"] = tracer.totals()
        result["counts"] = tracer.counts
        result["maxima"] = tracer.maxima
        with open(job["span_log"], "w", encoding="utf-8") as fh:
            for name, begin, end, parent in tracer.spans:
                fh.write(json.dumps({"name": name, "start": begin, "end": end,
                                     "parent": parent}) + "\n")
    return result


def main():
    job_path, result_path = sys.argv[1], sys.argv[2]
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    result = run(job)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
