"""Per-layer spans recorded from outside the package.

The tracer wraps public functions in the module where each is looked up
(``kreinsplit.verify.integrate`` and ``kreinsplit.cli.integrate`` are two
lookups of one function) and restores them afterwards; nothing under
``src/`` is edited.  Only functions called a bounded number of times per
CLI call are wrapped, never the per-step work inside an RK4 loop.

A span is (name, start, end, parent index).  Spans stay in memory until
the run ends; self time is a span's duration minus its children's.
"""

import functools
import importlib
import inspect
import time
import warnings as _warnings


class Tracer:
    """Spans, counters and running maxima of one traced run."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.maxima = {}
        self._stack = []

    def count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def peak(self, key, value):
        self.maxima[key] = max(self.maxima.get(key, 0.0), float(value))

    def start(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)

    def stop(self):
        index = self._stack.pop()
        self.spans[index][2] = time.perf_counter()

    def totals(self):
        """Per span name: (number of spans, total time, self time)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for (name, start, end, _), inner in zip(self.spans, child_time):
            calls, total, self_time = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, total + (end - start), self_time + (end - start - inner))
        return out


def _bound(fn):
    sig = inspect.signature(fn)

    def arguments(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    return arguments


def _on_integrate(tracer, fn):
    arguments = _bound(fn)

    def hook(args, kwargs, result):
        tracer.count("flow.integrate.steps", int(arguments(args, kwargs)["steps"]))
        tracer.peak("flow.drift_max", result.drift)
        if not result.conforming:
            tracer.count("flow.nonconforming")

    return hook


def _on_track(tracer, fn):
    arguments = _bound(fn)

    def hook(args, kwargs, result):
        tracer.count("verify.track.points", len(arguments(args, kwargs)["grid"]))

    return hook


def _on_jordan_pair(tracer, fn):
    def hook(args, kwargs, result):
        tracer.peak("spectral.chain_residual_max", result.diagnostics["chain_residual"])

    return hook


def _on_fit(tracer, fn):
    def hook(args, kwargs, result):
        tracer.peak("verify.richardson_spread_max", result.diagnostics["richardson_spread"])

    return hook


# (module, attribute, span name, result hook factory).  A dotted attribute
# names a method on a class; missing attributes are skipped, so the table
# survives functions being removed from the package.
WRAPS = (
    ("kreinsplit.cli", "build_parser", "cli.parser", None),
    ("kreinsplit.cli", "load_scenario", "scenario.load", None),
    ("kreinsplit.expr", "SymmetricCurve.from_strings", "expr.compile", None),
    ("kreinsplit.expr", "SymmetricCurve.eval_matrix_batch", "expr.eval_batch", None),
    ("kreinsplit.expr", "SymmetricCurve.d_eps_matrix_batch", "expr.d_eps", None),
    ("kreinsplit.cli", "integrate", "flow.integrate", _on_integrate),
    ("kreinsplit.verify", "integrate", "flow.integrate", _on_integrate),
    ("kreinsplit.cli", "perturbation_hamiltonian", "flow.quadrature", None),
    ("kreinsplit.verify", "perturbation_hamiltonian", "flow.quadrature", None),
    ("kreinsplit.spectral", "charpoly_three_term", "linalg.charpoly", None),
    ("kreinsplit.verify", "charpoly_three_term", "linalg.charpoly", None),
    ("kreinsplit.spectral", "quartic_roots", "linalg.quartic_roots", None),
    ("kreinsplit.verify", "quartic_roots", "linalg.quartic_roots", None),
    ("kreinsplit.cli", "detect_double_unitary", "spectral.detect", None),
    ("kreinsplit.verify", "detect_double_unitary", "spectral.detect", None),
    ("kreinsplit.cli", "jordan_pair", "spectral.jordan_pair", _on_jordan_pair),
    ("kreinsplit.verify", "jordan_pair", "spectral.jordan_pair", _on_jordan_pair),
    ("kreinsplit.cli", "expansion_t", "bifurcation.expansion", None),
    ("kreinsplit.cli", "expansion_eps", "bifurcation.expansion", None),
    ("kreinsplit.verify", "expansion_t", "bifurcation.expansion", None),
    ("kreinsplit.verify", "expansion_eps", "bifurcation.expansion", None),
    ("kreinsplit.cli", "ladder", "bifurcation.ladder", None),
    ("kreinsplit.verify", "track", "verify.track", _on_track),
    ("kreinsplit.verify", "fit_puiseux", "verify.fit", _on_fit),
)


def _wrap(tracer, name, fn, hook):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer.start(name)
        try:
            result = fn(*args, **kwargs)
        except Exception:
            tracer.count(f"{name}.rejects")
            raise
        finally:
            tracer.stop()
        if hook is not None:
            hook(args, kwargs, result)
        return result

    return traced


class _CountingWarnings:
    """Stand-in for the ``warnings`` module inside ``kreinsplit.flow``:
    counts each warning the quadrature raises, then raises it as before,
    attributed to the same caller."""

    def __init__(self, tracer):
        self._tracer = tracer

    def warn(self, message, category=None, stacklevel=1):
        self._tracer.count("flow.quadrature.warnings")
        _warnings.warn(message, category, stacklevel=stacklevel + 1)

    def __getattr__(self, attr):
        return getattr(_warnings, attr)


class Installed:
    """Context manager that installs the wrappers for one traced call and
    restores the original attributes on exit."""

    def __init__(self, tracer):
        self.tracer = tracer
        self._saved = []

    def __enter__(self):
        for module_name, attr, name, hook_factory in WRAPS:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            raw = inspect.getattr_static(owner, leaf, None)
            if raw is None:
                continue
            self._saved.append((owner, leaf, raw))
            if isinstance(raw, classmethod):
                fn = raw.__func__
                hook = hook_factory(self.tracer, fn) if hook_factory else None
                setattr(owner, leaf, classmethod(_wrap(self.tracer, name, fn, hook)))
            else:
                hook = hook_factory(self.tracer, raw) if hook_factory else None
                setattr(owner, leaf, _wrap(self.tracer, name, raw, hook))
        flow = importlib.import_module("kreinsplit.flow")
        if getattr(flow, "warnings", None) is _warnings:
            self._saved.append((flow, "warnings", _warnings))
            flow.warnings = _CountingWarnings(self.tracer)
        return self

    def __exit__(self, *exc):
        for owner, leaf, raw in reversed(self._saved):
            setattr(owner, leaf, raw)
        self._saved.clear()
        return False
