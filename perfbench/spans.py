"""Span tracing around calls into the layers of hoermander_kit.

Each traced function is replaced, on every module attribute the package calls
it through, by a wrapper that records a span (name, start, end, parent span)
while the tracer is active.  Spans stay in memory and are written out when the
run ends.  A span's self time is its duration minus the time its direct child
spans cover.  Wrappers only time and count: every argument and return value
passes through untouched, so traced outputs are bit-identical to untraced ones.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import weakref
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

# (module, attribute, span name).  Package functions are listed under the
# module that defines them; the installer also replaces every by-name binding
# of the same function object in other package modules (for example
# ``parabolic.trace_deriv_at_zero`` or ``bench.solve_heat_interval``).  The
# scipy and numpy kernels are replaced on the namespaces the package calls
# through: ``sla.<name>`` (``scipy.linalg``), ``np.linalg.svd`` and ``np.fft``.
TARGETS = [
    ("hoermander_kit.bench", "estimate_isomorphism", "bench.estimate_isomorphism"),
    ("hoermander_kit.bench", "round_trip_interval", "bench.round_trip_interval"),
    ("hoermander_kit.bench", "jump_study", "bench.jump_study"),
    ("hoermander_kit.bench", "solution_norms", "bench.solution_norms"),
    ("hoermander_kit.bench", "synthesize_trial", "bench.synthesize_trial"),
    ("hoermander_kit.bench", "apply_lambda", "bench.apply_lambda"),
    ("hoermander_kit.bench", "_constraint_matrix", "bench._constraint_matrix"),
    ("hoermander_kit.bench", "_data_gram", "bench._data_gram"),
    ("hoermander_kit.parabolic", "target_norm_batch", "parabolic.target_norm_batch"),
    ("hoermander_kit.parabolic", "check_compatibility", "parabolic.check_compatibility"),
    ("hoermander_kit.parabolic", "compute_v", "parabolic.compute_v"),
    ("hoermander_kit.spectra", "quotient_norm_batch", "spectra.quotient_norm_batch"),
    ("hoermander_kit.spectra", "quotient_norm", "spectra.quotient_norm"),
    ("hoermander_kit.interp", "subspace_spectrum", "interp.subspace_spectrum"),
    ("hoermander_kit.interp", "_nullspace_basis", "interp._nullspace_basis"),
    ("hoermander_kit.solver", "solve_heat_interval", "solver.solve_heat_interval"),
    ("hoermander_kit.weights", "weight_on_mesh", "weights.weight_on_mesh"),
    ("hoermander_kit._fd", "fornberg_weights", "fd.fornberg_weights"),
    ("hoermander_kit._fd", "deriv_matrix", "fd.deriv_matrix"),
    ("hoermander_kit._fd", "one_sided_weights", "fd.one_sided_weights"),
    ("hoermander_kit._fd", "apply_deriv_axis", "fd.apply_deriv_axis"),
    ("hoermander_kit._fd", "trace_deriv_at_zero", "fd.trace_deriv_at_zero"),
    ("scipy.linalg", "cho_factor", "linalg.cho_factor"),
    ("scipy.linalg", "cho_solve", "linalg.cho_solve"),
    ("scipy.linalg", "qr", "linalg.qr"),
    ("scipy.linalg", "solve_triangular", "linalg.solve_triangular"),
    ("scipy.linalg", "inv", "linalg.inv"),
    ("scipy.linalg", "eigh", "linalg.eigh"),
    ("scipy.linalg", "eig", "linalg.eig"),
    ("numpy.linalg", "svd", "linalg.svd"),
    ("numpy.fft", "fftn", "fft"),
    ("numpy.fft", "ifftn", "fft"),
    ("numpy.fft", "fft", "fft"),
    ("numpy.fft", "ifft", "fft"),
]

# The per-layer metrics a traced run reports are the ``per_layer`` list of
# BENCHMARK.json.  Counts and times are per timed operation; the hit ratio is
# over the timed phase.
BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def layer_metric_specs() -> list[tuple[str, str]]:
    """(metric, unit) of every per-layer metric in BENCHMARK.json."""
    spec = json.loads(BENCHMARK_JSON.read_text())
    return [(m["name"], m["unit"]) for m in spec["per_layer"]]


def _shape(a):
    return getattr(a, "shape", None) or ()


def _is_complex(a) -> bool:
    return getattr(getattr(a, "dtype", None), "kind", "") == "c"


def factor_flops(name: str, args, kwargs) -> float:
    """Floating-point operations of a factorization, computed from its shape.

    Real counts are n^3/3 for Cholesky and 2mn^2 - 2n^3/3 for Householder QR
    (doubled when Q is formed, i.e. any mode but "r"); complex arithmetic
    costs four real operations per real one.  These are computed, not
    measured, counts.
    """
    a = args[0] if args else kwargs.get("a")
    shape = _shape(a)
    if len(shape) != 2:
        return 0.0
    scale = 4.0 if _is_complex(a) else 1.0
    if name == "linalg.cho_factor":
        n = shape[0]
        return scale * n**3 / 3.0
    m, n = shape
    k = min(m, n)
    flops = 2.0 * max(m, n) * k**2 - 2.0 * k**3 / 3.0
    mode = kwargs.get("mode", args[3] if len(args) > 3 else "full")
    if mode != "r":
        flops *= 2.0
    return scale * flops


class Tracer:
    """In-memory span recorder; wrappers record only while ``active``."""

    def __init__(self):
        self.active = False
        self.spans: list = []  # [name, start, end, parent index]
        self._stack: list[int] = []
        self.failed: Counter = Counter()
        self.flops = 0.0
        self.weight_calls = 0
        self.weight_hits = 0
        self._seen_weights = weakref.WeakValueDictionary()

    def wrap(self, name: str, fn):
        is_factor = name in ("linalg.cho_factor", "linalg.qr")
        is_weight = name == "weights.weight_on_mesh"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                out = fn(*args, **kwargs)
                if is_weight:
                    self._seen_weights[id(out)] = out
                return out
            sid = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception:
                self.failed[name] += 1
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[sid][1] = start
                self.spans[sid][2] = end
            if is_factor:
                self.flops += factor_flops(name, args, kwargs)
            if is_weight:
                self.weight_calls += 1
                if self._seen_weights.get(id(out)) is out:
                    self.weight_hits += 1
                else:
                    self._seen_weights[id(out)] = out
            return out

        return traced

    def totals(self) -> tuple[Counter, defaultdict]:
        """Calls and self time per span name."""
        child = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[i]
        return calls, self_s

    def layer_metrics(self, n_ops: int) -> dict:
        calls, self_s = self.totals()
        per_op = 1.0 / max(n_ops, 1)
        values = {
            "linalg.cho_factor.failed": self.failed["linalg.cho_factor"] * per_op,
            "linalg.factor_gflop": self.flops * 1e-9 * per_op,
            "weights.weight_on_mesh.hit_ratio": (
                self.weight_hits / self.weight_calls if self.weight_calls else 0.0
            ),
        }
        out = {}
        for metric, unit in layer_metric_specs():
            if metric in values:
                value = values[metric]
            elif metric.endswith(".calls"):
                value = calls[metric[: -len(".calls")]] * per_op
            elif metric.endswith(".self_s"):
                value = self_s[metric[: -len(".self_s")]] * per_op
            else:
                raise ValueError(f"no rule computes the per-layer metric {metric!r}")
            out[metric] = {"value": value, "unit": unit}
        return out

    def dump(self, path) -> None:
        """Write every span as [name, start, end, parent]; times in seconds."""
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh)


@contextmanager
def installed(tracer: Tracer):
    """Install wrappers on every call path of TARGETS; restore on exit."""
    undo = []
    wrappers: dict = {}
    try:
        for owner_name, attr, span in TARGETS:
            owner = sys.modules[owner_name]
            original = getattr(owner, attr, None)
            if original is None:  # gone from the package: its metrics read 0
                continue
            wrapper = wrappers.get(id(original))
            if wrapper is None:
                wrapper = wrappers[id(original)] = tracer.wrap(span, original)
            holders = [owner] + [
                mod for name, mod in list(sys.modules.items())
                if name.startswith("hoermander_kit") and mod is not owner
                and getattr(mod, attr, None) is original
            ]
            for mod in holders:
                setattr(mod, attr, wrapper)
                undo.append((mod, attr, original))
        yield tracer
    finally:
        for mod, attr, original in reversed(undo):
            setattr(mod, attr, original)
