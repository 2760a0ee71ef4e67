"""Tests of the benchmark's own checks and tracing.

Each output check is fed a deliberately wrong value and must fail, so that a
check cannot pass silently.  Tracing must reach the call sites the package
uses and must leave every output bit-identical.
"""

import math
import sys
import time
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import probe  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from hoermander_kit import bench, solver, spectra  # noqa: E402


def _row(s, phi, res, cond, lower=0.5):
    return {"s": s, "phi": phi, "resolution": res, "lower_ratio": lower,
            "upper_ratio": lower * cond, "condition": cond}


def test_iso_cells_reject_degenerate_ratios():
    assert checks.iso_cells([_row(3.0, "1", 32, 4.0)]) == []
    assert checks.iso_cells([_row(3.0, "1", 32, 4.0, lower=0.0)])
    assert checks.iso_cells([_row(3.0, "1", 32, 0.999)])
    assert checks.iso_cells([_row(3.0, "1", 32, math.nan)])
    assert checks.iso_cells([_row(3.0, "1", 32, math.inf)])


def test_drift_and_phi_variation_reject_large_changes():
    rows = [_row(3.0, "1", 32, 4.0), _row(3.0, "1", 64, 6.0),
            _row(3.0, "x", 32, 8.0), _row(3.0, "x", 64, 12.0)]
    assert checks.drift(rows, 32, 64) == []
    assert checks.phi_variation(rows) == []
    rows[1] = _row(3.0, "1", 64, 8.0 + 1e-9)  # drift just over 2x
    assert checks.drift(rows, 32, 64)
    rows[2] = _row(3.0, "x", 32, 40.0 * 1.001)  # just over 10x the phi = 1 cell
    assert checks.phi_variation(rows)
    assert checks.drift(rows[:1] + rows[2:], 32, 64)  # missing cell


def test_ambient_bound_rejects_scaled_quotient_norm():
    assert checks.ambient_bound(2.0, 2.0) == []
    assert checks.ambient_bound(2.0 * (1 + 1e-3), 2.0)
    assert checks.ambient_bound(math.nan, 2.0)


def test_engines_agree_rejects_scaled_quotient_norm():
    assert checks.engines_agree(3.0, 3.0 * (1 + 1e-13)) == []
    assert checks.engines_agree(3.0 * (1 + 1e-3), 3.0)
    assert checks.engines_agree(3.0 * (1 + 1e-7), 3.0)
    assert checks.engines_agree(math.nan, 3.0)


def test_round_trip_rejects_defect_and_wrong_solution():
    assert checks.round_trip(5e-10, 1e-14, 0.2) == []
    assert checks.round_trip(1e-5, 1e-14, 0.2)
    assert checks.round_trip(math.nan, 1e-14, 0.2)
    assert checks.round_trip(5e-10, 1e-6, 0.2)
    assert checks.solved_u(1e-14, 0.2) == []
    assert checks.solved_u(1e-6, 0.2)
    assert checks.solved_u(math.nan, 0.2)


def test_jump_rejects_unstable_envelope_and_flat_violation():
    rows = [{"resolution": r, "envelope": e} for r, e in ((16, 1.2), (32, 1.3), (64, 1.4))]
    viol = [{"resolution": r, "norm": n} for r, n in ((16, 1.0), (32, 2.0), (64, 3.0))]
    assert checks.jump(rows, viol, 32, 64) == []
    assert checks.jump(rows[:2] + [{"resolution": 64, "envelope": 2.7}], viol, 32, 64)
    assert checks.jump(rows[:2] + [{"resolution": 64, "envelope": math.nan}], viol, 32, 64)
    assert checks.jump(rows, viol[:2] + [{"resolution": 64, "norm": 2.0}], 32, 64)


def test_compat_rejects_residual_and_count():
    assert checks.compat([1e-11, 3e-11], 2, 2) == []
    assert checks.compat([1e-11, 2e-8], 2, 2)
    assert checks.compat([1e-11, math.nan], 2, 2)
    assert checks.compat([1e-11], 1, 2)


def test_oracle_rejects_deviation():
    assert checks.oracle(1e-12) == []
    assert checks.oracle(1e-6)


def test_compat_workload_checks_real_output():
    wl = workloads.make("compat-sweep", 3)
    wl.prepare()
    out = wl.op(0)
    assert wl.check(0, out) == []
    count, residuals = out[1]
    out[1] = (count, [residuals[0], 1e-7])
    assert wl.check(0, out)


def test_iso_check_catches_scaled_direct_engine(monkeypatch):
    wl = workloads.IsoSweep(1, "strip", (16,), round_trip=False, ny=8, band=3)
    out = {"rows": bench.estimate_isomorphism(wl.case(5)).rows, "round_trip": None}
    assert wl.check(0, out) == []
    original = spectra.quotient_norm_batch
    monkeypatch.setattr(spectra, "quotient_norm_batch",
                        lambda *a, **k: original(*a, **k) * (1 + 1e-3))
    assert any("vs CG" in msg for msg in wl.check(0, out))


def test_round_trip_check_catches_wrong_solution():
    wl = workloads.IsoSweep(1, "interval", (16,), round_trip=True)
    rows = bench.estimate_isomorphism(wl.case(5)).rows
    # figures as measured at resolution 64: defect 5e-10, u error 1e-14
    rt = {"relative_defect": 5e-10, "max_u_error": 1e-14}
    assert wl.check(0, {"rows": rows, "round_trip": rt}) == []
    assert wl.check(0, {"rows": rows, "round_trip": dict(rt, max_u_error=1e-6)})
    assert wl.check(0, {"rows": rows, "round_trip": dict(rt, relative_defect=1e-5)})


def test_independent_round_trip_catches_wrong_solver(monkeypatch):
    error, scale = workloads.resolve_round_trip(3, nx=16)
    assert checks.solved_u(error, scale) == []
    original = solver.solve_heat_interval

    def off_by_1e6(*args, **kwargs):
        sol = original(*args, **kwargs)
        return solver.SolveResult(sol.x, sol.t, sol.u * (1 + 1e-6), sol.f_residual, sol.u_cheb)

    monkeypatch.setattr(solver, "solve_heat_interval", off_by_1e6)
    assert checks.solved_u(*workloads.resolve_round_trip(3, nx=16))


def test_every_listed_layer_metric_is_reported():
    specs = spans.layer_metric_specs()
    assert len(specs) >= 1
    metrics = spans.Tracer().layer_metrics(1)
    assert [(k, v["unit"]) for k, v in metrics.items()] == specs


def test_factor_flops_from_shapes():
    a = np.zeros((10, 10), dtype=complex)
    assert spans.factor_flops("linalg.cho_factor", (a,), {}) == pytest.approx(4 * 1000 / 3)
    b = np.zeros((40, 10))
    r_only = spans.factor_flops("linalg.qr", (b,), {"mode": "r"})
    assert r_only == pytest.approx(2 * 40 * 100 - 2 * 1000 / 3)
    assert spans.factor_flops("linalg.qr", (b,), {"mode": "economic"}) == pytest.approx(2 * r_only)


def test_speed_factor_is_a_trimmed_mean():
    speed = probe.SpeedProbe()
    speed.samples = [probe.NOMINAL_S * 2.0] * 18 + [1e-9, 1.0]  # two outliers
    assert speed.factor() == pytest.approx(2.0)
    assert speed.factor(0, 4) == pytest.approx(2.0)
    assert probe.SpeedProbe().factor() == 1.0


def test_speed_probe_samples_and_stops():
    with probe.SpeedProbe() as speed:
        end = time.perf_counter() + 0.35
        while time.perf_counter() < end:
            sum(range(1000))
    taken = len(speed.samples)
    assert taken >= 2 and speed.busy_s > 0
    time.sleep(0.25)
    assert len(speed.samples) == taken


def _traced(fn):
    tracer = spans.Tracer()
    with spans.installed(tracer):
        tracer.active = True
        out = fn()
    return out, tracer


def test_tracing_reaches_call_sites_and_keeps_outputs():
    wl = workloads.make("compat-sweep", 4)
    wl.prepare()
    plain = wl.digest(wl.op(1))
    traced, tracer = _traced(lambda: wl.digest(wl.op(1)))
    assert traced == plain
    calls, _ = tracer.totals()
    # parabolic binds trace_deriv_at_zero and apply_deriv_axis from _fd by name
    assert calls["fd.trace_deriv_at_zero"] > 0 and calls["fd.apply_deriv_axis"] > 0
    assert calls["fd.fornberg_weights"] > 0 and calls["fft"] > 0

    study = lambda: bench.jump_study(resolutions=(16,), trials=30, seed=2).rows  # noqa: E731
    rows, tracer = _traced(study)
    assert rows == study()
    calls, self_s = tracer.totals()
    # bench binds one_sided_weights by name; interp reaches svd via np.linalg
    for name in ("fd.one_sided_weights", "linalg.svd", "linalg.eigh", "linalg.inv",
                 "interp.subspace_spectrum", "parabolic.compute_v"):
        assert calls[name] > 0, name
    assert all(v >= -1e-9 for v in self_s.values())

    trip = lambda: bench.round_trip_interval(resolution=16, seed=1)  # noqa: E731
    rt, tracer = _traced(trip)
    assert rt == trip()
    calls, _ = tracer.totals()
    # bench binds solve_heat_interval by name; solver calls sla.eig and sla.inv
    assert calls["solver.solve_heat_interval"] == 1 and calls["linalg.eig"] == 1
    # wrappers are removed again
    assert bench.solve_heat_interval.__module__ == "hoermander_kit.solver"
    assert not hasattr(bench.solve_heat_interval, "__wrapped__")
