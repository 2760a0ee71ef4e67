"""Output checks of the benchmark workloads.

Every function takes plain numbers (or report rows) and returns a list of
failure messages, empty when the check holds.  The tolerances are fixed here
and documented in README.md; the tests in test_perfbench.py feed each check a
deliberately wrong value to show that it can fail.
"""

from __future__ import annotations

import math

# the trial restricted to the cylinder is one admissible extension, so the
# quotient norm may exceed its ambient norm only by rounding
AMBIENT_RTOL = 1e-9
# direct factorization against preconditioned CG run at tol 1e-10; the two
# agree to ~1e-13 on these workloads, and acceptance criterion 9 holds CG
# to the dense oracle at the same 1e-8
ENGINE_RTOL = 1e-8
ROUND_TRIP_DEFECT_TOL = 1e-6
# max |u_solved - u_trial| over max |u_trial|
ROUND_TRIP_U_RTOL = 1e-8
DRIFT_FACTOR = 2.0
PHI_FACTOR = 10.0
ENVELOPE_FACTOR = 2.0
COMPAT_RESIDUAL_TOL = 1e-8
ORACLE_TOL = 1e-8


def iso_cells(rows: list[dict]) -> list[str]:
    """Every cell: finite lower ratio > 0 and a finite condition >= 1."""
    bad = []
    for row in rows:
        lo, cond = row["lower_ratio"], row["condition"]
        if not (math.isfinite(lo) and lo > 0 and math.isfinite(cond) and cond >= 1.0):
            bad.append(f"cell s={row['s']} phi={row['phi']} res={row['resolution']}: "
                       f"lower ratio {lo}, condition {cond}")
    return bad


def _conditions(rows: list[dict]) -> dict:
    return {(row["s"], row["phi"], row["resolution"]): row["condition"] for row in rows}


def drift(rows: list[dict], lo_res: int, hi_res: int, factor: float = DRIFT_FACTOR) -> list[str]:
    """Condition numbers of the two resolutions agree within ``factor``."""
    cond = _conditions(rows)
    bad = []
    for (s, phi, res), c_hi in cond.items():
        if res != hi_res:
            continue
        c_lo = cond.get((s, phi, lo_res))
        if c_lo is None or not (1.0 / factor < c_hi / c_lo < factor):
            bad.append(f"drift s={s} phi={phi}: {c_lo} at {lo_res} vs {c_hi} at {hi_res}")
    return bad


def phi_variation(rows: list[dict], factor: float = PHI_FACTOR) -> list[str]:
    """Each phi cell's condition stays within ``factor`` of the phi = 1 cell."""
    cond = _conditions(rows)
    bad = []
    for (s, phi, res), c in cond.items():
        base = cond.get((s, "1", res))
        if base is None or not (1.0 / factor < c / base < factor):
            bad.append(f"phi variation s={s} phi={phi} res={res}: {c} vs plain {base}")
    return bad


def ambient_bound(solution_norm: float, ambient_norm: float, label: str = "") -> list[str]:
    """The quotient norm is at most the norm of one admissible extension."""
    if math.isfinite(solution_norm) and solution_norm <= ambient_norm * (1.0 + AMBIENT_RTOL):
        return []
    return [f"{label}: quotient norm {solution_norm!r} exceeds ambient norm {ambient_norm!r}"]


def engines_agree(direct: float, cg: float, label: str = "") -> list[str]:
    """Direct engine and CG give the same quotient norm."""
    if math.isfinite(direct) and abs(direct - cg) <= ENGINE_RTOL * abs(cg):
        return []
    return [f"{label}: direct {direct!r} vs CG {cg!r}"]


def solved_u(u_error: float, u_scale: float, label: str = "") -> list[str]:
    """The solved u is the trial that generated the data."""
    if u_scale > 0 and u_error <= ROUND_TRIP_U_RTOL * u_scale:
        return []
    return [f"{label}: u error {u_error!r} against trial scale {u_scale!r}"]


def round_trip(defect: float, u_error: float, u_scale: float) -> list[str]:
    """Lambda(solve(data)) reproduces the data; the reported u error is small."""
    bad = solved_u(u_error, u_scale, "round trip")
    if not defect <= ROUND_TRIP_DEFECT_TOL:
        bad.append(f"round-trip defect {defect!r} > {ROUND_TRIP_DEFECT_TOL}")
    return bad


def jump(rows: list[dict], violation_rows: list[dict], lo_res: int, hi_res: int,
         factor: float = ENVELOPE_FACTOR) -> list[str]:
    """Envelopes finite and stable from lo_res to hi_res; violation norm grows."""
    env = {row["resolution"]: row["envelope"] for row in rows}
    bad = [f"envelope {e!r} at {r}" for r, e in env.items()
           if not (math.isfinite(e) and e >= 1.0)]
    a, b = env.get(lo_res), env.get(hi_res)
    if a is None or b is None or not (1.0 / factor < b / a < factor):
        bad.append(f"envelope {a} at {lo_res} vs {b} at {hi_res}")
    norms = [row["norm"] for row in sorted(violation_rows, key=lambda r: r["resolution"])]
    if len(norms) < 2 or not all(math.isfinite(n) for n in norms) or not all(
        y > x for x, y in zip(norms, norms[1:])
    ):
        bad.append(f"violating datum norms do not grow strictly: {norms}")
    return bad


def compat(residuals: list[float], count: int, expected_count: int, label: str = "") -> list[str]:
    """Hand-derived condition count; every checked residual below tolerance."""
    bad = []
    if count != expected_count or len(residuals) != expected_count:
        bad.append(f"{label}: {count} conditions ({len(residuals)} residuals), "
                   f"expected {expected_count}")
    over = [r for r in residuals if not r < COMPAT_RESIDUAL_TOL]
    if over:
        bad.append(f"{label}: residuals {over!r} not below {COMPAT_RESIDUAL_TOL}")
    return bad


def oracle(deviation: float) -> list[str]:
    """compute_v against the symbolic recurrence."""
    if deviation <= ORACLE_TOL:
        return []
    return [f"compute_v deviates {deviation!r} from the sympy oracle"]
