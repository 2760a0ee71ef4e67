"""The benchmark workloads: set-up, one operation, and output checks.

Each workload is a closed loop with one client: run.py calls ``op(i)`` back
to back in one process.  Operation i draws fresh trials from the pair
(workload seed, i); grids, s and phi repeat across operations.  The program
receives only the generated inputs (seeds, sizes, problems).  ``check``
runs after the timed phase and recomputes what it compares against outside
the timed section.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from hoermander_kit import bench, parabolic as pb, solver, spectra
from hoermander_kit.params import constant, log_power
from hoermander_kit.weights import isotropic, parabolic_split

import checks

S_GRID = (2.6, 3.0, 4.0, 4.6)
PHIS = (constant(), log_power(1.0), log_power(-1.0))
TRIALS = 30
# CG on the normal equations converges reliably only up to this squared
# weight spread; the package's own engine switch uses the same value
CG_SPREAD_CAP = 1e8
CG_TOL = 1e-10


def op_seed(seed: int, i: int, stream: int = 0) -> int:
    """Seed of input stream ``stream`` of operation ``i``; same seed, same inputs."""
    return int(np.random.SeedSequence([seed, i, stream]).generate_state(1)[0]) & 0x3FFFFFFF


def hash_values(values) -> str:
    """Short hash of the exact bits of an operation's numeric outputs."""
    return hashlib.sha256(np.asarray(values, dtype=float).tobytes()).hexdigest()[:16]


def reference_weight(idx, lattice: spectra.Lattice) -> np.ndarray:
    """The weight mu of ``idx`` on ``lattice``, evaluated here from its formula."""
    freqs = [
        2.0 * np.pi * np.fft.fftfreq(n, d=L / n)
        for n, L in zip(lattice.sizes, lattice.periods)
    ]
    mesh = np.meshgrid(*freqs, indexing="ij")
    if idx.anisotropy == "parabolic":
        rho2 = 1.0 + sum(m**2 for m in mesh[:-1]) + np.abs(mesh[-1])
    else:
        rho2 = 1.0 + sum(m**2 for m in mesh)
    return rho2 ** (idx.s / 2.0) * idx.phi(np.sqrt(rho2))


def measure_factor(lattice: spectra.Lattice) -> float:
    return math.sqrt(float(np.prod(lattice.periods)) / lattice.npoints)


def on_cylinder(coeffs: np.ndarray, geom, nt: int) -> np.ndarray:
    """Samples of a box trial on the closed cylinder grid (time axis last)."""
    samples = np.fft.ifftn(coeffs, norm="ortho")
    return samples[: geom.nx + 1, ..., : nt + 1]


def target_indices(geom, s: float, l: int, phi):
    """Orders of the three target components: f at s - 2 (anisotropic),
    g at s - 1/2 - l on the lateral boundary, h at s - 1 (isotropic)."""
    k = geom.spatial_dim + 1
    return (
        parabolic_split(s - 2.0, phi, dimension=k),
        parabolic_split(s - 0.5 - l, phi, dimension=k - 1),
        isotropic(s - 1.0, phi, dimension=k - 1),
    )


class IsoSweep:
    """``bench.estimate_isomorphism`` over S_GRID x PHIS, optionally followed
    by the interval round trip."""

    def __init__(self, seed: int, kind: str, resolutions: tuple[int, ...],
                 round_trip: bool, **case_kw):
        self.seed = seed
        self.kind = kind
        self.resolutions = resolutions
        self.round_trip = round_trip
        self.case_kw = case_kw

    def case(self, seed: int, resolutions=None) -> bench.BenchCase:
        return bench.BenchCase(
            geometry_kind=self.kind, s_grid=S_GRID, phi_list=PHIS,
            trial_count=TRIALS, resolutions=resolutions or self.resolutions,
            seed=seed, **self.case_kw,
        )

    def prepare(self) -> None:
        """Warm-up: the sweep (and round trip) at resolution 32 on fixed inputs."""
        bench.estimate_isomorphism(self.case(0, resolutions=(32,)))
        if self.round_trip:
            bench.round_trip_interval(resolution=32, s=3.0, seed=0)

    def op(self, i: int) -> dict:
        report = bench.estimate_isomorphism(self.case(op_seed(self.seed, i)))
        rt = None
        if self.round_trip:
            rt = bench.round_trip_interval(resolution=64, s=3.0, seed=op_seed(self.seed, i, 1))
        return {"rows": report.rows, "round_trip": rt}

    def digest(self, out: dict) -> str:
        vals = [v for row in out["rows"]
                for v in (row["lower_ratio"], row["upper_ratio"], row["condition"])]
        if out["round_trip"]:
            rt = out["round_trip"]
            vals += [rt["relative_defect"], rt["data_norm"], rt["max_u_error"]]
        return hash_values(vals)

    def check(self, i: int, out: dict) -> list[str]:
        rows = out["rows"]
        bad = checks.iso_cells(rows) + checks.phi_variation(rows)
        if len(self.resolutions) > 1:
            bad += checks.drift(rows, self.resolutions[-2], self.resolutions[-1])
        rng = np.random.default_rng(op_seed(self.seed, i, 2))
        case = self.case(0)
        for res in self.resolutions:
            p = case.problem(res)
            nt = res // 2
            trials = [
                bench.synthesize_trial(p.geometry, case.tau, nt,
                                       seed=int(rng.integers(2**30)), band=case.band)
                for _ in range(2)
            ]
            phi = PHIS[int(rng.integers(len(PHIS)))]
            for s in sorted({S_GRID[0], float(rng.choice(S_GRID))}):
                bad += self._check_cell(p, nt, s, phi, trials, f"res={res} s={s} phi={phi.describe()}")
        if out["round_trip"]:
            rt = out["round_trip"]
            u_error, u_scale = resolve_round_trip(op_seed(self.seed, i, 1))
            bad += checks.round_trip(rt["relative_defect"], rt["max_u_error"], u_scale)
            bad += checks.solved_u(u_error, u_scale, "independent solve")
        return bad

    def _check_cell(self, p, nt, s, phi, trials, label) -> list[str]:
        """Ambient bound of the solution norm, and direct vs CG where CG applies."""
        geom = p.geometry
        omega = pb.omega_domain(geom, p.tau, nt)
        idx_u = parabolic_split(s, phi, dimension=omega.lattice.k)
        sol = bench.solution_norms(p, trials, nt, s, phi)
        bad = []
        mu = reference_weight(idx_u, omega.lattice)
        for t, trial in enumerate(trials):
            ambient = float(np.sqrt(np.sum((mu * np.abs(trial.coeffs)) ** 2)))
            bad += checks.ambient_bound(float(sol[t]), ambient * measure_factor(omega.lattice),
                                        f"{label} trial {t}")
        idx_f, idx_g, idx_h = target_indices(geom, s, p.order_l, phi)
        lateral, spatial = pb.lateral_domain(geom, p.tau, nt), pb.spatial_domain(geom)
        datas = [bench.apply_lambda(p, trial, nt) for trial in trials]
        components = [
            ("u", idx_u, omega, [on_cylinder(tr.coeffs, geom, nt) for tr in trials]),
            ("f", idx_f, omega, [f for f, _, _ in datas]),
            ("g0", idx_g, lateral, [g[0] for _, g, _ in datas]),
            ("g1", idx_g, lateral, [g[1] for _, g, _ in datas]),
            ("h", idx_h, spatial, [h for _, _, h in datas]),
        ]
        for name, idx, mask, vecs in components:
            w = reference_weight(idx, mask.lattice)
            if (w.max() / w.min()) ** 2 > CG_SPREAD_CAP:
                continue
            vecs = [np.asarray(v).reshape(-1) for v in vecs]
            direct = spectra.quotient_norm_batch(idx, vecs, mask)
            for t, v in enumerate(vecs):
                cg = spectra.quotient_norm(idx, v, mask, tol=CG_TOL)
                bad += checks.engines_agree(float(direct[t]), cg, f"{label} {name} trial {t}")
        return bad

    def check_run(self) -> list[str]:
        return []


def resolve_round_trip(seed: int, nx: int = 32, nt_out: int = 4) -> tuple[float, float]:
    """Solve the round trip's heat problem again, apart from bench, and compare.

    The trial of ``bench.round_trip_interval(resolution=2 * nx, seed=seed)``
    is turned into Dirichlet heat data here, from its coefficients and
    frequencies evaluated from their formulas, and handed to
    ``solver.solve_heat_interval`` at nt_out + 1 of the round trip's times
    (fewer steps keep the check near 1 s).  Returns (max |u_solved - u_trial|,
    max |u_trial|) over those times.
    """
    geom = pb.IntervalGeometry(nx=nx)
    trial = bench.synthesize_trial(geom, 1.0, nx, seed=seed, band=3)
    lat = trial.box
    fx, ft = (2.0 * np.pi * np.fft.fftfreq(n, d=L / n) for n, L in zip(lat.sizes, lat.periods))
    coeffs = trial.coeffs / math.sqrt(trial.coeffs.size)
    heat_symbol = 1j * ft[None, :] + fx[:, None] ** 2  # dt - dxx

    def u(x, t, symbol=1.0):
        x, t = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(t, dtype=float))
        return np.einsum("...a,ab,...b->...", np.exp(1j * np.multiply.outer(x, fx)),
                         coeffs * symbol, np.exp(1j * np.multiply.outer(t, ft)))

    data = solver.HeatData(f=lambda x, t: u(x, t, heat_symbol), g0=lambda t: u(0.0, t),
                           g1=lambda t: u(1.0, t), h=lambda x: u(x, 0.0))
    sol = solver.solve_heat_interval(data, nx, nt_out, 1.0)
    expected = on_cylinder(trial.coeffs, geom, nx)[:, :: nx // nt_out]
    return float(np.max(np.abs(sol.u - expected))), float(np.max(np.abs(expected)))


class JumpStudy:
    """``bench.jump_study`` at s* = 7/2 (acceptance criterion 8)."""

    RESOLUTIONS = (16, 32, 64)

    def __init__(self, seed: int):
        self.seed = seed

    def prepare(self) -> None:
        """Warm-up: the study at resolutions 16 and 32 on fixed inputs."""
        bench.jump_study(s_star=3.5, eps_pair=(0.1, 0.2), resolutions=(16, 32),
                         trials=TRIALS, seed=0)

    def op(self, i: int) -> dict:
        rep = bench.jump_study(s_star=3.5, eps_pair=(0.1, 0.2), resolutions=self.RESOLUTIONS,
                               trials=TRIALS, seed=op_seed(self.seed, i))
        return {"rows": rep.rows, "violation_rows": rep.violation_rows}

    def digest(self, out: dict) -> str:
        vals = [row["envelope"] for row in out["rows"]]
        vals += [row["norm"] for row in out["violation_rows"]]
        return hash_values(vals)

    def check(self, i: int, out: dict) -> list[str]:
        return checks.jump(out["rows"], out["violation_rows"], 32, 64)

    def check_run(self) -> list[str]:
        return []


# (geometry, boundary, s, condition count derived by hand: the k-th
# condition is present when s > 2k + 3/2 (Dirichlet) or s > 2k + 5/2
# (first order))
COMPAT_CASES = (
    ("interval", "dirichlet", 3.0, 1),
    ("interval", "dirichlet", 4.0, 2),
    ("interval", "neumann", 3.0, 1),
    ("interval", "neumann", 4.0, 1),
    ("strip", "dirichlet", 4.0, 2),
    ("strip", "neumann", 3.0, 1),
)


class CompatSweep:
    """One pass over the six criterion-5 cases, each on a fresh datum."""

    WARMUP_PASSES = 4

    def __init__(self, seed: int):
        self.seed = seed
        self.problems: dict = {}

    def prepare(self) -> None:
        """Build the problems, then warm-up passes on fixed inputs."""
        self.problems = {}
        for kind, boundary, _, _ in COMPAT_CASES:
            if kind == "interval":
                geom, nt, band = pb.IntervalGeometry(nx=128), 128, 2
            else:
                geom, nt, band = pb.PeriodicStripGeometry(nx=64, ny=16), 64, 1
            self.problems[kind, boundary] = (pb.heat_problem(geom, boundary=boundary), nt, band)
        for rep in range(self.WARMUP_PASSES):
            self._pass(lambda k: 100 * rep + k)

    def _pass(self, seed_of) -> list[tuple[int, list[float]]]:
        out = []
        for k, (kind, boundary, s, _) in enumerate(COMPAT_CASES):
            p, nt, band = self.problems[kind, boundary]
            trial = bench.synthesize_trial(p.geometry, 1.0, nt, seed=seed_of(k), band=band)
            f, g, h = bench.apply_lambda(p, trial, nt)
            rep = pb.check_compatibility(p, f, g, h, s=s)
            out.append((rep.count, [float(r) for r in rep.residuals]))
        return out

    def op(self, i: int) -> list:
        return self._pass(lambda k: op_seed(self.seed, i, k))

    def digest(self, out: list) -> str:
        return hash_values([v for count, res in out for v in [count] + res])

    def check(self, i: int, out: list) -> list[str]:
        bad = []
        for (kind, boundary, s, expected), (count, residuals) in zip(COMPAT_CASES, out):
            bad += checks.compat(residuals, count, expected, f"{kind} {boundary} s={s}")
        return bad

    def check_run(self) -> list[str]:
        return checks.oracle(compute_v_oracle_deviation())


def compute_v_oracle_deviation() -> float:
    """Largest relative deviation of compute_v (k <= 3) from a sympy oracle.

    The problem is fixed: the periodic strip nx = ny = 16, nt = 64, with
    a_(2,0) = 1, a_(0,2) = 1 + sin(2 pi y)/2 + t/3, f = cos(2 pi y) e^-t and
    h = sin(2 pi y).  The oracle expands the v_k recurrence symbolically.
    """
    import sympy

    y_s, t_s = sympy.symbols("y t", real=True)
    a02 = 1 + sympy.sin(2 * sympy.pi * y_s) / 2 + t_s / 3
    f_s = sympy.cos(2 * sympy.pi * y_s) * sympy.exp(-t_s)
    h_s = sympy.sin(2 * sympy.pi * y_s)
    coeffs = {(2, 0): sympy.Integer(1), (0, 2): a02}
    v_sym = [h_s]
    for k in range(1, 4):
        acc = sympy.Integer(0)
        for alpha, a_s in coeffs.items():
            if alpha[0] > 0:  # v_q is constant in x
                continue
            for q in range(k):
                acc += (
                    sympy.binomial(k - 1, q)
                    * sympy.diff(a_s, t_s, k - 1 - q).subs(t_s, 0)
                    * sympy.I ** alpha[1] * sympy.diff(v_sym[q], y_s, alpha[1])
                )
        v_sym.append(sympy.expand(-acc + sympy.diff(f_s, t_s, k - 1).subs(t_s, 0)))

    def coefficient(expr) -> pb.Coefficient:
        ev = sympy.lambdify((y_s, t_s), expr, "numpy")
        dts = [sympy.lambdify((y_s, t_s), sympy.diff(expr, t_s, q), "numpy") for q in (1, 2, 3)]
        return pb.Coefficient(
            evaluator=lambda x, y, t: ev(y, t) + 0.0 * x,
            dt_evaluators=tuple((lambda x, y, t, d=d: d(y, t) + 0.0 * x) for d in dts),
        )

    geom = pb.PeriodicStripGeometry(nx=16, ny=16)
    nt = 64
    prob = pb.ParabolicProblem(
        geometry=geom, tau=1.0,
        a_coeffs={alpha: coefficient(a) for alpha, a in coeffs.items()},
        boundary=pb.Dirichlet(),
    )
    y = geom.y_axis()
    t = np.arange(nt + 1) / nt
    f_fn = sympy.lambdify((y_s, t_s), f_s, "numpy")
    h_fn = sympy.lambdify((y_s,), h_s, "numpy")
    f = np.tile(f_fn(y[:, None], t[None, :])[None], (geom.nx + 1, 1, 1)).astype(complex)
    h = np.tile(h_fn(y)[None, :], (geom.nx + 1, 1)).astype(complex)
    v = pb.compute_v(prob, f, h, 3, acc_t=10)
    worst = 0.0
    for k in range(4):
        exact = np.asarray(sympy.lambdify((y_s,), v_sym[k], "numpy")(y), dtype=complex)
        exact = np.broadcast_to(exact, y.shape)
        scale = max(1.0, float(np.max(np.abs(exact))))
        worst = max(worst, float(np.max(np.abs(v[k] - exact[None, :]))) / scale)
    return worst


def make(name: str, seed: int):
    if name == "iso-interval":
        return IsoSweep(seed, "interval", (32, 64), round_trip=True)
    if name == "iso-strip":
        return IsoSweep(seed, "strip", (32,), round_trip=False, ny=8, band=3)
    if name == "jump-study":
        return JumpStudy(seed)
    if name == "compat-sweep":
        return CompatSweep(seed)
    raise ValueError(f"unknown workload {name!r}")
