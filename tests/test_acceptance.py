"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every tolerance is pinned here; nothing is deferred to later calibration.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion lines.
"""

import time
import zlib

import numpy as np

from hoermander_kit import bench, interp, parabolic as pb, params, spectra, traces
from hoermander_kit.params import build_psi, constant, log_power
from hoermander_kit.weights import parabolic_split

from _oracle import quotient_norm_dense

TWO_PI = 2.0 * np.pi


def _report(n: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {n}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def _lattices():
    return [
        spectra.Lattice(sizes=(32, 32), periods=(TWO_PI, TWO_PI)),
        spectra.Lattice(sizes=(64, 64), periods=(TWO_PI, TWO_PI)),
        spectra.Lattice(sizes=(32, 32, 32), periods=(TWO_PI, TWO_PI, TWO_PI)),
    ]


_TUPLES = [
    # (s0, s, s1, lam, phi, anisotropy)
    (0.0, 1.0, 2.0, 0.0, constant(), "parabolic"),
    (0.0, 1.0, 2.0, 0.0, log_power(1.0), "parabolic"),
    (0.0, 1.0, 2.0, 0.0, log_power(-1.0), "parabolic"),
    (2.0, 3.0, 5.0, 1.0, log_power(1.0), "parabolic"),
    (-1.0, 0.5, 2.0, 0.0, log_power(-1.0), "isotropic"),
    (1.0, 2.5, 4.0, 0.5, constant(), "isotropic"),
]


def test_criterion_1_interpolation_equality():
    t0 = time.time()
    worst = 0.0
    for lat in _lattices():
        for i, (s0, s, s1, lam, phi, aniso) in enumerate(_TUPLES):
            rep = interp.verify_prop_interpolation(
                s0, s, s1, lam, phi, lat, anisotropy=aniso, trials=100, seed=1000 + i
            )
            worst = max(worst, rep.max_deviation)
    elapsed = time.time() - t0
    ok = worst <= 1e-10 and elapsed < 30.0
    _report(1, ok, f"interpolation equality: max deviation {worst:.2e} "
                   f"(<= 1e-10), runtime {elapsed:.1f}s (< 30s)")


def test_criterion_2_reiteration():
    worst = 0.0
    phi = log_power(1.0)
    for lat in _lattices():
        pair = interp.AdmissiblePair(
            idx0=parabolic_split(0.0, dimension=lat.k),
            idx1=parabolic_split(2.0, dimension=lat.k),
            lattice=lat,
        )
        # the proof triple (eps = 0.25, delta = 0.5)
        alpha = params.InterpParam(
            evaluator=lambda r: r ** (1.0 / 3.0) * phi(r ** (2.0 / 3.0))
        )
        beta = params.InterpParam(
            evaluator=lambda r: r ** (2.0 / 3.0) * phi(r ** (2.0 / 3.0))
        )
        psi_sqrt = params.InterpParam(evaluator=np.sqrt)
        rep = interp.verify_reiteration(alpha, beta, psi_sqrt, pair, trials=100, seed=2)
        worst = max(worst, rep.max_deviation)
        # generic triple from the canonical construction
        a2 = build_psi(0, 0.5, 2, log_power(0.5))
        b2 = build_psi(0, 1.5, 2, log_power(0.5))
        p2 = build_psi(0, 1, 2, log_power(-1.0))
        rep = interp.verify_reiteration(a2, b2, p2, pair, trials=100, seed=3)
        worst = max(worst, rep.max_deviation)
    ok = worst <= 1e-12
    _report(2, ok, f"reiteration identity: max deviation {worst:.2e} (<= 1e-12)")


def test_criterion_3_orthogonal_sums():
    lats = _lattices()
    psi = build_psi(0, 1, 2, log_power(1.0))
    worst = 0.0
    for lat in lats[:2]:
        pairs = [
            interp.AdmissiblePair(
                idx0=parabolic_split(0.0, dimension=lat.k),
                idx1=parabolic_split(2.0, dimension=lat.k),
                lattice=lat,
            ),
            interp.AdmissiblePair(
                idx0=parabolic_split(1.0, log_power(1.0), dimension=lat.k),
                idx1=parabolic_split(3.0, log_power(1.0), dimension=lat.k),
                lattice=lat,
            ),
        ]
        rep = interp.verify_orthogonal_sum(pairs, psi, trials=100, seed=4)
        worst = max(worst, rep.max_deviation)
    ok = worst <= 1e-12
    _report(3, ok, f"orthogonal-sum identity: max deviation {worst:.2e} (<= 1e-12)")


def test_criterion_4_trace_identity_and_moments():
    slat = spectra.Lattice(sizes=(64,), periods=(TWO_PI,))
    beta = traces.default_cutoff()
    worst = 0.0
    for r in (1, 2, 3):
        for seed in range(100):
            v = traces.CauchyData.random(slat, r, seed=9000 * r + seed)
            back = traces.lift_trace(v, beta, r)
            for k in range(r):
                scale = float(np.max(np.abs(v.components[k])))
                err = float(
                    np.max(np.abs(back.components[k] - v.components[k]))
                ) / scale
                worst = max(worst, err)
    # cutoff moments versus the independent spectral oracle
    N = 1 << 15
    L = 4.0
    t = (np.arange(N) - N // 2) * (L / N)
    xi = 2 * np.pi * np.fft.fftfreq(N, d=L / N)
    moment_dev = 0.0
    for m in (0, 1, 2, 3):
        for k in (0, 1, 2):
            c1, c2 = traces.cutoff_moments(beta, m, k)
            prof = beta(t) * t**k
            dm = np.fft.ifft((1j * xi) ** m * np.fft.fft(prof)).real
            c1_oracle = float(np.sum(dm**2) * (L / N))
            c2_oracle = float(np.sum(prof**2) * (L / N))
            moment_dev = max(
                moment_dev,
                abs(c1 - c1_oracle) / max(1.0, c1_oracle),
                abs(c2 - c2_oracle) / max(1.0, c2_oracle),
            )
    ok = worst <= 1e-9 and moment_dev <= 1e-8
    _report(4, ok, f"trace identity: max componentwise error {worst:.2e} (<= 1e-9); "
                   f"cutoff moments vs oracle {moment_dev:.2e} (<= 1e-8)")


def test_criterion_5_compatibility_machinery():
    # worked cases and jump sets
    counts_ok = (
        pb.compat_count(3.0, 0) == 1
        and pb.compat_count(3.5, 0) == 1
        and pb.compat_count(4.0, 0) == 2
        and pb.compat_count(5.5, 0) == 2
        and pb.compat_count(2.4, 1) == 0
    )
    e_ok = all(pb.in_E(2 * r + 1.5, 0) for r in range(1, 8)) and all(
        pb.in_E(2 * r + 0.5, 1) for r in range(1, 8)
    )
    e_ok = e_ok and not any(
        pb.in_E(s, l) for s in (2.6, 3.0, 4.0, 5.0, 6.0) for l in (0, 1)
    )

    # v_k against the symbolic oracle is covered at k <= 3 in
    # tests/test_parabolic.py::test_compute_v_matches_symbolic_oracle; here we
    # re-run the fast interval variant to keep the criterion self-contained
    import sympy

    y_s, t_s = sympy.symbols("y t", real=True)
    a02 = 1 + sympy.sin(2 * sympy.pi * y_s) / 2 + t_s / 3
    f_s = sympy.cos(2 * sympy.pi * y_s) * sympy.exp(-t_s)
    h_s = sympy.sin(2 * sympy.pi * y_s)
    coeffs = {(2, 0): sympy.Integer(1), (0, 2): a02}
    u_derivs = [h_s]
    for k in range(1, 4):
        acc = sympy.Integer(0)
        for alpha, a_s in coeffs.items():
            if alpha[0] > 0:
                continue
            m = alpha[1]
            for q in range(k):
                acc += (
                    sympy.binomial(k - 1, q)
                    * sympy.diff(a_s, t_s, k - 1 - q).subs(t_s, 0)
                    * (sympy.I**m) * sympy.diff(u_derivs[q], y_s, m)
                )
        u_derivs.append(sympy.expand(-acc + sympy.diff(f_s, t_s, k - 1).subs(t_s, 0)))
    geom = pb.PeriodicStripGeometry(nx=16, ny=16)
    nt = 64

    def lamb(e, *v):
        return sympy.lambdify(v, e, "numpy")

    def mk(expr):
        ev = lamb(expr, y_s, t_s)
        dts = tuple(lamb(sympy.diff(expr, t_s, q), y_s, t_s) for q in (1, 2, 3))
        return pb.Coefficient(
            evaluator=lambda x, y, t, ev=ev: ev(y, t) + 0.0 * x,
            dt_evaluators=tuple((lambda x, y, t, d=d: d(y, t) + 0.0 * x) for d in dts),
        )

    prob = pb.ParabolicProblem(
        geometry=geom, tau=1.0,
        a_coeffs={k_: mk(v_) for k_, v_ in coeffs.items()},
        boundary=pb.Dirichlet(),
    )
    y = geom.y_axis()
    t = np.arange(nt + 1) / nt
    f = np.tile(lamb(f_s, y_s, t_s)(y[:, None], t[None, :])[None], (geom.nx + 1, 1, 1))
    h = np.tile(lamb(h_s, y_s)(y)[None, :], (geom.nx + 1, 1))
    v = pb.compute_v(prob, f.astype(complex), h.astype(complex), 3, acc_t=10)
    oracle_dev = 0.0
    for k in range(4):
        oracle = np.asarray(lamb(u_derivs[k], y_s)(y), dtype=complex)
        scale = max(1.0, float(np.max(np.abs(oracle))))
        oracle_dev = max(
            oracle_dev, float(np.max(np.abs(v[k] - oracle[None, :]))) / scale
        )

    # 1000 random synthesized trials always pass the residual check
    trials_total = 0
    worst_residual = 0.0
    sweep = [
        ("interval", "dirichlet", 3.0, 250),
        ("interval", "dirichlet", 4.0, 250),
        ("interval", "neumann", 3.0, 150),
        ("interval", "neumann", 4.0, 150),
        ("strip", "dirichlet", 4.0, 100),
        ("strip", "neumann", 3.0, 100),
    ]
    for kind, boundary, s, count in sweep:
        if kind == "interval":
            geom2: pb.Geometry = pb.IntervalGeometry(nx=128)
            nt2, band = 128, 2
        else:
            geom2 = pb.PeriodicStripGeometry(nx=64, ny=16)
            nt2, band = 64, 1
        prob2 = pb.heat_problem(geom2, boundary=boundary)
        for i in range(count):
            trial = bench.synthesize_trial(geom2, 1.0, nt2, seed=31 * i + zlib.crc32(repr((kind, boundary, s)).encode()) % 10000, band=band)
            f2, g2, h2 = bench.apply_lambda(prob2, trial, nt2)
            rep = pb.check_compatibility(prob2, f2, g2, h2, s=s)
            if rep.residuals:
                worst_residual = max(worst_residual, max(rep.residuals[: rep.count]))
            trials_total += 1
            assert rep.passed, (kind, boundary, s, i, rep.residuals)
    ok = counts_ok and e_ok and oracle_dev <= 1e-8 and worst_residual < 1e-8
    _report(5, ok, f"compatibility: counts/jump sets exact; v_k oracle dev "
                   f"{oracle_dev:.2e} (<= 1e-8); {trials_total} synthesized trials "
                   f"max residual {worst_residual:.2e} (< 1e-8)")


def test_criterion_6_condition_corpus():
    def strip():
        return pb.PeriodicStripGeometry(nx=64, ny=16)

    def interval():
        return pb.IntervalGeometry(nx=64)

    nu_coeff = pb.Coefficient(
        evaluator=lambda *a: 1.0 - 2.0 * a[0], time_constant=True
    )
    corpus = [
        ("heat-interval", pb.heat_problem(interval()), "petrovskii", True),
        ("heat-strip", pb.heat_problem(strip()), "petrovskii", True),
        ("backward-interval",
         pb.ParabolicProblem(interval(), 1.0, {(2,): -1.0}, pb.Dirichlet()),
         "petrovskii", False),
        ("backward-strip",
         pb.ParabolicProblem(strip(), 1.0, {(2, 0): -1.0, (0, 2): -1.0}, pb.Dirichlet()),
         "petrovskii", False),
        ("variable-diffusion",
         pb.ParabolicProblem(
             interval(), 1.0,
             {(2,): pb.Coefficient(evaluator=lambda x, t: 1.0 + t + 0.0 * x)},
             pb.Dirichlet()),
         "petrovskii", True),
        ("anisotropic-diffusion",
         pb.ParabolicProblem(strip(), 1.0, {(2, 0): 1.0, (0, 2): 2.0}, pb.Dirichlet()),
         "petrovskii", True),
        ("indefinite-cross",
         pb.ParabolicProblem(strip(), 1.0, {(2, 0): 1.0, (1, 1): 3.0, (0, 2): 1.0},
                             pb.Dirichlet()),
         "petrovskii", False),
        ("neumann", pb.heat_problem(strip(), boundary="neumann"), "covering", True),
        ("tangential",
         pb.ParabolicProblem(strip(), 1.0, {(2, 0): 1.0, (0, 2): 1.0},
                             pb.FirstOrder(b={2: 1.0})),
         "covering", False),
        ("oblique",
         pb.ParabolicProblem(strip(), 1.0, {(2, 0): 1.0, (0, 2): 1.0},
                             pb.FirstOrder(b={1: nu_coeff, 2: 0.5})),
         "covering", True),
        ("complex-tangent",
         pb.ParabolicProblem(strip(), 1.0, {(2, 0): 1.0, (0, 2): 1.0},
                             pb.FirstOrder(b={1: nu_coeff, 2: 1.0j})),
         "covering", False),
        ("zero-order-only",
         pb.ParabolicProblem(interval(), 1.0, {(2,): 1.0}, pb.FirstOrder(b={0: 1.0})),
         "covering", False),
    ]
    assert len(corpus) == 12
    agree = 0
    for name, prob, which, expected in corpus:
        rep = (
            pb.check_petrovskii(prob, 2000, seed=11)
            if which == "petrovskii"
            else pb.check_covering(prob, 2000, seed=11)
        )
        if rep.passed == expected:
            agree += 1
        else:
            print(f"  corpus mismatch: {name}: {rep}")
    ok = agree == 12
    _report(6, ok, f"condition checks: {agree}/12 verdicts agree with hand analysis")


def test_criterion_7_isomorphism_surrogate():
    t0 = time.time()
    phis = (constant(), log_power(1.0), log_power(-1.0))
    reports = {}
    for kind, kwargs in (
        ("interval", {"resolutions": (32, 64)}),
        ("strip", {"resolutions": (32, 64), "ny": 8, "band": 3}),
    ):
        case = bench.BenchCase(
            geometry_kind=kind,
            s_grid=(2.6, 3.0, 4.0, 4.6),
            phi_list=phis,
            trial_count=30,
            seed=7,
            **kwargs,
        )
        reports[kind] = bench.estimate_isomorphism(case)
    drift_ok = all(rep.drift_passed(2.0) for rep in reports.values())
    finite_ok = all(
        np.isfinite(row["condition"]) and row["lower_ratio"] > 0
        for rep in reports.values()
        for row in rep.rows
    )
    # phi-variation stays within a factor 10 of the plain case on each cell
    phi_ok = True
    for rep in reports.values():
        for row in rep.rows:
            if row["phi"] == "1":
                continue
            base = rep.condition(row["s"], "1", row["resolution"])
            if not (0.1 < row["condition"] / base < 10.0):
                phi_ok = False

    rt = bench.round_trip_interval(resolution=64, s=3.0, seed=3)
    rt_ok = rt["relative_defect"] <= 1e-6
    elapsed = time.time() - t0
    ok = drift_ok and finite_ok and phi_ok and rt_ok and elapsed < 600.0
    _report(7, ok, f"isomorphism surrogate: drift<2x {drift_ok}, finite {finite_ok}, "
                   f"phi within 10x {phi_ok}, round trip {rt['relative_defect']:.2e} "
                   f"(<= 1e-6), runtime {elapsed:.0f}s (< 600s)")


def test_criterion_8_jump_study():
    rep = bench.jump_study(
        s_star=3.5, eps_pair=(0.1, 0.2), resolutions=(16, 32, 64), trials=30, seed=5
    )
    env = [row["envelope"] for row in rep.rows]
    stable = rep.envelope_stable(2.0)
    monotone = rep.violation_monotone()
    ok = stable and monotone and all(np.isfinite(env))
    _report(8, ok, f"jump study at s*=7/2: envelopes {['%.3f' % e for e in env]} "
                   f"resolution-stable {stable}; violating datum grows {monotone}")


def test_criterion_9_quotient_oracle():
    rng = np.random.default_rng(42)
    lat = spectra.Lattice(sizes=(16, 16), periods=(TWO_PI, TWO_PI))
    worst = 0.0
    checked = 0
    weights_pool = [
        parabolic_split(1.5, log_power(0.5), dimension=2),
        parabolic_split(-0.5, constant(), dimension=2),
        parabolic_split(2.0, log_power(-1.0), dimension=2),
    ]
    while checked < 50:
        m = rng.random(lat.sizes) < rng.uniform(0.15, 0.75)
        if m.sum() in (0, lat.npoints):
            continue
        mask = spectra.SubdomainMask(lat, m)
        idx = weights_pool[checked % len(weights_pool)]
        d = rng.standard_normal(mask.npoints) + 1j * rng.standard_normal(mask.npoints)
        cg = spectra.quotient_norm(idx, d, mask, tol=1e-10)
        dense = quotient_norm_dense(idx, d, mask)
        worst = max(worst, abs(cg - dense) / dense)
        checked += 1
    ok = worst <= 1e-8
    _report(9, ok, f"quotient-norm oracle: {checked} masks, max relative "
                   f"deviation {worst:.2e} (<= 1e-8)")
