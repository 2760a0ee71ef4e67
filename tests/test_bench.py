import math

import numpy as np
import pytest
import scipy.linalg as sla

from hoermander_kit import bench, interp, parabolic as pb, params, solver, spectra
from hoermander_kit._fd import one_sided_weights
from hoermander_kit.errors import InvalidConfig, MirrorAsymmetry


def test_apply_lambda_constant_trial():
    geom = pb.IntervalGeometry(nx=16)
    p = pb.heat_problem(geom)
    box = pb.omega_domain(geom, 1.0, 16).lattice
    # the constant-one field
    trial = bench.TrialField(box=box, index=([0], [0]), block=[[np.sqrt(box.npoints)]])
    f, g, h = bench.apply_lambda(p, trial, 16)
    assert np.max(np.abs(f)) < 1e-12
    assert np.allclose(g, 1.0) and np.allclose(h, 1.0)


def test_apply_lambda_zero_trial():
    geom = pb.IntervalGeometry(nx=16)
    p = pb.heat_problem(geom)
    box = pb.omega_domain(geom, 1.0, 16).lattice
    trial = bench.TrialField(box=box, index=([], []), block=np.zeros((0, 0)))
    f, g, h = bench.apply_lambda(p, trial, 16)
    assert np.max(np.abs(f)) == 0 and np.max(np.abs(g)) == 0 and np.max(np.abs(h)) == 0


def test_apply_lambda_matches_symbolic_oracle_strip():
    sympy = pytest.importorskip("sympy")
    geom = pb.PeriodicStripGeometry(nx=16, ny=16)
    p = pb.heat_problem(geom)
    nt = 16
    box = pb.omega_domain(geom, 1.0, nt).lattice
    # u = cos(pi x) sin(2 pi y) exp(i pi t) as an exact box mode product:
    # pick integer box modes mx, my, mt and verify A u against sympy
    mx, my, mt = 2, 1, 3
    index = ([mx % box.sizes[0]], [my % box.sizes[1]], [mt % box.sizes[2]])
    trial = bench.TrialField(box=box, index=index, block=np.ones((1, 1, 1)))
    f, g, h = bench.apply_lambda(p, trial, nt)

    x_s, y_s, t_s = sympy.symbols("x y t", real=True)
    xi_x = 2 * sympy.pi * mx / 2  # box periods: (2, 1, 2)
    xi_y = 2 * sympy.pi * my / 1
    xi_t = 2 * sympy.pi * mt / 2
    u_s = sympy.exp(sympy.I * (xi_x * x_s + xi_y * y_s + xi_t * t_s))
    f_s = sympy.diff(u_s, t_s) - sympy.diff(u_s, x_s, 2) - sympy.diff(u_s, y_s, 2)
    fn = sympy.lambdify((x_s, y_s, t_s), f_s, "numpy")
    x = geom.x_axis()[:, None, None]
    y = geom.y_axis()[None, :, None]
    t = (np.arange(nt + 1) / nt)[None, None, :]
    oracle = fn(x, y, t) / np.sqrt(box.npoints)
    assert np.max(np.abs(f - oracle)) < 1e-10 * np.max(np.abs(oracle))


def test_apply_lambda_first_order_boundary():
    geom = pb.IntervalGeometry(nx=16)
    p = pb.heat_problem(geom, boundary="neumann")
    nt = 16
    box = pb.omega_domain(geom, 1.0, nt).lattice
    mx, mt = 1, 0
    trial = bench.TrialField(box=box, index=([mx], [mt]), block=[[1.0]])
    _, g, _ = bench.apply_lambda(p, trial, nt)
    # B = (1-2x) D_1 = (1-2x) i d/dx on u = e^(i pi x): value i*(i pi) e^(i pi x)
    xi = np.pi
    scale = 1.0 / np.sqrt(box.npoints)
    expected0 = 1j * (1j * xi) * scale  # x = 0 sheet
    expected1 = -1j * (1j * xi) * np.exp(1j * xi) * scale  # x = 1, flipped sign
    assert g[0, 0] == pytest.approx(expected0, rel=1e-12)
    assert g[1, 0] == pytest.approx(expected1, rel=1e-12)


def test_apply_lambda_linearity():
    geom = pb.IntervalGeometry(nx=16)
    p = pb.heat_problem(geom)
    t1 = bench.synthesize_trial(geom, 1.0, 16, seed=0, band=3)
    t2 = bench.synthesize_trial(geom, 1.0, 16, seed=1, band=3)
    a, b = 2.0 - 1.0j, 0.5 + 0.25j
    comb = bench.TrialField(box=t1.box, index=t1.index, block=a * t1.block + b * t2.block)
    f1, g1, h1 = bench.apply_lambda(p, t1, 16)
    f2, g2, h2 = bench.apply_lambda(p, t2, 16)
    fc, gc, hc = bench.apply_lambda(p, comb, 16)
    assert np.max(np.abs(fc - a * f1 - b * f2)) < 1e-12 * np.max(np.abs(fc))
    assert np.max(np.abs(gc - a * g1 - b * g2)) < 1e-12 * max(np.max(np.abs(gc)), 1e-30)
    assert np.max(np.abs(hc - a * h1 - b * h2)) < 1e-12 * max(np.max(np.abs(hc)), 1e-30)


def test_ratio_homogeneity():
    geom = pb.IntervalGeometry(nx=16)
    p = pb.heat_problem(geom)
    nt = 16
    trial = bench.synthesize_trial(geom, 1.0, nt, seed=3, band=3)
    scaled = bench.TrialField(box=trial.box, index=trial.index, block=5.0 * trial.block)
    phi = params.constant()
    sol = bench.solution_norms(p, [trial, scaled], nt, 3.0, phi)
    datas = [bench.apply_lambda(p, t, nt) for t in (trial, scaled)]
    tgt = pb.target_norm_batch(p, datas, 3.0, phi, nt=nt)
    r1 = tgt[0].total / sol[0]
    r2 = tgt[1].total / sol[1]
    assert r1 == pytest.approx(r2, rel=1e-12)


def test_synthesize_trial_band_limit():
    geom = pb.IntervalGeometry(nx=16)
    trial = bench.synthesize_trial(geom, 1.0, 16, seed=0, band=2)
    n0, n1 = trial.box.sizes
    m0 = np.abs(np.fft.fftfreq(n0, d=1.0 / n0))
    m1 = np.abs(np.fft.fftfreq(n1, d=1.0 / n1))
    outside = (m0[:, None] > 2) | (m1[None, :] > 2)
    assert np.max(np.abs(trial.coeffs[outside])) == 0.0


def test_estimate_isomorphism_interval_smoke():
    case = bench.BenchCase(
        geometry_kind="interval",
        s_grid=(3.0,),
        phi_list=(params.constant(),),
        trial_count=30,
        resolutions=(16, 32),
        seed=5,
    )
    rep = bench.estimate_isomorphism(case)
    assert len(rep.rows) == 2
    for row in rep.rows:
        assert row["lower_ratio"] > 0
        assert row["condition"] >= 1.0
    assert rep.drift_passed()
    assert "condition" in rep.to_csv().splitlines()[0]


@pytest.mark.parametrize(
    "kind, resolutions, case_kw",
    [("interval", (16, 32), {}), ("strip", (16,), {"ny": 8, "band": 3})],
    ids=["interval-16-32", "strip-16"],
)
def test_estimate_isomorphism_matches_the_per_cell_route_bitwise(kind, resolutions, case_kw,
                                                                 monkeypatch):
    # the sweep prepares each resolution's data once and solves every (s, phi)
    # cell against them in four quotient calls (u, f, g, h); its rows keep the
    # bits of one solution_norms and one target_norm_batch call per cell
    case = bench.BenchCase(
        geometry_kind=kind, s_grid=(3.0, 4.6), phi_list=(params.constant(), params.log_power(1.0)),
        resolutions=resolutions, seed=9, **case_kw,
    )
    calls = []
    real_quotient_norm_batch = spectra.quotient_norm_batch

    def counting(idx, samples_list, mask):
        calls.append(len(idx))
        return real_quotient_norm_batch(idx, samples_list, mask)

    monkeypatch.setattr(spectra, "quotient_norm_batch", counting)
    rows = bench.estimate_isomorphism(case).rows
    assert calls == [4] * (4 * len(resolutions))
    monkeypatch.undo()
    expected = []
    for resolution in resolutions:
        p = case.problem(resolution)
        nt = resolution // 2
        trials = [
            bench.synthesize_trial(p.geometry, case.tau, nt,
                                   seed=case.seed + 7919 * resolution + t, band=case.band)
            for t in range(case.trial_count)
        ]
        datas = [bench.apply_lambda(p, tr, nt) for tr in trials]
        for s in case.s_grid:
            for phi in case.phis():
                sol = bench.solution_norms(p, trials, nt, s, phi)
                tgt = pb.target_norm_batch(p, datas, s, phi, nt=nt)
                ratios = np.array([b.total for b in tgt]) / sol
                lo, hi = float(np.min(ratios)), float(np.max(ratios))
                expected.append((s, phi.describe(), resolution, lo, hi, hi / lo))
    got = [(r["s"], r["phi"], r["resolution"], r["lower_ratio"], r["upper_ratio"], r["condition"])
           for r in rows]
    assert got == expected


def test_norms_over_cells_reject_unequal_sequences():
    geom = pb.IntervalGeometry(nx=8)
    p = pb.heat_problem(geom)
    trial = bench.synthesize_trial(geom, 1.0, 8, seed=1, band=2)
    phis = (params.constant(),)
    with pytest.raises(ValueError, match="phi"):
        bench.solution_norms(p, [trial], 8, (3.0, 4.0), phis)
    with pytest.raises(ValueError, match="phi"):
        pb.target_norm_batch(p, [bench.apply_lambda(p, trial, 8)], (3.0, 4.0), phis, nt=8)


def test_bench_case_rejects_jump_points():
    with pytest.raises(ValueError):
        bench.BenchCase(geometry_kind="interval", s_grid=(3.5,))


@pytest.mark.parametrize("kw, message", [
    ({"geometry_kind": "disk"}, "geometry 'disk'"),
    ({"boundary": "robin"}, "boundary 'robin'"),
    ({"resolutions": (48,)}, "resolutions"),
    ({"resolutions": (2, 4)}, "resolutions"),
    ({"resolutions": ()}, "resolutions"),
    ({"resolutions": (32, 64, 32)}, r"resolution 32 is repeated in \[32, 64, 32\]"),
    ({"ny": 12}, "ny"),
    ({"s_grid": ()}, "s_grid"),
    ({"s_grid": (1.5, 3.0)}, "s_grid"),
    ({"s_grid": (float("nan"),)}, "s_grid"),
    ({"trial_count": 29}, "30 trials"),
    ({"phi_list": (params.constant(), params.constant(1.0))}, "phi_list labels"),
], ids=["geometry", "boundary", "resolution-48", "resolution-2", "no-resolutions",
        "repeated-resolution", "ny-12",
        "no-s", "s-below-2", "s-nan", "trials-29", "phi-labels"])
def test_bench_case_rejects_what_cannot_run(kw, message):
    with pytest.raises(InvalidConfig, match=message):
        bench.BenchCase(**{"geometry_kind": "interval", **kw})


def test_drift_pairs_a_custom_phi_with_its_own_rows():
    # the report keys rows by phi label, so the drift check compares each phi's fine
    # row with its own coarse row only when the two phis' labels differ
    phis = (params.constant(), params.custom(lambda r: r**0.5))
    case = bench.BenchCase("interval", phi_list=phis, s_grid=(3.0,), resolutions=(8, 16))
    rep = bench.estimate_isomorphism(case)
    labels = [phi.describe() for phi in phis]
    assert rep.case["phi"] == labels and labels[0] != labels[1]
    for label in labels:
        rows = [row for row in rep.rows if row["phi"] == label]
        assert [row["resolution"] for row in rows] == [8, 16]
        assert rep.condition(3.0, label, 8) == rows[0]["condition"]
    assert rep.drift_passed()


def test_heat_data_takes_both_boundary_derivatives_or_neither():
    def one(*args):
        return 0.0

    for dg in ({"dg0": one}, {"dg1": one}):
        with pytest.raises(ValueError, match="dg0 and dg1"):
            solver.HeatData(f=one, g0=one, g1=one, h=one, **dg)
    solver.HeatData(f=one, g0=one, g1=one, h=one, dg0=one, dg1=one)


def test_round_trip_interval():
    rt = bench.round_trip_interval(resolution=32, s=3.0, seed=1)
    assert rt["relative_defect"] <= 1e-6
    assert rt["max_u_error"] < 1e-10


_INTERVAL_BOX = pb.omega_domain(pb.IntervalGeometry(nx=8), 1.0, 8).lattice
_STRIP_BOX = pb.omega_domain(pb.PeriodicStripGeometry(nx=4, ny=4), 1.0, 4).lattice


@pytest.mark.parametrize(
    "box,points",
    [(_INTERVAL_BOX, (0.3, np.linspace(0.0, 1.0, 7))),
     (_INTERVAL_BOX, (np.linspace(0.0, 1.0, 5)[:, None], np.linspace(0.0, 1.0, 4)[None, :])),
     (_INTERVAL_BOX, (np.linspace(0.0, 1.0, 6), 0.45)),
     (_STRIP_BOX, np.ix_(np.linspace(0.0, 1.0, 5), np.linspace(0.0, 1.0, 3),
                         np.linspace(0.0, 1.0, 4)))],
    ids=["scalar-x", "grid", "scalar-t", "strip-grid"],
)
def test_trig_sum_matches_double_sum(box, points):
    freqs = box.freq_axes()
    rng = np.random.default_rng(4)
    coeffs = rng.standard_normal(box.sizes) + 1j * rng.standard_normal(box.sizes)
    grids = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in points))
    ref = np.zeros(grids[0].shape, dtype=complex)
    for m in np.ndindex(*box.sizes):
        ref = ref + coeffs[m] * np.exp(1j * sum(f[a] * x for f, a, x in zip(freqs, m, grids)))
    got = bench.trig_sum(coeffs, freqs, points)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def _apply_lambda_by_box_ifftn(p, trial, nt):
    """Reference: every derivative by one full padded-box ifftn, cropped to the cylinder."""
    geom, box = p.geometry, trial.box
    n = geom.spatial_dim
    crop = (slice(geom.nx + 1),) + (slice(None),) * (n - 1) + (slice(nt + 1),)

    def derivative(alpha_full):
        c = trial.coeffs.copy()
        for ax, m in enumerate(alpha_full):
            shape = [1] * box.k
            shape[ax] = box.sizes[ax]
            f = box.freq_axis(ax).reshape(shape)
            c = c * ((1j * f) if ax == box.k - 1 else -f) ** m
        return np.fft.ifftn(c, norm="ortho")[crop]

    x, tgrid = geom.x_axis(), np.arange(nt + 1) * (p.tau / nt)
    if n == 1:
        mesh = (x[:, None], tgrid[None, :])
    else:
        mesh = (x[:, None, None], geom.y_axis()[None, :, None], tgrid[None, None, :])
    f = derivative((0,) * n + (1,))
    for alpha, coeff in p.a_coeffs.items():
        f = f + np.asarray(coeff.evaluator(*mesh), dtype=complex) * derivative(alpha + (0,))
    u = derivative((0,) * (n + 1))
    if p.order_l == 0:
        bu = u
    else:
        bu = np.asarray(p.boundary.coeff(0).evaluator(*mesh), dtype=complex) * u
        for j in range(1, n + 1):
            alpha = tuple(1 if i == j - 1 else 0 for i in range(n)) + (0,)
            b_j = np.asarray(p.boundary.coeff(j).evaluator(*mesh), dtype=complex)
            bu = bu + b_j * derivative(alpha)
    return f, pb.boundary_values(geom, bu), u[..., 0]


@pytest.mark.parametrize("boundary", ["dirichlet", "neumann"])
@pytest.mark.parametrize(
    "geom", [pb.IntervalGeometry(nx=16), pb.PeriodicStripGeometry(nx=8, ny=8)],
    ids=["interval", "strip"],
)
def test_apply_lambda_matches_box_ifftn(geom, boundary):
    p = pb.heat_problem(geom, boundary=boundary)
    nt = 16
    for seed in range(3):
        trial = bench.synthesize_trial(geom, 1.0, nt, seed=seed, band=4)
        got = bench.apply_lambda(p, trial, nt)
        ref = _apply_lambda_by_box_ifftn(p, trial, nt)
        for a, b in zip(got, ref, strict=True):
            assert a.shape == b.shape
            assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))


@pytest.mark.parametrize(
    "geom", [pb.IntervalGeometry(nx=16), pb.PeriodicStripGeometry(nx=8, ny=8)],
    ids=["interval", "strip"],
)
def _trial_by_mask_loop(box, seed, band):
    """A trial built the long way: the whole-box draw times a band mask per
    axis, then a scan for the block of nonzero modes."""
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal(box.sizes) + 1j * rng.standard_normal(box.sizes)
    for ax, n in enumerate(box.sizes):
        keep = np.abs(np.fft.fftfreq(n, d=1.0 / n)) <= band
        shape = [1] * box.k
        shape[ax] = n
        coeffs = coeffs * keep.reshape(shape)
    nonzero, axes = coeffs != 0, range(box.k)
    index = [np.flatnonzero(nonzero.any(axis=tuple(a for a in axes if a != ax))) for ax in axes]
    return coeffs, bench.TrialField(box, index, coeffs[np.ix_(*index)])


@pytest.mark.parametrize(
    "geom", [pb.IntervalGeometry(nx=16), pb.PeriodicStripGeometry(nx=8, ny=8)],
    ids=["interval", "strip"],
)
def test_synthesize_trial_matches_mask_loop_bitwise(geom):
    nt, band, seed = 16, 3, 11
    box = pb.omega_domain(geom, 1.0, nt).lattice
    ref, ref_trial = _trial_by_mask_loop(box, seed, band)
    trial = bench.synthesize_trial(geom, 1.0, nt, seed=seed, band=band)
    assert trial.modes.shape == (2 * band + 1,) * box.k
    assert trial.modes.tobytes() == ref_trial.modes.tobytes()
    assert all(np.array_equal(a, b) for a, b in zip(trial.freqs, ref_trial.freqs, strict=True))
    # the whole box equals the masked draw in value; outside the band its
    # zeros are unsigned, where the mask product left -0 for negative draws
    assert trial.coeffs.dtype == ref.dtype and np.array_equal(trial.coeffs, ref)
    assert trial.coeffs.tobytes() == spectra.random_field(box, seed, band).coeffs.tobytes()
    outside = ref == 0
    assert not np.signbit(trial.coeffs.real[outside]).any()
    assert not np.signbit(trial.coeffs.imag[outside]).any()


@pytest.mark.parametrize("boundary", ["dirichlet", "neumann"])
@pytest.mark.parametrize(
    "geom, nt, band",
    [(pb.IntervalGeometry(nx=128), 128, 2), (pb.PeriodicStripGeometry(nx=64, ny=16), 64, 1)],
    ids=["interval", "strip"],
)
def test_apply_lambda_of_band_draw_matches_mask_loop_bitwise(geom, nt, band, boundary):
    # the boxes and bands of the compatibility sweep
    p = pb.heat_problem(geom, boundary=boundary)
    box = pb.omega_domain(geom, 1.0, nt).lattice
    for seed in (3, 14):
        _, ref_trial = _trial_by_mask_loop(box, seed, band)
        got = bench.apply_lambda(p, bench.synthesize_trial(geom, 1.0, nt, seed=seed, band=band), nt)
        ref = bench.apply_lambda(p, ref_trial, nt)
        for a, b in zip(got, ref, strict=True):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()


def test_trial_field_state_cannot_go_stale():
    geom = pb.IntervalGeometry(nx=8)
    box = pb.omega_domain(geom, 1.0, 8).lattice
    index, block = (np.array([1]), np.array([2])), np.ones((1, 1), dtype=complex)
    trial = bench.TrialField(box, index, block)
    before, coeffs = trial.on_cylinder(geom, 8), trial.coeffs
    index[0][0], block[0, 0] = 3, 2.0  # the caller's arrays are not the trial's
    assert np.array_equal(trial.on_cylinder(geom, 8), before)
    assert np.array_equal(trial.coeffs, coeffs) and np.count_nonzero(coeffs) == 1
    assert trial.modes.shape == (1, 1)
    for arr in (trial.coeffs, trial.modes, *trial.freqs, trial.block, *trial.index):
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0


def test_trial_field_compares_and_hashes_by_identity():
    geom = pb.IntervalGeometry(nx=8)
    a = bench.synthesize_trial(geom, 1.0, 8, seed=0, band=2)
    b = bench.synthesize_trial(geom, 1.0, 8, seed=0, band=2)
    assert a == a and a != b  # equal draws, two trials
    assert len({a, b, a}) == 2 and hash(a) == hash(a)


def test_negative_band_is_rejected():
    geom = pb.IntervalGeometry(nx=8)
    with pytest.raises(ValueError, match="band"):
        bench.synthesize_trial(geom, 1.0, 8, seed=0, band=-1)
    with pytest.raises(ValueError, match="band"):
        spectra.random_field(pb.omega_domain(geom, 1.0, 8).lattice, 0, band=-1)
    with pytest.raises(ValueError, match="band"):
        bench.BenchCase(geometry_kind="interval", band=-1)
    bench.BenchCase(geometry_kind="interval", band=0)


def test_jump_study_smoke():
    rep = bench.jump_study(resolutions=(16, 32), trials=30, seed=1)
    assert rep.envelope_stable()
    assert rep.violation_monotone()
    assert all(row["envelope"] >= 1.0 for row in rep.rows)


def _constraint_matrix_by_impulses(p, nt, count, acc_t=8, acc_x=8):
    """Reference: the residual map of one compute_v call per coordinate impulse."""
    geom = p.geometry
    k_list = list(range(count))
    f_shape, g_shape, h_shape = bench._data_shapes(geom, nt)
    w_tr = {k: one_sided_weights(k, acc_t, p.tau / nt, nt + 1) for k in k_list}

    def residual(f, g, h):
        v = pb.compute_v(p, f, h, max(k_list), acc_t=acc_t, acc_x=acc_x)
        rows = []
        for k in k_list:
            lhs = np.tensordot(w_tr[k], np.moveaxis(g, -1, 0)[: len(w_tr[k])], axes=(0, 0))
            rows.append((lhs - pb.boundary_values(geom, v[k])).reshape(-1))
        return np.concatenate(rows)

    zeros = [np.zeros(shape, dtype=complex) for shape in (f_shape, g_shape, h_shape)]
    cols = []
    for slot in range(3):
        flat = zeros[slot].reshape(-1)
        for i in range(flat.size):
            flat[i] = 1.0
            cols.append(residual(*zeros))
            flat[i] = 0.0
    return np.array(cols, dtype=complex).T


@pytest.mark.parametrize(
    "geom,nt,acc_x,count",
    [(pb.IntervalGeometry(nx=8), 8, 4, 2), (pb.IntervalGeometry(nx=16), 16, 8, 3),
     (pb.PeriodicStripGeometry(nx=8, ny=4), 16, 4, 3)],
    ids=["interval-16", "interval-32", "strip-8x4"],
)
def test_constraint_matrix_matches_impulse_loop_bitwise(geom, nt, acc_x, count):
    p = pb.heat_problem(geom)
    C = bench._constraint_matrix(p, nt, count, acc_x=acc_x)
    ref = _constraint_matrix_by_impulses(p, nt, count, acc_x=acc_x)
    assert C.shape == ref.shape and C.dtype == ref.dtype
    assert C.tobytes() == ref.tobytes()


def _complex_data_gram(p, nt, s):
    """Reference: the block data Gram from complex quotient Grams."""
    def quotient_gram(idx, mask):
        lat = mask.lattice
        kern = np.fft.ifftn(lat.weight(idx) ** -2.0)
        pts = np.argwhere(mask.mask)
        K = kern[tuple((pts[:, None, d] - pts[None, :, d]) % lat.sizes[d] for d in range(lat.k))]
        K = 0.5 * (K + K.conj().T)
        return sla.inv(K) * pb._measure_factor(lat) ** 2

    geom = p.geometry
    idx_f, idx_g, idx_h = pb._component_indices(geom, s, p.order_l, params.constant())
    G_g = quotient_gram(idx_g, pb.lateral_domain(geom, p.tau, nt))
    return sla.block_diag(quotient_gram(idx_f, pb.omega_domain(geom, p.tau, nt)), G_g, G_g,
                          quotient_gram(idx_h, pb.spatial_domain(geom)))


@pytest.mark.parametrize("kwargs, message", [
    ({"eps_pair": (0.1, 0.1)}, "the two eps must differ"),
    ({"eps_pair": (0.0, 0.2)}, r"eps = 0.0: s_star -\+ eps must lie in \(2.0, 3.5\) and \(3.5, 5.5\)"),
    ({"eps_pair": (-0.1, 0.2)}, "eps = -0.1"),
    ({"eps_pair": (2.0, 0.2)}, "eps = 2.0"),
    ({"s_star": 3.4}, "s_star = 3.4 is not a Dirichlet jump point"),
    ({"trials": 0}, "need at least 1 trial"),
    ({"resolutions": ()}, r"at least one resolution, got \[\]"),
    ({"resolutions": (16, 32, 16)}, r"resolution 16 is repeated in \[16, 32, 16\]"),
    ({"resolutions": (12,)}, r"powers of two >= 4, got 12 in \[12\]"),
], ids=["equal-eps", "zero-eps", "negative-eps", "eps-past-the-interval", "s-star-off-E",
        "no-trial", "no-resolution", "repeated-resolution", "resolution-12"])
def test_jump_study_rejects_bad_inputs_before_any_work(monkeypatch, kwargs, message):
    built = []
    monkeypatch.setattr(pb, "heat_problem", lambda *a, **kw: built.append(a))
    with pytest.raises(InvalidConfig, match=message):
        bench.jump_study(**{"resolutions": (16,), **kwargs})
    assert built == []


def _jump_study_complex(s_star, eps_pair, resolutions, trials, seed, tau=1.0, band=2):
    """Reference: the jump study on an explicit SVD kernel basis in complex arithmetic,
    with the K-functional evaluated one vector at a time (defect floor 1e-10)."""
    rows, violations = [], []
    for resolution in resolutions:
        nx = nt = resolution // 2
        geom = pb.IntervalGeometry(nx=nx)
        p = pb.heat_problem(geom, tau=tau)
        acc_x = 8 if nx + 1 >= 2 + 8 else 4
        C = bench._constraint_matrix(p, nt, pb.compat_count(s_star, 0) + 1, acc_x=acc_x)
        _, sv, vh = np.linalg.svd(C, full_matrices=True)
        B = vh[int(np.sum(sv > max(C.shape) * np.finfo(float).eps * sv[0])):].conj().T
        vals, closures = [], []
        for eps in eps_pair:
            G0 = _complex_data_gram(p, nt, s_star - eps)
            G1 = _complex_data_gram(p, nt, s_star + eps)
            A0, A1 = B.conj().T @ G0 @ B, B.conj().T @ G1 @ B
            w, V = sla.eigh(0.5 * (A1 + A1.conj().T), 0.5 * (A0 + A0.conj().T))
            lam = np.sqrt(np.maximum(w, 0.0))
            proj = (G0 @ (B @ V)).conj().T

            def half_norm(vec, G0=G0, lam=lam, proj=proj):
                a = np.abs(proj @ vec) ** 2
                norm0 = float(np.real(np.vdot(vec, G0 @ vec)))
                delta = max(0.0, norm0 - float(np.sum(a)))
                if delta <= 1e-10 * norm0:
                    delta = 0.0
                t0 = 1.0 / float(np.max(lam))
                core = float(np.sum(a * lam * (np.pi / 2 - np.arctan(t0 * lam))))
                return math.sqrt((2.0 / np.pi) * (core + delta / t0))

            vals.append(np.array([
                half_norm(bench._flatten_data(*bench.apply_lambda(
                    p, bench.synthesize_trial(geom, tau, nt, seed=seed + 31 * t, band=band), nt)))
                for t in range(trials)
            ]))
            closures.append(half_norm)
        ratios = vals[0] / vals[1]
        rows.append({"envelope": max(np.max(ratios), 1.0 / np.min(ratios)),
                     "ratio_min": np.min(ratios), "ratio_max": np.max(ratios)})
        f_shape, g_shape, h_shape = bench._data_shapes(geom, nt)
        g_viol = np.broadcast_to(np.arange(nt + 1) * (tau / nt), g_shape).astype(complex)
        violations.append(closures[0](bench._flatten_data(
            np.zeros(f_shape, dtype=complex), g_viol, np.zeros(h_shape, dtype=complex))))
    return rows, violations


def test_jump_study_matches_complex_svd_reference():
    rep = bench.jump_study(s_star=3.5, eps_pair=(0.1, 0.2), resolutions=(16, 32, 64),
                           trials=30, seed=5)
    rows, violations = _jump_study_complex(3.5, (0.1, 0.2), (16, 32, 64), trials=30, seed=5)
    for row, ref in zip(rep.rows, rows, strict=True):
        for key in ("envelope", "ratio_min", "ratio_max"):
            assert row[key] == pytest.approx(ref[key], rel=1e-10, abs=0.0)
    for row, ref in zip(rep.violation_rows, violations, strict=True):
        assert row["norm"] == pytest.approx(ref, rel=1e-10, abs=0.0)


def test_quotient_gram_is_real_symmetric():
    geom = pb.IntervalGeometry(nx=8)
    p = pb.heat_problem(geom)
    for G in bench._data_gram(p, bench._MirrorSplit(p, 8), 3.4):
        assert G.dtype == np.float64
        assert np.max(np.abs(G - G.T)) <= 1e-12 * np.max(np.abs(G))


def _jump_study_unsplit(s_star, eps_pair, resolutions, trials, seed, tau=1.0, band=2):
    """Reference: the jump study on one pencil over the whole data space in point
    coordinates, no mirror split: the complex Gram, one frame of C, one summand."""
    rows, violations = [], []
    for resolution in resolutions:
        nx = nt = resolution // 2
        geom = pb.IntervalGeometry(nx=nx)
        p = pb.heat_problem(geom, tau=tau)
        acc_x = 8 if nx + 1 >= 2 + 8 else 4
        C = bench._constraint_matrix(p, nt, pb.compat_count(s_star, 0) + 1, acc_x=acc_x)
        frame = interp.kernel_frame(C, C.shape[1])
        columns = [
            bench._flatten_data(*bench.apply_lambda(
                p, bench.synthesize_trial(geom, tau, nt, seed=seed + 31 * t, band=band), nt))
            for t in range(trials)
        ]
        f_shape, g_shape, h_shape = bench._data_shapes(geom, nt)
        g_viol = np.broadcast_to(np.arange(nt + 1) * (tau / nt), g_shape).astype(complex)
        columns.append(bench._flatten_data(
            np.zeros(f_shape, dtype=complex), g_viol, np.zeros(h_shape, dtype=complex)))
        data = np.column_stack(columns)
        norms = []
        for eps in eps_pair:
            grams = interp.GramPair(gram0=_complex_data_gram(p, nt, s_star - eps),
                                    gram1=_complex_data_gram(p, nt, s_star + eps))
            norms.append(interp.half_interp_norm([(grams, frame, data)]))
        ratios = norms[0][:trials] / norms[1][:trials]
        rows.append({"envelope": max(np.max(ratios), 1.0 / np.min(ratios)),
                     "ratio_min": np.min(ratios), "ratio_max": np.max(ratios)})
        violations.append(norms[0][trials])
    return rows, violations


@pytest.mark.parametrize("seed", [2, 11])
def test_jump_study_split_matches_the_unsplit_pencil(seed):
    rep = bench.jump_study(s_star=3.5, eps_pair=(0.1, 0.2), resolutions=(16, 32),
                           trials=30, seed=seed)
    rows, violations = _jump_study_unsplit(3.5, (0.1, 0.2), (16, 32), trials=30, seed=seed)
    for row, ref in zip(rep.rows, rows, strict=True):
        for key in ("envelope", "ratio_min", "ratio_max"):
            assert row[key] == pytest.approx(ref[key], rel=1e-10, abs=0.0)
    for row, ref in zip(rep.violation_rows, violations, strict=True):
        assert row["norm"] == pytest.approx(ref, rel=1e-10, abs=0.0)


def test_mirror_split_coordinates_are_orthonormal():
    geom = pb.IntervalGeometry(nx=8)
    split = bench._MirrorSplit(pb.heat_problem(geom), 8)
    dim = len(split.mirror)
    even, odd = split.coords(np.eye(dim))
    T = np.vstack([even, odd])
    assert T.shape == (dim, dim)
    assert np.max(np.abs(T @ T.T - np.eye(dim))) <= 1e-15
    assert np.array_equal(split.mirror[split.mirror], np.arange(dim))
    # one fixed point each on f's and h's x midpoint per time level, none on g
    assert len(even) - len(odd) == (8 + 1) + 1
    # R fixes the even coordinates and negates the odd ones
    assert np.array_equal(even[:, split.mirror], even)
    assert np.array_equal(odd[:, split.mirror], -odd)


def test_mirror_split_rejects_a_data_mask_without_an_x_mirror(monkeypatch):
    geom = pb.IntervalGeometry(nx=8)
    spatial = pb.spatial_domain(geom)
    cut = spatial.mask.copy()
    cut[np.flatnonzero(cut)[1]] = False  # drop the point x = 1/8, keep x = 7/8
    monkeypatch.setattr(pb, "spatial_domain",
                        lambda geom: spectra.SubdomainMask(spatial.lattice, cut))
    with pytest.raises(MirrorAsymmetry, match="in x"):
        bench._MirrorSplit(pb.heat_problem(geom), 8)


def test_jump_study_rejects_constraints_that_break_the_mirror(monkeypatch):
    real = bench._constraint_matrix

    def skewed(*args, **kwargs):
        C = real(*args, **kwargs)
        C[1] *= 1.0 + 1e-12  # the k = 0 row of the sheet at x = 1
        return C

    monkeypatch.setattr(bench, "_constraint_matrix", skewed)
    with pytest.raises(MirrorAsymmetry, match="sheets"):
        bench.jump_study(resolutions=(16,), trials=30, seed=0)


def test_jump_study_reports_the_resolution_16_membership_defect(monkeypatch):
    calls = []
    real_eigh = sla.eigh
    monkeypatch.setattr(sla, "eigh", lambda *a, **kw: calls.append(1) or real_eigh(*a, **kw))
    rep = bench.jump_study(s_star=3.5, eps_pair=(0.1, 0.2), resolutions=(16, 32, 64),
                           trials=30, seed=5)
    defect = {row["resolution"]: row["defect_max"] for row in rep.rows}
    assert defect[16] >= 1e-6  # the coarse constraint stencils: trials miss ker C
    assert defect[32] == 0.0 and defect[64] == 0.0  # rounding: at or below the noise floor
    assert len(calls) == 3 * 2 * 2  # resolutions x eps x parity halves: no second pass


def _jump_norms_by_columns(s_star, eps_pair, resolution, seeds, trials):
    """Reference: the study's norms per eps on the Lambda data columns of the trials of
    every seed, seed after seed, then of the violating datum, through one
    interp.half_interp_norm call per eps on the mirror halves; and their defects."""
    nx = nt = resolution // 2
    geom = pb.IntervalGeometry(nx=nx)
    p = pb.heat_problem(geom)
    split = bench._MirrorSplit(p, nt)
    C = bench._constraint_matrix(p, nt, pb.compat_count(s_star, 0) + 1,
                                 acc_x=8 if nx + 1 >= 2 + 8 else 4)
    frames = [interp.kernel_frame(half, half.shape[1]) for half in split.constraints(C)]
    columns = [
        bench._flatten_data(*bench.apply_lambda(
            p, bench.synthesize_trial(geom, p.tau, nt, seed=seed + 31 * t, band=2), nt))
        for seed in seeds for t in range(trials)
    ]
    f_shape, g_shape, h_shape = bench._data_shapes(geom, nt)
    g_viol = np.broadcast_to(np.arange(nt + 1) * (p.tau / nt), g_shape)
    columns.append(bench._flatten_data(np.zeros(f_shape), g_viol, np.zeros(h_shape)))
    halves = split.coords(np.column_stack(columns))
    norms, defects = np.empty((2, len(columns))), np.empty((2, len(columns)))
    for eps, norm, defect in zip(eps_pair, norms, defects):
        summands = [(interp.GramPair(gram0=g0, gram1=g1), frame, x) for g0, g1, frame, x in zip(
            bench._data_gram(p, split, s_star - eps), bench._data_gram(p, split, s_star + eps),
            frames, halves)]
        norm[:] = interp.half_interp_norm(summands, defect_out=defect)
    return norms, defects


@pytest.mark.parametrize("resolutions, seeds, trials", [
    ((16, 32, 64), (0, 5, 301), 30), ((16, 32), (0, 5), 1), ((16, 32), (7,), 200),
], ids=["three-seeds", "one-trial", "200-trials"])
def test_jump_study_matches_half_interp_norm_on_the_data_columns(resolutions, seeds, trials):
    # the study evaluates each trial from its band block through cached
    # eigencoordinates; the reference takes the trial's Lambda data column
    # through the subspace core directly
    s_star, eps_pair = 3.5, (0.1, 0.2)
    reports = [bench.jump_study(s_star, eps_pair, resolutions, trials, seed) for seed in seeds]
    for r, resolution in enumerate(resolutions):
        norms, defects = _jump_norms_by_columns(s_star, eps_pair, resolution, seeds, trials)
        for i, rep in enumerate(reports):
            cols = slice(i * trials, (i + 1) * trials)
            ratios = norms[0, cols] / norms[1, cols]
            row = rep.rows[r]
            assert row["resolution"] == resolution and row["trials"] == trials
            for key, ref in (("envelope", max(np.max(ratios), 1.0 / np.min(ratios))),
                             ("ratio_min", np.min(ratios)), ("ratio_max", np.max(ratios))):
                assert row[key] == pytest.approx(ref, rel=1e-12, abs=0.0), (key, resolution)
            assert rep.violation_rows[r]["norm"] == pytest.approx(norms[0, -1], rel=1e-12, abs=0.0)
            defect_max = float(np.max(defects[:, cols]))
            if resolution == 16:
                assert defect_max > 0.0
                assert row["defect_max"] == pytest.approx(defect_max, rel=1e-9, abs=0.0)
            else:
                assert row["defect_max"] == 0.0 == defect_max


def test_jump_study_cold_and_warm_calls_agree_bitwise():
    # a warm call evaluates the same cached arrays as the cold call that built
    # them, and a key never serves another key's pencils
    def study(seed, eps_pair=(0.1, 0.2)):
        rep = bench.jump_study(3.5, eps_pair, (16, 32), 30, seed)
        return rep.rows, rep.violation_rows

    cold = {seed: study(seed) for seed in (4, 19)}
    other = study(4, (0.2, 0.3))
    assert len(bench._STUDY_CACHE) == 4
    for seed, (rows, violations) in cold.items():
        assert study(seed) == (rows, violations)
        assert rows[0]["defect_max"] > 0.0
    bench._STUDY_CACHE.clear()
    assert study(4, (0.2, 0.3)) == other
    assert other != cold[4]


def _counting(monkeypatch, targets):
    calls = []
    for module, name in targets:
        real = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *a, _real=real, _name=name, **kw: calls.append(_name) or _real(*a, **kw))
    return calls


def test_a_warm_jump_study_makes_no_dense_set_up(monkeypatch):
    bench.jump_study(resolutions=(16, 32), trials=30, seed=0)
    calls = _counting(monkeypatch, [(sla, "eigh"), (sla, "inv"), (bench, "_constraint_matrix")])
    bench.jump_study(resolutions=(32, 16), trials=30, seed=8)
    assert calls == []
    bench.jump_study(resolutions=(16,), eps_pair=(0.2, 0.1), trials=30, seed=8)
    assert calls.count("eigh") == 4 and calls.count("_constraint_matrix") == 1
    assert calls.count("inv") > 0


def test_jump_study_sets_up_each_new_key_once(monkeypatch):
    calls = _counting(monkeypatch, [(sla, "eigh")])

    def eigh_calls(**kwargs):
        calls.clear()
        bench.jump_study(**{"trials": 5, "seed": 1, **kwargs})
        return len(calls)

    assert eigh_calls(resolutions=(16,)) == 4  # 2 eps x 2 mirror halves
    assert eigh_calls(resolutions=(16, 32)) == 4  # resolution 32 is new
    assert eigh_calls(resolutions=(32, 16), seed=2) == 0
    assert eigh_calls(resolutions=(16,), eps_pair=(0.2, 0.1)) == 4  # the order counts
    assert eigh_calls(resolutions=(16,), eps_pair=(0.1, 0.3)) == 4
    assert eigh_calls(resolutions=(16, 32), eps_pair=(0.1, 0.3)) == 4
    assert len(bench._STUDY_CACHE) == 5


def test_jump_study_cache_holds_read_only_arrays():
    bench.jump_study(resolutions=(16,), trials=5, seed=0)
    pencils = bench._STUDY_CACHE.get((3.5, (0.1, 0.2), 16))
    arrays = [a for basis in pencils.bases for a in (*basis.lams, *basis.coords, basis.gram0)]
    assert len(pencils.bases) == 2 and len(arrays) == 2 * (2 * 2 + 1)  # per eps and mirror half
    assert not any(a.flags.writeable for a in arrays)
    # the 25 band modes (|m| <= 2), then the violating datum
    assert all(c.shape[1] == 25 + 1 for basis in pencils.bases for c in basis.coords)
    assert all(basis.gram0.shape == (25 + 1,) * 2 for basis in pencils.bases)
    with pytest.raises(ValueError, match="read-only"):
        pencils.bases[0].coords[0][0, 0] = 0.0
    assert pencils.nbytes == sum(a.nbytes for a in arrays) == bench._STUDY_CACHE.nbytes


def test_jump_study_verdicts_do_not_depend_on_the_order_of_resolutions():
    ascending = bench.jump_study(resolutions=(16, 32), trials=30, seed=0)
    descending = bench.jump_study(resolutions=(32, 16), trials=30, seed=0)
    assert ascending.envelope_stable() and ascending.violation_monotone()
    assert descending.envelope_stable() and descending.violation_monotone()
    assert [row["resolution"] for row in descending.violation_rows] == [32, 16]


def test_jump_study_cache_evicts_at_its_byte_cap(monkeypatch):
    first = bench.jump_study(resolutions=(16,), trials=5, seed=0)
    monkeypatch.setattr(bench._STUDY_CACHE, "byte_cap", bench._STUDY_CACHE.nbytes)
    bench.jump_study(resolutions=(16,), eps_pair=(0.2, 0.1), trials=5, seed=0)
    assert len(bench._STUDY_CACHE) == 1
    assert bench._STUDY_CACHE.get((3.5, (0.1, 0.2), 16)) is None
    assert bench._STUDY_CACHE.get((3.5, (0.2, 0.1), 16)) is not None
    assert bench._STUDY_CACHE.nbytes <= bench._STUDY_CACHE.byte_cap
    calls = _counting(monkeypatch, [(sla, "eigh")])
    assert bench.jump_study(resolutions=(16,), trials=5, seed=0).rows == first.rows
    assert len(calls) == 4  # built again


def test_quotient_gram_rejects_a_weight_that_is_not_even(monkeypatch):
    mask = pb.omega_domain(pb.IntervalGeometry(nx=4), 1.0, 4)
    rng = np.random.default_rng(1)
    uneven = 1.0 + rng.uniform(size=mask.lattice.sizes)
    monkeypatch.setattr(spectra.Lattice, "weight", lambda self, idx: uneven)
    idx = pb._component_indices(pb.IntervalGeometry(nx=4), 3.4, 0, params.constant())[0]
    with pytest.raises(RuntimeError, match="even"):
        spectra.quotient_gram(idx, mask)


@pytest.mark.parametrize("resolution", [16, 64])
def test_quotient_gram_inverts_parity_blocks_only(resolution, monkeypatch):
    # every jump-study mask is a box, mirror symmetric on each axis, so sla.inv
    # sees only its 2^k parity blocks, never the whole K
    received = []
    real_inv = sla.inv

    def recording_inv(a, *args, **kwargs):
        received.append(a.shape)
        return real_inv(a, *args, **kwargs)

    monkeypatch.setattr(sla, "inv", recording_inv)
    geom = pb.IntervalGeometry(nx=resolution // 2)
    nt = resolution // 2
    masks = (pb.omega_domain(geom, 1.0, nt), pb.lateral_domain(geom, 1.0, nt),
             pb.spatial_domain(geom))
    for idx, mask in zip(pb._component_indices(geom, 3.5, 0, params.constant()), masks):
        received.clear()
        spectra.quotient_gram(idx, mask)
        plan = spectra._parity_plan(mask.mask)
        assert received == [(len(c), len(c)) for c in plan.columns]
        assert len(received) == 2 ** mask.lattice.k
        assert sum(n for n, _ in received) == mask.npoints
        assert max(n for n, _ in received) < mask.npoints


@pytest.mark.parametrize("resolution", [16, 32])
def test_quotient_gram_matches_quotient_norms(resolution):
    # the jump study's Gram and the norm engine share one assembly of K: in the
    # parity basis, sum_b Re c_b^H K_b^-1 c_b is the squared quotient norm on
    # each jump-study mask
    geom = pb.IntervalGeometry(nx=resolution // 2)
    nt = resolution // 2
    masks = (pb.omega_domain(geom, 1.0, nt), pb.lateral_domain(geom, 1.0, nt),
             pb.spatial_domain(geom))
    rng = np.random.default_rng(resolution)
    for s in (3.5 - 0.2, 3.5 - 0.1, 3.5 + 0.1, 3.5 + 0.2):  # s* +- eps of the study
        for idx, mask in zip(pb._component_indices(geom, s, 0, params.constant()), masks):
            datas = [rng.standard_normal(mask.npoints) + 1j * rng.standard_normal(mask.npoints)
                     for _ in range(3)]
            grams = spectra.quotient_gram(idx, mask)
            norms = spectra.quotient_norm_batch(idx, datas, mask)
            for d, val in zip(datas, norms):
                coords = spectra.parity_coords(mask, d)
                value = sum(np.real(np.conj(c) @ G @ c) for c, G in zip(coords, grams, strict=True))
                assert value == pytest.approx(val**2, rel=1e-10)
