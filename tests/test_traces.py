import json
import math

import numpy as np
import pytest

from hoermander_kit import parabolic as pb
from hoermander_kit import spectra, traces
from hoermander_kit.params import constant, log_power
from hoermander_kit.errors import (
    CutoffWrapsAround,
    DimensionMismatch,
    InsufficientTimeResolution,
    InvalidConfig,
    UnknownConfigKey,
)

TWO_PI = 2.0 * np.pi


def spatial_lattice(n=64):
    return spectra.Lattice(sizes=(n,), periods=(TWO_PI,))


def spacetime_lattice(n=64, nt=64, T=4.0):
    return spectra.Lattice(sizes=(n, nt), periods=(TWO_PI, T))


def test_cutoff_invariants():
    beta = traces.default_cutoff()
    assert beta(0.0) == 1.0
    taus = np.linspace(-0.5, 0.5, 101)
    assert np.all(beta(taus) == 1.0)
    assert np.all(beta(np.linspace(1.0, 3.0, 50)) == 0.0)
    ramp = beta(np.linspace(0.5, 1.0, 200))
    assert np.all(np.diff(ramp) <= 1e-15)
    assert np.all((ramp >= 0) & (ramp <= 1))
    d = beta.derivatives_at_zero(4)
    assert d[0] == 1.0 and np.all(d[1:] == 0.0)


def test_cutoff_validation():
    with pytest.raises(ValueError):
        traces.CutoffProfile(flat_radius=1.0, support_radius=0.5)


def test_trace_time_constant_field():
    lat = spacetime_lattice()
    a = spectra.random_field(spatial_lattice(), 3, band=8).to_samples()
    samples = np.repeat(a[:, None], lat.sizes[1], axis=1)
    u = spectra.SpectralField.from_samples(lat, samples)
    got = traces.trace_R(u, 3)
    assert np.max(np.abs(got.components[0] - a)) < 1e-12 * np.max(np.abs(a))
    for k in (1, 2):
        assert np.max(np.abs(got.components[k])) < 1e-10 * np.max(np.abs(a))


def test_trace_oscillatory_time_profile():
    # u = a(x) e^(i w t) with w on the lattice: traces are (i w)^k a exactly
    lat = spacetime_lattice()
    a = spectra.random_field(spatial_lattice(), 5, band=6).to_samples()
    m_t = 3
    w = 2 * np.pi * m_t / lat.periods[1]
    t = lat.grid_axis(1)
    samples = a[:, None] * np.exp(1j * w * t)[None, :]
    u = spectra.SpectralField.from_samples(lat, samples)
    got = traces.trace_R(u, 3)
    for k in range(3):
        expected = (1j * w) ** k * a
        err = np.max(np.abs(got.components[k] - expected))
        assert err < 1e-10 * max(1.0, np.max(np.abs(expected)))


def test_trace_requires_time_resolution():
    lat = spectra.Lattice(sizes=(8, 4), periods=(TWO_PI, 1.0))
    u = spectra.random_field(lat, 0)
    with pytest.raises(InsufficientTimeResolution):
        traces.trace_R(u, 3)


def test_lift_value_at_zero_and_monomial():
    # r = 1: the lifted field at t = 0 equals v_0; r = 2 with v = (0, v1):
    # trace_0 = 0, trace_1 = v1 (the monomial bookkeeping)
    slat = spatial_lattice()
    beta = traces.default_cutoff()
    v0 = spectra.random_field(slat, 11, band=10).to_samples()
    one = traces.CauchyData(lattice=slat, components=(v0,))
    lat = spacetime_lattice()
    lifted = traces.lift_T(one, beta, lat)
    at_zero = lifted.to_samples()[:, 0]
    assert np.max(np.abs(at_zero - v0)) < 1e-11 * np.max(np.abs(v0))

    v1 = spectra.random_field(slat, 12, band=10).to_samples()
    pair = traces.CauchyData(lattice=slat, components=(np.zeros_like(v1), v1))
    tr = traces.lift_trace(pair, beta, 2)
    assert np.max(np.abs(tr.components[0])) < 1e-12 * np.max(np.abs(v1))
    assert np.max(np.abs(tr.components[1] - v1)) < 1e-11 * np.max(np.abs(v1))


@pytest.mark.parametrize("r", [1, 2, 3])
def test_trace_of_lift_identity(r):
    slat = spatial_lattice(64)
    beta = traces.default_cutoff()
    worst = 0.0
    for seed in range(20):
        v = traces.CauchyData.random(slat, r, seed=100 * r + seed)
        back = traces.lift_trace(v, beta, r)
        for k in range(r):
            scale = np.max(np.abs(v.components[k]))
            err = np.max(np.abs(back.components[k] - v.components[k])) / scale
            worst = max(worst, err)
    assert worst <= 1e-9


def test_lift_is_linear():
    slat = spatial_lattice(32)
    beta = traces.default_cutoff()
    lat = spacetime_lattice(32, 64)
    v = traces.CauchyData.random(slat, 2, seed=1)
    w = traces.CauchyData.random(slat, 2, seed=2)
    a, b = 1.7 - 0.3j, -0.4 + 2.1j
    comb = traces.CauchyData(
        lattice=slat,
        components=tuple(
            a * vc + b * wc for vc, wc in zip(v.components, w.components)
        ),
    )
    lhs = traces.lift_T(comb, beta, lat).coeffs
    rhs = a * traces.lift_T(v, beta, lat).coeffs + b * traces.lift_T(w, beta, lat).coeffs
    assert np.max(np.abs(lhs - rhs)) < 1e-12 * np.max(np.abs(rhs))


def test_cross_component_leakage():
    # the k-th trace of the lift depends only on v_k
    slat = spatial_lattice(32)
    beta = traces.default_cutoff()
    for j in range(3):
        comps = [np.zeros(slat.sizes, dtype=complex) for _ in range(3)]
        comps[j] = spectra.random_field(slat, 40 + j, band=8).to_samples()
        v = traces.CauchyData(lattice=slat, components=tuple(comps))
        back = traces.lift_trace(v, beta, 3)
        for k in range(3):
            if k == j:
                continue
            leak = np.max(np.abs(back.components[k]))
            assert leak <= 1e-9 * np.max(np.abs(comps[j]))


def test_sampled_lift_consistent_with_closed_form():
    # resolvable regime: tiny spatial band, fine time grid; the spectral trace
    # of the sampled lift approaches the closed-form identity
    slat = spectra.Lattice(sizes=(8,), periods=(TWO_PI,))
    lat = spectra.Lattice(sizes=(8, 4096), periods=(TWO_PI, 4.0))
    beta = traces.default_cutoff()
    v = traces.CauchyData.random(slat, 2, seed=3, band=2)
    lifted = traces.lift_T(v, beta, lat)
    got = traces.trace_R(lifted, 2)
    for k in range(2):
        scale = np.max(np.abs(v.components[k]))
        err = np.max(np.abs(got.components[k] - v.components[k])) / scale
        assert err < 5e-4, f"component {k}: {err:.2e}"


def test_lift_wrap_guard():
    slat = spatial_lattice(16)
    beta = traces.CutoffProfile(flat_radius=0.5, support_radius=1.2)
    lat = spectra.Lattice(sizes=(16, 64), periods=(TWO_PI, 2.0))
    v = traces.CauchyData.random(slat, 1, seed=0)
    with pytest.raises(CutoffWrapsAround):
        traces.lift_T(v, beta, lat)


def test_strip_restriction_identity_and_zero():
    slat = spatial_lattice(32)
    beta = traces.default_cutoff()
    lat = spacetime_lattice(32, 128)
    v = traces.CauchyData.random(slat, 2, seed=9)
    back = traces.lift_trace(v, beta, 2)  # strip trace through the extension
    for k in range(2):
        scale = np.max(np.abs(v.components[k]))
        assert np.max(np.abs(back.components[k] - v.components[k])) <= 1e-9 * scale
    zero = traces.CauchyData(
        lattice=slat, components=(np.zeros(slat.sizes, dtype=complex),)
    )
    # the lift of zero data, restricted to the strip 0 <= t < 1
    sz = traces.lift_T(zero, beta, lat).to_samples()[..., lat.grid_axis(1) < 1.0]
    assert np.max(np.abs(sz)) == 0.0


def test_cutoff_moments_against_spectral_oracle():
    beta = traces.default_cutoff()
    # oracle: fine periodic grid, FFT derivative, trapezoid rule
    N = 1 << 15
    L = 4.0
    t = (np.arange(N) - N // 2) * (L / N)
    for m in (0, 1, 2, 3):
        for k in (0, 1, 2):
            c1, c2 = traces.cutoff_moments(beta, m, k)
            prof = beta(t) * t**k
            ph = np.fft.fft(prof)
            xi = 2 * np.pi * np.fft.fftfreq(N, d=L / N)
            dm = np.fft.ifft((1j * xi) ** m * ph).real
            c1_oracle = float(np.sum(dm**2) * (L / N))
            c2_oracle = float(np.sum(prof**2) * (L / N))
            assert abs(c2 - c2_oracle) <= 1e-8 * max(1.0, c2_oracle)
            assert abs(c1 - c1_oracle) <= 1e-8 * max(1.0, c1_oracle), (
                f"m={m} k={k}: {c1} vs {c1_oracle}"
            )


def test_lift_bounded_by_moment_constant():
    # empirical ratio ||T v||_(2m,m) / ||v|| stays below the derived constant
    m = 1
    r = 2
    slat = spectra.Lattice(sizes=(16,), periods=(8 * np.pi,))
    lat = spectra.Lattice(sizes=(16, 2048), periods=(8 * np.pi, 4.0))
    beta = traces.default_cutoff()
    bound = traces.lift_bound_constant(beta, m, r, n_total=2)
    # lattice multiplier sums approximate integral norms after the Riemann
    # measure: the time-step factor converts the sample-normalized ratio
    dt_meas = math.sqrt(lat.periods[1] / lat.sizes[1])
    worst = 0.0
    for seed in range(50):
        v = traces.CauchyData.random(slat, r, seed=seed, band=4)
        lifted = traces.lift_T(v, beta, lat)
        num = traces.equivalent_2m_norm(lifted, m) * dt_meas
        den = traces.cauchy_norm(v, 2 * m)
        worst = max(worst, num / den)
    assert worst <= bound * 1.05, f"ratio {worst} vs bound {bound}"


def _cauchy_norm_by_components(v, s, phi):
    """Reference: the Cauchy-data norm summed component by component from one FFT each."""
    mesh = np.meshgrid(*(TWO_PI * np.fft.fftfreq(n, d=L / n)
                         for n, L in zip(v.lattice.sizes, v.lattice.periods)), indexing="ij")
    bracket = 1.0 + sum(f**2 for f in mesh)
    total = 0.0
    for k, comp in enumerate(v.components):
        mu = bracket ** ((s - 2 * k - 1) / 2.0) * phi(np.sqrt(bracket))
        total += float(np.sum((mu * np.abs(np.fft.fftn(comp, norm="ortho"))) ** 2))
    return math.sqrt(total)


@pytest.mark.parametrize("phi", [constant(), log_power(-1.0)], ids=["constant", "log-power"])
@pytest.mark.parametrize("lattice", [
    spectra.Lattice(sizes=(64,), periods=(TWO_PI,)),
    spectra.Lattice(sizes=(16, 8), periods=(TWO_PI, 3.0)),
], ids=["interval", "strip"])
def test_cauchy_norm_matches_the_per_component_sum(lattice, phi):
    v = traces.CauchyData.random(lattice, 3, seed=5)
    for s in (1.0, 4.2):
        ref = _cauchy_norm_by_components(v, s, phi)
        assert traces.cauchy_norm(v, s, phi) == pytest.approx(ref, rel=1e-14, abs=0.0)


# -- the compatibility projector ----------------------------------------------------


def test_projector_zero_data():
    geom = pb.IntervalGeometry(nx=64)
    p = pb.heat_problem(geom)
    nt = 256
    f = np.zeros((geom.nx + 1, nt + 1), dtype=complex)
    g = np.zeros((2, nt + 1), dtype=complex)
    h = np.zeros(geom.nx + 1, dtype=complex)
    f2, g2, h2 = traces.lemma2_projector((f, g, h), p, r=1)
    assert np.all(g2 == 0) and np.all(f2 == 0) and np.all(h2 == 0)


def test_projector_fixes_compatible_and_corrects_offset():
    geom = pb.IntervalGeometry(nx=64)
    p = pb.heat_problem(geom)
    nt = 256
    # u = 1: compatible data (f, g, h) = (0, 1, 1)
    f = np.zeros((geom.nx + 1, nt + 1), dtype=complex)
    g = np.ones((2, nt + 1), dtype=complex)
    h = np.ones(geom.nx + 1, dtype=complex)
    _, g_fixed, _ = traces.lemma2_projector((f, g, h), p, r=1)
    assert np.max(np.abs(g_fixed - g)) < 1e-9

    g_bad = g + 0.7
    _, g_corr, _ = traces.lemma2_projector((f, g_bad, h), p, r=1)
    rep = pb.check_compatibility(p, f, g_corr, h, s=3.0)
    assert rep.passed
    # the cutoff vanishes at its support radius, so the final level is untouched
    assert np.max(np.abs(g_corr[:, -1] - g_bad[:, -1])) < 1e-12


def test_projector_idempotent():
    geom = pb.IntervalGeometry(nx=64)
    p = pb.heat_problem(geom)
    nt = 512
    rng = np.random.default_rng(4)
    f = np.zeros((geom.nx + 1, nt + 1), dtype=complex)
    h = np.cos(np.pi * geom.x_axis()).astype(complex)
    tgrid = np.arange(nt + 1) * (p.tau / nt)
    g = np.stack([np.exp(1j * 3 * tgrid), 0.5 * np.cos(2 * tgrid)]).astype(complex)
    once = traces.lemma2_projector((f, g, h), p, r=2)
    twice = traces.lemma2_projector(once, p, r=2)
    scale = max(np.max(np.abs(once[1])), 1.0)
    assert np.max(np.abs(twice[1] - once[1])) <= 1e-9 * scale


def test_projector_range_is_compat_pass_set():
    # the Dirichlet problem, and a first-order boundary on either side of its jump at s = 9/2
    for boundary, s, r in (("dirichlet", 4.0, 2), ("neumann", 3.0, 1), ("neumann", 4.6, 2)):
        geom = pb.IntervalGeometry(nx=64)
        p = pb.heat_problem(geom, boundary=boundary)
        assert r == pb.compat_count(s, p.order_l)
        nt = 512
        tgrid = np.arange(nt + 1) * (p.tau / nt)
        f = np.zeros((geom.nx + 1, nt + 1), dtype=complex)
        h = np.sin(np.pi * geom.x_axis()).astype(complex) + 2.0
        g = np.stack([1.0 + 0.3 * tgrid, np.cos(tgrid)]).astype(complex)
        rep_before = pb.check_compatibility(p, f, g, h, s=s)
        assert not rep_before.passed
        corrected = traces.lemma2_projector((f, g, h), p, r=r)
        rep_after = pb.check_compatibility(p, corrected[0], corrected[1], corrected[2], s=s)
        assert rep_after.passed, (boundary, s, rep_after.residuals)


def _interval_lift(w_comps, beta, tgrid):
    """Reference: the former interval branch of the lateral lift, one sheet at a time."""
    out = np.zeros((2, len(tgrid)), dtype=complex)
    for sheet in range(2):
        poly = np.zeros(len(tgrid), dtype=complex)
        tpow = np.ones_like(tgrid)
        for k, w in enumerate(w_comps):
            poly += w[sheet] * tpow / math.factorial(k)
            tpow = tpow * tgrid
        out[sheet] = beta(tgrid) * poly
    return out


@pytest.mark.parametrize("r", [1, 2])
def test_projector_interval_lift_matches_the_former_branch_bitwise(r):
    # the interval is the strip path with one frequency, xi = 0 and <xi>^2 = 1
    geom = pb.IntervalGeometry(nx=64)
    p = pb.heat_problem(geom)
    nt = 512
    tgrid = np.arange(nt + 1) * (p.tau / nt)
    f = np.zeros((geom.nx + 1, nt + 1), dtype=complex)
    h = np.sin(np.pi * geom.x_axis()).astype(complex) + 2.0
    g = np.stack([1.0 + 0.3 * tgrid, np.cos(tgrid)]).astype(complex)
    _, g_star, _ = traces.lemma2_projector((f, g, h), p, r=r)
    _, w_comps = pb.compatibility_mismatch(p, f, g, h, r)
    ref = g + _interval_lift(w_comps, traces.default_cutoff(), tgrid)
    assert g_star.tobytes() == ref.tobytes()


@pytest.mark.parametrize("m, ny", [(0, 8), (1, 8), (2, 16), (3, 16)])
def test_projector_on_the_strip_corrects_y_dependent_mismatches(m, ny):
    # the trace stencils reach past the flat part of beta(<xi>^2 t) at every
    # xi != 0 unless the scale is capped; with the cap each corrected datum
    # passes and a second application leaves it in place
    geom = pb.PeriodicStripGeometry(nx=16, ny=ny)
    p = pb.heat_problem(geom)
    nt = 512
    tgrid = np.arange(nt + 1) * (p.tau / nt)
    y = geom.y_axis()
    f = np.zeros((geom.nx + 1, ny, nt + 1), dtype=complex)
    h = np.ones((geom.nx + 1, ny), dtype=complex)
    offset = 0.7 * np.cos(TWO_PI * m * y / geom.period_y)
    g = np.ones((2, ny, nt + 1), dtype=complex) + offset[None, :, None] * (1.0 + 0.3 * tgrid)
    once = traces.lemma2_projector((f, g, h), p, r=2)
    rep = pb.check_compatibility(p, *once, s=4.0)
    assert rep.count == 2 and rep.passed, rep.residuals
    twice = traces.lemma2_projector(once, p, r=2)
    scale = max(np.max(np.abs(once[1])), 1.0)
    assert np.max(np.abs(twice[1] - once[1])) <= 1e-9 * scale


def test_projector_rejects_g_of_the_wrong_shape():
    geom = pb.PeriodicStripGeometry(nx=16, ny=8)
    p = pb.heat_problem(geom)
    f = np.zeros((geom.nx + 1, 8, 65), dtype=complex)
    h = np.ones((geom.nx + 1, 8), dtype=complex)
    with pytest.raises(DimensionMismatch):
        traces.lemma2_projector((f, np.ones((2, 4, 65)), h), p, r=1)


def test_projector_takes_one_datum():
    geom = pb.IntervalGeometry(nx=16)
    p = pb.heat_problem(geom)
    f, g, h = np.zeros((3, 17, 65)), np.ones((3, 2, 65)), np.ones((3, 17))
    with pytest.raises(DimensionMismatch, match="one datum"):
        traces.lemma2_projector((f, g, h), p, r=1)


def test_cauchy_io_round_trip(tmp_path):
    slat = spatial_lattice(16)
    v = traces.CauchyData.random(slat, 3, seed=2)
    path = tmp_path / "cauchy.dat"
    traces.save_cauchy(v, path)
    w = traces.load_cauchy(path)
    assert w.r == 3 and w.lattice == slat
    for a, b in zip(v.components, w.components):
        assert np.max(np.abs(a - b)) < 1e-12


@pytest.mark.parametrize("change, error, message", [
    ({"r": None}, InvalidConfig, r"missing keys \['r'\]"),
    ({"r": 0}, InvalidConfig, "json r: bad value 0"),
    ({"sizes": "16"}, InvalidConfig, "json sizes: bad value '16'"),
    ({"unit": "m"}, UnknownConfigKey, r"unknown keys \['unit'\]"),
], ids=["no-r", "r-zero", "sizes-string", "unknown-key"])
def test_load_cauchy_checks_its_header(tmp_path, change, error, message):
    # None drops the key
    path = tmp_path / "cauchy.dat"
    traces.save_cauchy(traces.CauchyData.random(spatial_lattice(16), 2, seed=2), path)
    header_path = tmp_path / "cauchy.dat.json"
    header = {**json.loads(header_path.read_text()), **change}
    header_path.write_text(json.dumps({k: v for k, v in header.items() if v is not None}))
    with pytest.raises(error, match=message):
        traces.load_cauchy(path)


def test_load_cauchy_rejects_a_component_on_another_lattice(tmp_path):
    path = tmp_path / "cauchy.dat"
    traces.save_cauchy(traces.CauchyData.random(spatial_lattice(16), 2, seed=2), path)
    header_path = tmp_path / "cauchy.dat.1.json"
    header = json.loads(header_path.read_text())
    header_path.write_text(json.dumps({**header, "periods": [2 * p for p in header["periods"]]}))
    with pytest.raises(DimensionMismatch, match="component 1 lies on"):
        traces.load_cauchy(path)


def test_save_cauchy_rejects_an_unknown_format_before_writing(tmp_path):
    with pytest.raises(ValueError, match="unknown format 'txt'"):
        traces.save_cauchy(traces.CauchyData.random(spatial_lattice(16), 2, seed=2),
                           tmp_path / "cauchy.dat", fmt="txt")
    assert not list(tmp_path.iterdir())


def test_strip_trace_through_extension():
    # the strip trace goes through the lifted extension; on a resolvable
    # band-limited case the sampled path approaches the data
    slat = spectra.Lattice(sizes=(8,), periods=(TWO_PI,))
    lat = spectra.Lattice(sizes=(8, 4096), periods=(TWO_PI, 4.0))
    beta = traces.default_cutoff()
    v = traces.CauchyData.random(slat, 2, seed=21, band=2)
    got = traces.trace_R(traces.lift_T(v, beta, lat), 2)
    for k in range(2):
        scale = np.max(np.abs(v.components[k]))
        assert np.max(np.abs(got.components[k] - v.components[k])) / scale < 5e-4
