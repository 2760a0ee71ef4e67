import numpy as np
import pytest
import scipy.linalg as sla

from hoermander_kit import parabolic as pb, params, spectra, weights
from hoermander_kit.errors import DimensionMismatch, NoConvergence

TWO_PI = 2.0 * np.pi


def lattice2(n=32):
    return spectra.Lattice(sizes=(n, n), periods=(TWO_PI, TWO_PI))


def test_lattice_validation():
    with pytest.raises(ValueError):
        spectra.Lattice(sizes=(12,), periods=(1.0,))
    with pytest.raises(ValueError):
        spectra.Lattice(sizes=(8,), periods=(-1.0,))


def test_parseval_round_trip():
    lat = lattice2()
    rng = np.random.default_rng(0)
    samples = rng.standard_normal(lat.sizes) + 1j * rng.standard_normal(lat.sizes)
    f = spectra.SpectralField.from_samples(lat, samples)
    assert np.linalg.norm(f.coeffs) == pytest.approx(np.linalg.norm(samples), rel=1e-12)
    back = f.to_samples()
    assert np.max(np.abs(back - samples)) < 1e-12 * np.max(np.abs(samples))


def test_single_mode_norm_parabolic():
    lat = lattice2()
    idx = weights.parabolic_split(2.0, dimension=2)
    u = spectra.SpectralField.single_mode(lat, (3, 5))
    assert spectra.norm(idx, u) == pytest.approx(15.0, rel=1e-13)


def test_zero_field_norm():
    lat = lattice2()
    idx = weights.parabolic_split(1.5, params.log_power(1.0), dimension=2)
    u = spectra.SpectralField(lat, np.zeros(lat.sizes, dtype=complex))
    assert spectra.norm(idx, u) == 0.0


def test_two_mode_pythagoras():
    lat = lattice2()
    idx = weights.isotropic(1.0, dimension=2)
    # weights mu = 1+|xi|^2 powers: pick modes with mu = 2 and mu = 3
    # |xi|^2 = 3 -> mu = 2: not integer mode; instead scale coefficients
    u1 = spectra.SpectralField.single_mode(lat, (1, 0))  # mu = sqrt(2)
    u2 = spectra.SpectralField.single_mode(lat, (0, 2))  # mu = sqrt(5)
    a = 2.0 / np.sqrt(2.0)
    b = 3.0 / np.sqrt(5.0)
    u = a * u1 + b * u2
    assert spectra.norm(idx, u) == pytest.approx(np.sqrt(13.0), rel=1e-13)


def test_inner_product_contracts():
    lat = lattice2()
    idx = weights.parabolic_split(1.0, params.log_power(0.5), dimension=2)
    u = spectra.SpectralField.single_mode(lat, (2, 1), amplitude=1.5 + 0.5j)
    v = spectra.SpectralField.single_mode(lat, (-3, 4), amplitude=2.0)
    assert spectra.inner_product(idx, u, v) == pytest.approx(0.0)
    same = spectra.inner_product(idx, u, u)
    assert same.real == pytest.approx(spectra.norm(idx, u) ** 2, rel=1e-12)
    assert abs(same.imag) < 1e-12
    w = spectra.SpectralField.single_mode(lat, (2, 1), amplitude=-0.5 + 2.0j)
    mu0 = weights.eval_weight(idx, [lat.freq_axis(0)[2], lat.freq_axis(1)[1]])
    expected = mu0**2 * (1.5 + 0.5j) * np.conj(-0.5 + 2.0j)
    assert spectra.inner_product(idx, u, w) == pytest.approx(expected, rel=1e-12)


def test_norm_squared_matches_inner_product_random():
    lat = lattice2(16)
    idx = weights.parabolic_split(0.7, params.log_power(-1.0), dimension=2)
    u = spectra.random_field(lat, 5)
    ip = spectra.inner_product(idx, u, u)
    assert ip.real == pytest.approx(spectra.norm(idx, u) ** 2, rel=1e-12)


def test_embedding_constants():
    lat = lattice2()
    idx2 = weights.isotropic(2.0, dimension=2)
    idx1 = weights.isotropic(1.0, dimension=2)
    assert spectra.embedding_constant(idx2, idx2, lat) == pytest.approx(1.0)
    assert spectra.embedding_constant(idx2, idx1, lat) == pytest.approx(1.0)
    # grid-max oracle for a log factor target
    idx3 = weights.isotropic(3.0, dimension=2)
    idx_log = weights.isotropic(2.0, params.log_power(1.0), dimension=2)
    mu3 = lat.weight(idx3)
    mulog = lat.weight(idx_log)
    assert spectra.embedding_constant(idx3, idx_log, lat) == pytest.approx(
        float(np.max(mulog / mu3)), rel=1e-13
    )


def test_norm_monotone_under_embedding():
    lat = lattice2(16)
    idx_from = weights.parabolic_split(2.0, params.log_power(0.5), dimension=2)
    idx_to = weights.parabolic_split(0.5, params.log_power(-0.5), dimension=2)
    const = spectra.embedding_constant(idx_from, idx_to, lat)
    for seed in range(100):
        u = spectra.random_field(lat, seed)
        assert spectra.norm(idx_to, u) <= const * spectra.norm(idx_from, u) * (1 + 1e-12)


def test_quotient_zero_data():
    lat = lattice2(8)
    m = np.zeros(lat.sizes, dtype=bool)
    m[:4, :] = True
    mask = spectra.SubdomainMask(lat, m)
    idx = weights.isotropic(1.0, dimension=2)
    assert spectra.quotient_norm(idx, np.zeros(mask.npoints), mask) == 0.0


def test_quotient_unweighted_is_plain_l2():
    lat = lattice2(8)
    rng = np.random.default_rng(2)
    m = rng.random(lat.sizes) < 0.5
    mask = spectra.SubdomainMask(lat, m)
    idx = weights.isotropic(0.0, dimension=2)
    d = rng.standard_normal(mask.npoints) + 1j * rng.standard_normal(mask.npoints)
    val = spectra.quotient_norm(idx, d, mask)
    assert val == pytest.approx(np.linalg.norm(d), rel=1e-10)
    assert spectra.quotient_norm_dense(idx, d, mask) == pytest.approx(
        np.linalg.norm(d), rel=1e-10
    )


def test_quotient_single_point_reproducing_kernel():
    lat = spectra.Lattice(sizes=(16,), periods=(TWO_PI,))
    idx = weights.isotropic(2.0, dimension=1)
    m = np.zeros(16, dtype=bool)
    m[5] = True
    mask = spectra.SubdomainMask(lat, m)
    val = spectra.quotient_norm(idx, np.array([1.0 + 0j]), mask)
    mu = lat.weight(idx)
    closed = float(np.sum(mu**-2.0) / 16) ** -0.5
    assert val == pytest.approx(closed, rel=1e-12)


def test_quotient_vs_dense_oracle_random_masks():
    # 50 random masks/data on lattices <= 256 points, CG vs dense to 1e-8
    rng = np.random.default_rng(7)
    lat = lattice2(16)  # 256 points
    idx = weights.parabolic_split(1.5, params.log_power(0.5), dimension=2)
    for _ in range(50):
        m = rng.random(lat.sizes) < rng.uniform(0.2, 0.7)
        if m.sum() in (0, lat.npoints):
            continue
        mask = spectra.SubdomainMask(lat, m)
        d = rng.standard_normal(mask.npoints) + 1j * rng.standard_normal(mask.npoints)
        cg = spectra.quotient_norm(idx, d, mask, tol=1e-10)
        dense = spectra.quotient_norm_dense(idx, d, mask)
        assert abs(cg - dense) <= 1e-8 * dense


def test_quotient_below_explicit_extensions():
    lat = lattice2(16)
    idx = weights.parabolic_split(2.0, params.log_power(1.0), dimension=2)
    m = np.zeros(lat.sizes, dtype=bool)
    m[:9, :9] = True
    mask = spectra.SubdomainMask(lat, m)
    base = spectra.random_field(lat, 3, band=3)
    d = base.to_samples()[m]
    q = spectra.quotient_norm(idx, d, mask, tol=1e-8)
    # the band-limited original is one extension
    assert q <= spectra.norm(idx, base) * (1 + 1e-8)
    # zero-fill is another
    zf = np.zeros(lat.sizes, dtype=complex)
    zf[m] = d
    assert q <= spectra.norm(idx, spectra.SpectralField.from_samples(lat, zf)) * (1 + 1e-8)
    # smooth blend of the two
    blend = 0.5 * zf + 0.5 * base.to_samples()
    blend[m] = d
    assert q <= spectra.norm(idx, spectra.SpectralField.from_samples(lat, blend)) * (1 + 1e-8)


def test_quotient_direct_matches_dense_stiff():
    rng = np.random.default_rng(11)
    lat = lattice2(8)
    for s in (-1.5, 0.0, 2.0, 4.6):
        idx = weights.parabolic_split(s, params.log_power(1.0), dimension=2)
        m = rng.random(lat.sizes) < 0.45
        mask = spectra.SubdomainMask(lat, m)
        d = rng.standard_normal(mask.npoints) + 1j * rng.standard_normal(mask.npoints)
        dv = spectra.quotient_norm_batch(idx, [d], mask)[0]
        dn = spectra.quotient_norm_dense(idx, d, mask)
        assert dv == pytest.approx(dn, rel=1e-9)


def _economic_qr_values(sizes, mu, mask, data):
    """Reference: squared least-norm values from the complex economic QR of B*."""
    npts = int(np.prod(sizes))
    pts = np.argwhere(mask)
    mesh = np.meshgrid(*[np.fft.fftfreq(n, d=1.0 / n) for n in sizes], indexing="ij")
    phase = sum(np.outer(mesh[d].reshape(-1), pts[:, d] * (TWO_PI / sizes[d]))
                for d in range(len(sizes)))
    bstar = np.exp(-1j * phase) * (mu.reshape(-1) ** -1.0 / np.sqrt(npts))[:, None]
    _, r = sla.qr(bstar, mode="economic")
    z = sla.solve_triangular(r.conj().T, data, lower=True)
    return np.sum(np.abs(z) ** 2, axis=0)


@pytest.mark.parametrize(
    "geom", [pb.IntervalGeometry(nx=16), pb.PeriodicStripGeometry(nx=16, ny=4, period_y=32.0)],
    ids=["interval-32", "strip-32x4"],
)
def test_folded_qr_matches_complex_economic_qr(geom, monkeypatch):
    # the strip's y axis is full, so its four fibers are solved one by one, and
    # its long y period keeps every fiber's spread past the Cholesky cap; every
    # fiber lattice has self-paired (zero and Nyquist) modes
    solved = []

    class Recording(spectra._FiberSolver):
        def __init__(self, mu, mask, diff=None):
            super().__init__(mu, mask, diff)
            self.mu = mu
            self.mask = mask

        def solve_values(self, data):
            values = super().solve_values(data)
            solved.append((self, data, values))
            return values

    monkeypatch.setattr(spectra, "_FiberSolver", Recording)
    mask = pb.omega_domain(geom, 1.0, 16)
    idx = weights.parabolic_split(4.6, params.log_power(1.0), dimension=mask.lattice.k)
    rng = np.random.default_rng(8)
    datas = [rng.standard_normal(mask.npoints) + 1j * rng.standard_normal(mask.npoints)
             for _ in range(3)]
    norms = spectra.quotient_norm_batch(idx, datas, mask)
    assert len(solved) == (1 if geom.spatial_dim == 1 else geom.ny)
    ref_sq = np.zeros(len(datas))
    for solver, data, values in solved:
        assert solver._mode == "qr"
        ref = _economic_qr_values(solver.mu.shape, solver.mu, solver.mask, data)
        assert np.max(np.abs(values - ref) / ref) <= 1e-10
        ref_sq += ref
    assert np.max(np.abs(norms**2 - ref_sq) / ref_sq) <= 1e-10


def test_quotient_direct_matches_dense_qr_branch():
    mask = pb.omega_domain(pb.IntervalGeometry(nx=16), 1.0, 16)
    lat = mask.lattice
    idx = weights.parabolic_split(4.6, params.log_power(1.0), dimension=2)
    assert spectra._FiberSolver(lat.weight(idx), mask.mask)._mode == "qr"
    rng = np.random.default_rng(12)
    for _ in range(3):
        d = rng.standard_normal(mask.npoints) + 1j * rng.standard_normal(mask.npoints)
        dv = spectra.quotient_norm_batch(idx, [d], mask)[0]
        dn = spectra.quotient_norm_dense(idx, d, mask)
        assert dv == pytest.approx(dn, rel=1e-9)


def test_folded_qr_factors_a_fortran_order_matrix(monkeypatch):
    # sla.qr(overwrite_a=True) factors in place only what LAPACK can take as
    # it is; a C-ordered matrix would be copied first
    received = []
    real_qr = sla.qr

    def recording_qr(a, *args, **kwargs):
        received.append((a.flags.f_contiguous, a.shape))
        return real_qr(a, *args, **kwargs)

    monkeypatch.setattr(sla, "qr", recording_qr)
    mask = pb.omega_domain(pb.IntervalGeometry(nx=16), 1.0, 16)
    idx = weights.parabolic_split(4.6, params.log_power(1.0), dimension=2)
    solver = spectra._FiberSolver(mask.lattice.weight(idx), mask.mask)
    assert solver._mode == "qr"
    assert received == [(True, (mask.lattice.npoints, mask.npoints))]


@pytest.mark.parametrize("decades", [9.0, 3.0], ids=["qr-branch", "chol-branch"])
def test_folded_qr_rejects_a_weight_that_is_not_even(decades):
    # a spread of up to 1e18 lies far past the Cholesky cap, up to 1e6 far below it
    rng = np.random.default_rng(1)
    mu = 10.0 ** rng.uniform(0.0, decades, size=(8, 8))
    mask = np.zeros((8, 8), dtype=bool)
    mask[:5, :5] = True
    with pytest.raises(RuntimeError, match="even"):
        spectra._FiberSolver(mu, mask)


def test_quotient_batch_fiber_decoupling_matches_cg():
    lat = spectra.Lattice(sizes=(16, 8, 16), periods=(2.0, 1.0, 2.0))
    m = np.zeros(lat.sizes, dtype=bool)
    m[:9, :, :9] = True
    mask = spectra.SubdomainMask(lat, m)
    idx = weights.parabolic_split(2.0, params.constant(), dimension=3)
    datas = [spectra.random_field(lat, 50 + i, band=2).to_samples()[m] for i in range(3)]
    batch = spectra.quotient_norm_batch(idx, datas, mask)
    for val, d in zip(batch, datas):
        assert val == pytest.approx(spectra.quotient_norm(idx, d, mask, tol=1e-10), rel=1e-8)


def test_quotient_no_convergence_raises():
    lat = lattice2(16)
    idx = weights.parabolic_split(4.6, params.constant(), dimension=2)
    m = np.zeros(lat.sizes, dtype=bool)
    m[:9, :9] = True
    mask = spectra.SubdomainMask(lat, m)
    d = np.ones(mask.npoints, dtype=complex)
    with pytest.raises(NoConvergence):
        spectra.quotient_norm(idx, d, mask, tol=1e-10, max_iter=5)


def test_mask_validation():
    lat = lattice2(8)
    with pytest.raises(ValueError):
        spectra.SubdomainMask(lat, np.ones(lat.sizes, dtype=bool))
    with pytest.raises(ValueError):
        spectra.SubdomainMask(lat, np.zeros(lat.sizes, dtype=bool))


def test_field_io_round_trip(tmp_path):
    lat = lattice2(8)
    f = spectra.random_field(lat, 9)
    for fmt in ("binary", "csv"):
        p = tmp_path / f"field_{fmt}.dat"
        spectra.save_field(f, p, fmt=fmt)
        g = spectra.load_field(p)
        assert g.lattice == lat
        assert np.allclose(g.coeffs, f.coeffs, atol=1e-12)


def test_dimension_mismatch_guards():
    lat = lattice2(8)
    idx3 = weights.parabolic_split(1.0, dimension=3)
    u = spectra.random_field(lat, 0)
    with pytest.raises(DimensionMismatch):
        spectra.norm(idx3, u)
    other = spectra.random_field(lattice2(16), 0)
    with pytest.raises(DimensionMismatch):
        spectra.inner_product(weights.isotropic(1.0, dimension=2), u, other)


def test_load_field_rejects_wrong_entry_count(tmp_path):
    f = spectra.random_field(lattice2(8), 9)
    p = tmp_path / "field.dat"
    spectra.save_field(f, p, fmt="binary")
    p.write_bytes(p.read_bytes()[:-16])  # one entry short
    with pytest.raises(DimensionMismatch, match=r"63 entries.*need 64"):
        spectra.load_field(p)
    p.write_bytes(p.read_bytes()[:-8])  # truncated inside an entry
    with pytest.raises(DimensionMismatch, match=r"62\.5 entries.*need 64"):
        spectra.load_field(p)

    q = tmp_path / "field.csv"
    spectra.save_field(f, q, fmt="csv")
    q.write_text(q.read_text() + "1.0,2.0\n")  # one extra row
    with pytest.raises(DimensionMismatch, match=r"65 entries.*need 64"):
        spectra.load_field(q)
