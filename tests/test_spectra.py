import json

import numpy as np
import pytest
import scipy.linalg as sla

from hoermander_kit import parabolic as pb, params, spectra, weights
from hoermander_kit.errors import (
    DimensionMismatch,
    InvalidConfig,
    NoConvergence,
    NonFiniteData,
    UnknownConfigKey,
)

from _oracle import quotient_norm_dense

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
    assert quotient_norm_dense(idx, d, mask) == pytest.approx(
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
        dense = quotient_norm_dense(idx, d, mask)
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
        dn = quotient_norm_dense(idx, d, mask)
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
    # the strip's y axis is full, so its fibers are solved apart: the four
    # fibers xi_y = 0, 1, -2, -1 have three distinct weights, and fibers with
    # equal weights share one solver and one solve; the long y period keeps every
    # fiber's spread past the Cholesky cap; every fiber lattice has self-paired
    # (zero and Nyquist) modes
    solved = []
    prepared = []  # the fiber data of the call, one column per fiber and trial
    real_parity_parts = spectra._parity_parts

    def recording_parity_parts(plan, gathered):
        v = np.empty((len(plan.pts), gathered.shape[-1]))
        for img, g in zip(plan.images, gathered):
            v[img] = g
        prepared.append(v[:, 0::2] + 1j * v[:, 1::2])
        return real_parity_parts(plan, gathered)

    class Recording(spectra._FiberSolver):
        def __init__(self, mu, mask):
            super().__init__(mu, mask)
            self.mu = mu
            self.mask = mask

        def solve_parts(self, parts, cols):
            values = super().solve_parts(parts, cols)
            solved.append((self, prepared[-1][:, cols[0::2] // 2], values))
            return values

    monkeypatch.setattr(spectra, "_parity_parts", recording_parity_parts)
    monkeypatch.setattr(spectra, "_FiberSolver", Recording)
    mask = pb.omega_domain(geom, 1.0, 16)
    idx = weights.parabolic_split(4.6, params.log_power(1.0), dimension=mask.lattice.k)
    rng = np.random.default_rng(8)
    datas = [rng.standard_normal(mask.npoints) + 1j * rng.standard_normal(mask.npoints)
             for _ in range(3)]
    norms = spectra.quotient_norm_batch(idx, datas, mask)
    assert len(solved) == (1 if geom.spatial_dim == 1 else 3)
    ref_sq = np.zeros(len(datas))
    for solver, data, values in solved:
        assert solver._mode == "qr"
        ref = _economic_qr_values(solver.mu.shape, solver.mu, solver.mask, data)
        assert np.max(np.abs(values - ref) / ref) <= 1e-10
        ref_sq += ref.reshape(-1, len(datas)).sum(axis=0)
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
        dn = quotient_norm_dense(idx, d, mask)
        assert dv == pytest.approx(dn, rel=1e-9)


def _solve_values(solver, data):
    """Squared quotient norms ||U^-T d||^2 of each column d of ``data`` (n x batch), as the
    engine reaches them: the parity parts of the data, then the solver's block solves."""
    parts = spectra._parity_parts(solver._plan, spectra._real_columns(data)[solver._plan.images])
    return solver.solve_parts(parts, np.arange(2 * data.shape[1]))


def _box(sizes, corner, extent):
    m = np.zeros(sizes, dtype=bool)
    m[tuple(slice(c, c + e) for c, e in zip(corner, extent))] = True
    return m


def _plus(n=16):
    # mirror symmetric about row 7 and column 7, with no point off both mirror
    # lines: the odd-odd parity block is empty
    m = np.zeros((n, n), dtype=bool)
    m[7, 4:11] = m[4:11, 7] = True
    return m


def _mirrored_in_x_only():
    # symmetric about x = 10; along y every row starts at y = 3 and has its own length
    m = np.zeros((32, 32), dtype=bool)
    for i in range(4, 17):
        m[i, 3 : 6 + abs(i - 10)] = True
    return m


_PARITY_MASKS = pytest.mark.parametrize(
    "mask, blocks",
    [
        (_box((64,), (3,), (17,)), 2),  # odd extent: a centre point
        (_box((64,), (3,), (16,)), 2),  # even extent: the mirror falls between points
        (_box((32, 32), (2, 5), (9, 10)), 4),
        (_box((32, 32), (0, 1), (10, 12)), 4),
        (_mirrored_in_x_only(), 2),
        (_box((32, 32), (5, 3), (1, 9)), 2),  # one row: nothing to split along x
        (_plus(32), 3),
        (np.random.default_rng(3).random((32, 32)) < 0.3, 1),
    ],
    ids=["1d-odd", "1d-even", "2d-odd-even", "2d-even-even", "mirrored-in-x-only", "one-row",
         "plus", "random"],
)


def _split_matches_dense(mask, blocks, s, mode):
    k = mask.ndim
    lat = spectra.Lattice(sizes=mask.shape, periods=(2.0,) * k)
    if k == 1:
        idx = weights.isotropic(s, params.log_power(1.0), dimension=1)
    else:
        idx = weights.parabolic_split(s, params.log_power(1.0), dimension=2)
    solver = spectra._FiberSolver(lat.weight(idx), mask)
    assert solver._mode == mode
    assert len(solver._factors) == blocks
    sub = spectra.SubdomainMask(lat, mask)
    rng = np.random.default_rng(13)
    datas = [rng.standard_normal(sub.npoints) + 1j * rng.standard_normal(sub.npoints)
             for _ in range(3)]
    for dv, d in zip(spectra.quotient_norm_batch(idx, datas, sub), datas):
        assert dv == pytest.approx(quotient_norm_dense(idx, d, sub), rel=1e-9)


@_PARITY_MASKS
def test_parity_split_matches_dense(mask, blocks):
    # the QR branch splits on every axis where the mask is its own mirror image
    # and on no other; each stiff case matches the dense oracle
    _split_matches_dense(mask, blocks, 4.6, "qr")


@_PARITY_MASKS
def test_parity_cholesky_matches_dense(mask, blocks):
    # mild weights: the Cholesky branch factors the same parity blocks
    _split_matches_dense(mask, blocks, 1.0, "chol")


class _FailingOnSecondBlock:
    """The engine's ``potrf`` binding, failing on its ``at``-th call since ``calls``
    was cleared as LAPACK fails: info > 0, the order of a leading minor that is
    not positive definite."""

    def __init__(self, at=2):
        self.at = at
        self.calls = []
        self.real_potrf = spectra._potrf

    def __call__(self, a, *args, **kwargs):
        self.calls.append(a.shape)
        if len(self.calls) == self.at:
            return a, 1
        return self.real_potrf(a, *args, **kwargs)


def test_cholesky_failure_on_one_block_sends_the_fiber_to_qr(monkeypatch):
    failing_on_second_block = _FailingOnSecondBlock()
    monkeypatch.setattr(spectra, "_potrf", failing_on_second_block)
    mask = _box((32, 32), (2, 5), (9, 10))
    lat = spectra.Lattice(sizes=mask.shape, periods=(2.0, 2.0))
    idx = weights.parabolic_split(1.0, params.log_power(1.0), dimension=2)
    solver = spectra._FiberSolver(lat.weight(idx), mask)
    calls = failing_on_second_block.calls
    assert len(calls) == 2 and solver._mode == "qr" and len(solver._factors) == 4
    sub = spectra.SubdomainMask(lat, mask)
    d = np.random.default_rng(14).standard_normal(sub.npoints) + 0j
    value = np.sqrt(_solve_values(solver, d[:, None])[0])
    assert value == pytest.approx(quotient_norm_dense(idx, d, sub), rel=1e-9)


def _plan_arrays(plan):
    """Every array a parity plan holds, also inside its lists and tuples."""
    arrays, todo = [], list(vars(plan).values())
    while todo:
        v = todo.pop()
        if isinstance(v, np.ndarray):
            arrays.append(v)
        elif isinstance(v, (list, tuple)):
            todo.extend(v)
    return arrays


def test_parity_plans_are_read_only_and_keyed_on_mask_bits(monkeypatch):
    cache = weights._GridCache(byte_cap=2**26)
    monkeypatch.setattr(spectra, "_PLAN_CACHE", cache)
    lat = spectra.Lattice(sizes=(32, 32), periods=(2.0, 2.0))
    idx = weights.parabolic_split(1.0, params.log_power(1.0), dimension=2)
    rng = np.random.default_rng(15)

    def check(m):
        sub = spectra.SubdomainMask(lat, m.copy())
        d = rng.standard_normal(sub.npoints) + 1j * rng.standard_normal(sub.npoints)
        value = spectra.quotient_norm_batch(idx, [d], spectra.SubdomainMask(lat, m))[0]
        assert value == pytest.approx(quotient_norm_dense(idx, d, sub), rel=1e-9)

    # two masks of one shape with different points
    check(_box((32, 32), (2, 5), (9, 10)))
    check(_box((32, 32), (4, 1), (7, 12)))
    assert len(cache) == 2
    plan = spectra._parity_plan(_box((32, 32), (2, 5), (9, 10)))
    assert len(cache) == 2  # a hit
    for a in _plan_arrays(plan):
        assert not a.flags.writeable
    for table in plan.roots[0][:3]:  # lead, G and the weight index
        with pytest.raises(ValueError):
            table[0, 0] = 0
    # one mask array mutated in place between calls
    m = _box((32, 32), (2, 5), (9, 10))
    check(m)
    m[2, 5] = False
    m[20, 20] = True
    check(m)
    assert len(cache) == 3


def test_parity_plan_cache_evicts_past_byte_cap(monkeypatch):
    masks = [_box((32, 32), (2, 5), (9, 10 + i)) for i in range(4)]
    sizes = [spectra._ParityPlan(m).nbytes for m in masks]
    cache = weights._GridCache(byte_cap=sizes[0] + sizes[1])
    monkeypatch.setattr(spectra, "_PLAN_CACHE", cache)
    first = spectra._parity_plan(masks[0])
    spectra._parity_plan(masks[1])
    assert len(cache) == 2 and cache.nbytes == sizes[0] + sizes[1]
    for m in masks[2:]:
        spectra._parity_plan(m)
        assert cache.nbytes <= cache.byte_cap
    assert len(cache) < 4
    assert spectra._parity_plan(masks[0]) is not first  # evicted, rebuilt


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)],
                         ids=["nan", "inf", "imag-inf"])
def test_quotient_norm_batch_rejects_non_finite_data(bad):
    mask = pb.omega_domain(pb.IntervalGeometry(nx=8), 1.0, 8)
    idx = weights.parabolic_split(2.0, params.constant(), dimension=2)
    good = np.ones(mask.npoints, dtype=complex)
    d = good.copy()
    d[5] = bad
    with pytest.raises(NonFiniteData):
        spectra.quotient_norm_batch(idx, [good, d], mask)
    with pytest.raises(ValueError):
        spectra.quotient_norm_batch(idx, [d], mask)


def test_plus_shaped_mask_drops_its_empty_parity_block():
    lat = spectra.Lattice(sizes=(16, 16), periods=(2.0, 2.0))
    mask = spectra.SubdomainMask(lat, _plus())
    assert len(spectra._parity_plan(mask.mask).columns) == 3
    # a mild weight (spread 1.2e4), so the dense oracle's least squares keeps 1e-12
    idx = weights.parabolic_split(1.0, params.log_power(1.0), dimension=2)
    d = np.random.default_rng(8).standard_normal(mask.npoints) + 0.5j
    dense = quotient_norm_dense(idx, d, mask)
    assert abs(spectra.quotient_norm_batch(idx, [d], mask)[0] - dense) <= 1e-12 * dense


def test_quotient_norm_batch_of_no_data_is_empty():
    mask = pb.omega_domain(pb.IntervalGeometry(nx=8), 1.0, 8)
    idx = weights.parabolic_split(2.0, params.constant(), dimension=2)
    out = spectra.quotient_norm_batch(idx, [], mask)
    assert out.shape == (0,) and out.dtype == np.float64


def _strip_sub_mask():
    """The strip's Omega mask without its full y axis: the mask of each of its fibers."""
    mask = pb.omega_domain(pb.PeriodicStripGeometry(nx=8, ny=4), 1.0, 8)
    assert spectra._full_axes(mask.mask) == [1]
    lat = mask.lattice
    return spectra.SubdomainMask(spectra.Lattice(sizes=(lat.sizes[0], lat.sizes[2]),
                                                 periods=(lat.periods[0], lat.periods[2])),
                                 np.ascontiguousarray(mask.mask[:, 0]))


def _random_mask():
    lat = spectra.Lattice(sizes=(16, 16), periods=(2.0, 2.0))
    return spectra.SubdomainMask(lat, np.random.default_rng(5).random((16, 16)) < 0.3)


@pytest.mark.parametrize(
    "make",
    [lambda: pb.omega_domain(pb.IntervalGeometry(nx=8), 1.0, 8),
     lambda: pb.lateral_domain(pb.IntervalGeometry(nx=8), 1.0, 8),
     lambda: pb.spatial_domain(pb.IntervalGeometry(nx=8)),
     _strip_sub_mask, _random_mask,
     lambda: spectra.SubdomainMask(spectra.Lattice(sizes=(16, 16), periods=(2.0, 2.0)), _plus())],
    ids=["interval-omega", "interval-lateral", "interval-spatial", "strip-sub-mask", "random",
         "plus"],
)
def test_parity_coords_are_orthonormal(make):
    mask = make()
    n = mask.npoints
    T = np.vstack(spectra.parity_coords(mask, np.eye(n)))
    assert T.shape == (n, n)
    assert np.max(np.abs(T.T @ T - np.eye(n))) <= 1e-15
    # a vector takes the coordinates of a one-column block, shaped as a vector
    d = np.random.default_rng(4).standard_normal(n) + 1j
    for c, block in zip(spectra.parity_coords(mask, d), spectra.parity_coords(mask, d[:, None])):
        assert c.shape == block.shape[:1] and np.array_equal(c, block[:, 0])
    with pytest.raises(DimensionMismatch):
        spectra.parity_coords(mask, d[1:])


@pytest.mark.parametrize(
    "make",
    [_random_mask,
     lambda: spectra.SubdomainMask(spectra.Lattice(sizes=(32, 32), periods=(2.0, 2.0)),
                                   _mirrored_in_x_only())],
    ids=["random", "mirrored-in-x-only"],
)
def test_parity_coords_and_quotient_gram_give_the_dense_quotient_norm(make):
    # mild weights; sum_b Re c_b^H K_b^-1 c_b is the squared quotient norm
    mask = make()
    idx = weights.parabolic_split(1.0, params.log_power(1.0), dimension=2)
    grams = spectra.quotient_gram(idx, mask)
    assert len(grams) == len(spectra._parity_plan(mask.mask).columns)
    rng = np.random.default_rng(6)
    for _ in range(3):
        d = rng.standard_normal(mask.npoints) + 1j * rng.standard_normal(mask.npoints)
        coords = spectra.parity_coords(mask, d)
        value = sum(np.real(np.conj(c) @ G @ c) for c, G in zip(coords, grams, strict=True))
        assert np.sqrt(value) == pytest.approx(quotient_norm_dense(idx, d, mask), rel=1e-9)


def test_folded_qr_factors_a_fortran_order_matrix(monkeypatch):
    # sla.qr(overwrite_a=True) factors in place only what LAPACK can take as
    # it is; a C-ordered matrix would be copied first.  The 17 x 17 box splits
    # on both axes into parity blocks of 9 x 9, 9 x 8, 8 x 9 and 8 x 8 points.
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
    assert all(f_contiguous for f_contiguous, _ in received)
    columns = [shape[1] for _, shape in received]
    assert columns == [81, 72, 72, 64]
    assert sum(columns) == mask.npoints


def _unreduced_fold(mu, mask, block):
    """Every mode's real and imaginary row of B* on the points, in the rows of block ``block``.

    B*[xi, p] = mu(xi)^-1 exp(-i xi . p) / sqrt(N); with T_b the block's rows of
    the parity basis, K_b = F^T F for F = [Re B*; Im B*] T_b^T (2N rows).
    """
    sizes = mask.shape
    pts = np.argwhere(mask)
    mesh = np.meshgrid(*[np.fft.fftfreq(n, d=1.0 / n) for n in sizes], indexing="ij")
    phase = sum(np.outer(mesh[d].reshape(-1), pts[:, d] * (TWO_PI / sizes[d]))
                for d in range(len(sizes)))
    bstar = np.exp(-1j * phase) * (mu.reshape(-1) ** -1.0 / np.sqrt(mu.size))[:, None]
    lat = spectra.Lattice(sizes=sizes, periods=(2.0,) * len(sizes))
    T = spectra.parity_coords(spectra.SubdomainMask(lat, mask), np.eye(len(pts)))[block]
    return np.vstack([bstar.real, bstar.imag]) @ T.T


def _interval_box(s=4.6):
    mask = pb.omega_domain(pb.IntervalGeometry(nx=16), 1.0, 16)
    idx = weights.parabolic_split(s, params.log_power(1.0), dimension=2)
    return mask.lattice.weight(idx), mask.mask


def _strip_fiber(s=4.6):
    # the fiber xi_y = 1 of the strip's Omega box; its y axis is full
    mask = pb.omega_domain(pb.PeriodicStripGeometry(nx=16, ny=4, period_y=32.0), 1.0, 16)
    idx = weights.parabolic_split(s, params.log_power(1.0), dimension=3)
    return mask.lattice.weight(idx)[:, 1], np.ascontiguousarray(mask.mask[:, 0])


def _on_32x32(mask, s=4.6):
    lat = spectra.Lattice(sizes=(32, 32), periods=(2.0, 2.0))
    return lat.weight(weights.parabolic_split(s, params.log_power(1.0), dimension=2)), mask


def _lateral_1d():
    mask = pb.lateral_domain(pb.IntervalGeometry(nx=16), 1.0, 16)
    idx = weights.parabolic_split(3.1, params.log_power(1.0), dimension=1)
    return mask.lattice.weight(idx), mask.mask


@pytest.mark.parametrize(
    "make",
    [_interval_box, _strip_fiber,
     lambda: _on_32x32(_mirrored_in_x_only()),
     lambda: _on_32x32(np.random.default_rng(3).random((32, 32)) < 0.3),
     _lateral_1d],
    ids=["interval-box", "strip-fiber", "mirrored-in-x-only", "random", "lateral-1d"],
)
def test_two_stage_qr_factor_matches_the_unreduced_fold(make):
    # only orthogonal transforms reduce the fold, so R^T R = K_b up to rounding
    mu, mask = make()
    factors = spectra._FiberSolver._factor_by_parity(mu, spectra._parity_plan(mask))
    assert len(factors) == len(spectra._parity_plan(mask).columns)
    for b, R in enumerate(factors):
        (ref,) = sla.qr(_unreduced_fold(mu, mask, b), mode="r")
        K = ref.T @ ref
        assert R.shape == (len(K), len(K)) and np.array_equal(R, np.triu(R))
        assert np.max(np.abs(R.T @ R - K)) <= 1e-13 * np.max(np.abs(K))


@pytest.mark.parametrize(
    "make, mode",
    [(lambda: _interval_box(2.0), "chol"), (lambda: _strip_fiber(2.0), "chol"),
     (_interval_box, "qr"), (_strip_fiber, "qr")],
    ids=["interval-box-chol", "strip-fiber-chol", "interval-box-qr", "strip-fiber-qr"],
)
def test_direct_lapack_calls_match_the_scipy_wrappers_bit_for_bit(make, mode):
    # the engine calls LAPACK's potrf and trtrs itself: scipy's cho_factor and
    # solve_triangular, kept here as the references, reach the same routines
    # with the same arguments, so factors and squared norms keep every bit
    mu, mask = make()
    plan = spectra._parity_plan(mask)
    solver = spectra._FiberSolver(mu, mask)
    assert solver._mode == mode
    if mode == "chol":
        refs = [sla.cho_factor(K.T, overwrite_a=True, check_finite=False)[0]
                for K in spectra._kernel_blocks(mu, plan)]
        for U, ref in zip(solver._factors, refs, strict=True):
            assert U.flags.f_contiguous and U.tobytes() == ref.tobytes()
    rng = np.random.default_rng(41)
    data = rng.standard_normal((len(plan.pts), 6)) + 1j * rng.standard_normal((len(plan.pts), 6))
    parts = spectra._parity_parts(plan, spectra._real_columns(data)[plan.images])
    kept = [part.copy() for part in parts]
    cols = np.array([2, 3, 8, 9, 10, 11])  # re and im of three data columns, as a group picks them
    sq = 0.0
    for U, part in zip(solver._factors, parts):
        z = sla.solve_triangular(U, part[cols].T, trans="T", check_finite=False)
        sq = sq + np.sum(z**2, axis=0)
    assert solver.solve_parts(parts, cols).tobytes() == (sq[0::2] + sq[1::2]).tobytes()
    # the solves run in place on the column gather, never on the shared data
    assert all(part.tobytes() == k.tobytes() for part, k in zip(parts, kept, strict=True))


def test_a_block_lapack_finds_not_positive_definite_sends_the_fiber_to_qr():
    # with the weight 1e163 everywhere (spread 1: the Cholesky branch) every
    # product of K's assembly underflows, so K_b = 0 and LAPACK's potrf
    # reports a leading minor that is not positive definite; the QR branch
    # factors F_b itself, whose entries are near 1e-164.  The quotient norm is
    # homogeneous, so data scaled by 1e-163 give the norm of the unit weight.
    mu, mask = _interval_box(2.0)
    c = 1e163
    scaled = spectra._FiberSolver(np.full(mu.shape, c), mask)
    assert scaled._mode == "qr" and len(scaled._factors) == len(spectra._parity_plan(mask).locs)
    unit = spectra._FiberSolver(np.ones(mu.shape), mask)
    assert unit._mode == "chol"
    d = np.random.default_rng(42).standard_normal((int(mask.sum()), 2)) + 0j
    assert _solve_values(scaled, d / c) == pytest.approx(_solve_values(unit, d), rel=1e-9)


def test_lapack_errors_surface_as_the_scipy_wrappers_raised_them(monkeypatch):
    mu, mask = _interval_box(2.0)
    solver = spectra._FiberSolver(mu, mask)
    d = np.ones((int(mask.sum()), 1), dtype=complex)
    # trtrs info > 0: a zero on the diagonal of a factor
    solver._factors[1][3, 3] = 0.0
    with pytest.raises(np.linalg.LinAlgError):
        _solve_values(solver, d)
    # potrf info < 0, an illegal argument, is an error, not a cue for the QR branch
    monkeypatch.setattr(spectra, "_potrf", lambda a, **kwargs: (a, -1))
    with pytest.raises(ValueError):
        spectra._FiberSolver(mu, mask)


def _long_double_blocks(mu, mask):
    """K_b = 2^-k D (sum_U chi_b(U) kern[p_r - m_U p_s]) D in long double (see _ParityPlan).

    kern(d) = sum_xi mu^-2 cos(xi . d) / N with each phase reduced mod 2 pi in
    integers first, so the Walsh sum's cancellation in the odd blocks costs
    long-double rounding only.
    """
    ld = np.longdouble
    plan = spectra._parity_plan(mask)
    m = np.indices(mask.shape).reshape(mask.ndim, -1)
    turns = sum((np.outer(m[j], m[j]) % n) / ld(n) for j, n in enumerate(mask.shape))
    w = mu.reshape(-1).astype(ld) ** -2.0
    kern = (w[:, None] * np.cos(4 * np.arccos(ld(0)) * turns)).sum(axis=0) / mask.size
    pts = np.argwhere(mask)
    diff = 0
    for j, n in enumerate(mask.shape):
        diff = diff * n + np.subtract.outer(pts[:, j], pts[:, j]) % n
    K = kern[diff]
    reps = plan.images[0]
    D = np.sqrt(ld(2)) ** np.count_nonzero(plan.twice_q[reps], axis=1)
    blocks = []
    for chi, loc in zip(plan.walsh, plan.locs):
        summed = sum(c * K[reps[:, None], img] for c, img in zip(chi, plan.images))
        blocks.append((summed * np.outer(D, D) / len(chi))[loc[:, None], loc])
    return blocks


@pytest.mark.parametrize(
    "make",
    [lambda: _interval_box(3.0), lambda: _interval_box(0.6), lambda: _strip_fiber(3.0),
     lambda: _on_32x32(_mirrored_in_x_only(), 3.0)],
    ids=["interval-box-s3", "interval-box-s0.6", "strip-fiber", "mirrored-in-x-only"],
)
def test_kernel_blocks_match_long_double(make):
    # each block comes from its own square root, so the odd blocks keep the
    # relative accuracy of the even ones: no sum over reflections cancels.
    # The reference sums N long-double terms of the kernel's scale, so it
    # resolves odd blocks of up to about 1e4 below it (s = 3 here); at s = 4.6
    # they lie 1e5 below, and the reference's own rounding reaches 1e-13 of them
    mu, mask = make()
    blocks = spectra._kernel_blocks(mu, spectra._parity_plan(mask))
    for K, ref in zip(blocks, _long_double_blocks(mu, mask), strict=True):
        assert K.flags.c_contiguous and np.array_equal(K, K.T)
        assert np.max(np.abs(K - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize(
    "mask",
    [np.random.default_rng(1).random((64,)) < 0.4,
     np.random.default_rng(2).random((16, 32)) < 0.4,
     np.random.default_rng(3).random((8, 4, 16)) < 0.4,
     _box((32,), (30,), (5,)) | _box((32,), (0,), (3,)),  # wraps around the lattice
     _box((32, 32), (2, 5), (9, 10)),
     _mirrored_in_x_only()],
    ids=["random-1d", "random-2d", "random-3d", "1d-wrapped", "2d-box", "mirrored-in-x-only"],
)
def test_kernel_blocks_match_the_unreduced_fold(mask):
    # K_b = F^T F for the unfolded square root: every mode's real and imaginary
    # row of B*, taken to the block by the parity basis
    k = mask.ndim
    lat = spectra.Lattice(sizes=mask.shape, periods=(2.0,) * k)
    mu = lat.weight(weights.isotropic(2.0, params.log_power(1.0), dimension=k))
    blocks = spectra._kernel_blocks(mu, spectra._parity_plan(mask))
    assert len(blocks) == len(spectra._parity_plan(mask).columns)
    for b, K in enumerate(blocks):
        F = _unreduced_fold(mu, mask, b)
        ref = F.T @ F
        assert np.array_equal(K, K.T)
        assert np.max(np.abs(K - ref)) <= 1e-13 * np.max(np.abs(ref))


def _four_index_blocks(mu, plan):
    """K_b gathered point by point from the (x, x', rho, rho') grid of the square roots."""
    blocks = []
    for lead, G, index, x, rho, *_ in plan.roots:
        A = spectra._weighted_roots(mu, G, index)
        pairs = (lead[:, None, :] * lead[None, :, :]).reshape(len(lead) ** 2, -1)
        grid = pairs @ (A @ A.transpose(0, 2, 1)).reshape(len(A), -1)
        grid = grid.reshape((len(lead),) * 2 + (len(G),) * 2)
        blocks.append(grid[x[:, None], x[None, :], rho[:, None], rho[None, :]])
    return blocks


def _interval_mask(domain, res):
    geom = pb.IntervalGeometry(nx=res // 2)
    mask = domain(geom) if domain is pb.spatial_domain else domain(geom, 1.0, res // 2)
    idx = (weights.parabolic_split(3.3, params.log_power(1.0), dimension=2) if mask.mask.ndim == 2
           else weights.isotropic(3.3, params.log_power(1.0), dimension=1))
    return mask.lattice.weight(idx), mask.mask


def _unit_weight(mask):
    lat = spectra.Lattice(sizes=mask.shape, periods=(2.0,) * mask.ndim)
    return lat.weight(weights.isotropic(2.0, params.log_power(1.0), dimension=mask.ndim)), mask


@pytest.mark.parametrize(
    "make, by_transpose",
    [(lambda: _interval_mask(pb.omega_domain, 32), True),
     (lambda: _interval_mask(pb.omega_domain, 64), True),
     (lambda: _interval_mask(pb.lateral_domain, 64), True),
     (lambda: _interval_mask(pb.spatial_domain, 64), True),
     (_strip_fiber, True),
     # no split axis: the one block is the list of points, the whole grid too
     (lambda: _unit_weight(np.random.default_rng(2).random((16, 32)) < 0.4), True),
     (lambda: _unit_weight(np.random.default_rng(3).random((8, 4, 16)) < 0.4), True),
     # rows of different lengths; mirrored in y only, the first split axis is not axis 0
     (lambda: _unit_weight(_mirrored_in_x_only()), False),
     (lambda: _unit_weight(np.ascontiguousarray(_mirrored_in_x_only().T)), False)],
    ids=["omega-32", "omega-64", "lateral-64", "spatial-64", "strip-fiber", "random-2d",
         "random-3d", "mirrored-in-x-only", "mirrored-in-y-only"],
)
def test_kernel_blocks_match_the_four_index_gather_bit_for_bit(make, by_transpose):
    mu, mask = make()
    plan = spectra._parity_plan(mask)
    # a block takes its points' rows of the (x, rho) grid only where it is not that grid
    assert [pos is None for *_, pos in plan.roots] == [by_transpose] * len(plan.roots)
    # bit for bit, so symmetric exactly where the gather is (the res-64 Omega box's
    # GEMM rounds some mirrored entries apart in the last bit, either way)
    blocks = spectra._kernel_blocks(mu, plan)
    for K, ref in zip(blocks, _four_index_blocks(mu, plan), strict=True):
        assert K.flags.c_contiguous and np.array_equal(K, ref)
    assert plan.nbytes == sum(a.nbytes for a in _plan_arrays(plan))  # pairs and pos counted


def test_stiff_qr_factors_the_reduced_rows(monkeypatch):
    # per mode of the first split axis (17 or 16 of them) the first stage leaves
    # one row per distinct coordinate on the other axis (9 or 8), not its 17 or
    # 16 modes: the final QR gets about half the rows of the unreduced fold
    received = []
    real_qr = sla.qr

    def recording_qr(a, *args, **kwargs):
        received.append(a.shape)
        return real_qr(a, *args, **kwargs)

    monkeypatch.setattr(sla, "qr", recording_qr)
    mu, mask = _interval_box()
    assert spectra._FiberSolver(mu, mask)._mode == "qr"
    assert [rows for rows, _ in received] == [153, 136, 144, 128]


def _jointly_even_weight():
    # mu = 1 + (xi_1 + xi_2)^2, the sum wrapped to the lattice: even in xi, but
    # not in xi_1 or xi_2 alone; its spread of about 3e22 is past the Cholesky cap
    m = np.fft.fftfreq(8, d=1.0 / 8)
    total = (m[:, None] + m[None, :] + 4) % 8 - 4
    mu = 1.0 + (1e5 * total) ** 2
    spectra._even_mirror_index(mu)
    return mu


@pytest.mark.parametrize(
    "weight",
    [
        # a spread of up to 1e18 lies far past the Cholesky cap, up to 1e6 far below it
        lambda: 10.0 ** np.random.default_rng(1).uniform(0.0, 9.0, size=(8, 8)),
        lambda: 10.0 ** np.random.default_rng(1).uniform(0.0, 3.0, size=(8, 8)),
        _jointly_even_weight,
    ],
    ids=["qr-branch", "chol-branch", "qr-jointly-even"],
)
def test_folded_qr_rejects_a_weight_that_is_not_even(weight):
    mu = weight()
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


def _padded_box_norms(idx, samples_list, mask):
    """Reference: the fiber split through a zero-padded lattice x batch array.

    The data are scattered into the whole lattice, transformed along the full
    axes and sliced fiber by fiber; a mask without a full axis is one solve.
    """
    lattice = mask.lattice
    data = np.column_stack([np.asarray(s, dtype=complex).reshape(-1) for s in samples_list])
    batch = data.shape[1]
    mu = lattice.weight(idx)
    full = spectra._full_axes(mask.mask)
    if not full:
        return np.sqrt(_solve_values(spectra._FiberSolver(mu, mask.mask), data))
    grids = np.zeros(lattice.sizes + (batch,), dtype=complex)
    grids[mask.mask] = data
    grids = np.fft.fftn(grids, axes=full, norm="ortho")
    slicer: list = [slice(None)] * lattice.k
    for ax in full:
        slicer[ax] = 0
    sub_mask = mask.mask[tuple(slicer)]
    groups: dict = {}
    for fiber_idx in np.ndindex(*(lattice.sizes[ax] for ax in full)):
        sl: list = [slice(None)] * lattice.k
        for ax, i in zip(full, fiber_idx):
            sl[ax] = i
        mu_sub = np.ascontiguousarray(mu[tuple(sl)])
        groups.setdefault(mu_sub.tobytes(), (mu_sub, []))[1].append(grids[tuple(sl)][sub_mask])
    values_sq = np.zeros(batch)
    for mu_sub, fiber_data in groups.values():
        sq = _solve_values(spectra._FiberSolver(mu_sub, sub_mask), np.hstack(fiber_data))
        values_sq += sq.reshape(len(fiber_data), batch).sum(axis=0)
    return np.sqrt(values_sq)


def _two_full_axes_box():
    # full along axes 0 and 2 (neither is the last axis of the fiber), a run on axis 1
    m = np.zeros((4, 16, 8), dtype=bool)
    m[:, 2:11, :] = True
    return spectra.SubdomainMask(spectra.Lattice(sizes=m.shape, periods=(1.0, 2.0, 1.0)), m)


def _random_times_full_axis():
    m = np.zeros((16, 8), dtype=bool)
    m[:] = (np.random.default_rng(21).random(16) < 0.5)[:, None]
    return spectra.SubdomainMask(spectra.Lattice(sizes=m.shape, periods=(2.0, 1.0)), m)


_STRIP = pb.PeriodicStripGeometry(nx=16, ny=4, period_y=32.0)


@pytest.mark.parametrize("s, mode", [(1.0, "chol"), (10.0, "qr")], ids=["mild", "stiff"])
@pytest.mark.parametrize("batch", [1, 7])
@pytest.mark.parametrize(
    "make_mask, n_full",
    [
        (lambda: pb.omega_domain(_STRIP, 1.0, 16), 1),
        (lambda: pb.lateral_domain(_STRIP, 1.0, 16), 1),
        (lambda: pb.spatial_domain(_STRIP), 1),
        (lambda: pb.omega_domain(pb.IntervalGeometry(nx=16), 1.0, 16), 0),
        (_two_full_axes_box, 2),
        (_random_times_full_axis, 1),
    ],
    ids=["strip-omega", "strip-lateral", "strip-spatial", "interval-omega", "3d-two-full",
         "random-times-full"],
)
def test_fiber_split_matches_padded_box_bitwise(make_mask, n_full, batch, s, mode, monkeypatch):
    # gathering each fiber straight from the data gives the bits of the
    # zero-padded split, with and without full axes, on both factor branches
    modes = []

    class Recording(spectra._FiberSolver):
        def __init__(self, mu, mask):
            super().__init__(mu, mask)
            modes.append(self._mode)

    monkeypatch.setattr(spectra, "_FiberSolver", Recording)
    mask = make_mask()
    assert len(spectra._full_axes(mask.mask)) == n_full
    k = mask.lattice.k
    idx = weights.parabolic_split(s, params.log_power(1.0), dimension=k)
    rng = np.random.default_rng(batch)
    datas = [rng.standard_normal(mask.npoints) + 1j * rng.standard_normal(mask.npoints)
             for _ in range(batch)]
    got = spectra.quotient_norm_batch(idx, datas, mask)
    assert mode in modes and (mode == "qr" or set(modes) == {"chol"})
    assert got.tobytes() == _padded_box_norms(idx, datas, mask).tobytes()


def _random_mask_2d():
    m = np.random.default_rng(4).random((16, 16)) < 0.4
    return spectra.SubdomainMask(spectra.Lattice(sizes=m.shape, periods=(2.0, 2.0)), m)


def _fiber_weights(idx, mask):
    """The bytes of each fiber's weight on ``mask``, as the engine groups fibers."""
    full = spectra._full_axes(mask.mask)
    mu = np.moveaxis(mask.lattice.weight(idx), full, range(len(full)))
    return {m.tobytes() for m in mu.reshape((-1,) + mu.shape[len(full):])}


_INTERVAL_64 = pb.IntervalGeometry(nx=32)


@pytest.mark.parametrize(
    "make_mask, groups",
    [
        (lambda: pb.omega_domain(_INTERVAL_64, 1.0, 32), 1),
        (lambda: pb.lateral_domain(_INTERVAL_64, 1.0, 32), 1),
        (lambda: pb.spatial_domain(_INTERVAL_64), 1),
        (lambda: pb.omega_domain(pb.PeriodicStripGeometry(nx=16, ny=8), 1.0, 16), 5),
        (_two_full_axes_box, 15),
        (_random_mask_2d, 1),
    ],
    ids=["interval-omega", "interval-lateral", "interval-spatial", "strip-omega", "3d-two-full",
         "random"],
)
def test_quotient_norm_batch_over_indices_matches_one_call_per_index(make_mask, groups,
                                                                   monkeypatch):
    # the data are prepared once for all indices, and each row keeps the bits of
    # its own single-index call: on the Cholesky branch (s = 1), the QR branch
    # (s = 4.6 and, stiff on every mask, s = 10), and for an index whose
    # Cholesky fails on a block and falls back to QR (s = 1.5); fibers xi and
    # -xi share a weight group, so the strip's eight fibers make five groups
    mask = make_mask()
    k = mask.lattice.k
    cells = [(1.0, params.log_power(1.0)), (4.6, params.log_power(1.0)),
             (10.0, params.log_power(1.0)), (1.5, params.constant()),
             (1.0, params.log_power(1.0))]
    idx = [weights.parabolic_split(s, phi, dimension=k) for s, phi in cells]
    failing = _FailingOnSecondBlock()
    fails = _fiber_weights(idx[3], mask)
    modes = []

    class Arming(spectra._FiberSolver):
        def __init__(self, mu, mask):
            failing.calls.clear()
            blocks = len(spectra._parity_plan(mask).locs)
            failing.at = min(2, blocks) if mu.tobytes() in fails else 0
            super().__init__(mu, mask)
            modes.append((mu.tobytes() in fails, self._mode))

    monkeypatch.setattr(spectra, "_potrf", failing)
    monkeypatch.setattr(spectra, "_FiberSolver", Arming)
    rng = np.random.default_rng(31)
    datas = [rng.standard_normal(mask.npoints) + 1j * rng.standard_normal(mask.npoints)
             for _ in range(7)]
    got = spectra.quotient_norm_batch(idx, datas, mask)
    assert got.shape == (len(idx), len(datas))
    assert {mode for failed, mode in modes if not failed} == {"chol", "qr"}
    assert {mode for failed, mode in modes if failed} == {"qr"}
    assert len(modes) == groups * len(idx)  # one solver per weight group and index
    for row, ix in zip(got, idx):
        assert row.tobytes() == spectra.quotient_norm_batch(ix, datas, mask).tobytes()


def test_quotient_norm_batch_over_indices_checks_every_index_first(monkeypatch):
    mask = pb.omega_domain(pb.IntervalGeometry(nx=8), 1.0, 8)
    good = weights.parabolic_split(2.0, params.constant(), dimension=2)
    wrong = weights.parabolic_split(2.0, params.constant(), dimension=3)
    d = np.ones(mask.npoints, dtype=complex)
    bad = d.copy()
    bad[3] = np.nan
    with monkeypatch.context() as m:
        # a wrong dimension anywhere in the list is caught before the data are read
        m.setattr(spectra, "_full_axes", lambda mask: pytest.fail("work began"))
        for indices in ([wrong, good], [good, good, wrong]):
            with pytest.raises(DimensionMismatch):
                spectra.quotient_norm_batch(indices, [d, bad], mask)
    with pytest.raises(NonFiniteData):
        spectra.quotient_norm_batch([good, good], [d, bad], mask)
    empty = spectra.quotient_norm_batch([good] * 3, [], mask)
    assert empty.shape == (3, 0) and empty.dtype == np.float64
    one = spectra.quotient_norm_batch([good], [d, 2 * d], mask)
    assert one.shape == (1, 2)
    assert one[0].tobytes() == spectra.quotient_norm_batch(good, [d, 2 * d], mask).tobytes()


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


@pytest.mark.parametrize("change, error, message", [
    ({"format": "bin"}, InvalidConfig, "json format: bad value 'bin'"),
    ({"periods": None}, InvalidConfig, r"missing keys \['periods'\]"),
    ({"sizes": "16"}, InvalidConfig, "json sizes: bad value '16'"),
    ({"unit": "m"}, UnknownConfigKey, r"unknown keys \['unit'\]"),
    ({"sizes": [12, 8]}, InvalidConfig, r"json sizes: bad value \[12, 8\] \(not a power of two\)"),
    ({"sizes": [8]}, InvalidConfig, "json periods: 2 periods for 1 sizes"),
    ({"sizes": [], "periods": []}, InvalidConfig, r"json sizes: bad value \[\] \(fewer than 1 items\)"),
], ids=["format-bin", "no-periods", "sizes-string", "unknown-key", "sizes-12", "lengths-differ",
        "empty-lists"])
def test_load_field_checks_its_header(tmp_path, change, error, message):
    # None drops the key
    p = tmp_path / "field.bin"
    spectra.save_field(spectra.random_field(lattice2(8), 9), p)
    header_path = tmp_path / "field.bin.json"
    header = {**json.loads(header_path.read_text()), **change}
    header_path.write_text(json.dumps({k: v for k, v in header.items() if v is not None}))
    with pytest.raises(error, match=message):
        spectra.load_field(p)


@pytest.mark.parametrize("text, message", [
    ("1.0\n" * 64, "1 columns"),
    ("1.0,2.0,3.0\n" * 64, "3 columns"),
    ("re,im\n" * 64, "not a CSV of numbers"),
    ("", "no rows"),
    ("\n\n", "no rows"),
], ids=["one-column", "three-columns", "text", "empty", "blank-lines"])
def test_load_field_reads_exactly_two_numeric_csv_columns(tmp_path, text, message):
    q = tmp_path / "field.csv"
    spectra.save_field(spectra.random_field(lattice2(8), 9), q, fmt="csv")
    q.write_text(text)
    with pytest.raises(InvalidConfig, match=rf"field\.csv: .*{message}"):
        spectra.load_field(q)


@pytest.mark.parametrize("fmt", ["binary", "csv"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf * 1j], ids=["nan", "inf", "imag-inf"])
def test_load_field_rejects_non_finite_coefficients(tmp_path, fmt, bad):
    f = spectra.random_field(lattice2(8), 9)
    f.coeffs[3, 5] = bad
    p = tmp_path / f"field.{fmt}"
    spectra.save_field(f, p, fmt=fmt)
    with pytest.raises(NonFiniteData, match=rf"field\.{fmt} holds NaN or infinite"):
        spectra.load_field(p)


def test_save_field_rejects_an_unknown_format_before_writing(tmp_path):
    with pytest.raises(ValueError, match="unknown format 'txt'"):
        spectra.save_field(spectra.random_field(lattice2(8), 9), tmp_path / "field.txt", fmt="txt")
    assert not list(tmp_path.iterdir())


def test_load_field_rejects_a_header_that_is_not_json(tmp_path):
    p = tmp_path / "field.bin"
    spectra.save_field(spectra.random_field(lattice2(8), 9), p)
    (tmp_path / "field.bin.json").write_text("{nope")
    with pytest.raises(InvalidConfig, match=r"field\.bin\.json: bad value '\{nope' \(Expecting"):
        spectra.load_field(p)


def test_load_field_rejects_true_as_a_period(tmp_path):
    p = tmp_path / "field.bin"
    spectra.save_field(spectra.random_field(spectra.Lattice((8,), (1.0,)), 9), p)
    header_path = tmp_path / "field.bin.json"
    header_path.write_text(json.dumps({**json.loads(header_path.read_text()), "periods": [True]}))
    with pytest.raises(InvalidConfig, match=r"json periods: bad value \[True\]"):
        spectra.load_field(p)


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
