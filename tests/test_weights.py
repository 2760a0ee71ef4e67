import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hoermander_kit import params, weights
from hoermander_kit.errors import DimensionMismatch


def test_parabolic_weight_direct_substitution():
    idx = weights.parabolic_split(2.0, dimension=2)
    assert weights.eval_weight(idx, [3.0, 5.0]) == pytest.approx(15.0)


def test_isotropic_zero_frequency():
    idx = weights.isotropic(0.0, params.log_power(2.0), dimension=3)
    assert weights.eval_weight(idx, [0.0, 0.0, 0.0]) == pytest.approx(1.0)


def test_parabolic_with_log_factor():
    idx = weights.parabolic_split(1.0, params.log_power(1.0), dimension=3)
    val = weights.eval_weight(idx, [0.0, 0.0, 3.0])
    assert val == pytest.approx(2.0 * (1.0 + math.log(2.0)), rel=1e-12)


def test_dimension_guard():
    idx = weights.parabolic_split(1.0, dimension=3)
    with pytest.raises(DimensionMismatch):
        weights.eval_weight(idx, [1.0, 2.0])


def test_weight_symmetry_under_reflections():
    idx = weights.parabolic_split(1.7, params.log_power(0.5), dimension=3)
    rng = np.random.default_rng(0)
    xi = rng.uniform(-20, 20, size=(50, 3))
    flipped = xi * np.array([-1.0, 1.0, -1.0])
    assert np.allclose(weights.eval_weight(idx, xi), weights.eval_weight(idx, flipped))


@given(
    s_lo=st.floats(-3, 3),
    ds=st.floats(0.01, 3),
    x=st.floats(-50, 50),
    t=st.floats(-50, 50),
)
@settings(max_examples=60, deadline=None)
def test_weight_monotone_in_s(s_lo, ds, x, t):
    phi = params.log_power(0.7)
    lo = weights.parabolic_split(s_lo, phi, dimension=2)
    hi = weights.parabolic_split(s_lo + ds, phi, dimension=2)
    assert weights.eval_weight(lo, [x, t]) <= weights.eval_weight(hi, [x, t]) * (1 + 1e-12)


def test_ratio_sandwich_against_power_weights():
    phi = params.log_power(1.0)
    s0, s, s1 = 1.0, 2.0, 3.0
    c0, c1 = params.sandwich_constants(phi, s0, s, s1)
    mid = weights.parabolic_split(s, phi, dimension=2)
    lo = weights.parabolic_split(s0, dimension=2)
    hi = weights.parabolic_split(s1, dimension=2)
    rng = np.random.default_rng(1)
    xi = rng.uniform(-60, 60, size=(200, 2))
    m, l, h = (weights.eval_weight(i, xi) for i in (mid, lo, hi))
    assert np.all(c0 * l <= m * (1 + 1e-10))
    assert np.all(m <= c1 * h * (1 + 1e-10))


def test_admissibility_constant_weight():
    fit = weights.check_admissibility(weights.isotropic(0.0, dimension=2), 2000)
    assert fit.c == pytest.approx(1.0)
    assert fit.l == pytest.approx(0.0)
    assert abs(fit.max_residual) < 1e-12


def test_admissibility_isotropic_order_two():
    fit = weights.check_admissibility(weights.isotropic(2.0, dimension=2), 10_000, seed=3)
    assert fit.l <= 2.1
    assert fit.max_residual <= 1e-9


def test_admissibility_reciprocal_parabolic():
    fit = weights.check_admissibility(
        weights.parabolic_split(-1.0, dimension=2), 10_000, seed=4
    )
    assert fit.l <= 2.1
    assert fit.max_residual <= 1e-9


def test_admissibility_requires_samples():
    with pytest.raises(ValueError):
        weights.check_admissibility(weights.isotropic(1.0, dimension=1), 10)


def test_weight_on_mesh_matches_pointwise():
    idx = weights.parabolic_split(1.3, params.log_power(-0.5), dimension=2)
    ax0 = np.array([0.0, 1.0, -2.0])
    ax1 = np.array([0.5, -3.0])
    grid = weights.weight_on_mesh(idx, [ax0, ax1])
    for i, a in enumerate(ax0):
        for j, b in enumerate(ax1):
            assert grid[i, j] == pytest.approx(weights.eval_weight(idx, [a, b]))


def _mesh_rho_squared_loop(anisotropy, freq_axes):
    """Reference: rho^2 accumulated onto a full grid of ones, axis by axis."""
    rho2 = np.ones(tuple(len(a) for a in freq_axes))
    for ax, f in enumerate(freq_axes):
        shape = [1] * len(freq_axes)
        shape[ax] = len(f)
        time = anisotropy == "parabolic" and ax == len(freq_axes) - 1
        rho2 = rho2 + (np.abs(f) if time else f**2).reshape(shape)
    return rho2


@pytest.mark.parametrize("anisotropy", ["parabolic", "isotropic"])
def test_weight_on_mesh_matches_axis_loop_bitwise(anisotropy):
    rng = np.random.default_rng(3)
    axes = [rng.standard_normal(n) * 20 for n in (4, 3, 5)]
    phi = params.log_power(0.7)
    idx = weights.RegularityIndex(s=2.3, phi=phi, anisotropy=anisotropy, dimension=3)
    rho2 = _mesh_rho_squared_loop(anisotropy, axes)
    want = rho2 ** (idx.s / 2.0) * phi(np.sqrt(rho2))
    assert weights.weight_on_mesh(idx, axes).tobytes() == want.tobytes()


def test_custom_phi_weights_never_go_stale():
    # ids of collected evaluators get reused; each fresh custom phi must get
    # its own weights, not those of an earlier parameter
    axes = [np.fft.fftfreq(8, d=1.0 / 8), np.fft.fftfreq(4, d=1.0 / 4)]
    base = weights.weight_on_mesh(weights.isotropic(1.0, dimension=2), axes)
    stale = 0
    for c in range(1, 201):
        phi = params.custom(lambda r, c=c: np.full_like(r, float(c)))
        grid = weights.weight_on_mesh(weights.isotropic(1.0, phi, dimension=2), axes)
        stale += not np.allclose(grid, c * base, rtol=1e-14)
    assert stale == 0


def test_cached_weight_grid_is_read_only():
    axes = [np.fft.fftfreq(8, d=1.0 / 8), np.fft.fftfreq(8, d=1.0 / 8)]
    idx = weights.parabolic_split(1.5, params.log_power(1.0), dimension=2)
    grid = weights.weight_on_mesh(idx, axes)
    assert weights.weight_on_mesh(idx, axes) is grid
    with pytest.raises(ValueError):
        grid[0, 0] = 0.0


def test_weight_cache_evicts_least_recently_used_past_byte_cap(monkeypatch):
    axes = [np.fft.fftfreq(64, d=1.0 / 64)] * 2
    grid_bytes = 64 * 64 * 8
    cache = weights._GridCache(byte_cap=3 * grid_bytes)
    monkeypatch.setattr(weights, "_GRID_CACHE", cache)
    idxs = [weights.parabolic_split(s, dimension=2) for s in (1.0, 2.0, 3.0, 4.0, 5.0)]
    first = [weights.weight_on_mesh(idx, axes) for idx in idxs[:3]]
    assert len(cache) == 3 and cache.nbytes == 3 * grid_bytes
    assert weights.weight_on_mesh(idxs[0], axes) is first[0]  # a hit, now the most recent
    for idx in idxs[3:]:
        weights.weight_on_mesh(idx, axes)
    assert len(cache) == 3 and cache.nbytes <= cache.byte_cap
    # s = 2 and 3 were least recently used and went; s = 1 stayed
    hit = weights.weight_on_mesh(idxs[0], axes)
    assert hit is first[0] and not hit.flags.writeable
    again = weights.weight_on_mesh(idxs[1], axes)
    assert again is not first[1]
    np.testing.assert_array_equal(again, first[1])
