import numpy as np
import pytest

from hoermander_kit._fd import (
    apply_deriv_axis,
    fornberg_weights,
    one_sided_weights,
    trace_deriv_at_zero,
)
from hoermander_kit.errors import InsufficientSmoothness


def _dense_deriv_matrix(n, dx, k, acc):
    """Oracle: the n x n matrix with one Fornberg call per point."""
    width = k + acc
    D = np.zeros((n, n), dtype=np.longdouble)
    for i in range(n):
        lo = min(max(i - width // 2, 0), n - width)
        nodes = np.arange(lo, lo + width) * np.longdouble(dx)
        D[i, lo:lo + width] = fornberg_weights(i * np.longdouble(dx), nodes, k)[k]
    return D


def _per_point_fornberg(z, x, m):
    """The Fornberg recurrence for one evaluation point, scalar by scalar."""
    x = np.asarray(x, dtype=np.longdouble)
    z = np.longdouble(z)
    n = len(x)
    c = np.zeros((m + 1, n), dtype=np.longdouble)
    c1 = np.longdouble(1.0)
    c4 = x[0] - z
    c[0, 0] = 1.0
    for i in range(1, n):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = x[i] - z
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[k, i] = c1 * (k * c[k - 1, i - 1] - c5 * c[k, i - 1]) / c2
                c[0, i] = -c1 * c5 * c[0, i - 1] / c2
            for k in range(mn, 0, -1):
                c[k, j] = (c4 * c[k, j] - k * c[k - 1, j]) / c3
            c[0, j] = c4 * c[0, j] / c3
        c1 = c2
    return c


@pytest.mark.parametrize("acc", [2, 4, 8, 10])
@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_fornberg_weights_at_many_points_equal_the_per_point_loop(k, acc):
    # one pass over an array of points keeps each point's long-double
    # arithmetic and its order; np.array_equal, as padding bytes may differ
    for dx in (1.0, 1.0 / 7, 1.0 / 63):
        nodes = np.arange(k + acc) * np.longdouble(dx)
        tables = fornberg_weights(nodes, nodes, k)
        assert tables.shape == (len(nodes), k + 1, len(nodes))
        for z, table in zip(nodes, tables):
            ref = _per_point_fornberg(z, nodes, k)
            assert np.array_equal(table, ref) and np.array_equal(np.signbit(table), np.signbit(ref))
            assert np.array_equal(fornberg_weights(z, nodes, k), ref)
        z = nodes[:2].reshape(2, 1)
        assert fornberg_weights(z, nodes, k).shape == (2, 1, k + 1, len(nodes))


def _dense_apply(field, axis, dx, k, acc):
    D = _dense_deriv_matrix(field.shape[axis], dx, k, acc)
    moved = np.moveaxis(field, axis, 0)
    extended = field.dtype in (np.longdouble, np.clongdouble)
    work = np.clongdouble if np.iscomplexobj(field) else np.longdouble
    out = np.tensordot(D, moved.astype(work), axes=(1, 0))
    if not extended:
        out = out.astype(complex if work is np.clongdouble else float)
    return np.moveaxis(out, 0, axis)


def _same_bits(a, b):
    """Bitwise equality; extended values compare their value and sign bits, not padding."""
    if a.dtype != b.dtype or a.shape != b.shape:
        return False
    if a.dtype.kind == "c":
        return _same_bits(a.real, b.real) and _same_bits(a.imag, b.imag)
    if a.dtype == np.longdouble:
        return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))
    return a.tobytes() == b.tobytes()


def _field(rng, shape, dtype):
    x = rng.standard_normal(shape)
    if np.dtype(dtype).kind == "c":
        x = x + 1j * rng.standard_normal(shape)
    return x.astype(dtype)


@pytest.mark.parametrize("dtype", [float, complex, np.longdouble], ids=["float", "complex", "longdouble"])
@pytest.mark.parametrize("acc", [4, 8])
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("n", [9, 17, 33, 65, 129])
def test_banded_apply_matches_dense_matrix_bitwise(n, k, acc, dtype):
    rng = np.random.default_rng(n * 100 + k * 10 + acc)
    dx = 1.0 / (n - 1)
    if n < k + acc:
        with pytest.raises(InsufficientSmoothness):
            apply_deriv_axis(_field(rng, (n, 3), dtype), 0, dx, k, acc)
        return
    for axis in range(3):
        shape = [3, 4, 5]
        shape[axis] = n
        f = _field(rng, tuple(shape), dtype)
        got = apply_deriv_axis(f, axis, dx, k, acc)
        want = _dense_apply(f, axis, dx, k, acc)
        assert _same_bits(got, want)


@pytest.mark.parametrize("acc", [4, 8])
@pytest.mark.parametrize("k", [1, 2])
def test_derivative_of_polynomial_is_exact(k, acc):
    n = 33
    x = np.arange(n) / (n - 1)
    deg = k + acc - 1
    coeffs = np.random.default_rng(deg).standard_normal(deg + 1)
    poly = np.polynomial.Polynomial(coeffs)
    got = apply_deriv_axis(poly(x), 0, 1.0 / (n - 1), k, acc)
    want = poly.deriv(k)(x)
    assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))


def test_short_grid_raises():
    with pytest.raises(InsufficientSmoothness):
        apply_deriv_axis(np.zeros(9), 0, 1.0 / 8, 2, 8)
    with pytest.raises(InsufficientSmoothness):
        trace_deriv_at_zero(np.zeros(9), 0, 1.0 / 8, 2, 8)


@pytest.mark.parametrize(
    "dtype,expected",
    [(np.float32, np.float64), (float, np.float64), (complex, np.complex128),
     (np.longdouble, np.longdouble), (np.clongdouble, np.clongdouble)],
)
def test_output_dtype_follows_input(dtype, expected):
    f = _field(np.random.default_rng(0), (17, 3), dtype)
    assert apply_deriv_axis(f, 0, 1.0 / 16, 1, 4).dtype == expected
    assert trace_deriv_at_zero(f, 0, 1.0 / 16, 1, 4).dtype == expected


@pytest.mark.parametrize("dtype", [float, complex, np.longdouble], ids=["float", "complex", "longdouble"])
def test_trace_matches_one_sided_contraction_bitwise(dtype):
    rng = np.random.default_rng(1)
    k, acc, dt = 2, 8, 1.0 / 32
    f = _field(rng, (4, 5, 33), dtype)
    w = one_sided_weights(k, acc, dt, 33)
    work = np.clongdouble if np.iscomplexobj(f) else np.longdouble
    want = np.tensordot(w, np.moveaxis(f, 2, 0)[: len(w)].astype(work), axes=(0, 0))
    if dtype is not np.longdouble:
        want = want.astype(dtype)
    got = trace_deriv_at_zero(f, 2, dt, k, acc)
    assert _same_bits(got, want)
