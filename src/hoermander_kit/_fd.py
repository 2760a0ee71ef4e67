"""Finite-difference stencils on uniform grids (Fornberg weights).

The n rows of a width-(k + acc) stencil on a uniform grid hold only k + acc
distinct weight vectors, one per evaluation point of a single window (Fornberg
1988); ``apply_deriv_axis`` builds those in one pass per call and applies them
banded.
"""

from __future__ import annotations

import numpy as np

from .errors import InsufficientSmoothness

__all__ = [
    "fornberg_weights",
    "one_sided_weights",
    "apply_deriv_axis",
    "trace_deriv_at_zero",
]


def fornberg_weights(z: float | np.ndarray, x: np.ndarray, m: int) -> np.ndarray:
    """Weights for derivatives 0..m at z from arbitrary nodes x; shape (m+1, n).

    An array ``z`` gives one such table per point, shape ``z.shape + (m+1, n)``,
    in one pass: each point's arithmetic is the scalar recurrence's, in its order.
    Computed in extended precision: the weights are consumed by stencils whose
    absolute-weight sums reach 1e3/dx^k, where double-precision weight noise
    would dominate high-order trace extractions.
    """
    x = np.asarray(x, dtype=np.longdouble)
    z = np.asarray(z, dtype=np.longdouble)
    n = len(x)
    c = np.zeros((m + 1, n) + z.shape, dtype=np.longdouble)
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
    return np.moveaxis(c, (0, 1), (-2, -1))


def one_sided_weights(k: int, acc: int, dt: float, n_available: int) -> np.ndarray:
    """Weights for d^k/dt^k at t=0 from samples t = 0, dt, 2dt, ...

    Uses k + acc leading samples; raises when the grid is too short.
    """
    width = k + acc
    if n_available < width:
        raise InsufficientSmoothness(
            f"need {width} time samples for order-{k} trace at accuracy {acc}, "
            f"have {n_available}"
        )
    nodes = np.arange(width) * np.longdouble(dt)
    return fornberg_weights(0.0, nodes, k)[k]


def _banded_sum(field: np.ndarray, axis: int, w: np.ndarray, first: np.ndarray) -> np.ndarray:
    """out[i] = sum_j w[i, j] * field[first[i] + j] along ``axis``, moved to axis 0.

    Summed in long double and in j order from zero, as a dense long-double
    product over the full row sums (with the weights cast to the work type as
    it casts them); cast back to float/complex unless the input was extended.
    """
    field = np.asarray(field)
    work = np.clongdouble if np.iscomplexobj(field) else np.longdouble
    x = np.moveaxis(field, axis, 0)[: first[-1] + w.shape[1]].astype(work, order="C")
    w = w.astype(work).reshape(w.shape + (1,) * (x.ndim - 1))
    out = np.zeros((len(first),) + x.shape[1:], dtype=work)
    for j in range(w.shape[1]):
        out += w[:, j] * x[first + j]
    if field.dtype in (np.longdouble, np.clongdouble):
        return out
    return out.astype(complex if work is np.clongdouble else float)


def apply_deriv_axis(field: np.ndarray, axis: int, dx: float, k: int, acc: int = 8) -> np.ndarray:
    """k-th derivative along one axis of a uniform non-periodic grid.

    Stencil width k + acc guarantees order ``acc`` on smooth data; points
    within width/2 of an edge take the one-sided window at that edge.  The
    boundary stencils carry large weights (sum |w| ~ 1e3/dx^k), so the sum is
    taken in extended precision to keep compositions of derivative passes
    from amplifying roundoff.
    """
    n = np.shape(field)[axis]
    width = k + acc
    if n < width:
        raise InsufficientSmoothness(
            f"grid with {n} points cannot support order-{k} derivative at accuracy {acc}"
        )
    nodes = np.arange(width) * np.longdouble(dx)
    table = fornberg_weights(nodes, nodes, k)[:, k]
    points = np.arange(n)
    first = np.clip(points - width // 2, 0, n - width)
    out = _banded_sum(field, axis, table[points - first], first)
    return np.moveaxis(out, 0, axis)


def trace_deriv_at_zero(field: np.ndarray, axis: int, dt: float, k: int, acc: int = 8) -> np.ndarray:
    """d^k/dt^k at the left endpoint of ``axis`` via one-sided differences."""
    w = one_sided_weights(k, acc, dt, np.shape(field)[axis])
    return _banded_sum(field, axis, w[None, :], np.zeros(1, dtype=int))[0]
