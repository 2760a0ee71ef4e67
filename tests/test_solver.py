import math

import numpy as np
import pytest
import scipy.linalg as sla

from hoermander_kit import solver


def _trig_data(seed=3):
    """Heat data of u(x, t) = sum c_jk exp(i (2 pi j x + 2 pi k t)) over |j|, |k| <= 2."""
    rng = np.random.default_rng(seed)
    m = np.arange(-2, 3) * 2.0 * np.pi
    c = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))

    def u(x, t, symbol=1.0):
        x, t = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(t, dtype=float))
        return np.einsum("...a,ab,...b->...", np.exp(1j * np.multiply.outer(x, m)),
                         c * symbol, np.exp(1j * np.multiply.outer(t, m)))

    heat, dt = 1j * m[None, :] + (m**2)[:, None], (1j * m)[None, :]
    return solver.HeatData(f=lambda x, t: u(x, t, heat), g0=lambda t: u(0.0, t),
                           g1=lambda t: u(1.0, t), h=lambda x: u(x, 0.0),
                           dg0=lambda t: u(0.0, t, dt), dg1=lambda t: u(1.0, t, dt))


def test_each_quadrature_panel_is_evaluated_once_for_all_steps():
    # a step-by-step quadrature calls f once per step and panel (32 x 19 here);
    # the solver calls it once per panel, with the panel's nodes at every step,
    # plus its fixed calls on the output grid
    data = _trig_data()
    nt, order, times = 32, 12, []

    def counting_f(x, t):
        times.append(np.asarray(t, dtype=float).reshape(-1))
        return data.f(x, t)

    solver.solve_heat_interval(solver.HeatData(counting_f, data.g0, data.g1, data.h),
                               16, nt, 1.0, quad_order=order)
    t_out = np.arange(nt + 1) / nt
    panels = [t.reshape(nt, order) - t_out[:-1, None] for t in times if t.size == nt * order]
    fixed = [t for t in times if t.size != nt * order]
    assert len(fixed) <= 4 and all(np.array_equal(t, t_out) for t in fixed)
    assert 4 < len(panels) < nt and len(times) <= len(panels) + 4
    sigma = np.concatenate([p[0] for p in panels])
    for p in panels:  # the same nodes sigma at every step, up to the rounding of t_j + sigma
        assert np.max(np.abs(p - p[0])) <= 1e-15
    assert len(np.unique(sigma)) == len(sigma) and 0.0 < sigma.min() and sigma.max() < 1.0 / nt


def _per_step_interior(data, nt_out, tau, n_cheb=48, quad_order=12):
    """u at the interior Chebyshev nodes per output time, the Duhamel sum taken step by step.

    The same scheme as the solver (collocation, exact propagation, the
    layer-refined Gauss-Legendre panels) with the quadrature evaluated for
    one step and one panel at a time.
    """
    xc, D = solver._cheb_nodes_and_diff(n_cheb)
    D2 = D @ D
    inner = slice(1, n_cheb)
    L, B = D2[inner, inner], D2[inner, [0, n_cheb]]
    lam, V = sla.eig(L)
    Vinv = sla.inv(V)
    nodes, wts = np.polynomial.legendre.leggauss(quad_order)
    dt = tau / nt_out
    eL = V @ np.diag(np.exp(lam * dt)) @ Vinv
    n_refine = max(4, int(math.ceil(math.log2((np.max(np.abs(lam.real)) + 1.0) * dt))) + 3)
    edges = np.concatenate([[0.0], dt - dt * 2.0 ** -np.arange(1, n_refine + 1.0), [dt]])
    u = np.asarray(data.h(xc[inner]), dtype=complex)
    hist = [u]
    for j in range(nt_out):
        duhamel = np.zeros_like(u)
        for lo, hi in zip(edges[:-1], edges[1:]):
            half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
            sigma = mid + half * nodes
            ts = j * dt + sigma
            q = data.f(xc[inner, None], ts[None, :]) + B @ np.stack([data.g0(ts), data.g1(ts)])
            phase = np.exp(lam[:, None] * (dt - sigma[None, :]))
            duhamel += V @ np.sum(phase * (Vinv @ q) * (half * wts[None, :]), axis=1)
        u = eL @ u + duhamel
        hist.append(u)
    return np.column_stack(hist)


@pytest.mark.parametrize("nt_out", [1, 7, 32])
def test_batched_duhamel_sum_matches_the_step_by_step_sum(nt_out):
    data = _trig_data(seed=nt_out)
    sol = solver.solve_heat_interval(data, 16, nt_out, 1.0)
    ref = _per_step_interior(data, nt_out, 1.0)
    assert np.max(np.abs(sol.u_cheb[1:-1] - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_manufactured_solution_is_recovered():
    # u = exp(-t) sin(pi x) + (1 + x)^2 cos(3t): nonzero boundary values that
    # move in time and a smooth non-polynomial interior.  Tolerances fixed
    # before the run: the solution to 1e-11 of its size, and the residual,
    # which differentiates u twice in x, to 1e-7
    def u(x, t):
        return np.exp(-t) * np.sin(np.pi * x) + (1 + x) ** 2 * np.cos(3 * t)

    def f(x, t):  # dt u - dxx u
        return ((np.pi**2 - 1) * np.exp(-t) * np.sin(np.pi * x)
                - 3 * (1 + x) ** 2 * np.sin(3 * t) - 2 * np.cos(3 * t))

    data = solver.HeatData(f=f, g0=lambda t: u(0.0, t), g1=lambda t: u(1.0, t),
                           h=lambda x: u(x, 0.0), dg0=lambda t: -3 * np.sin(3 * t),
                           dg1=lambda t: -12 * np.sin(3 * t))
    sol = solver.solve_heat_interval(data, 32, 16, 1.0)
    exact = u(sol.x[:, None], sol.t[None, :])
    assert np.max(np.abs(sol.u - exact)) <= 1e-11 * np.max(np.abs(exact))
    assert np.max(np.abs(sol.f_residual)) <= 1e-7 * np.max(np.abs(f(sol.x[:, None], sol.t[None, :])))

