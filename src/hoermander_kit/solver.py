"""Spectral-Galerkin heat solver on the unit interval (Dirichlet data).

Chebyshev collocation in space with the boundary rows eliminated, exact
exponential propagation of the interior modes, and Gauss-Legendre quadrature
of the Duhamel integral between output times.  Every step integrates over
the same quadrature panels, so the Duhamel terms are evaluated per panel for
all steps at once and the step recurrence only adds them.  Data enters
through callables so the quadrature can evaluate it off the output grid;
this is the inverse direction used by the benchmark round trip, not a
general-purpose solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import math

import numpy as np
import scipy.linalg as sla

__all__ = ["HeatData", "SolveResult", "solve_heat_interval"]


@dataclass(frozen=True)
class HeatData:
    """Right-hand sides of the Dirichlet heat problem as callables.

    ``f(x, t)`` broadcasts over arrays; ``g0``/``g1`` are the boundary values
    at x = 0 and x = 1 and ``h(x)`` is the initial state.  The optional time
    derivatives ``dg0``/``dg1``, given together or not at all, set dt u at the
    two boundary nodes, which enters ``SolveResult.f_residual`` there.
    Without them the PDE is assumed at those nodes, so the residual vanishes
    there by construction.
    """

    f: Callable
    g0: Callable
    g1: Callable
    h: Callable
    dg0: Callable | None = None
    dg1: Callable | None = None

    def __post_init__(self):
        if (self.dg0 is None) != (self.dg1 is None):
            raise ValueError("dg0 and dg1 go together: give both or neither")


@dataclass(frozen=True)
class SolveResult:
    x: np.ndarray            # uniform output grid
    t: np.ndarray
    u: np.ndarray            # (nx+1, nt+1)
    f_residual: np.ndarray   # A u - f on the output grid
    u_cheb: np.ndarray       # solution at Chebyshev nodes per output time


def _cheb_nodes_and_diff(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Chebyshev-Gauss-Lobatto nodes on [0,1] (increasing) and the first
    derivative matrix."""
    j = np.arange(n + 1)
    x = 0.5 * (1.0 - np.cos(np.pi * j / n))
    c = np.ones(n + 1)
    c[0] = c[n] = 2.0
    c = c * (-1.0) ** j
    X = x[:, None] - x[None, :]
    D = (c[:, None] / c[None, :]) / (X + np.eye(n + 1))
    D -= np.diag(D.sum(axis=1))
    return x, D


def _barycentric_matrix(x_nodes: np.ndarray, x_eval: np.ndarray) -> np.ndarray:
    """Row-stochastic interpolation matrix from Chebyshev nodes to x_eval."""
    n = len(x_nodes) - 1
    w = np.ones(n + 1)
    w[0] = w[n] = 0.5
    w = w * (-1.0) ** np.arange(n + 1)
    P = np.zeros((len(x_eval), n + 1))
    for i, xe in enumerate(x_eval):
        diff = xe - x_nodes
        hit = np.argmin(np.abs(diff))
        if abs(diff[hit]) < 1e-14:
            P[i, hit] = 1.0
            continue
        terms = w / diff
        P[i] = terms / terms.sum()
    return P


def solve_heat_interval(
    data: HeatData,
    nx_out: int,
    nt_out: int,
    tau: float,
    diffusion: float = 1.0,
    n_cheb: int = 48,
    quad_order: int = 12,
) -> SolveResult:
    """Solve dt u - diffusion * dxx u = f, u(0,.) = g0, u(1,.) = g1, u(.,0) = h.

    Returns the solution sampled on the uniform (nx_out+1) x (nt_out+1) grid
    together with the interior equation residual there (a spectral-accuracy
    diagnostic: it vanishes at the collocation nodes by construction).
    """
    xc, D = _cheb_nodes_and_diff(n_cheb)
    D2 = D @ D
    interior = slice(1, n_cheb)
    L = diffusion * D2[interior, interior]
    B = diffusion * D2[interior, [0, n_cheb]]
    lam, V = sla.eig(L)
    Vinv = sla.inv(V)

    t_out = np.arange(nt_out + 1) * (tau / nt_out)
    x_out = np.arange(nx_out + 1) / nx_out
    nodes, wts = np.polynomial.legendre.leggauss(quad_order)

    def q_of_t(ts: np.ndarray) -> np.ndarray:
        """Interior forcing f + boundary coupling, vectorized over times."""
        fx = np.asarray(data.f(xc[interior, None], ts[None, :]), dtype=complex)
        gb = np.stack(
            [np.asarray(data.g0(ts), dtype=complex), np.asarray(data.g1(ts), dtype=complex)]
        )
        return fx + B @ gb

    u_int = np.asarray(data.h(xc[interior]), dtype=complex)
    dt = tau / nt_out
    eL = V @ np.diag(np.exp(lam * dt)) @ Vinv
    # the Duhamel integrand has an exp boundary layer of width 1/|lam| at
    # sigma = dt; geometric panels toward that end keep the quadrature exact
    lam_scale = float(np.max(np.abs(lam.real))) + 1.0
    n_refine = max(4, int(math.ceil(math.log2(lam_scale * dt))) + 3)
    offsets = dt * 2.0 ** (-np.arange(1, n_refine + 1, dtype=float))
    edges = np.concatenate([[0.0], dt - offsets, [dt]])  # ascending, layer-refined
    # every step integrates over the same panels and nodes sigma, so each panel
    # takes the data at all steps' times t_j + sigma in one call; its weights
    # exp(lam (dt - sigma)) half w are the same for every step
    duhamel = np.zeros((len(lam), nt_out), dtype=complex)  # modal, one column per step
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = 0.5 * (hi - lo)
        mid = 0.5 * (hi + lo)
        sigma = mid + half * nodes
        qs = Vinv @ q_of_t((t_out[:-1, None] + sigma[None, :]).reshape(-1))
        kernel = np.exp(lam[:, None] * (dt - sigma[None, :])) * (half * wts[None, :])
        duhamel += np.einsum("mjq,mq->mj", qs.reshape(len(lam), nt_out, len(sigma)), kernel)
    duhamel = V @ duhamel
    u_hist = [u_int.copy()]
    for j in range(nt_out):
        u_int = eL @ u_int + duhamel[:, j]
        u_hist.append(u_int.copy())

    g0_t = np.asarray(data.g0(t_out), dtype=complex)
    g1_t = np.asarray(data.g1(t_out), dtype=complex)
    u_nodes = np.zeros((n_cheb + 1, nt_out + 1), dtype=complex)
    u_nodes[0] = g0_t
    u_nodes[n_cheb] = g1_t
    u_nodes[interior] = np.column_stack(u_hist)

    P = _barycentric_matrix(xc, x_out)
    u_out = P @ u_nodes

    # time derivative from the semi-discrete relation (exact for the scheme)
    du_int = (
        L @ u_nodes[interior]
        + np.asarray(data.f(xc[interior, None], t_out[None, :]), dtype=complex)
        + B @ np.stack([g0_t, g1_t])
    )
    du_nodes = np.zeros_like(u_nodes)
    du_nodes[interior] = du_int
    if data.dg0 is not None:
        du_nodes[0] = np.asarray(data.dg0(t_out), dtype=complex)
        du_nodes[n_cheb] = np.asarray(data.dg1(t_out), dtype=complex)
    else:  # fall back to the PDE at the boundary nodes
        du_nodes[0] = diffusion * (D2 @ u_nodes)[0] + np.asarray(
            data.f(xc[0], t_out), dtype=complex
        )
        du_nodes[n_cheb] = diffusion * (D2 @ u_nodes)[n_cheb] + np.asarray(
            data.f(xc[n_cheb], t_out), dtype=complex
        )

    uxx_nodes = D2 @ u_nodes
    f_out = np.asarray(data.f(x_out[:, None], t_out[None, :]), dtype=complex)
    residual = P @ du_nodes - diffusion * (P @ uxx_nodes) - f_out
    return SolveResult(x=x_out, t=t_out, u=u_out, f_residual=residual, u_cheb=u_nodes)
