"""Cauchy-data trace operator and its explicit right inverse on flat geometries.

The trace operator R maps a space-time function to the tuple of its time
derivatives at t = 0.  Its right inverse T acts per spatial frequency xi:
the lifted field has the time profile

    beta(<xi>^2 t) * sum_k v_hat_k(xi) t^k / k!,      <xi>^2 = 1 + |xi|^2,

with a smooth compactly supported cutoff beta equal to 1 near zero.  Because
beta is flat at the origin, the k-th time derivative of the profile at t = 0
is exactly v_hat_k(xi); the identity R T = id therefore reduces to the
Leibniz bookkeeping implemented in :func:`lift_trace`, which is evaluated in
closed form at t = 0 (the sampled grid realization cannot resolve the
<xi>^2-scaled bumps at high frequency, so derivative traces for the identity
check never touch the time grid).  The sampled realization built by
:func:`lift_T` is still what all norm computations use.

The squared-cutoff moments c2(k) and the derivative moments c1(m, k) that
control the lift's boundedness between the Cauchy-data norm and the
anisotropic (2m, m) norm are computed by quadrature here and cross-checked
against an independent spectral oracle in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from . import parabolic as pb
from ._config import integer, read_value
from ._fd import fornberg_weights
from .errors import (
    CutoffWrapsAround,
    DimensionMismatch,
    InsufficientTimeResolution,
)
from .params import FunctionParam
from .spectra import (Lattice, SpectralField, _read_header, _write_header, load_field, norm,
                      random_field, save_field)
from .weights import isotropic

__all__ = [
    "CutoffProfile",
    "default_cutoff",
    "CauchyData",
    "save_cauchy",
    "load_cauchy",
    "cauchy_norm",
    "trace_R",
    "lift_T",
    "lift_trace",
    "cutoff_moments",
    "lift_bound_constant",
    "equivalent_2m_norm",
    "lemma2_projector",
]


def _smoothstep(v: np.ndarray) -> np.ndarray:
    """C-infinity transition: 0 for v <= 0, 1 for v >= 1, strictly monotone between.

    Evaluates in the input's precision; extended-precision points give
    extended-precision values (the moment quadrature differentiates this).
    """
    v = np.asarray(v)
    if v.dtype != np.longdouble:
        v = v.astype(float)
    out = np.zeros_like(v)
    out[v >= 1.0] = 1.0
    mid = (v > 0.0) & (v < 1.0)
    vm = v[mid]
    a = np.exp(-1.0 / vm)
    b = np.exp(-1.0 / (1.0 - vm))
    out[mid] = a / (a + b)
    return out


@dataclass(frozen=True)
class CutoffProfile:
    """Smooth even cutoff: 1 on [-flat_radius, flat_radius], 0 beyond support_radius.

    The default rolloff is the exponential smoothstep, which is flat to all
    orders at both edges of the transition band (a plain exp(1 - 1/(1-u^2))
    rolloff would only be C^1 at the inner edge).
    """

    flat_radius: float = 0.5
    support_radius: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.flat_radius < self.support_radius):
            raise ValueError("need 0 < flat_radius < support_radius")
        if abs(self(0.0) - 1.0) != 0.0:
            raise ValueError("cutoff must equal 1 at zero")
        grid_flat = np.linspace(-self.flat_radius, self.flat_radius, 257)
        if np.any(self(grid_flat) != 1.0):
            raise ValueError("cutoff must be identically 1 on the flat region")
        grid_out = np.linspace(self.support_radius, 2 * self.support_radius, 64)
        if np.any(self(grid_out) != 0.0):
            raise ValueError("cutoff must vanish beyond the support radius")

    def __call__(self, tau) -> np.ndarray:
        tau = np.asarray(tau)
        if tau.dtype != np.longdouble:
            tau = tau.astype(float)
        tau = np.abs(tau)
        u = (tau - self.flat_radius) / (self.support_radius - self.flat_radius)
        return _smoothstep(1.0 - u)

    def derivatives_at_zero(self, m: int) -> np.ndarray:
        """(beta(0), beta'(0), ..., beta^(m)(0)); the profile is constant on a
        validated neighbourhood of zero, so every derivative there vanishes."""
        out = np.zeros(m + 1)
        out[0] = 1.0
        return out


def default_cutoff() -> CutoffProfile:
    return CutoffProfile()


@dataclass(frozen=True)
class CauchyData:
    """Tuple (v_0, ..., v_{r-1}) of functions on one spatial boundary lattice."""

    lattice: Lattice
    components: tuple[np.ndarray, ...]

    def __post_init__(self):
        if not self.components:
            raise ValueError("need at least one component")
        for c in self.components:
            if tuple(c.shape) != self.lattice.sizes:
                raise DimensionMismatch("all components must live on the lattice")

    @property
    def r(self) -> int:
        return len(self.components)

    @classmethod
    def random(cls, lattice: Lattice, r: int, seed: int, band: int | None = None) -> "CauchyData":
        comps = tuple(
            random_field(lattice, seed + 17 * k, band=band).to_samples()
            for k in range(r)
        )
        return cls(lattice=lattice, components=comps)


def save_cauchy(v: CauchyData, path, fmt: str = "binary") -> None:
    """Component files plus a JSON header, mirroring the field conventions."""
    path = Path(path)
    _write_header(path, {
        "r": v.r,
        "sizes": list(v.lattice.sizes),
        "periods": list(v.lattice.periods),
        "format": fmt,
    })
    for k, comp in enumerate(v.components):
        field = SpectralField.from_samples(v.lattice, comp)
        save_field(field, path.with_suffix(f"{path.suffix}.{k}"), fmt=fmt)


def load_cauchy(path) -> CauchyData:
    """Read Cauchy data written by :func:`save_cauchy`; its header also holds ``r`` >= 1.

    A component whose own lattice differs from the header's raises
    :class:`DimensionMismatch`.
    """
    path = Path(path)
    header, lattice, _ = _read_header(path, ("r",))
    r = read_value(f"{path}.json r", partial(integer, least=1), header["r"])
    comps = []
    for k in range(r):
        comp = load_field(path.with_suffix(f"{path.suffix}.{k}"))
        if comp.lattice != lattice:
            raise DimensionMismatch(f"{path}: component {k} lies on {comp.lattice}, "
                                    f"the header on {lattice}")
        comps.append(comp.to_samples())
    return CauchyData(lattice=lattice, components=tuple(comps))


def cauchy_norm(v: CauchyData, s: float, phi: FunctionParam | None = None) -> float:
    """Norm of the Cauchy-data space: l2 sum of H^(s-2k-1; phi) component norms."""
    return math.sqrt(sum(
        norm(isotropic(s - 2 * k - 1, phi, dimension=v.lattice.k),
             SpectralField.from_samples(v.lattice, comp)) ** 2
        for k, comp in enumerate(v.components)
    ))


# -- trace operator -----------------------------------------------------------------

def trace_R(u: SpectralField, r: int) -> CauchyData:
    """Time-derivative traces (d/dt)^k u|_{t=0}, k < r, by exact spectral evaluation.

    Exact for the trigonometric interpolant of the samples; the last lattice
    axis is time.  Requires a time axis fine enough to carry r derivatives.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    lat = u.lattice
    if lat.k < 2:
        raise DimensionMismatch("need a space x time lattice")
    nt = lat.sizes[-1]
    if nt < 2 * r + 2:
        raise InsufficientTimeResolution(
            f"time axis with {nt} points cannot carry {r} derivative traces"
        )
    spatial = Lattice(sizes=lat.sizes[:-1], periods=lat.periods[:-1])
    xi_t = lat.freq_axis(lat.k - 1)
    comps = []
    for k in range(r):
        summed = np.sum(u.coeffs * (1j * xi_t) ** k, axis=-1) / math.sqrt(nt)
        comps.append(np.fft.ifftn(summed, norm="ortho"))
    return CauchyData(lattice=spatial, components=tuple(comps))


# -- lifting -------------------------------------------------------------------------

def _lift_profile(hats: list[np.ndarray], xi_sq: np.ndarray, t: np.ndarray,
                  beta: CutoffProfile) -> np.ndarray:
    """The lift profile beta(xi_sq t) sum_k hats[k] t^k / k!, with the times t on a new last axis.

    Per frequency of the hats; ``xi_sq`` broadcasts against each of them.
    """
    profile = np.zeros(hats[0].shape + t.shape, dtype=complex)
    tpow = np.ones_like(t)
    for k, hat in enumerate(hats):
        profile += hat[..., None] * (tpow / math.factorial(k))
        tpow = tpow * t
    profile *= beta(xi_sq[..., None] * t)
    return profile


def lift_T(v: CauchyData, beta: CutoffProfile, lattice: Lattice) -> SpectralField:
    """Sampled grid realization of the lifted field on a space x time lattice.

    Per spatial frequency the time profile beta(<xi>^2 t) sum v_hat_k t^k/k!
    is sampled pointwise on the centered time grid.  The cutoff support at
    the lowest frequency must fit into half the time period, otherwise the
    profile would wrap around the torus.

    Parameters
    ----------
    v : CauchyData
        Components on the spatial section of ``lattice``.
    beta : CutoffProfile
        Cutoff; ``beta.support_radius`` bounds the time support at <xi> = 1.
    lattice : Lattice
        Target space x time lattice (time last).
    """
    spatial = Lattice(sizes=lattice.sizes[:-1], periods=lattice.periods[:-1])
    if spatial != v.lattice:
        raise DimensionMismatch("spatial section of the lattice must match the data")
    T_period = lattice.periods[-1]
    if beta.support_radius > T_period / 2.0:
        raise CutoffWrapsAround(
            f"cutoff support {beta.support_radius} exceeds half the time period "
            f"{T_period / 2.0} at the lowest frequency"
        )
    t = lattice.centered_grid_axis(lattice.k - 1)
    xi_sq = spatial.weight(isotropic(2.0, dimension=spatial.k))
    v_hats = [np.fft.fftn(c, norm="ortho") for c in v.components]
    coeffs = np.fft.fft(_lift_profile(v_hats, xi_sq, t, beta), axis=-1, norm="ortho")
    return SpectralField(lattice=lattice, coeffs=coeffs)


def lift_trace(v: CauchyData, beta: CutoffProfile, r_out: int) -> CauchyData:
    """Closed-form time-derivative traces of the lifted field at t = 0.

    Leibniz on beta(<xi>^2 t) * P(t) with P the data polynomial:

        trace_k(xi) = sum_m C(k,m) <xi>^(2m) beta^(m)(0) (k-m)! c_{k-m}(xi),

    with c_j = v_hat_j / j!.  The cutoff derivative values come from the
    profile's validated flat region.
    """
    xi_sq = v.lattice.weight(isotropic(2.0, dimension=v.lattice.k))
    v_hats = [np.fft.fftn(c, norm="ortho") for c in v.components]
    c_poly = [vh / math.factorial(j) for j, vh in enumerate(v_hats)]
    comps = []
    for k in range(r_out):
        d = beta.derivatives_at_zero(k)
        acc = np.zeros(v.lattice.sizes, dtype=complex)
        for m in range(k + 1):
            j = k - m
            if j >= len(c_poly):
                continue
            acc += (
                math.comb(k, m)
                * xi_sq**m
                * d[m]
                * math.factorial(j)
                * c_poly[j]
            )
        comps.append(np.fft.ifftn(acc, norm="ortho"))
    return CauchyData(lattice=v.lattice, components=tuple(comps))


# -- cutoff moments and boundedness ----------------------------------------------------

def _profile_derivative_samples(
    beta: CutoffProfile, m: int, pts: np.ndarray, k_pow: int
) -> np.ndarray:
    """d^m/dtau^m of beta(tau) tau^k at given points, by central FD of order 10, step 2e-3."""
    if m == 0:
        return beta(pts) * pts**k_pow
    acc = 10
    nodes = (np.arange(m + acc + 1) - (m + acc) / 2.0) * 2e-3
    w = fornberg_weights(0.0, nodes, m)[m]
    vals = np.zeros_like(pts, dtype=np.longdouble)
    for node, wj in zip(nodes, w):
        q = np.asarray(pts, dtype=np.longdouble) + np.longdouble(node)
        vals += wj * beta(q) * q**k_pow
    return vals.astype(float)


def cutoff_moments(beta: CutoffProfile, m: int, k: int) -> tuple[float, float]:
    """(c1, c2) with c1 = int |d^m(beta(tau) tau^k)|^2 dtau, c2 = int |tau^k beta|^2 dtau.

    Composite 8-point Gauss-Legendre on 256 panels of the support; the smooth,
    compactly supported integrands make the panel rule converge rapidly.
    """
    nodes, wts = np.polynomial.legendre.leggauss(8)
    a, b = -beta.support_radius, beta.support_radius
    edges = np.linspace(a, b, 257)
    c1 = 0.0
    c2 = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        pts = mid + half * nodes
        d = _profile_derivative_samples(beta, m, pts, k)
        c1 += half * float(np.sum(wts * d**2))
        base = beta(pts) * pts**k
        c2 += half * float(np.sum(wts * base**2))
    return c1, c2


def lift_bound_constant(beta: CutoffProfile, m: int, r: int, n_total: int) -> float:
    """Bound constant: ||T v||_(2m,m) <= C ||v|| with
    C = (sum_k (1/k!^2) (n c2(k) + c1(m,k)))^(1/2), n the space-time dimension."""
    total = 0.0
    for k in range(r):
        c1, c2 = cutoff_moments(beta, m, k)
        total += (n_total * c2 + c1) / math.factorial(k) ** 2
    return math.sqrt(total)


def equivalent_2m_norm(u: SpectralField, m: int) -> float:
    """The (2m, m) norm in its equivalent monomial form:
    (||u||^2 + sum_j ||d_{x_j}^{2m} u||^2 + ||d_t^m u||^2)^(1/2), all spectral."""
    *space, time = np.meshgrid(*u.lattice.freq_axes(), indexing="ij", sparse=True)
    mult = np.ones(u.lattice.sizes)
    for f in space:
        mult = mult + f ** (4 * m)
    mult = mult + time ** (2 * m)
    return float(np.sqrt(np.sum(mult * np.abs(u.coeffs) ** 2)))


# -- the compatibility projector --------------------------------------------------------

def lemma2_projector(
    data: tuple[np.ndarray, np.ndarray, np.ndarray],
    p: pb.ParabolicProblem,
    r: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Projection onto the compatibility-satisfying subspace: (f, g, h) -> (f, g*, h).

    g* adds the lateral lift of the mismatch between the boundary targets
    (v_k traces for Dirichlet, B_k values for first order) and the time
    traces of g, so corrected data satisfies the first r compatibility
    conditions; data that already satisfies them is fixed.  Idempotent up to
    the trace-extraction accuracy.  The mismatches are those of
    :func:`parabolic.compatibility_mismatch`, which checks the shape of g.
    The lift uses :func:`default_cutoff`.  It takes one datum, not a batch.
    """
    beta = default_cutoff()
    f, g, h = data
    pb._one_datum(p, h)
    g = np.asarray(g, dtype=complex)
    if r < 1:
        return (np.asarray(f, dtype=complex), g.copy(), np.asarray(h, dtype=complex))
    _, w_comps = pb.compatibility_mismatch(p, f, g, h, r)
    dt_g = p.tau / (g.shape[-1] - 1)
    tgrid = np.arange(g.shape[-1]) * dt_g
    # the trace stencils read g up to t = (r - 2 + _TRACE_ORDER) dt, and the lift is the
    # bare polynomial only where beta(xi_sq t) = 1, t <= flat_radius / xi_sq:
    # xi_sq is capped so that this covers the stencils at every frequency
    reach = (r - 2 + pb._TRACE_ORDER) * dt_g
    cap = beta.flat_radius / reach if reach > 0 else np.inf
    # per sheet and frequency xi of the boundary circle (xi = 0 alone on the interval)
    geom = p.geometry
    bracket = (geom.circle.weight(isotropic(2.0)) if isinstance(geom, pb.PeriodicStripGeometry)
               else np.ones(1))
    w_hats = [np.fft.fft(w.reshape(2, -1), axis=-1, norm="ortho") for w in w_comps]
    lift = np.fft.ifft(_lift_profile(w_hats, np.minimum(bracket, cap), tgrid, beta), axis=1,
                       norm="ortho")
    g_star = g + lift.reshape(g.shape)
    return (np.asarray(f, dtype=complex), g_star, np.asarray(h, dtype=complex))
