"""Parabolic problems on flat model geometries and their compatibility calculus.

The operator is A u = dt u + sum over |alpha| <= 2 of a_alpha D^alpha u with
D_j = i d/dx_j, on a cylinder over either the unit interval or a periodic
strip (0,1) x circle.  Both geometries have trivial single-chart boundaries
(two points, or two disjoint circles), which makes every boundary space
directly computable: the chart/partition machinery of the general theory is
the identity here.

The module provides the Petrovskii parabolicity and boundary-covering checks
(sampled margins with analytic minimizers over the spectral half-plane), the
recurrence for the initial time-derivative functions v_k built from (f, h),
the compatibility-condition count with its jump sets, residual checks of the
conditions themselves, and the three-component target norms assembled from
quotient norms over embedded periodic boxes.

Grid conventions: closed grids include endpoints, so interval fields have
nx+1 spatial points and nt+1 time levels; strip fields are (nx+1, ny, nt+1)
with the periodic y axis holding ny points.  nx, ny, nt must be powers of two
so the closed grids embed into padded periodic boxes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import spectra
from ._config import check_keys, positive, pow2, read_kind, read_value, real
from ._expr import compile_expr
from ._fd import apply_deriv_axis, trace_deriv_at_zero
from .errors import (
    DimensionMismatch,
    InsufficientSmoothness,
    InvalidConfig,
    NonFiniteData,
    NotFirstOrder,
)
from .params import FunctionParam, constant
from .spectra import Lattice, SubdomainMask
from .weights import RegularityIndex, isotropic, parabolic_split

__all__ = [
    "IntervalGeometry",
    "PeriodicStripGeometry",
    "Coefficient",
    "Dirichlet",
    "FirstOrder",
    "ParabolicProblem",
    "heat_problem",
    "problem_from_config",
    "ConditionReport",
    "check_petrovskii",
    "check_covering",
    "compat_count",
    "in_E",
    "continuity_intervals",
    "compute_v",
    "apply_boundary_recurrence",
    "CompatibilityReport",
    "compatibility_mismatch",
    "check_compatibility",
    "boundary_values",
    "gamma_norm",
    "target_norm_batch",
    "omega_domain",
    "lateral_domain",
    "spatial_domain",
]


# -- geometries -----------------------------------------------------------------

def _require_pow2(n: int, name: str) -> int:
    if n < 2 or (n & (n - 1)) != 0:
        raise ValueError(f"{name} must be a power of two >= 2, got {n}")
    return n


@dataclass(frozen=True)
class IntervalGeometry:
    """G = (0,1); the boundary consists of the two endpoints."""

    nx: int

    def __post_init__(self):
        _require_pow2(self.nx, "nx")

    @property
    def spatial_dim(self) -> int:
        return 1

    @property
    def dx(self) -> float:
        return 1.0 / self.nx

    def x_axis(self) -> np.ndarray:
        return np.arange(self.nx + 1) * self.dx

    def spatial_axes(self) -> tuple[np.ndarray, ...]:
        return (self.x_axis(),)

    def g_shape(self) -> tuple[int, ...]:
        return (self.nx + 1,)


@dataclass(frozen=True)
class PeriodicStripGeometry:
    """G = (0,1)_x x circle_y; the boundary is two disjoint circles."""

    nx: int
    ny: int
    period_y: float = 1.0

    def __post_init__(self):
        _require_pow2(self.nx, "nx")
        _require_pow2(self.ny, "ny")
        if self.period_y <= 0:
            raise ValueError("period_y must be positive")

    @property
    def spatial_dim(self) -> int:
        return 2

    @property
    def dx(self) -> float:
        return 1.0 / self.nx

    def x_axis(self) -> np.ndarray:
        return np.arange(self.nx + 1) * self.dx

    def y_axis(self) -> np.ndarray:
        return np.arange(self.ny) * (self.period_y / self.ny)

    def spatial_axes(self) -> tuple[np.ndarray, ...]:
        return (self.x_axis(), self.y_axis())

    @property
    def circle(self) -> Lattice:
        """The periodic y axis as a lattice: the frequencies and weights of a boundary circle."""
        return Lattice(sizes=(self.ny,), periods=(self.period_y,))

    def g_shape(self) -> tuple[int, ...]:
        return (self.nx + 1, self.ny)


Geometry = IntervalGeometry | PeriodicStripGeometry


def _spatial_meshes(geom: Geometry):
    """The spatial axes as broadcast views over the closed spatial grid."""
    return tuple(np.broadcast_to(m, geom.g_shape()) for m in np.ix_(*geom.spatial_axes()))


# -- coefficients -----------------------------------------------------------------

@dataclass(frozen=True)
class Coefficient:
    """Smooth coefficient on the closed cylinder.

    ``evaluator(*spatial, t)`` must broadcast over arrays; it may return a
    scalar (a constant returns its value), and callers broadcast.  Optional exact
    time-derivative evaluators avoid one-sided differencing of the
    coefficient at t = 0; constants short-circuit to zero derivatives.
    ``key`` is where a config gave the coefficient (``a['2']``), which
    errors name.
    """

    evaluator: Callable
    dt_evaluators: tuple[Callable, ...] = ()
    time_constant: bool = False
    label: str = ""
    key: str = ""

    @classmethod
    def const(cls, value: complex) -> "Coefficient":
        v = complex(value)
        return cls(evaluator=lambda *args: v, time_constant=True, label=f"{value}")

    def values(self, *args, q: int = 0) -> np.ndarray:
        """The coefficient (q = 0) or its exact q-th time derivative at (*spatial, t), complex.

        Raises :class:`NonFiniteData` naming the coefficient where a value is
        NaN or infinite, or where Python float arithmetic on a scalar
        argument (t = 0.0 in ``1/t``) has no value; numpy's warnings for
        those values are silenced, the error reports them.
        """
        what = f"time derivative {q} of coefficient" if q else "coefficient"
        name = f"{self.key} = {self.label}" if self.key else self.label or repr(self.evaluator)
        try:
            with np.errstate(all="ignore"):
                vals = np.asarray((self.dt_evaluators[q - 1] if q else self.evaluator)(*args),
                                  dtype=complex)
        except (ZeroDivisionError, OverflowError) as err:
            raise NonFiniteData(f"{what} {name} takes NaN or infinite values ({err})") from err
        if not np.isfinite(vals).all():
            raise NonFiniteData(f"{what} {name} takes NaN or infinite values")
        return vals

    def on_G(self, geom: Geometry, t: float) -> np.ndarray:
        return self.values(*_spatial_meshes(geom), t) + np.zeros(geom.g_shape(), dtype=complex)

    def dt_on_G(self, geom: Geometry, q: int, tau: float, acc: int = 8) -> np.ndarray:
        """d^q/dt^q of the coefficient at t = 0 on the closed spatial grid."""
        if q == 0:
            return self.on_G(geom, 0.0)
        if self.time_constant:
            return np.zeros(geom.g_shape(), dtype=complex)
        if len(self.dt_evaluators) >= q:
            return self.values(*_spatial_meshes(geom), 0.0, q=q) + np.zeros(geom.g_shape(),
                                                                            dtype=complex)
        h = tau / 256.0
        samples = np.stack([self.on_G(geom, j * h) for j in range(q + acc)], axis=-1)
        return trace_deriv_at_zero(samples, samples.ndim - 1, h, q, acc)


def _as_coefficient(c) -> Coefficient:
    if isinstance(c, Coefficient):
        return c
    if isinstance(c, (int, float, complex)):
        return Coefficient.const(c)
    return Coefficient(evaluator=c)


@dataclass(frozen=True)
class Dirichlet:
    order = 0


@dataclass(frozen=True)
class FirstOrder:
    """B u = sum b_j D_j u + b_0 u with smooth coefficients on the lateral boundary."""

    b: dict

    order = 1

    def coeff(self, j: int) -> Coefficient:
        return _as_coefficient(self.b.get(j, 0.0))

    def terms(self, n: int) -> dict:
        """B as {alpha: coefficient}: b_j on D_j, the multi-index e_j, then b_0 on the identity."""
        units = [tuple(int(i == j) for i in range(n)) for j in range(n)]
        return {**{units[j - 1]: self.coeff(j) for j in range(1, n + 1)}, (0,) * n: self.coeff(0)}


def _multi_index(alpha, n: int) -> tuple[int, ...]:
    """``alpha`` as a tuple, or ValueError unless it is a multi-index of order <= 2 in n dimensions."""
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != n or any(a < 0 for a in alpha) or sum(alpha) > 2:
        raise ValueError(f"bad multi-index {alpha} for spatial dimension {n}")
    return alpha


@dataclass(frozen=True)
class ParabolicProblem:
    """Second-order parabolic problem description on a flat cylinder.

    ``a_coeffs`` maps multi-indices alpha (tuples of length spatial_dim,
    |alpha| <= 2) to coefficients of A u = dt u + sum a_alpha D^alpha u.
    Construction does not run the parabolicity/covering checks; failing
    instances must be constructible so the checks themselves can report on
    them.  Call :func:`check_petrovskii` / :func:`check_covering` to validate.
    """

    geometry: Geometry
    tau: float
    a_coeffs: dict
    boundary: Dirichlet | FirstOrder

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        norm_a = {_multi_index(alpha, self.n): _as_coefficient(c) for alpha, c in self.a_coeffs.items()}
        object.__setattr__(self, "a_coeffs", norm_a)

    @property
    def n(self) -> int:
        return self.geometry.spatial_dim

    @property
    def order_l(self) -> int:
        return self.boundary.order


def heat_problem(
    geometry: Geometry,
    tau: float = 1.0,
    boundary: str = "dirichlet",
) -> ParabolicProblem:
    """Heat operator dt - Laplace with Dirichlet or Neumann-type boundary."""
    n = geometry.spatial_dim
    a = {}
    for j in range(n):
        alpha = tuple(2 if i == j else 0 for i in range(n))
        a[alpha] = Coefficient.const(1.0)
    if boundary == "dirichlet":
        bnd: Dirichlet | FirstOrder = Dirichlet()
    elif boundary == "neumann":
        # B = nu . D with nu = (1-2x, 0) on the two sheets x in {0, 1}
        bnd = FirstOrder(
            b={1: Coefficient(evaluator=lambda *args: 1.0 - 2.0 * args[0],
                              time_constant=True, label="1-2x")}
        )
    else:
        raise ValueError(f"unknown boundary {boundary!r}")
    return ParabolicProblem(geometry=geometry, tau=tau, a_coeffs=a, boundary=bnd)


# per kind: the keys beside "kind" that a section must hold, and those it may hold
_GEOMETRY_KINDS = {"interval": (("nx",), ()), "strip": (("nx", "ny"), ("period_y",))}
_BOUNDARY_KINDS = {"dirichlet": ((), ()), "first_order": (("b",), ())}


def _config_table(cfg: dict, key: str, where: str, read_key, parse) -> dict:
    """The coefficient table ``cfg[key]`` as {read_key(k): parse(spec, k)}.

    InvalidConfig naming the key unless the table is an object whose keys
    all read, no two of them as the same entry ("2" and "02" are one
    multi-index).
    """
    table = cfg[key]
    if not isinstance(table, dict):
        raise InvalidConfig(f"{where} must be an object of coefficients, got {type(table).__name__}")
    out, named_by = {}, {}
    for k, spec in table.items():
        entry = read_value(f"{where} key {k!r}", read_key, k)
        if entry in named_by:
            raise InvalidConfig(f"{where} keys {named_by[entry]!r} and {k!r} both name {entry}")
        named_by[entry] = k
        out[entry] = parse(spec, f"{where}[{k!r}]")
    return out


def problem_from_config(cfg: dict) -> ParabolicProblem:
    """Build a problem from a JSON-style dict with expression-language coefficients.

    The dict holds ``geometry`` and ``a``, and may hold ``tau`` (default 1)
    and ``boundary`` (default Dirichlet).  A geometry is ``{"kind":
    "interval", "nx"}`` or ``{"kind": "strip", "nx", "ny"}`` with an optional
    ``period_y``; a boundary is ``{"kind": "dirichlet"}`` or ``{"kind":
    "first_order", "b"}``.  A key outside this schema raises
    :class:`UnknownConfigKey`; a missing key, an unknown kind, a value its key
    does not admit, or a coefficient table that is not an object raises
    :class:`InvalidConfig` naming the key.
    """
    check_keys(cfg, "config", ("geometry", "a"), ("tau", "boundary"))
    gcfg = cfg["geometry"]
    if read_kind(gcfg, "geometry", _GEOMETRY_KINDS) == "interval":
        geom: Geometry = IntervalGeometry(nx=read_value("geometry nx", pow2, gcfg["nx"]))
        variables: tuple[str, ...] = ("x", "t")
    else:
        geom = PeriodicStripGeometry(
            nx=read_value("geometry nx", pow2, gcfg["nx"]),
            ny=read_value("geometry ny", pow2, gcfg["ny"]),
            period_y=read_value("geometry period_y", positive, gcfg.get("period_y", 1.0)),
        )
        variables = ("x", "y", "t")
    n = geom.spatial_dim

    def parse_coeff(spec, where: str) -> Coefficient:
        if isinstance(spec, (int, float)):  # true, NaN and Infinity do not read as numbers
            return Coefficient.const(read_value(where, real, spec))
        return Coefficient(evaluator=read_value(where, lambda src: compile_expr(src, variables),
                                                   str(spec)), label=str(spec), key=where)

    a = _config_table(cfg, "a", "a", lambda k: _multi_index(str(k).split(","), n), parse_coeff)
    bcfg = cfg.get("boundary", {"kind": "dirichlet"})
    if read_kind(bcfg, "boundary", _BOUNDARY_KINDS) == "dirichlet":
        boundary: Dirichlet | FirstOrder = Dirichlet()
    else:
        # b_1..b_n act on D_1..D_n and b_0 on the identity
        boundary = FirstOrder(b=_config_table(bcfg, "b", "boundary b",
                                              lambda j: range(n + 1).index(int(j)), parse_coeff))
    return ParabolicProblem(
        geometry=geom, tau=read_value("tau", positive, cfg.get("tau", 1.0)), a_coeffs=a,
        boundary=boundary,
    )


# -- spatial derivatives on closed grids -------------------------------------------

def apply_D_alpha(
    geom: Geometry, f: np.ndarray, alpha: tuple[int, ...], acc: int = 8
) -> np.ndarray:
    """D^alpha with D_j = i d/dx_j: x by finite differences, y spectrally.

    The spatial axes are the trailing ones of ``f``; leading axes are batch.
    """
    out = np.asarray(f)
    if not np.iscomplexobj(out):
        out = out.astype(complex)
    x_axis = out.ndim - geom.spatial_dim
    if alpha[0]:
        out = apply_deriv_axis(out, x_axis, geom.dx, alpha[0], acc)
    if isinstance(geom, PeriodicStripGeometry) and len(alpha) > 1 and alpha[1]:
        out = out.astype(complex)  # fft has no extended-precision path
        xi = geom.circle.freq_axis(0)
        shape = [1] * out.ndim
        shape[x_axis + 1] = geom.ny
        out = np.fft.ifft(
            (1j * xi.reshape(shape)) ** alpha[1] * np.fft.fft(out, axis=x_axis + 1),
            axis=x_axis + 1,
        )
    return (np.clongdouble(1j) ** sum(alpha)) * out if out.dtype == np.clongdouble else (1j ** sum(alpha)) * out


def boundary_values(geom: Geometry, f: np.ndarray, axis: int = 0) -> np.ndarray:
    """Restrict a closed-grid field to the boundary sheets (x=0, x=1) along its x axis ``axis``."""
    return np.stack([np.take(f, 0, axis), np.take(f, -1, axis)], axis=axis)


# -- parabolicity and covering checks ----------------------------------------------

@dataclass(frozen=True)
class ConditionReport:
    passed: bool
    margin: float
    margin_b: float | None
    samples: int
    worst: dict


def _principal_symbol(p: ParabolicProblem, spatial_pts, t, xi) -> np.ndarray:
    """sum over |alpha|=2 of a_alpha(x,t) xi^alpha, vectorized over samples."""
    n = p.n
    total = np.zeros(np.broadcast_shapes(t.shape, xi.shape[:-1]), dtype=complex)
    for alpha, coeff in p.a_coeffs.items():
        if sum(alpha) != 2:
            continue
        vals = coeff.values(*spatial_pts, t)
        mono = np.ones(xi.shape[:-1])
        for j in range(n):
            if alpha[j]:
                mono = mono * xi[..., j] ** alpha[j]
        total = total + vals * mono
    return total


def _sample_cylinder(p: ParabolicProblem, m: int, rng) -> tuple:
    if isinstance(p.geometry, IntervalGeometry):
        pts = (rng.uniform(0.0, 1.0, m),)
    else:
        pts = (rng.uniform(0.0, 1.0, m), rng.uniform(0.0, p.geometry.period_y, m))
    t = rng.uniform(0.0, p.tau, m)
    return pts, t


def check_petrovskii(p: ParabolicProblem, samples: int = 2000, seed: int = 0) -> ConditionReport:
    """Sampled Petrovskii-parabolicity margin.

    Over random (x, t) in the closed cylinder and xi on the unit sphere, the
    modulus |p0 + sum a_alpha xi^alpha| is minimized over the half-plane
    Re p0 >= 0 in closed form, so the reported margin is exact per sampled
    (x, t, xi).  PASS requires margin > 1e-9.
    """
    if samples < 1000:
        raise ValueError("need at least 1e3 samples")
    rng = np.random.default_rng(seed)
    pts, t = _sample_cylinder(p, samples, rng)
    if p.n == 1:
        xi = rng.choice([-1.0, 1.0], size=(samples, 1))
    else:
        ang = rng.uniform(0, 2 * np.pi, samples)
        xi = np.column_stack([np.cos(ang), np.sin(ang)])
    q = _principal_symbol(p, pts, t, xi)
    # min over Re p0 >= 0 of |p0 + q| is max(Re q, 0)
    margins = np.maximum(np.real(q), 0.0)
    i = int(np.argmin(margins))
    worst = {
        "x": tuple(float(c[i]) for c in pts),
        "t": float(t[i]),
        "xi": tuple(float(v) for v in xi[i]),
        "symbol": complex(q[i]),
    }
    margin = float(margins[i])
    return ConditionReport(
        passed=margin > 1e-9, margin=margin, margin_b=None, samples=samples, worst=worst
    )


def check_covering(p: ParabolicProblem, samples: int = 2000, seed: int = 0) -> ConditionReport:
    """Sampled boundary-covering margins (parts a and b).

    Part a: |sum b_j nu_j| bounded away from zero on the lateral boundary.
    Part b: the ratio zeta built from the tangential component is not a root
    of the principal polynomial in the normal direction.  For real b the
    second part follows from parabolicity; the check confirms it numerically.
    """
    if not isinstance(p.boundary, FirstOrder):
        raise NotFirstOrder("covering check requires a first-order boundary operator")
    if samples < 1000:
        raise ValueError("need at least 1e3 samples")
    rng = np.random.default_rng(seed)
    n = p.n
    m = samples
    sheet = rng.integers(0, 2, m)
    xb = sheet.astype(float)  # x = 0 or 1
    t = rng.uniform(0.0, p.tau, m)
    # deterministic extremes: pure-p samples (w = 0) and pure-eta samples
    # (w = 1, p = 0, admissible since |eta| + |p| = 1) on both sheets
    extremes = np.array([0.0, 0.5, 1.0])
    n_extra = 2 * len(extremes)
    sheet = np.concatenate([sheet, np.repeat([0, 1], len(extremes))])
    xb = sheet.astype(float)
    t = np.concatenate([t, np.zeros(n_extra)])
    m_tot = m + n_extra
    if n == 1:
        spatial = (xb,)
        nu = _sign_column(sheet)[:, None] * np.ones((m_tot, 1))
        eta = np.zeros((m_tot, 1))
    else:
        y = np.concatenate([rng.uniform(0.0, p.geometry.period_y, m), np.zeros(n_extra)])
        spatial = (xb, y)
        nu = np.column_stack([_sign_column(sheet), np.zeros(m_tot)])
        w = np.concatenate([rng.uniform(0.0, 1.0, m), np.tile(extremes, 2)])
        signs = np.concatenate([rng.choice([-1.0, 1.0], m), np.ones(n_extra)])
        eta = np.column_stack([np.zeros(m_tot), w * signs])
    m = m_tot
    b_vals = [
        p.boundary.coeff(j).values(*spatial, t) + np.zeros(m, dtype=complex)
        for j in range(n + 1)
    ]
    b_vec = np.column_stack(b_vals[1:])
    b_nu = np.sum(b_vec * nu, axis=1)
    margin_a = float(np.min(np.abs(b_nu)))
    ia = int(np.argmin(np.abs(b_nu)))

    eta_norm = np.linalg.norm(eta, axis=1)
    p_mod = 1.0 - eta_norm  # |eta| + |p0| = 1 sampling
    p0 = p_mod * np.exp(1j * rng.uniform(-np.pi / 2, np.pi / 2, m))
    ok = np.abs(b_nu) > 1e-12 * (1.0 + np.abs(np.sum(b_vec * eta, axis=1)))
    zeta = np.zeros(m, dtype=complex)
    zeta[ok] = -np.sum(b_vec * eta, axis=1)[ok] / b_nu[ok]
    direction = eta.astype(complex) + zeta[:, None] * nu
    poly = p0 + _principal_symbol(p, spatial, t, direction)
    vals_b = np.abs(poly[ok])
    margin_b = float(np.min(vals_b)) if vals_b.size else float("nan")
    passed = margin_a > 1e-9 and (not vals_b.size or margin_b > 1e-9)
    worst = {
        "x": tuple(float(c[ia]) for c in spatial),
        "t": float(t[ia]),
        "b_nu": complex(b_nu[ia]),
    }
    return ConditionReport(
        passed=passed, margin=margin_a, margin_b=margin_b, samples=samples, worst=worst
    )


def _sign_column(sheet: np.ndarray) -> np.ndarray:
    return np.where(sheet == 0, 1.0, -1.0)


# -- compatibility counting ---------------------------------------------------------

def compat_count(s: float, l: int) -> int:
    """Number of compatibility conditions at smoothness s (2 < s)."""
    if s <= 2:
        raise ValueError("the compatibility calculus requires s > 2")
    if l not in (0, 1):
        raise ValueError("l must be 0 (Dirichlet) or 1 (first-order)")
    m = s / 2.0 - (0.75 if l == 0 else 1.25)
    if m <= 0:
        return 0
    return int(math.ceil(m))


def in_E(s: float, l: int) -> bool:
    """Exact membership in the jump set {2r + 3/2} (l=0) or {2r + 1/2} (l=1), r >= 1."""
    offset = 1.5 if l == 0 else 0.5
    r = (s - offset) / 2.0
    return r >= 1.0 and r == math.floor(r)


def continuity_intervals(l: int, r_max: int = 8) -> list[tuple[float, float]]:
    """Open intervals of s on which the condition count is constant."""
    if l == 0:
        out = [(2.0, 3.5)]
        out += [(2 * r - 0.5, 2 * r + 1.5) for r in range(2, r_max + 1)]
    else:
        out = [(2.0, 2.5)]
        out += [(2 * r + 0.5, 2 * r + 2.5) for r in range(1, r_max + 1)]
    return out


# -- the v_k recurrence ---------------------------------------------------------------

def compute_v(
    p: ParabolicProblem,
    f: np.ndarray,
    h: np.ndarray,
    k_max: int,
    acc_t: int = 8,
    acc_x: int = 8,
) -> list[np.ndarray]:
    """Initial time-derivative functions v_0..v_k_max on the spatial grid.

    v_0 = h and, for k >= 1,

        v_k = - sum_alpha sum_{q<k} C(k-1, q) (dt^(k-1-q) a_alpha)(., 0)
              D^alpha v_q + dt^(k-1) f(., 0).

    Time traces of f use one-sided differences of order ``acc_t``; spatial
    derivatives use order-``acc_x`` differences along x and exact spectral
    differentiation along the periodic axis.

    ``f`` has shape ``(*batch, *g_shape, nt+1)`` and ``h`` has shape
    ``(*batch, *g_shape)`` with the same (possibly empty) leading batch axes;
    each returned v_k has the shape of ``h``.  Stencils and coefficient
    traces are built once per call and applied to the whole batch, and every
    batch item equals the result of an unbatched call on that item.
    """
    geom = p.geometry
    f = np.asarray(f)
    h = np.asarray(h)
    extended = any(x.dtype in (np.longdouble, np.clongdouble) for x in (f, h))
    work = np.clongdouble if extended else complex
    f = f.astype(work)
    h = h.astype(work)
    g_shape = geom.g_shape()
    if f.shape[:-1] != h.shape or h.shape[-len(g_shape):] != g_shape:
        raise DimensionMismatch(
            f"f must live on the closed cylinder grid {g_shape} x (nt+1) and h on "
            f"the closed spatial grid {g_shape}, after the same batch axes"
        )
    nt = f.shape[-1] - 1
    dt = p.tau / nt
    if k_max >= 1 and nt + 1 < (k_max - 1) + acc_t:
        raise InsufficientSmoothness(
            f"time grid with {nt + 1} levels cannot produce {k_max - 1} trace derivatives"
        )
    f_traces = [trace_deriv_at_zero(f, f.ndim - 1, dt, q, acc_t) for q in range(max(k_max, 1))]
    a_derivs = {alpha: [coeff.dt_on_G(geom, q, p.tau) for q in range(max(k_max, 1))]
                for alpha, coeff in p.a_coeffs.items()}
    v = [h]
    dv: list[dict] = []  # dv[q][alpha] = D^alpha v_q, built once and reused for every k > q
    for k in range(1, k_max + 1):
        dv.append({alpha: apply_D_alpha(geom, v[k - 1], alpha, acc_x) for alpha in p.a_coeffs})
        v.append(-_leibniz_sum(k - 1, a_derivs, dv) + f_traces[k - 1])
    return v


def _leibniz_sum(n: int, c_derivs: dict, dv: Sequence[dict]) -> np.ndarray:
    """dt^n (sum_alpha c_alpha D^alpha u)(., 0) by the Leibniz rule: the sum over alpha, then
    q <= n, of C(n, q) c_derivs[alpha][n-q] dv[q][alpha], with dt^m c_alpha(., 0) in
    ``c_derivs[alpha][m]`` and D^alpha v_q = D^alpha dt^q u(., 0) in ``dv[q][alpha]``."""
    return sum(math.comb(n, q) * derivs[n - q] * dv[q][alpha]
               for alpha, derivs in c_derivs.items() for q in range(n + 1))


def apply_boundary_recurrence(
    p: ParabolicProblem, v: Sequence[np.ndarray], k: int, acc_x: int = 8
) -> np.ndarray:
    """B_k[v_0..v_k] on the boundary sheets for a first-order boundary operator.

    B_k = sum_{q<=k} C(k,q) [ sum_j (dt^(k-q) b_j)(.,0) D_j v_q
                              + (dt^(k-q) b_0)(.,0) v_q ], restricted to the
    boundary: compute_v's Leibniz sum, b_j on D_j and b_0 on the identity.
    The x-normal component flips sign between the two sheets only through nu
    entering D_1 values, which are taken as one-sided traces.  The v_q may
    share leading batch axes, which the result keeps.
    """
    if not isinstance(p.boundary, FirstOrder):
        raise NotFirstOrder("B_k requires a first-order boundary operator")
    geom, terms = p.geometry, p.boundary.terms(p.n)
    b_derivs = {alpha: [boundary_values(geom, b.dt_on_G(geom, m, p.tau)) for m in range(k + 1)]
                for alpha, b in terms.items()}
    dv = [{alpha: boundary_values(geom, apply_D_alpha(geom, v[q], alpha, acc_x) if any(alpha)
                                  else v[q], axis=-p.n) for alpha in terms} for q in range(k + 1)]
    return _leibniz_sum(k, b_derivs, dv)


# -- compatibility residuals -----------------------------------------------------------

# order of the one-sided time traces dt^k g(., 0) that the compatibility conditions
# read; the jump study's zero columns and the projector's lift cap follow from it
_TRACE_ORDER = 8

@dataclass
class CompatibilityReport:
    s: float
    l: int
    count: int
    count_above: int
    at_jump: bool
    residuals: list[float]
    residual_orders: list[float]
    v_funcs: list[np.ndarray] = field(repr=False)
    tol = 1e-8

    @property
    def passed(self) -> bool:
        return all(r < self.tol for r in self.residuals[: self.count])

    def to_dict(self) -> dict:
        return {
            "s": self.s,
            "l": self.l,
            "count": self.count,
            "count_above": self.count_above,
            "at_jump": self.at_jump,
            "residuals": self.residuals,
            "residual_orders": self.residual_orders,
            "passed": self.passed,
            "tol": self.tol,
            "trace_accuracy": _TRACE_ORDER,
        }


def gamma_norm(
    geom: Geometry, vals: np.ndarray, sigma: float, phi: FunctionParam | None = None
) -> float:
    """Boundary-space norm of a field on the two boundary sheets.

    Interval boundaries are two points, so every order gives phi(1) times the
    plain Euclidean norm; strip boundaries are two circles measured in the
    isotropic multiplier norm of order sigma.
    """
    phi = phi if phi is not None else constant()
    vals = np.asarray(vals, dtype=complex)
    if isinstance(geom, IntervalGeometry):
        return float(phi(1.0) * np.linalg.norm(vals))
    idx = isotropic(sigma, phi, dimension=1)
    sheets = (spectra.SpectralField.from_samples(geom.circle, sheet) for sheet in vals)
    return math.sqrt(sum(spectra.norm(idx, u) ** 2 for u in sheets))


def compatibility_mismatch(
    p: ParabolicProblem,
    f: np.ndarray,
    g: np.ndarray,
    h: np.ndarray,
    count: int,
    acc_x: int = 8,
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """v_0..v_(count-1) (v_0 at least) and the first ``count`` compatibility mismatches.

    The package's one definition of the compatibility conditions.  Mismatch
    k, complex on the two boundary sheets, is the boundary target minus the
    one-sided time trace dt^k g(., 0) of order :data:`_TRACE_ORDER`: the target is v_k
    on the boundary for the Dirichlet problem and B_k[v_0..v_k] for a
    first-order boundary operator.  f, g and h may share leading batch axes,
    which each mismatch keeps; each item equals the unbatched call's.
    """
    geom = p.geometry
    g = np.asarray(g, dtype=complex)
    expected_g = np.shape(h)[: max(np.ndim(h) - p.n, 0)] + (2,) + geom.g_shape()[1:]
    if g.shape[:-1] != expected_g:
        raise DimensionMismatch(f"g must have shape {expected_g} x (nt+1)")
    dt_g = p.tau / (g.shape[-1] - 1)
    v = compute_v(p, f, h, max(count - 1, 0), _TRACE_ORDER, acc_x)
    mismatches = []
    for k in range(count):
        if p.order_l == 0:
            target = boundary_values(geom, v[k], axis=-p.n)
        else:
            target = apply_boundary_recurrence(p, v, k, acc_x)
        trace = trace_deriv_at_zero(g, g.ndim - 1, dt_g, k, _TRACE_ORDER)
        mismatches.append(np.asarray(target - trace, dtype=complex))
    return v, mismatches


def _one_datum(p: ParabolicProblem, h) -> None:
    """DimensionMismatch unless h is one initial state, with no batch axes."""
    if np.shape(h) != p.geometry.g_shape():
        raise DimensionMismatch(f"h must be one datum of shape {p.geometry.g_shape()}")


def check_compatibility(
    p: ParabolicProblem,
    f: np.ndarray,
    g: np.ndarray,
    h: np.ndarray,
    s: float,
) -> CompatibilityReport:
    """Residuals of the compatibility conditions at smoothness s.

    For the Dirichlet problem the k-th condition is dt^k g(.,0) = v_k on the
    boundary; for a first-order boundary operator the right side is
    B_k[v_0..v_k] (see :func:`compatibility_mismatch`).  Residual k is
    measured in the boundary norm of order s - 3/2 - 2k (respectively
    s - 5/2 - 2k) with trivial weight factor, and passes below 1e-8.  At a
    jump point both adjacent counts are evaluated and flagged.  It takes one
    datum, not a batch.  Time traces have order :data:`_TRACE_ORDER` and
    spatial derivatives order 8.
    """
    _one_datum(p, h)
    l = p.order_l
    if s <= 2:
        raise ValueError("compatibility checks require s > 2")
    at_jump = in_E(s, l)
    count = compat_count(s, l)
    count_above = compat_count(s + 1e-9, l) if at_jump else count
    n_eval = count_above if at_jump else count
    v, mismatches = compatibility_mismatch(p, f, g, h, n_eval)
    top = s - 1.5 if l == 0 else s - 2.5
    orders = [top - 2 * k for k in range(n_eval)]
    residuals = [gamma_norm(p.geometry, m, order) for m, order in zip(mismatches, orders)]
    return CompatibilityReport(
        s=s, l=l, count=count, count_above=count_above, at_jump=at_jump,
        residuals=residuals, residual_orders=orders, v_funcs=v,
    )


# -- target norms ------------------------------------------------------------------------

def _box_domain(axes: list[tuple[int, float, int]]) -> SubdomainMask:
    """A closed grid at the origin of a periodic box; one (size, period, points) per axis."""
    sizes, periods, points = zip(*axes)
    mask = np.zeros(sizes, dtype=bool)
    mask[tuple(slice(m) for m in points)] = True
    return SubdomainMask(Lattice(sizes=sizes, periods=periods), mask)


def _space_axes(geom: Geometry) -> list[tuple[int, float, int]]:
    """x doubled to (0, 2) with nx+1 closed points; the strip's y axis as it is."""
    axes = [(2 * geom.nx, 2.0, geom.nx + 1)]
    if isinstance(geom, PeriodicStripGeometry):
        axes.append((geom.ny, geom.period_y, geom.ny))
    return axes


def omega_domain(geom: Geometry, tau: float, nt: int) -> SubdomainMask:
    """The closed cylinder grid embedded in a doubled periodic box."""
    return _box_domain(_space_axes(geom) + [(2 * nt, 2.0 * tau, nt + 1)])


def lateral_domain(geom: Geometry, tau: float, nt: int) -> SubdomainMask:
    """One boundary sheet of the lateral boundary, time-padded."""
    return _box_domain(_space_axes(geom)[1:] + [(2 * nt, 2.0 * tau, nt + 1)])


def spatial_domain(geom: Geometry) -> SubdomainMask:
    """The closed spatial domain embedded in an x-doubled periodic box."""
    return _box_domain(_space_axes(geom))


def _measure_factor(lat: Lattice) -> float:
    """Converts unitary-DFT sample norms to integral (Fourier-series) norms.

    Multiplying a lattice multiplier norm by sqrt(|box| / #points) makes it a
    Riemann approximation of the continuum integral norm, so the three data
    components combine with resolution-independent relative weights.
    """
    return math.sqrt(float(np.prod(lat.periods)) / lat.npoints)


@dataclass(frozen=True)
class TargetNormBreakdown:
    interior: float
    lateral: float
    initial: float

    @property
    def total(self) -> float:
        return math.sqrt(self.interior**2 + self.lateral**2 + self.initial**2)


def _component_indices(
    geom: Geometry, s: float, l: int, phi: FunctionParam
) -> tuple[RegularityIndex, RegularityIndex, RegularityIndex]:
    k_omega = geom.spatial_dim + 1
    sigma_s = s - 0.5 - l  # s - 1/2 (Dirichlet) or s - 3/2 (first order)
    idx_f = parabolic_split(s - 2.0, phi, dimension=k_omega)
    idx_g = parabolic_split(sigma_s, phi, dimension=k_omega - 1)
    idx_h = isotropic(s - 1.0, phi, dimension=geom.spatial_dim)
    return idx_f, idx_g, idx_h


def _cells(s, phi) -> tuple[list[tuple[float, FunctionParam]], bool]:
    """The (s, phi) cells of a batched norm call, and whether it named just one.

    A scalar ``s`` with one ``phi`` (None: the constant parameter) is one
    cell; otherwise ``s`` and ``phi`` are equally long sequences, one cell
    per position.
    """
    if np.ndim(s) == 0:
        return [(s, phi if phi is not None else constant())], True
    if phi is None or len(phi) != len(s):
        raise ValueError("s and phi must be equally long sequences")
    return list(zip(s, phi)), False


def target_norm_batch(
    p: ParabolicProblem,
    datas: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
    s: float | Sequence[float],
    phi: FunctionParam | Sequence[FunctionParam] | None = None,
    nt: int | None = None,
) -> list[TargetNormBreakdown] | list[list[TargetNormBreakdown]]:
    """Three-component target norms for a batch of (f, g, h) data triples.

    The interior component measures f in the anisotropic quotient norm of
    order s-2 over the cylinder; the lateral component measures g at order
    s-1/2 (Dirichlet) or s-3/2 (first order) summed over the two boundary
    sheets; the initial component measures h isotropically at order s-1.
    All quotient solves share factorizations across the batch.

    ``s`` and ``phi`` may also be equally long sequences (the cells of a
    sweep); then each component is one quotient call over every cell's
    index, so the data are prepared once, and the result holds one list of
    breakdowns per cell, each equal to the single-cell call.
    """
    geom = p.geometry
    cells, single = _cells(s, phi)
    if any(sc <= 2 for sc, _ in cells):
        raise ValueError("target norms are defined for s > 2")
    f0, g0, h0 = datas[0]
    nt = f0.shape[-1] - 1 if nt is None else nt
    l = p.order_l
    idx_f, idx_g, idx_h = zip(*(_component_indices(geom, sc, l, ph) for sc, ph in cells))

    om = omega_domain(geom, p.tau, nt)
    lateral = lateral_domain(geom, p.tau, nt)
    spat = spatial_domain(geom)

    f_vals = spectra.quotient_norm_batch(
        idx_f, [np.asarray(f).reshape(-1) for f, _, _ in datas], om
    ) * _measure_factor(om.lattice)
    # both boundary sheets in one batch, so one factorization serves both
    g_sheets = spectra.quotient_norm_batch(
        idx_g,
        [np.asarray(g)[sheet].reshape(-1) for sheet in range(2) for _, g, _ in datas],
        lateral,
    ).reshape(len(cells), 2, len(datas))
    g_vals = (np.sqrt(g_sheets[:, 0] ** 2 + g_sheets[:, 1] ** 2)
              * _measure_factor(lateral.lattice))
    h_vals = spectra.quotient_norm_batch(
        idx_h, [np.asarray(h).reshape(-1) for _, _, h in datas], spat
    ) * _measure_factor(spat.lattice)
    out = [
        [TargetNormBreakdown(interior=float(fv), lateral=float(gv), initial=float(hv))
         for fv, gv, hv in zip(*cell)]
        for cell in zip(f_vals, g_vals, h_vals)
    ]
    return out[0] if single else out

