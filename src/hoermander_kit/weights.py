"""Regularity-index weights on frequency space.

The anisotropic weight pairs one time derivative with two space derivatives:

    mu(xi', xi_k) = (1 + |xi'|^2 + |xi_k|)^(s/2) * phi((1 + |xi'|^2 + |xi_k|)^(1/2))

with the time frequency ``xi_k`` on the last axis.  The isotropic weight uses
``1 + |xi|^2`` instead.  Both are evaluated lazily on frequency meshes; full
grids of built-in phi families are cached (read-only) only below 2**24
lattice points, and the least recently used go once all cached grids together
pass 2**28 bytes.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch
from .params import FunctionParam, constant

__all__ = [
    "RegularityIndex",
    "isotropic",
    "parabolic_split",
    "eval_weight",
    "weight_on_mesh",
    "check_admissibility",
    "AdmissibilityFit",
]


class _GridCache:
    """Read-only grids by key, least recently used first out.

    A grid is an array, or any read-only value with an ``nbytes`` size (the
    parity plans of ``spectra``).  Holds at most ``byte_cap`` bytes of grids
    in total; storing a grid evicts the least recently used ones until the
    total fits again.
    """

    def __init__(self, byte_cap: int):
        self.byte_cap = byte_cap
        self.nbytes = 0
        self._grids: OrderedDict = OrderedDict()

    def __len__(self) -> int:
        return len(self._grids)

    def get(self, key):
        grid = self._grids.get(key)
        if grid is not None:
            self._grids.move_to_end(key)
        return grid

    def put(self, key, grid: np.ndarray) -> None:
        self._grids[key] = grid
        self.nbytes += grid.nbytes
        while self.nbytes > self.byte_cap:
            _, old = self._grids.popitem(last=False)
            self.nbytes -= old.nbytes

    def clear(self) -> None:
        self._grids.clear()
        self.nbytes = 0


_GRID_CACHE_POINT_CAP = 2**24  # 128 MiB per float64 grid
# far above every working set of the benchmark (under 2 MiB), and room for a
# grid at the point cap
_GRID_CACHE = _GridCache(byte_cap=2**28)


@dataclass(frozen=True)
class RegularityIndex:
    """Weight mu = rho^s * phi(rho) with rho^2 = 1+|xi|^2 or 1+|xi'|^2+|xi_k|.

    ``spatial_dims`` is k-1 for the parabolic split (the last axis is time);
    it may be 0, which leaves the pure time weight (1+|xi_k|)^(s/2)phi(...)
    used by interval-geometry lateral boundaries.  For the isotropic case
    ``spatial_dims`` equals ``dimension``.
    """

    s: float
    phi: FunctionParam
    anisotropy: str  # "isotropic" | "parabolic"
    dimension: int

    def __post_init__(self):
        if self.anisotropy not in ("isotropic", "parabolic"):
            raise ValueError(f"unknown anisotropy {self.anisotropy!r}")
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")

    @property
    def spatial_dims(self) -> int:
        return self.dimension - 1 if self.anisotropy == "parabolic" else self.dimension

    def cache_key(self):
        """Hashable key of the weight, or None when phi has none (custom phi)."""
        phi_key = self.phi.cache_key()
        if phi_key is None:
            return None
        return (self.s, phi_key, self.anisotropy, self.dimension)

    def describe(self) -> str:
        if self.anisotropy == "parabolic":
            return f"H^({self.s:g},{self.s / 2:g};{self.phi.describe()})"
        return f"H^({self.s:g};{self.phi.describe()})"


def isotropic(s: float, phi: FunctionParam | None = None, dimension: int = 1) -> RegularityIndex:
    return RegularityIndex(
        s=float(s), phi=phi if phi is not None else constant(), anisotropy="isotropic",
        dimension=dimension,
    )


def parabolic_split(
    s: float, phi: FunctionParam | None = None, dimension: int = 2
) -> RegularityIndex:
    """Anisotropic index on R^(k-1) x R_t; dimension = k >= 1 (last axis time)."""
    return RegularityIndex(
        s=float(s), phi=phi if phi is not None else constant(), anisotropy="parabolic",
        dimension=dimension,
    )


def _rho_squared(idx: RegularityIndex, components: Sequence[np.ndarray]) -> np.ndarray:
    """1 + |xi'|^2 + |xi_k| or 1 + |xi|^2, summed axis by axis over broadcastable components."""
    rho2 = 1.0
    for ax, c in enumerate(components):
        time = idx.anisotropy == "parabolic" and ax == len(components) - 1
        rho2 = rho2 + (np.abs(c) if time else c**2)
    return rho2


def eval_weight(idx: RegularityIndex, xi) -> np.ndarray:
    """Evaluate mu at frequency vectors; last axis of ``xi`` is the components."""
    xi = np.asarray(xi, dtype=float)
    if xi.shape[-1] != idx.dimension:
        raise DimensionMismatch(
            f"frequency has {xi.shape[-1]} components, index expects {idx.dimension}"
        )
    if not np.all(np.isfinite(xi)):
        raise ValueError("frequencies must be finite")
    rho2 = _rho_squared(idx, [xi[..., j] for j in range(idx.dimension)])
    return rho2 ** (idx.s / 2.0) * idx.phi(np.sqrt(rho2))


def weight_on_mesh(idx: RegularityIndex, freq_axes: Sequence[np.ndarray]) -> np.ndarray:
    """Weight array over the tensor mesh of per-axis frequency vectors.

    Grids of built-in phi families up to the point cap are cached (least
    recently used out, under a total byte cap) and returned read-only; custom
    phi and larger grids are evaluated on every call.
    """
    if len(freq_axes) != idx.dimension:
        raise DimensionMismatch(
            f"got {len(freq_axes)} frequency axes, index expects {idx.dimension}"
        )
    npoints = int(np.prod([len(a) for a in freq_axes]))
    key = None
    idx_key = idx.cache_key()
    if idx_key is not None and npoints <= _GRID_CACHE_POINT_CAP:
        key = (idx_key, tuple(a.tobytes() for a in freq_axes))
        cached = _GRID_CACHE.get(key)
        if cached is not None:
            return cached
    d = len(freq_axes)
    rho2 = _rho_squared(
        idx, [f.reshape([-1 if j == ax else 1 for j in range(d)]) for ax, f in enumerate(freq_axes)]
    )
    out = rho2 ** (idx.s / 2.0) * idx.phi(np.sqrt(rho2))
    if key is not None:
        out.flags.writeable = False
        _GRID_CACHE.put(key, out)
    return out


@dataclass(frozen=True)
class AdmissibilityFit:
    c: float
    l: float
    max_residual: float
    pairs: int


def check_admissibility(
    idx: RegularityIndex,
    sample_pairs: int = 10_000,
    seed: int = 0,
) -> AdmissibilityFit:
    """Empirical fit of mu(xi)/mu(eta) <= c (1+|xi-eta|)^l over random pairs.

    xi and eta are drawn uniformly from the cube [-64, 64]^k.

    The existential (c, l) of the admissibility bound are estimated from the
    upper convex hull of (log(1+|xi-eta|), log ratio) samples: ``l`` is the
    asymptotic hull slope and ``c`` the smallest constant making the line
    dominate every sample.  ``max_residual`` is the largest signed slack
    (<= 0 means the fitted line dominates all samples).
    """
    if sample_pairs < 100:
        raise ValueError("need at least 100 sample pairs")
    rng = np.random.default_rng(seed)
    k = idx.dimension
    xi = rng.uniform(-64.0, 64.0, size=(sample_pairs, k))
    eta = rng.uniform(-64.0, 64.0, size=(sample_pairs, k))
    mu_xi = eval_weight(idx, xi)
    mu_eta = eval_weight(idx, eta)
    y = np.log(mu_xi / mu_eta)
    y = np.concatenate([y, -y])
    L = np.log1p(np.linalg.norm(xi - eta, axis=-1))
    L = np.concatenate([L, L])

    if np.ptp(y) < 1e-13:  # constant weight
        return AdmissibilityFit(c=1.0, l=0.0, max_residual=float(np.max(np.abs(y))),
                                pairs=sample_pairs)

    order = np.argsort(L)
    Ls, ys = L[order], y[order]
    hull: list[tuple[float, float]] = []
    for pt in zip(Ls, ys):
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (pt[0] - x1) <= (pt[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    # asymptotic slope: last hull vertex against the vertex at least half a
    # log-unit to its left, to dodge slope noise between near-coincident points
    xe, ye = hull[-1]
    anchor = next(((x, v) for x, v in reversed(hull[:-1]) if x <= xe - 0.5), hull[0])
    slope = (ye - anchor[1]) / (xe - anchor[0]) if xe > anchor[0] else 0.0
    log_c = float(np.max(y - slope * L))
    resid = float(np.max(y - (log_c + slope * L)))
    return AdmissibilityFit(c=float(np.exp(log_c)), l=float(slope),
                            max_residual=resid, pairs=sample_pairs)
