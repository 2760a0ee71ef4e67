"""Spectral fields on periodic lattices and multiplier norms.

Euclidean space is modeled by a torus with periods large relative to the
support of the functions of interest; this is the standing discretization
assumption of the whole package.  On the lattice every weight acts as a
diagonal Fourier multiplier, so norms, inner products and embedding constants
are exactly computable.  Restriction (quotient) norms over a sub-domain come
from one direct engine, :func:`quotient_norm_batch`: it gathers the data into
fibers along the axes where the mask is full (none: one fiber), and per fiber
factors the real Toeplitz kernel K of the weighted least-norm extension
problem block by block.  Along every axis where the mask is its own mirror
image K splits into an even and an odd block, so a box gives 2^k blocks.
Each block K_b has one real square root F_b (K_b = F_b^T F_b): cosine and
sine tables of the mirror axes and the folded modes of the others, with
rows scaled by mu^-1.  A memoized parity plan per mask holds the blocks'
points and the mask side of F_b, so the weight enters by one gather.  Each
block is factored by Cholesky of F_b^T F_b (LAPACK's potrf, called directly,
as trtrs is for the solves), or, past a weight spread of 1e16, by an R-only
QR of F_b, whose rows a batched QR per mode of the first split axis first
cuts to about half.  Fibers with equal weights share one factor.  Given a
sequence of indices, the engine prepares the data (fiber gather, FFT, parity
basis) once and solves each index against them.
There are three quotient entry points: the engine;
:func:`quotient_gram`, which returns K^-1 in that basis, one inverted block
each, with :func:`parity_coords` taking data there; and
:func:`quotient_norm` (preconditioned conjugate gradient, two DFTs per
iteration), the matrix-free cross-check.  The dense least-norm oracle that
the tests hold all three against is a test helper, ``tests/_oracle.py``.

The DFT convention is unitary throughout, so Parseval holds with constant one
and single-mode norms equal the weight value at that mode.
"""

from __future__ import annotations

import itertools
import json
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np
import scipy.linalg as sla

from ._config import check_keys, json_object, list_of, one_of, positive, pow2, read_value
from .errors import DimensionMismatch, InvalidConfig, NoConvergence, NonFiniteData
from .weights import RegularityIndex, _GridCache, weight_on_mesh

__all__ = [
    "Lattice",
    "SpectralField",
    "SubdomainMask",
    "weighted_norm",
    "norm",
    "inner_product",
    "embedding_constant",
    "quotient_norm",
    "quotient_norm_batch",
    "quotient_gram",
    "parity_coords",
    "random_field",
    "save_field",
    "load_field",
]


@dataclass(frozen=True)
class Lattice:
    """Periodic lattice: power-of-two sizes (N_1..N_k), periods (L_1..L_k).

    Along axis j the grid points are i*L_j/N_j and the frequencies
    2*pi*m/L_j with m in {-N_j/2, ..., N_j/2 - 1} (FFT ordering).
    """

    sizes: tuple[int, ...]
    periods: tuple[float, ...]

    def __post_init__(self):
        if len(self.sizes) != len(self.periods) or not self.sizes:
            raise ValueError("sizes and periods must be nonempty and equally long")
        for n in self.sizes:
            if n < 2 or (n & (n - 1)) != 0:
                raise ValueError(f"lattice sizes must be powers of two >= 2, got {n}")
        for L in self.periods:
            if L <= 0:
                raise ValueError("periods must be positive")

    @property
    def k(self) -> int:
        return len(self.sizes)

    @property
    def npoints(self) -> int:
        return int(np.prod(self.sizes))

    def freq_axis(self, axis: int) -> np.ndarray:
        n = self.sizes[axis]
        return 2.0 * np.pi * np.fft.fftfreq(n, d=self.periods[axis] / n)

    def freq_axes(self) -> list[np.ndarray]:
        return [self.freq_axis(j) for j in range(self.k)]

    def grid_axis(self, axis: int) -> np.ndarray:
        n = self.sizes[axis]
        return np.arange(n) * (self.periods[axis] / n)

    def centered_grid_axis(self, axis: int) -> np.ndarray:
        """Grid values wrapped to [-L/2, L/2); used for compactly supported profiles."""
        x = self.grid_axis(axis)
        L = self.periods[axis]
        return np.where(x >= L / 2, x - L, x)

    def weight(self, idx: RegularityIndex) -> np.ndarray:
        if idx.dimension != self.k:
            raise DimensionMismatch(
                f"index dimension {idx.dimension} != lattice dimension {self.k}"
            )
        return weight_on_mesh(idx, self.freq_axes())


@dataclass(frozen=True)
class SpectralField:
    """Fourier coefficients (unitary normalization) of a lattice function."""

    lattice: Lattice
    coeffs: np.ndarray

    def __post_init__(self):
        if tuple(self.coeffs.shape) != self.lattice.sizes:
            raise DimensionMismatch(
                f"coefficient shape {self.coeffs.shape} != lattice sizes {self.lattice.sizes}"
            )

    @classmethod
    def from_samples(cls, lattice: Lattice, samples: np.ndarray) -> "SpectralField":
        samples = np.asarray(samples, dtype=complex)
        if tuple(samples.shape) != lattice.sizes:
            raise DimensionMismatch(
                f"sample shape {samples.shape} != lattice sizes {lattice.sizes}"
            )
        return cls(lattice=lattice, coeffs=np.fft.fftn(samples, norm="ortho"))

    def to_samples(self) -> np.ndarray:
        return np.fft.ifftn(self.coeffs, norm="ortho")

    @classmethod
    def single_mode(cls, lattice: Lattice, mode: tuple[int, ...],
                    amplitude: complex = 1.0) -> "SpectralField":
        """Field with one Fourier coefficient set; mode given in integer index m."""
        coeffs = np.zeros(lattice.sizes, dtype=complex)
        idx = tuple(m % n for m, n in zip(mode, lattice.sizes))
        coeffs[idx] = amplitude
        return cls(lattice=lattice, coeffs=coeffs)

    def __add__(self, other: "SpectralField") -> "SpectralField":
        if other.lattice != self.lattice:
            raise DimensionMismatch("fields live on different lattices")
        return SpectralField(self.lattice, self.coeffs + other.coeffs)

    def __mul__(self, scalar) -> "SpectralField":
        return SpectralField(self.lattice, self.coeffs * scalar)

    __rmul__ = __mul__


@dataclass(frozen=True)
class SubdomainMask:
    """Boolean selection of physical grid points (the sub-domain V of the torus)."""

    lattice: Lattice
    mask: np.ndarray

    def __post_init__(self):
        if tuple(self.mask.shape) != self.lattice.sizes:
            raise DimensionMismatch("mask shape must match lattice sizes")
        if self.mask.dtype != bool:
            raise ValueError("mask must be boolean")
        n_on = int(self.mask.sum())
        if n_on == 0 or n_on == self.lattice.npoints:
            raise ValueError("mask must be nonempty and not the full grid")

    @property
    def npoints(self) -> int:
        return int(self.mask.sum())


def weighted_norm(mu: np.ndarray, coeffs: np.ndarray) -> float:
    """The weighted l2 sum (sum of mu^2 |c|^2)^(1/2) of coefficients over a weight array."""
    return float(np.sqrt(np.sum((mu * np.abs(coeffs)) ** 2)))


def norm(idx: RegularityIndex, u: SpectralField) -> float:
    """Weighted l2 norm (sum of mu^2 |u_hat|^2)^(1/2) over lattice frequencies."""
    return weighted_norm(u.lattice.weight(idx), u.coeffs)


def inner_product(idx: RegularityIndex, u: SpectralField, v: SpectralField) -> complex:
    if u.lattice != v.lattice:
        raise DimensionMismatch("fields live on different lattices")
    mu2 = u.lattice.weight(idx) ** 2
    return complex(np.sum(mu2 * u.coeffs * np.conj(v.coeffs)))


def embedding_constant(
    idx_from: RegularityIndex, idx_to: RegularityIndex, lattice: Lattice
) -> float:
    """Exact operator norm of the identity embedding: max mu_to/mu_from on the lattice."""
    return float(np.max(lattice.weight(idx_to) / lattice.weight(idx_from)))


def _band_draw(lattice: Lattice, seed: int, band: int | None):
    """The modes |m| <= band per axis (all of them for None) of one seeded draw.

    The draw covers the whole box, real part first, so a mode keeps its bits
    whatever the band.  Returns the FFT-order indices of the kept modes per
    axis and the complex block of coefficients there.
    """
    if band is not None and band < 0:
        raise ValueError(f"band must be >= 0, got {band}")
    limit = np.inf if band is None else band
    index = tuple(np.flatnonzero(np.abs(np.fft.fftfreq(n, d=1.0 / n)) <= limit)
                  for n in lattice.sizes)
    rng, draw = np.random.default_rng(seed), np.empty(lattice.sizes)
    block = np.empty(tuple(len(i) for i in index), dtype=complex)
    take = ... if band is None else np.ix_(*index)  # all modes: a plain copy
    for part in (block.real, block.imag):
        part[...] = rng.standard_normal(out=draw)[take]
    return index, block


def _band_scatter(lattice: Lattice, index, block: np.ndarray) -> np.ndarray:
    """Whole-lattice coefficients: ``block`` at the FFT-order modes ``index``, +0 elsewhere."""
    coeffs = np.zeros(lattice.sizes, dtype=complex)
    coeffs[np.ix_(*index)] = block
    return coeffs


def random_field(lattice: Lattice, seed: int, band: int | None = None) -> SpectralField:
    """Complex-Gaussian coefficients, optionally band-limited to |m| <= band per axis.

    The band is cut from the draw of :func:`_band_draw`; modes outside it are +0.
    """
    index, block = _band_draw(lattice, seed, band)
    coeffs = block if band is None else _band_scatter(lattice, index, block)
    return SpectralField(lattice=lattice, coeffs=coeffs)


# -- quotient (restriction) norms ---------------------------------------------

def _kernel_apply(mult: np.ndarray, mask: np.ndarray, lam_vals: np.ndarray) -> np.ndarray:
    """Restrict(ifft(mult * fft(embed(lam)))) for mask-supported vectors."""
    grid = np.zeros(mask.shape, dtype=complex)
    grid[mask] = lam_vals
    ghat = np.fft.fftn(grid, norm="ortho")
    ghat *= mult
    back = np.fft.ifftn(ghat, norm="ortho")
    return back[mask]


def quotient_norm(
    idx: RegularityIndex,
    samples_on_v: np.ndarray,
    mask: SubdomainMask,
    tol: float = 1e-8,
    max_iter: int | None = None,
) -> float:
    """Infimum of the ambient weighted norm over all extensions of the data.

    Matrix-free cross-check of :func:`quotient_norm_batch`: solves
    min ||w||_mu over lattice fields w whose physical samples match
    ``samples_on_v`` at the masked points.  The normal equations
    K lam = d with K = restrict o F* o mu^(-2) o F o embed are solved by
    conjugate gradient, preconditioned by the reciprocal-symbol kernel built
    from mu^(+2).  The squared quotient norm equals Re <lam, d>.

    Parameters
    ----------
    idx : RegularityIndex
        Weight defining the ambient space.
    samples_on_v : array
        Physical values at the masked points (flattened in mask order).
    mask : SubdomainMask
        Sub-domain selection; must live on a lattice of matching dimension.
    tol : float
        Relative-residual stopping threshold, in (0, 1e-4].
    max_iter : int, optional
        Iteration cap; default 10*sqrt(#masked points).

    Raises
    ------
    NoConvergence
        If the cap is hit before the residual drops below ``tol``.
    """
    if not (0.0 < tol <= 1e-4):
        raise ValueError("tol must lie in (0, 1e-4]")
    lattice = mask.lattice
    if idx.dimension != lattice.k:
        raise DimensionMismatch("index dimension does not match the mask lattice")
    d = np.asarray(samples_on_v, dtype=complex).reshape(-1)
    if d.size != mask.npoints:
        raise DimensionMismatch(
            f"got {d.size} samples for a mask with {mask.npoints} points"
        )
    d_norm = float(np.linalg.norm(d))
    if d_norm == 0.0:
        return 0.0

    mu = lattice.weight(idx)
    inv2 = mu ** (-2.0)
    fwd2 = mu**2.0
    m = mask.mask
    if max_iter is None:
        max_iter = max(50, int(10 * np.sqrt(mask.npoints)))

    def K(v):
        return _kernel_apply(inv2, m, v)

    def M(v):
        return _kernel_apply(fwd2, m, v)

    lam = np.zeros_like(d)
    r = d.copy()
    z = M(r)
    p = z.copy()
    rz = np.real(np.vdot(r, z))
    res = float(np.linalg.norm(r)) / d_norm
    it = 0
    while res > tol:
        if it >= max_iter:
            raise NoConvergence(it, res)
        Kp = K(p)
        denom = np.real(np.vdot(p, Kp))
        if denom <= 0:
            raise NoConvergence(it, res)  # numerically singular direction
        alpha = rz / denom
        lam += alpha * p
        r -= alpha * Kp
        res = float(np.linalg.norm(r)) / d_norm
        if res <= tol:
            break
        z = M(r)
        rz_new = np.real(np.vdot(r, z))
        p = z + (rz_new / rz) * p
        rz = rz_new
        it += 1
    value_sq = max(0.0, float(np.real(np.vdot(lam, d))))
    return float(np.sqrt(value_sq))


# -- direct (factorization-based) quotient engine -------------------------------
#
# The least-norm kernel K = S F* mu^(-2) F S* has condition ~ (weight spread)^2,
# which defeats CG once the spread passes ~1e8.  The direct engine solves the
# same problem stably: it decouples fibers along periodic axes where the mask
# is full, and keeps per fiber upper-triangular factors U with U^T U = K, one
# per mirror-parity block: K is translation invariant and even in each
# coordinate, so on every axis where the mask is its own mirror image it
# commutes with that reflection and splits into an even and an odd block
# (Cantoni & Butler, Linear Algebra Appl. 13, 1976).  Each block has a real
# square root F_b (K_b = F_b^T F_b) whose rows the weight only scales; which
# points a block takes and the tables of F_b depend on the mask alone, and a
# memoized parity plan holds them.  For mild spreads U is the Cholesky factor
# of K_b, assembled from those tables.  For stiff ones it is the R of an
# R-only QR of F_b itself (condition = spread, not spread^2), in two
# orthogonal stages: small batched QRs shrink the rows of each mode of the
# first split axis, then one QR factors what is left.  A squared norm is then
# the sum over blocks of ||U^-T d||^2, and one factorization serves a whole
# batch of data vectors.

_CHOL_SPREAD_CAP = 1e16
# LAPACK's real Cholesky and triangular solve, bound once (scipy's wrappers cost much on small blocks)
_potrf, _trtrs = sla.get_lapack_funcs(("potrf", "trtrs"), dtype=np.float64)
# parity plans by (shape, mask bytes); the benchmark's masks need a few MiB
_PLAN_CACHE = _GridCache(byte_cap=2**26)


def _negated_index(shape: tuple[int, ...], axes) -> np.ndarray:
    """Flat index of xi with its coordinates on ``axes`` negated (mod ``shape``)."""
    neg = np.arange(int(np.prod(shape))).reshape(shape)
    for ax in axes:
        neg = np.take(neg, -np.arange(shape[ax]) % shape[ax], axis=ax)
    return neg.reshape(-1)


def _even_mirror_index(mu: np.ndarray, axes=None, neg: np.ndarray | None = None) -> np.ndarray:
    """Flat index of xi with its coordinates on ``axes`` (default all) negated.

    Raises RuntimeError unless ``mu`` is exactly even under that negation,
    mu[neg] == mu for every index, which the real forms of the quotient solve
    and of its Gram rest on.  Weights from ``weight_on_mesh`` are even in each
    coordinate, because they read xi only through xi_j^2 and |xi_k| and
    ``fftfreq`` negates exactly; a fiber slice of such a weight is too.
    ``neg``, when given, is the index, already built by :func:`_negated_index`.
    """
    axes = tuple(range(mu.ndim)) if axes is None else tuple(axes)
    if neg is None:
        neg = _negated_index(mu.shape, axes)
    mu_flat = mu.reshape(-1)
    if not np.array_equal(mu_flat[neg], mu_flat):
        raise RuntimeError(
            f"the weight is not even in xi on axes {axes}: mu(-xi) differs from mu(xi)"
        )
    return neg


def _mirror_axes(mask: np.ndarray, pts: np.ndarray) -> list[tuple[int, int]]:
    """(axis, lo + hi) for every axis along which the mask is its own mirror image.

    The mirror of an axis maps p to lo + hi - p, lo < hi the least and
    greatest coordinate of a masked point on it: the reflection about the
    midpoint of the mask's extent.  An axis on which every masked point has
    the same coordinate has no odd part and is not split.
    """
    out = []
    for ax, n in enumerate(mask.shape):
        lo, hi = int(pts[:, ax].min()), int(pts[:, ax].max())
        if lo < hi and np.array_equal(np.take(mask, (lo + hi - np.arange(n)) % n, axis=ax), mask):
            out.append((ax, lo + hi))
    return out


class _ParityPlan:
    """The mirror-parity structure of one mask: what every fiber on it shares.

    With k split axes (:func:`_mirror_axes`) and q = p - (lo + hi)/2 on each,
    the representatives are the points with q >= 0 on every split axis, and
    parity block b (a tuple of k bits, 1 = odd) those with q > 0 on its odd
    axes; a block with no point is dropped.  Reflection patterns U (all 2^k
    bit tuples, 1 = reflected) act on points by m_U; chi_b(U) = (-1)^(b . U).
    The orthonormal basis of reflection-symmetrized points takes data v at
    representative r of block b to 2^-k D_r sum_U chi_b(U) v[m_U r], D =
    sqrt(2) per split axis on which the point is off the mirror.

    In that basis block b of the kernel K[i, j] = sum_xi mu^-2 cos(xi . (p_i -
    p_j)) / N is K_b = F_b^T F_b, with one real square root F_b per block.  On
    a split axis of size n the modes +-m add up to f_m cos(2 pi m dq / n)
    (f_m = 2, or 1 at m = 0 and the Nyquist mode), and cos(t dq) = cos(t q_i)
    cos(t q_j) + sin(t q_i) sin(t q_j): even blocks take the rows sqrt(f_m)
    cos(t q) (m = 0..n/2), odd ones sqrt(f_m) sin(t q) (m = 1..n/2), each times
    sqrt(2) off the mirror, as D.
    The unsplit axes are folded jointly: the rows xi and -xi mix unitarily to
    sqrt(2) cos(xi . p) and sqrt(2) sin(xi . p); a self-paired xi (every
    coordinate 0 or Nyquist) keeps its row cos(xi . p).  The rows of F_b are
    (modes m0 of the first split axis) x (the other modes r), and

        F_b[(m0, r), p] = lead[x(p), m0] s[m0, r] G[rho(p), r],
        s = mu^-1 / sqrt(N) at the flat lattice index index[m0, r],

    x(p) the point's coordinate on the first split axis and rho(p) its other
    coordinates (with no split axis, lead = 1 and rho(p) is the point).  The
    mask fixes everything but s, so the plan holds the rest and the weight
    enters every route by one gather, ``mu.reshape(-1)[index]``.  Every array
    is read-only:

    - ``pts``: the masked points, mask order; ``twice_q``: 2q on the split axes.
    - ``negations``: (axes, flat negated index) for each split axis alone and
      for the other axes jointly, the negations the weight must be even under.
    - ``columns``: mask-order points of each block; ``locs``: their positions
      among the representatives.
    - ``images[U]``: mask-order index of m_U of each representative (for U
      with one reflected axis, its mirror partner on that axis).
    - ``walsh[b, U]``: chi_b(U), block by pattern; ``dscale``: D on the
      representatives.
    - ``roots[b]``: (lead, G, index, x, rho, pairs, pos) of block b: lead
      over the block's distinct first-axis coordinates, G over its distinct
      rho, and per block point (in ``columns`` order) its row x of lead and
      rho of G; pairs[(x, x'), m0] = lead[x, m0] lead[x', m0]; pos, the row
      x len(G) + rho of each block point in the (x, rho) grid, or None where
      the block is that whole grid in C order (as on a box mask).
    """

    def __init__(self, mask: np.ndarray):
        sizes = mask.shape
        self.pts = np.argwhere(mask)
        mirrors = _mirror_axes(mask, self.pts)
        self.split = tuple(ax for ax, _ in mirrors)
        self.unsplit = tuple(ax for ax in range(mask.ndim) if ax not in self.split)
        self.negations = [((ax,), _negated_index(sizes, (ax,))) for ax in self.split]
        self.negations.append((self.unsplit, _negated_index(sizes, self.unsplit)))
        self.twice_q = 2 * self.pts[:, self.split] - np.array([a for _, a in mirrors], dtype=int)
        order = np.full(sizes, -1)
        order[mask] = np.arange(len(self.pts))
        partners = []  # mask-order index of each point's mirror image, per split axis
        for ax, a in mirrors:
            image = self.pts.copy()
            image[:, ax] = a - self.pts[:, ax]
            partners.append(order[tuple(image.T)])
        patterns = np.array(list(itertools.product((0, 1), repeat=len(mirrors))),
                            dtype=int).reshape(2 ** len(mirrors), len(mirrors))
        reps = np.flatnonzero(np.all(self.twice_q >= 0, axis=1))
        locs = [np.flatnonzero(np.all((self.twice_q[reps] > 0) | (b == 0), axis=1))
                for b in patterns]
        # a block with no point (a plus-shaped mask has no odd-odd one) has nothing to factor
        self.parities = patterns[[len(loc) > 0 for loc in locs]]
        self.locs = [loc for loc in locs if len(loc)]
        self.columns = [reps[loc] for loc in self.locs]
        images = []
        for pattern in patterns:
            img = reps
            for partner, u in zip(partners, pattern):
                img = partner[img] if u else img
            images.append(img)
        self.images = np.array(images)
        self.walsh = (-1.0) ** (self.parities @ patterns.T)
        self.dscale = np.sqrt(2.0) ** np.count_nonzero(self.twice_q[reps], axis=1)
        # the unsplit modes folded by pairs {xi, -xi}: one representative each, with
        # a sine row beside the cosine row where the pair is two modes
        u_sizes = tuple(sizes[ax] for ax in self.unsplit)
        neg = _negated_index(u_sizes, range(len(u_sizes)))
        keep = np.arange(neg.size) <= neg
        paired = (np.arange(neg.size) < neg)[keep]
        freqs = np.meshgrid(*[np.fft.fftfreq(n, d=1.0 / n) for n in u_sizes], indexing="ij")
        index = np.moveaxis(np.arange(mask.size).reshape(sizes), self.split, range(len(mirrors)))
        index = index.reshape(tuple(sizes[ax] for ax in self.split) + (-1,))[..., keep]
        index = np.concatenate([index, index[..., paired]], axis=-1)
        self.roots = []
        for parity, cols in zip(self.parities, self.columns):
            pts, tables, modes = self.pts[cols], [], []
            for j, (ax, b) in enumerate(zip(self.split, parity)):
                tq, m = self.twice_q[cols, j], np.arange(b, sizes[ax] // 2 + 1)
                table = (np.sin if b else np.cos)(np.outer(tq, m) * (np.pi / sizes[ax]))
                table *= np.where((m == 0) | (2 * m == sizes[ax]), 1.0, np.sqrt(2.0))  # sqrt(f_m)
                tables.append(table * np.where(tq > 0, np.sqrt(2.0), 1.0)[:, None])
                modes.append(m)
            _, x_first, x = np.unique(pts[:, self.split[:1]], axis=0,
                                      return_index=True, return_inverse=True)
            _, first, rho = np.unique(np.delete(pts, self.split[:1], axis=1), axis=0,
                                      return_index=True, return_inverse=True)
            phase = np.zeros((len(first), int(keep.sum())))
            for ax, f in zip(self.unsplit, freqs):
                phase += np.outer(pts[first, ax] * (2.0 * np.pi / sizes[ax]), f.reshape(-1)[keep])
            G = np.concatenate([np.cos(phase) * np.where(paired, np.sqrt(2.0), 1.0),
                                np.sin(phase[:, paired]) * np.sqrt(2.0)], axis=1)
            for table in reversed(tables[1:]):  # the modes r in C order
                G = (table[first][:, :, None] * G[:, None, :]).reshape(len(first), -1)
            lead = tables[0][x_first] if tables else np.ones((1, 1))
            x, rho = x.reshape(-1), rho.reshape(-1)
            pos = x * len(G) + rho  # row of each block point in the (x, rho) grid
            if np.array_equal(pos, np.arange(len(lead) * len(G))):
                pos = None  # the block is that grid, in C order
            self.roots.append((lead, G, index[np.ix_(*modes)].reshape(lead.shape[1], -1), x, rho,
                               (lead[:, None, :] * lead[None, :, :]).reshape(len(lead) ** 2, -1),
                               pos))
        arrays = [self.pts, self.twice_q, self.parities, self.images, self.walsh, self.dscale,
                  *self.locs, *self.columns, *(n for _, n in self.negations),
                  *(a for a in itertools.chain(*self.roots) if a is not None)]
        for a in arrays:
            a.flags.writeable = False
        self.nbytes = sum(a.nbytes for a in arrays)

    def check_even(self, mu: np.ndarray) -> None:
        """RuntimeError unless ``mu`` is exactly even under every negation of the plan."""
        for axes, neg in self.negations:
            _even_mirror_index(mu, axes, neg)


def _parity_plan(mask: np.ndarray) -> _ParityPlan:
    """The memoized :class:`_ParityPlan` of ``mask``, keyed on its shape and bits."""
    key = (mask.shape, mask.tobytes())
    plan = _PLAN_CACHE.get(key)
    if plan is None:
        plan = _ParityPlan(mask)
        _PLAN_CACHE.put(key, plan)
    return plan


def _weighted_roots(mu: np.ndarray, G: np.ndarray, index: np.ndarray) -> np.ndarray:
    """s[m0, None, :] G of one block (see :class:`_ParityPlan`): a (rho, r) matrix per m0."""
    return (mu.reshape(-1)[index] ** -1.0 / np.sqrt(mu.size))[:, None, :] * G


def _kernel_blocks(mu: np.ndarray, plan: _ParityPlan) -> list[np.ndarray]:
    """The real symmetric blocks K_b = F_b^T F_b of K (see :class:`_ParityPlan`), C order.

    Per mode m0, H = (s G)(s G)^T, exactly symmetric; one product with the
    plan's pairs lead[x, m0] lead[x', m0] then gives K_b on the (x, x', rho,
    rho') grid, symmetric up to the last bit where the GEMM rounds mirrored
    entries apart.  One transpose makes that grid the (x, rho) x (x', rho')
    matrix; where the block is not the whole grid, its points' rows ``pos``
    are gathered from it.
    """
    blocks = []
    for lead, G, index, _, _, pairs, pos in plan.roots:
        A = _weighted_roots(mu, G, index)
        grid = pairs @ (A @ A.transpose(0, 2, 1)).reshape(len(A), -1)
        n = len(lead) * len(G)
        K = grid.reshape((len(lead),) * 2 + (len(G),) * 2).transpose(0, 2, 1, 3).reshape(n, n)
        blocks.append(K if pos is None else K[pos[:, None], pos[None, :]])
    return blocks


def _lapack_out(out: np.ndarray, info: int) -> np.ndarray:
    """``out`` of a LAPACK call, or the error scipy's wrappers raise for its ``info``."""
    if info:
        raise (ValueError if info < 0 else np.linalg.LinAlgError)(f"LAPACK info {info}")
    return out


class _FiberSolver:
    """Least-norm solve on one fiber: weight ``mu`` on the fiber lattice, ``mask``.

    Both branches factor K by the blocks of the mask's parity plan
    (:func:`_parity_plan`), so ``mu`` must be exactly even in each coordinate
    along which the mask is mirror symmetric and jointly in the others (see
    :func:`_even_mirror_index`).  A Cholesky failure on any block sends the
    whole fiber to the QR branch.
    """

    def __init__(self, mu: np.ndarray, mask: np.ndarray):
        plan = _parity_plan(mask)
        plan.check_even(mu)
        spread = float((mu.max() / mu.min()) ** 2)
        self._mode = "chol" if spread <= _CHOL_SPREAD_CAP else "qr"
        # _factors holds one upper factor per parity block of _plan
        self._plan = plan
        if self._mode == "chol":
            try:
                # each K_b is symmetric, so K_b.T is K_b in Fortran order and factors in place
                self._factors = [_lapack_out(*_potrf(K.T, lower=0, overwrite_a=1, clean=0))
                                 for K in _kernel_blocks(mu, plan)]
                return
            except np.linalg.LinAlgError:
                self._mode = "qr"
        self._factors = self._factor_by_parity(mu, plan)

    @staticmethod
    def _factor_by_parity(mu: np.ndarray, plan: _ParityPlan) -> list[np.ndarray]:
        # Two orthogonal stages leave R^T R = K_b = F_b^T F_b: per m0, a QR of
        # (s G)^T cuts the group to at most #rho rows; one R-only QR then factors
        # the stacked groups.  With no split axis the whole block is one group.
        factors = []
        for lead, G, index, x, rho, _, _ in plan.roots:
            R0 = np.linalg.qr(_weighted_roots(mu, G, index).transpose(0, 2, 1), mode="r")
            # the stacked groups, (m0, <= rho) by point, built transposed (point by
            # row) so that the QR gets them in Fortran order and factors them in place
            folded = (lead[x][:, :, None] * R0.transpose(2, 0, 1)[rho]).reshape(len(x), -1).T
            (R,) = sla.qr(folded, mode="r", overwrite_a=True, check_finite=False)
            factors.append(np.asfortranarray(R[: len(x)]))  # mode "r" returns every row
        return factors

    def solve_parts(self, parts: list[np.ndarray], cols: np.ndarray) -> np.ndarray:
        """Squared quotient norms ||U^-T d||^2 of data already in the parity basis.

        ``parts`` comes from :func:`_parity_parts`; ``cols`` picks the real
        columns to solve, the real and imaginary part of each data column
        side by side.
        """
        sq = 0.0
        for U, part in zip(self._factors, parts):
            # U^T z = d in place; U is in Fortran order, as potrf returns it
            z = _lapack_out(*_trtrs(U, part[cols].T, lower=0, trans=1, overwrite_b=1))
            sq = sq + np.sum(z**2, axis=0)
        return sq[0::2] + sq[1::2]

    def solve_values(self, data: np.ndarray) -> np.ndarray:
        """Squared quotient norms ||U^-T d||^2 for each column d of ``data`` (n x batch)."""
        parts = _parity_parts(self._plan, _real_columns(data)[self._plan.images])
        return self.solve_parts(parts, np.arange(2 * data.shape[1]))


def _real_columns(data: np.ndarray) -> np.ndarray:
    """Complex (n x batch) data as (n x 2 batch) reals: re and im of each column side by side."""
    return np.ascontiguousarray(data, dtype=complex).view(np.float64)


def _parity_parts(plan: _ParityPlan, gathered: np.ndarray) -> list[np.ndarray]:
    """Data columns v in the parity basis of ``plan``, from ``v[plan.images]``.

    Block b at representative r takes 2^-k D_r sum_U chi_b(U) v[m_U r], the
    basis of :class:`_ParityPlan`.  One (column x block point) array per
    block, so that a column selection is a row gather.
    """
    parts = np.tensordot(plan.walsh, gathered, axes=1)
    parts *= (plan.dscale / len(plan.images))[:, None]
    return [np.ascontiguousarray(part[loc].T) for part, loc in zip(parts, plan.locs)]


def _full_axes(mask: np.ndarray) -> list[int]:
    """Axes along which the mask is constant (all-or-nothing per fiber line)."""
    out = []
    for ax in range(mask.ndim):
        head = np.take(mask, [0], axis=ax)
        if np.array_equal(np.broadcast_to(head, mask.shape), mask):
            out.append(ax)
    return out


def quotient_norm_batch(
    idx: RegularityIndex | Sequence[RegularityIndex],
    samples_list: list[np.ndarray],
    mask: SubdomainMask,
) -> np.ndarray:
    """Quotient norms of many data vectors on one mask, for one index or many.

    The direct engine.  The data side runs once per call: fibers decouple
    along periodic axes on which the mask is full (a mask with none is one
    fiber), all share one sub-mask and hence one parity plan, and every
    fiber is taken to the parity basis at once.  Then per index: one
    factorization per distinct fiber weight, one triangular solve per block
    for the whole batch.  A single index gives a (batch,) array; a sequence
    of indices gives a (len(indices), batch) array whose rows equal the
    single-index calls bit for bit.  An empty batch gives an empty array;
    data that are not finite raise :class:`NonFiniteData`.
    """
    lattice = mask.lattice
    single = isinstance(idx, RegularityIndex)
    indices = [idx] if single else list(idx)
    if any(ix.dimension != lattice.k for ix in indices):
        raise DimensionMismatch("index dimension does not match the mask lattice")
    batch = len(samples_list)
    out = np.zeros((len(indices), batch))
    if batch == 0:
        return out[0] if single else out
    # stacked as rows and transposed: a column stack would copy column by column
    data = np.stack([np.asarray(s, dtype=complex).reshape(-1) for s in samples_list]).T
    if data.shape[0] != mask.npoints:
        raise DimensionMismatch("sample count does not match mask size")
    if not np.isfinite(data).all():
        raise NonFiniteData("quotient norm data hold NaN or infinite values")
    full = _full_axes(mask.mask)
    lead = tuple(range(len(full)))
    sub_mask = np.moveaxis(mask.mask, full, lead)[(0,) * len(full)]
    nfib = lattice.npoints // sub_mask.size
    if full:
        # the mask-order position of every lattice point, full axes first: taken
        # at the sub-mask (every fiber's mask) it gathers the data point by point
        # of the sub-mask, each point's fibers side by side; then a partial
        # unitary FFT along the full axes makes the fibers the columns, fiber-major
        order = np.zeros(lattice.sizes, dtype=np.intp)
        order[mask.mask] = np.arange(mask.npoints)
        order = np.moveaxis(np.moveaxis(order, full, lead)[..., sub_mask], -1, 0)
        data = np.fft.fftn(data[order], axes=tuple(ax + 1 for ax in lead), norm="ortho")
        data = data.reshape(len(order), nfib * batch)
    plan = _parity_plan(sub_mask)
    # the data are released before the transform allocates its output: a lower
    # peak of large temporaries keeps glibc's dynamic mmap threshold, and with it
    # the resident set, lower
    gathered = _real_columns(data)[plan.images]
    del data
    parts = _parity_parts(plan, gathered)
    del gathered
    # the real columns of fiber i: its batch, re and im side by side
    fiber_cols = np.arange(nfib * 2 * batch).reshape(nfib, 2 * batch)
    for row, ix in zip(out, indices):
        mu_fibers = np.moveaxis(lattice.weight(ix), full, lead).reshape((nfib,) + sub_mask.shape)
        # fibers with bitwise equal weights (xi and -xi, as weights are even)
        # share one factorization and one triangular solve
        groups: dict[bytes, tuple[np.ndarray, list]] = {}
        for i, mu_sub in enumerate(mu_fibers):
            groups.setdefault(mu_sub.tobytes(), (mu_sub, []))[1].append(i)
        for mu_sub, members in groups.values():
            sq = _FiberSolver(mu_sub, sub_mask).solve_parts(parts, fiber_cols[members].reshape(-1))
            row += sq.reshape(len(members), batch).sum(axis=0)
    np.sqrt(out, out=out)
    return out[0] if single else out


def quotient_gram(idx: RegularityIndex, mask: SubdomainMask) -> list[np.ndarray]:
    """Dense Gram of the quotient norm in the parity basis: K_b^-1 per block, real symmetric.

    K is assembled as in the direct engine, over the whole mask (no fiber
    split); its blocks K_b (see :class:`_ParityPlan`) come back inverted, in
    the order of the mask's plan.  For data d on the masked points, with c_b
    the blocks of :func:`parity_coords`, sum_b Re c_b^H G_b c_b equals
    ``quotient_norm_batch(idx, [d], mask)[0] ** 2``.
    """
    if idx.dimension != mask.lattice.k:
        raise DimensionMismatch("index dimension does not match the mask lattice")
    plan = _parity_plan(mask.mask)
    mu = mask.lattice.weight(idx)
    plan.check_even(mu)
    return [sla.inv(K) for K in _kernel_blocks(mu, plan)]


def parity_coords(mask: SubdomainMask, d: np.ndarray) -> list[np.ndarray]:
    """Data on the masked points in the parity basis of the mask's plan, block by block.

    ``d`` is a (npoints,) vector or a (npoints, batch) block in mask order,
    real or complex.  Block b gets T_b d, T_b the rows of block b of the
    orthonormal basis of reflection-symmetrized points: the transform of
    :func:`_parity_parts`, which the direct engine applies to its data.
    """
    d = np.asarray(d)
    if d.shape[0] != mask.npoints:
        raise DimensionMismatch(f"got {d.shape[0]} points for a mask with {mask.npoints}")
    plan = _parity_plan(mask.mask)
    parts = _parity_parts(plan, d.reshape(len(d), -1)[plan.images])
    return [part.T.reshape((-1,) + d.shape[1:]) for part in parts]


# -- import/export --------------------------------------------------------------

_FORMATS = ("binary", "csv")


def _write_header(path: Path, header: dict) -> None:
    """Write the JSON header beside ``path``; an unknown ``format`` raises first, so
    nothing is written."""
    if header["format"] not in _FORMATS:
        raise ValueError(f"unknown format {header['format']!r}")
    path.with_suffix(path.suffix + ".json").write_text(json.dumps(header))


def save_field(field: SpectralField, path: str | Path, fmt: str = "binary") -> None:
    """Write coefficients plus a JSON lattice header {sizes, periods}.

    ``fmt="binary"`` writes raw complex128; ``fmt="csv"`` writes two float
    columns (real, imag), C-order flattened either way.
    """
    path = Path(path)
    _write_header(path, {
        "sizes": list(field.lattice.sizes),
        "periods": list(field.lattice.periods),
        "format": fmt,
    })
    flat = field.coeffs.reshape(-1)
    if fmt == "binary":
        flat.astype(np.complex128).tofile(path)
    else:
        np.savetxt(path, np.column_stack([flat.real, flat.imag]), delimiter=",")


def _read_header(path: Path, keys: tuple = ()) -> tuple[dict, Lattice, str]:
    """The JSON header beside ``path``: the object, its lattice and its format.

    A header holds ``sizes`` (powers of two >= 2, at least one), ``periods``
    (one positive number per size) and ``keys``, and may hold ``format``
    ("binary", the default, or "csv").  Another key raises
    :class:`UnknownConfigKey`; a header that is not JSON, a missing key or a
    value that does not read raises :class:`InvalidConfig` naming it.
    """
    where = path.with_suffix(path.suffix + ".json")
    header = read_value(str(where), json_object, where.read_text())
    check_keys(header, str(where), ("sizes", "periods") + keys, ("format",))
    sizes = read_value(f"{where} sizes", list_of(pow2, least=1), header["sizes"])
    periods = read_value(f"{where} periods", list_of(positive), header["periods"])
    if len(periods) != len(sizes):
        raise InvalidConfig(f"{where} periods: {len(periods)} periods for {len(sizes)} sizes")
    lattice = Lattice(sizes=sizes, periods=periods)
    return header, lattice, read_value(f"{where} format", one_of(*_FORMATS),
                                       header.get("format", "binary"))


def load_field(path: str | Path) -> SpectralField:
    """Read a field written by :func:`save_field`.

    Its header is checked by :func:`_read_header`.  A CSV file that is not
    rows of two numeric columns raises :class:`InvalidConfig` naming it.  Raises
    :class:`DimensionMismatch` when the file does not hold exactly the number
    of entries its header's lattice sizes call for, and :class:`NonFiniteData`
    naming it when an entry is NaN or infinite.
    """
    path = Path(path)
    _, lattice, fmt = _read_header(path)
    if fmt == "binary":
        item = np.dtype(np.complex128).itemsize
        count = path.stat().st_size / item  # fractional when truncated mid-entry
        flat = np.fromfile(path, dtype=np.complex128)
    else:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # an empty file: no rows, below
            try:
                cols = np.loadtxt(path, delimiter=",", ndmin=2)
            except ValueError as err:
                raise InvalidConfig(f"{path}: not a CSV of numbers ({err})") from err
        if not len(cols) or cols.shape[1] != 2:
            what = f"{cols.shape[1]} columns" if len(cols) else "no rows"
            raise InvalidConfig(f"{path}: {what}, not the (real, imag) rows of a CSV field")
        count = len(cols)
        flat = np.ascontiguousarray(cols).view(complex).reshape(-1)  # no arithmetic on inf
    if count != lattice.npoints:
        raise DimensionMismatch(
            f"{path} holds {count:g} entries, but header sizes {list(lattice.sizes)} "
            f"need {lattice.npoints}"
        )
    if not np.isfinite(flat).all():
        raise NonFiniteData(f"{path} holds NaN or infinite coefficients")
    return SpectralField(lattice=lattice, coeffs=flat.reshape(lattice.sizes))
