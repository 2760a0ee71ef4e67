"""Spectral fields on periodic lattices and multiplier norms.

Euclidean space is modeled by a torus with periods large relative to the
support of the functions of interest; this is the standing discretization
assumption of the whole package.  On the lattice every weight acts as a
diagonal Fourier multiplier, so norms, inner products and embedding constants
are exactly computable.  Restriction (quotient) norms over a sub-domain come
from one direct engine, :func:`quotient_norm_batch`: per fiber it assembles
the real Toeplitz kernel K of the weighted least-norm extension problem and
factors it by Cholesky, or, past a weight spread of 1e16, by R-only QRs of a
real-folded square-root factor, one per mirror-parity block: along every axis
where the mask is its own mirror image K splits into an even and an odd
block, so a box gives 2^k small QRs.  Fibers with equal weights share one
factor.  :func:`quotient_gram` returns K^-1 from the same assembly.
:func:`quotient_norm_dense` is a dense oracle for small lattices, and
:func:`quotient_norm` (preconditioned conjugate gradient, two DFTs per
iteration) is the matrix-free cross-check.

The DFT convention is unitary throughout, so Parseval holds with constant one
and single-mode norms equal the weight value at that mode.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.linalg as sla

from .errors import DimensionMismatch, NoConvergence
from .weights import RegularityIndex, weight_on_mesh

__all__ = [
    "Lattice",
    "SpectralField",
    "SubdomainMask",
    "norm",
    "inner_product",
    "embedding_constant",
    "quotient_norm",
    "quotient_norm_batch",
    "quotient_gram",
    "quotient_norm_dense",
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


def norm(idx: RegularityIndex, u: SpectralField) -> float:
    """Weighted l2 norm (sum of mu^2 |u_hat|^2)^(1/2) over lattice frequencies."""
    mu = u.lattice.weight(idx)
    return float(np.sqrt(np.sum((mu * np.abs(u.coeffs)) ** 2)))


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


def random_field(lattice: Lattice, seed: int, band: int | None = None) -> SpectralField:
    """Complex-Gaussian coefficients, optionally band-limited to |m| <= band per axis."""
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal(lattice.sizes) + 1j * rng.standard_normal(lattice.sizes)
    if band is not None:
        for ax, n in enumerate(lattice.sizes):
            m = np.fft.fftfreq(n, d=1.0 / n)  # integer mode numbers
            keep = np.abs(m) <= band
            shape = [1] * lattice.k
            shape[ax] = n
            coeffs = coeffs * keep.reshape(shape)
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
# is full, and keeps per fiber upper-triangular factors U with U^T U = K.  For
# mild spreads that is the Cholesky factor of the real K, assembled by one
# Toeplitz gather.  For stiff ones it is the R of R-only QRs of a real-folded
# square-root factor B* (condition = spread, not spread^2), one QR per mirror
# parity block: K is translation invariant and even in each coordinate, so on
# every axis where the mask is its own mirror image it commutes with that
# reflection and splits into an even and an odd block (Cantoni & Butler, Linear
# Algebra Appl. 13, 1976).  A squared norm is then the sum over blocks of
# ||U^-T d||^2, and one factorization serves a whole batch of data vectors.

_CHOL_SPREAD_CAP = 1e16


def _negated_index(shape: tuple[int, ...], axes) -> np.ndarray:
    """Flat index of xi with its coordinates on ``axes`` negated (mod ``shape``)."""
    neg = np.arange(int(np.prod(shape))).reshape(shape)
    for ax in axes:
        neg = np.take(neg, -np.arange(shape[ax]) % shape[ax], axis=ax)
    return neg.reshape(-1)


def _even_mirror_index(mu: np.ndarray, axes=None) -> np.ndarray:
    """Flat index of xi with its coordinates on ``axes`` (default all) negated.

    Raises RuntimeError unless ``mu`` is exactly even under that negation,
    mu[neg] == mu for every index, which the real forms of the quotient solve
    and of its Gram rest on.  Weights from ``weight_on_mesh`` are even in each
    coordinate, because they read xi only through xi_j^2 and |xi_k| and
    ``fftfreq`` negates exactly; a fiber slice of such a weight is too.
    """
    axes = tuple(range(mu.ndim)) if axes is None else tuple(axes)
    neg = _negated_index(mu.shape, axes)
    mu_flat = mu.reshape(-1)
    if not np.array_equal(mu_flat[neg], mu_flat):
        raise RuntimeError(
            f"the weight is not even in xi on axes {axes}: mu(-xi) differs from mu(xi)"
        )
    return neg


def _difference_index(mask: np.ndarray) -> np.ndarray:
    """Flat lattice index of (p_i - p_j) mod sizes for every pair of masked points."""
    pts = np.argwhere(mask)
    diff = 0
    for d, n in enumerate(mask.shape):
        # lattice sizes are powers of two, so & (n - 1) is the mod
        diff = diff * n + (np.subtract.outer(pts[:, d], pts[:, d]) & (n - 1))
    return diff


def _kernel_matrix(mu: np.ndarray, diff: np.ndarray) -> np.ndarray:
    """Real symmetric K[i, j] = kern(p_i - p_j), kern the inverse DFT of mu^-2.

    ``diff`` comes from :func:`_difference_index` on the lattice of ``mu``.
    The weight must be exactly even (RuntimeError otherwise), which makes
    kern real and even; averaging kern with its mirror drops the rounding
    ifftn leaves, so K is exactly symmetric.
    """
    neg = _even_mirror_index(mu)
    kern = np.fft.ifftn(mu**-2.0).real.reshape(-1)
    return (0.5 * (kern + kern[neg]))[diff]


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


def _butterfly(v: np.ndarray, partner: np.ndarray, centre: np.ndarray):
    """Even and odd parts of the rows of ``v`` under the mirror ``partner``."""
    mirrored = v[partner]
    even = np.where(centre[:, None], v, (v + mirrored) * np.sqrt(0.5))
    odd = (v - mirrored) * np.sqrt(0.5)
    return even, odd


class _FiberSolver:
    """Least-norm solve on one fiber: weight ``mu`` on the fiber lattice, ``mask``.

    ``diff``, the :func:`_difference_index` of ``mask``, lets the fibers of
    one call share it; without it, the index is built only if the Cholesky
    branch needs it.  ``mu`` must be exactly even on its lattice (see
    :func:`_even_mirror_index`); past the Cholesky cap, also in each
    coordinate along which the mask is mirror symmetric.
    """

    def __init__(self, mu: np.ndarray, mask: np.ndarray, diff: np.ndarray | None = None):
        spread = float((mu.max() / mu.min()) ** 2)
        self._mode = "chol" if spread <= _CHOL_SPREAD_CAP else "qr"
        # _factors holds one factor per parity block and _columns the mask-order
        # points each acts on; _mirrors the (mirror partner, on the mirror) pair of
        # each split axis.  The Cholesky factor is one block over every point.
        self._mirrors: list[tuple[np.ndarray, np.ndarray]] = []
        self._columns: list = [slice(None)]
        if self._mode == "chol":
            if diff is None:
                diff = _difference_index(mask)
            # K is symmetric, so K.T is K in Fortran order and factors in place
            K = _kernel_matrix(mu, diff).T
            try:
                self._factors = [sla.cho_factor(K, overwrite_a=True, check_finite=False)[0]]
                return
            except np.linalg.LinAlgError:
                self._mode = "qr"
        self._factor_by_parity(mu, mask)

    def _factor_by_parity(self, mu: np.ndarray, mask: np.ndarray) -> None:
        # B*[xi, j] = mu(xi)^(-1) exp(-i xi . p_j) / sqrt(N) gives
        # K[i, j] = sum_xi mu^-2 cos(xi . (p_i - p_j)) / N.  On a split axis,
        # with q = p - (lo + hi)/2, the modes +-m add up to f_m cos(2 pi m dq / n)
        # (f_m = 2, or 1 at m = 0 and the Nyquist mode), and
        # cos(t dq) = cos(t q_i) cos(t q_j) + sin(t q_i) sin(t q_j): the cosine
        # rows are even under q -> -q and the sine rows odd.  In the basis of
        # normalized mirror pairs, (e_q +- e_-q) / sqrt(2) and e_0, block b of K is
        # F_b^T F_b, F_b the product over split axes of sqrt(f_m) cos(t q) (even) or
        # sqrt(f_m) sin(t q) (odd), times sqrt(2) at q > 0, scaled by mu^-1 / sqrt(N).
        # The unsplit axes are folded jointly: the unitary mix of the rows xi and -xi
        # gives sqrt(2) cos(xi . p) and sqrt(2) sin(xi . p); a self-paired xi (every
        # coordinate 0 or Nyquist) keeps its row cos(xi . p).
        sizes = mu.shape
        pts = np.argwhere(mask)
        mirrors = _mirror_axes(mask, pts)
        split = [ax for ax, _ in mirrors]
        unsplit = [ax for ax in range(len(sizes)) if ax not in split]
        for ax in split:
            _even_mirror_index(mu, (ax,))
        _even_mirror_index(mu, unsplit)  # with the above: mu(xi_S, -xi_U) = mu(xi)
        u_sizes = tuple(sizes[ax] for ax in unsplit)
        neg = _negated_index(u_sizes, range(len(u_sizes)))
        flat = np.arange(neg.size)
        keep = flat <= neg  # one representative of each pair {xi_U, -xi_U}
        paired = (flat < neg)[keep]
        mesh = np.meshgrid(*[np.fft.fftfreq(n, d=1.0 / n) for n in u_sizes], indexing="ij")
        phase = np.zeros((len(pts), int(keep.sum())))
        for j, ax in enumerate(unsplit):
            phase += np.outer(pts[:, ax] * (2.0 * np.pi / sizes[ax]), mesh[j].reshape(-1)[keep])
        unsplit_rows = np.concatenate([
            np.cos(phase) * np.where(paired, np.sqrt(2.0), 1.0),
            np.sin(phase[:, paired]) * np.sqrt(2.0),
        ], axis=1)
        # mu^-1 / sqrt(N) by the split axes' modes, then by the folded unsplit modes
        # (the columns of unsplit_rows)
        mu_s = np.moveaxis(mu, split, range(len(split))).reshape(
            tuple(sizes[ax] for ax in split) + (-1,)
        )[..., keep]
        scale = np.concatenate([mu_s, mu_s[..., paired]], axis=-1) ** -1.0 / np.sqrt(mu.size)
        twice_q = 2 * pts[:, split] - np.array([a for _, a in mirrors], dtype=int)
        order = np.full(sizes, -1)
        order[mask] = np.arange(len(pts))
        for j, (ax, a) in enumerate(mirrors):
            image = pts.copy()
            image[:, ax] = a - pts[:, ax]
            self._mirrors.append((order[tuple(image.T)], twice_q[:, j] == 0))
        self._factors, self._columns = [], []
        for parity in itertools.product((0, 1), repeat=len(split)):
            # the representatives: q > 0 on the odd axes, q >= 0 on the even ones
            on_block = np.ones(len(pts), dtype=bool)
            for tq, b in zip(twice_q.T, parity):
                on_block &= tq > 0 if b else tq >= 0
            cols = np.flatnonzero(on_block)
            modes = [np.arange(b, sizes[ax] // 2 + 1) for ax, b in zip(split, parity)]
            # the block matrix, built transposed (point by mode) so that the QR gets
            # it in Fortran order and factors it in place
            block = scale[np.ix_(*modes)][None]
            for j, (ax, b, m) in enumerate(zip(split, parity, modes)):
                tq = twice_q[cols, j]
                table = (np.sin if b else np.cos)(np.outer(tq, m) * (np.pi / sizes[ax]))
                # sqrt(f_m) by mode, and sqrt(2) off the mirror
                table *= np.where((m == 0) | (2 * m == sizes[ax]), 1.0, np.sqrt(2.0))
                table *= np.where(tq > 0, np.sqrt(2.0), 1.0)[:, None]
                block = block * table.reshape((len(cols),) + (1,) * j + (len(m),)
                                              + (1,) * (len(split) - j))
            block = block * unsplit_rows[cols].reshape(
                (len(cols),) + (1,) * len(split) + (-1,))
            folded = block.reshape(len(cols), -1).T
            (R,) = sla.qr(folded, mode="r", overwrite_a=True, check_finite=False)
            self._factors.append(R[: len(cols)].copy())  # mode "r" returns every row
            self._columns.append(cols)

    def solve_values(self, data: np.ndarray) -> np.ndarray:
        """Squared quotient norms ||U^-T d||^2 for each column d of ``data`` (n x batch)."""
        # the real and imaginary parts of each column solve as two real columns
        parts = [np.ascontiguousarray(data, dtype=complex).view(np.float64)]
        # per-axis butterflies take the data to the parity blocks
        for partner, centre in self._mirrors:
            parts = [half for v in parts for half in _butterfly(v, partner, centre)]
        sq = 0.0
        for U, cols, v in zip(self._factors, self._columns, parts):
            z = sla.solve_triangular(U, v[cols], trans="T", check_finite=False)
            sq = sq + np.sum(z**2, axis=0)
        return sq[0::2] + sq[1::2]


def _full_axes(mask: np.ndarray) -> list[int]:
    """Axes along which the mask is constant (all-or-nothing per fiber line)."""
    out = []
    for ax in range(mask.ndim):
        head = np.take(mask, [0], axis=ax)
        if np.array_equal(np.broadcast_to(head, mask.shape), mask):
            out.append(ax)
    return out


def quotient_norm_batch(
    idx: RegularityIndex,
    samples_list: list[np.ndarray],
    mask: SubdomainMask,
) -> np.ndarray:
    """Quotient norms of many data vectors sharing one (index, mask) pair.

    The direct engine: one factorization per distinct fiber weight, one
    triangular solve for the whole batch.  Fibers decouple along periodic axes
    on which the mask is full; they share one sub-mask and hence one
    difference index.
    """
    lattice = mask.lattice
    if idx.dimension != lattice.k:
        raise DimensionMismatch("index dimension does not match the mask lattice")
    batch = len(samples_list)
    data = np.column_stack(
        [np.asarray(s, dtype=complex).reshape(-1) for s in samples_list]
    )
    if data.shape[0] != mask.npoints:
        raise DimensionMismatch("sample count does not match mask size")
    mu = lattice.weight(idx)
    full = _full_axes(mask.mask)
    if not full:
        solver = _FiberSolver(mu, mask.mask)
        return np.sqrt(solver.solve_values(data))
    # partial unitary FFT of data along the full axes, then per-fiber solves
    grids = np.zeros(lattice.sizes + (batch,), dtype=complex)
    grids[mask.mask] = data
    grids = np.fft.fftn(grids, axes=full, norm="ortho")
    slicer: list = [slice(None)] * lattice.k
    for ax in full:
        slicer[ax] = 0
    sub_mask = mask.mask[tuple(slicer)]
    diff = _difference_index(sub_mask)
    # fibers with bitwise equal weights (xi and -xi, as weights are even) share
    # one factorization and one triangular solve
    groups: dict[bytes, tuple[np.ndarray, list]] = {}
    for fiber_idx in np.ndindex(*(lattice.sizes[ax] for ax in full)):
        sl: list = [slice(None)] * lattice.k
        for ax, i in zip(full, fiber_idx):
            sl[ax] = i
        mu_sub = np.ascontiguousarray(mu[tuple(sl)])
        groups.setdefault(mu_sub.tobytes(), (mu_sub, []))[1].append(grids[tuple(sl)][sub_mask])
    values_sq = np.zeros(batch)
    for mu_sub, fiber_data in groups.values():
        sq = _FiberSolver(mu_sub, sub_mask, diff).solve_values(np.hstack(fiber_data))
        values_sq += sq.reshape(len(fiber_data), batch).sum(axis=0)
    return np.sqrt(values_sq)


def quotient_gram(idx: RegularityIndex, mask: SubdomainMask) -> np.ndarray:
    """Dense Gram of the quotient norm in point coordinates: K^-1, real symmetric.

    For data d on the masked points, Re d^H G d equals
    ``quotient_norm_batch(idx, [d], mask)[0] ** 2``.  K is assembled as in
    the direct engine, over the whole mask (no fiber split).
    """
    if idx.dimension != mask.lattice.k:
        raise DimensionMismatch("index dimension does not match the mask lattice")
    K = _kernel_matrix(mask.lattice.weight(idx), _difference_index(mask.mask))
    return sla.inv(K)


def quotient_norm_dense(
    idx: RegularityIndex, samples_on_v: np.ndarray, mask: SubdomainMask
) -> float:
    """Dense least-norm oracle, independent of the CG path (small lattices only)."""
    lattice = mask.lattice
    n = lattice.npoints
    if n > 4096:
        raise ValueError("dense oracle is limited to lattices with <= 4096 points")
    mu = lattice.weight(idx).reshape(-1)
    # rows of the map coefficients -> masked physical samples
    eye = np.eye(n, dtype=complex).reshape((n,) + lattice.sizes)
    phys = np.fft.ifftn(eye, axes=tuple(range(1, lattice.k + 1)), norm="ortho")
    A = phys.reshape(n, n).T[mask.mask.reshape(-1), :]
    d = np.asarray(samples_on_v, dtype=complex).reshape(-1)
    # minimize ||diag(mu) c|| s.t. A c = d; substitute y = mu*c
    B = A / mu[None, :]
    y, *_ = np.linalg.lstsq(B, d, rcond=None)
    return float(np.linalg.norm(y))


# -- import/export --------------------------------------------------------------

def save_field(field: SpectralField, path: str | Path, fmt: str = "binary") -> None:
    """Write coefficients plus a JSON lattice header {sizes, periods}.

    ``fmt="binary"`` writes raw complex128; ``fmt="csv"`` writes two float
    columns (real, imag), C-order flattened either way.
    """
    path = Path(path)
    header = {
        "sizes": list(field.lattice.sizes),
        "periods": list(field.lattice.periods),
        "format": fmt,
    }
    path.with_suffix(path.suffix + ".json").write_text(json.dumps(header))
    flat = field.coeffs.reshape(-1)
    if fmt == "binary":
        flat.astype(np.complex128).tofile(path)
    elif fmt == "csv":
        np.savetxt(path, np.column_stack([flat.real, flat.imag]), delimiter=",")
    else:
        raise ValueError(f"unknown format {fmt!r}")


def load_field(path: str | Path) -> SpectralField:
    """Read a field written by :func:`save_field`.

    Raises :class:`DimensionMismatch` when the file does not hold exactly the
    number of entries its header's lattice sizes call for.
    """
    path = Path(path)
    header = json.loads(path.with_suffix(path.suffix + ".json").read_text())
    lattice = Lattice(sizes=tuple(header["sizes"]), periods=tuple(header["periods"]))
    if header.get("format", "binary") == "binary":
        item = np.dtype(np.complex128).itemsize
        count = path.stat().st_size / item  # fractional when truncated mid-entry
        flat = np.fromfile(path, dtype=np.complex128)
    else:
        cols = np.loadtxt(path, delimiter=",", ndmin=2)
        count = len(cols)
        flat = cols[:, 0] + 1j * cols[:, 1]
    if count != lattice.npoints:
        raise DimensionMismatch(
            f"{path} holds {count:g} entries, but header sizes {list(lattice.sizes)} "
            f"need {lattice.npoints}"
        )
    return SpectralField(lattice=lattice, coeffs=flat.reshape(lattice.sizes))
