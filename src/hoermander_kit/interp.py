"""Interpolation with a function parameter between multiplier-weighted spaces.

For an admissible pair of weighted spaces on one lattice the generating
operator is the diagonal Fourier multiplier j(xi) = mu1(xi)/mu0(xi), and the
interpolated space [X0, X1]_psi is the weighted space with the weight

    mu0(xi) * psi(mu1(xi)/mu0(xi)),

built in one place, :func:`_interpolated_weight`, and returned by
``AdmissiblePair.weight``; its norm is ``spectra``'s one weighted l2 sum,
``weighted_norm``, of that weight.

The verification sweeps in this module check, to float accuracy, the exact
lattice identities behind the interpolation calculus: the norm equality for
the canonical parameter built from (s0, s, s1, phi), the stability under
reiteration omega = alpha * psi(beta/alpha), and the orthogonal-sum identity.
Each sweep builds its weights once and compares the norms of seeded fields.
Subspace interpolation (pairs restricted by linear constraints) is realized
densely through the generalized eigenproblem of the two Gram matrices on a
Householder frame of the constraint kernel.  One private core takes an
orthogonal sum of such pencils, one spectrum per summand, and applies the one
membership floor to their summed G0-orthogonal defect; the J-method norm
:func:`interpolate_subspace_norm` and the K-functional :func:`half_interp_norm`
of the jump studies are two thin entries over it.  The core sets up on basis
columns (spectra, eigencoordinates, G0 applied once) and evaluates coefficient
columns in that basis, so the jump study sets up once per pencil and
evaluates every later trial from its band coefficients.  A pencil that splits (the
jump study's, by mirror parity) is never assembled whole: interpolation
commutes with orthogonal sums, the identity ``verify_orthogonal_sum`` checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .errors import DimensionMismatch
from .params import FunctionParam, InterpParam, build_psi, constant, reiterate
from .spectra import Lattice, SpectralField, random_field, weighted_norm
from .weights import RegularityIndex

__all__ = [
    "AdmissiblePair",
    "interpolated_norm",
    "VerificationReport",
    "verify_prop_interpolation",
    "verify_orthogonal_sum",
    "verify_reiteration",
    "interpolate_subspace_norm",
    "GramPair",
    "KernelFrame",
    "kernel_frame",
    "subspace_spectrum",
    "half_interp_norm",
]

_DENSE_CAP = 6000


def _interpolated_weight(mu0: np.ndarray, mu1: np.ndarray, psi: InterpParam) -> np.ndarray:
    """mu0 * psi(mu1/mu0): the weight of [X0, X1]_psi for the weights mu0 and mu1."""
    return mu0 * psi(mu1 / mu0)


@dataclass(frozen=True)
class AdmissiblePair:
    """Ordered pair of weighted spaces X1 inside X0 on a shared lattice."""

    idx0: RegularityIndex
    idx1: RegularityIndex
    lattice: Lattice

    def __post_init__(self):
        if self.idx0.dimension != self.lattice.k or self.idx1.dimension != self.lattice.k:
            raise DimensionMismatch("index dimensions must match the lattice")

    def mu0(self) -> np.ndarray:
        return self.lattice.weight(self.idx0)

    def mu1(self) -> np.ndarray:
        return self.lattice.weight(self.idx1)

    def generating_multiplier(self) -> np.ndarray:
        """j(xi) = mu1/mu0; satisfies ||J u||_X0 = ||u||_X1 exactly."""
        return self.mu1() / self.mu0()

    def weight(self, psi: InterpParam) -> np.ndarray:
        """The weight mu0 * psi(mu1/mu0) of [X0, X1]_psi."""
        return _interpolated_weight(self.mu0(), self.mu1(), psi)


def interpolated_norm(pair: AdmissiblePair, psi: InterpParam, u: SpectralField) -> float:
    if u.lattice != pair.lattice:
        raise DimensionMismatch("field lattice does not match the pair")
    return weighted_norm(pair.weight(psi), u.coeffs)


@dataclass
class VerificationReport:
    proposition: str
    parameters: dict
    trials: int
    max_deviation: float
    seed: int
    notes: list[str] = field(default_factory=list)


def _max_norm_deviation(w: np.ndarray, w_ref: np.ndarray, lattice: Lattice,
                        trials: int, seed: int) -> float:
    """max |N - N_ref| / N_ref over the fields random_field(lattice, seed + t), t < trials,
    of their norms N and N_ref with the weights w and w_ref."""
    worst = 0.0
    for t in range(trials):
        c = random_field(lattice, seed + t).coeffs
        a = weighted_norm(w, c)
        b = weighted_norm(w_ref, c)
        if b > 0:
            worst = max(worst, abs(a - b) / b)
    return worst


def verify_prop_interpolation(
    s0: float,
    s: float,
    s1: float,
    lam: float,
    phi: FunctionParam,
    lattice: Lattice,
    anisotropy: str = "parabolic",
    trials: int = 100,
    seed: int = 0,
) -> VerificationReport:
    """Norm equality between [H^(s0-lam), H^(s1-lam)]_psi and H^(s-lam; phi).

    With psi built from (s0, s, s1, phi) the two multipliers coincide
    pointwise on the lattice, so the reported deviation is float noise.
    The domain-case hypotheses (s0 >= 0 and lam <= s0) are flagged in the
    report notes rather than enforced; on the full lattice the identity is
    unconditional.
    """
    psi = build_psi(s0, s, s1, phi)
    pair = AdmissiblePair(
        idx0=RegularityIndex(float(s0 - lam), constant(), anisotropy, lattice.k),
        idx1=RegularityIndex(float(s1 - lam), constant(), anisotropy, lattice.k),
        lattice=lattice,
    )
    direct = lattice.weight(RegularityIndex(float(s - lam), phi, anisotropy, lattice.k))
    worst = _max_norm_deviation(pair.weight(psi), direct, lattice, trials, seed)
    notes = []
    if anisotropy == "parabolic" and not (0 <= s0 and lam <= s0):
        notes.append(
            "domain-case hypotheses 0 <= s0 and lam <= s0 not met; "
            "full-lattice identity is unconditional"
        )
    return VerificationReport(
        proposition="interpolation-equality",
        parameters={
            "s0": s0,
            "s": s,
            "s1": s1,
            "lambda": lam,
            "phi": phi.describe(),
            "anisotropy": anisotropy,
            "lattice": list(lattice.sizes),
        },
        trials=trials,
        max_deviation=worst,
        seed=seed,
        notes=notes,
    )


def verify_orthogonal_sum(
    pairs: list[AdmissiblePair],
    psi: InterpParam,
    trials: int = 100,
    seed: int = 0,
) -> VerificationReport:
    """Interpolation commutes with orthogonal sums: block norms combine in l2."""
    if len(pairs) < 2:
        raise ValueError("need at least two pairs")
    weights = [p.weight(psi) for p in pairs]
    worst = 0.0
    for t in range(trials):
        blocks = [random_field(p.lattice, seed + 91 * t + i).coeffs for i, p in enumerate(pairs)]
        # componentwise combination
        comps = [weighted_norm(w, c) for w, c in zip(weights, blocks)]
        combined_l2 = float(np.sqrt(sum(c**2 for c in comps)))
        # direct-sum diagonal model: concatenate weighted coefficient vectors
        stacked = [(w * np.abs(c)).reshape(-1) for w, c in zip(weights, blocks)]
        direct = float(np.linalg.norm(np.concatenate(stacked)))
        if direct > 0:
            worst = max(worst, abs(combined_l2 - direct) / direct)
    return VerificationReport(
        proposition="orthogonal-sum",
        parameters={"blocks": len(pairs)},
        trials=trials,
        max_deviation=worst,
        seed=seed,
    )


def verify_reiteration(
    alpha: InterpParam,
    beta: InterpParam,
    psi: InterpParam,
    pair: AdmissiblePair,
    trials: int = 100,
    seed: int = 0,
) -> VerificationReport:
    """[X_alpha, X_beta]_psi = X_omega with omega = alpha * psi(beta/alpha)."""
    direct = pair.weight(reiterate(alpha, beta, psi))
    twice = _interpolated_weight(pair.weight(alpha), pair.weight(beta), psi)
    worst = _max_norm_deviation(twice, direct, pair.lattice, trials, seed)
    return VerificationReport(
        proposition="reiteration",
        parameters={
            "alpha": alpha.label or "custom",
            "beta": beta.label or "custom",
            "psi": psi.label or "custom",
            "lattice": list(pair.lattice.sizes),
        },
        trials=trials,
        max_deviation=worst,
        seed=seed,
    )


# -- dense subspace interpolation ------------------------------------------------

@dataclass
class GramPair:
    """Two Hermitian positive Gram forms over a common coordinate space.

    Each form is either a 1-D array (a diagonal) or a full Hermitian matrix.
    """

    gram0: np.ndarray
    gram1: np.ndarray

    @classmethod
    def diagonal(cls, pair: AdmissiblePair) -> "GramPair":
        mu0 = pair.mu0().reshape(-1)
        mu1 = pair.mu1().reshape(-1)
        return cls(gram0=mu0**2, gram1=mu1**2)


def _gram_apply(g: np.ndarray, x: np.ndarray) -> np.ndarray:
    """G x for a diagonal or dense form and a (dim, b) block x."""
    if g.ndim == 1:
        return g[:, None] * x
    return g @ x


@dataclass(frozen=True)
class KernelFrame:
    """Householder frame of the kernel of a constraint matrix C with ``dim`` columns.

    A column-pivoted Householder QR of C^H, C^H P = Q R, gives the unitary
    Q = H_1 ... H_r of r = rank C reflectors: its first r columns span the
    range of C^H and its last dim - r columns span ker C (Golub & Van Loan,
    *Matrix Computations*, 5.1-5.2 and 5.4).  Q stays in factored form:
    LAPACK's ormqr (unmqr when complex) applies it at O(dim r) per column, so
    a dense Gram form G reaches ker C as [Q^H G Q]_{r:, r:} in O(dim^2 r)
    rather than the O(dim^3) of a product with an explicit kernel basis.
    """

    reflectors: np.ndarray  # (dim, r) Householder vectors, as geqp3 stores them
    tau: np.ndarray  # (r,) reflector scales
    dim: int

    @property
    def rank(self) -> int:
        return len(self.tau)

    def _ormqr(self, side: str, adjoint: bool, c: np.ndarray) -> np.ndarray:
        """Q c (side "L") or c Q (side "R"), with Q^H in place of Q when ``adjoint``."""
        if not self.rank:
            return c
        ormqr = sla.get_lapack_funcs("ormqr", (self.reflectors, c))
        trans = ("C" if ormqr.typecode in "cz" else "T") if adjoint else "N"
        args = (side, trans, self.reflectors, self.tau, c)
        _, work, info = ormqr(*args, -1)  # workspace query
        if info == 0:
            out, _, info = ormqr(*args, int(work[0].real))
        if info != 0:
            raise ValueError(f"{ormqr.__name__} rejected argument {-info}")
        return out

    def adjoint_apply(self, x: np.ndarray) -> np.ndarray:
        """Q^H x for a (dim, b) block."""
        return self._ormqr("L", True, x)

    def project(self, g: np.ndarray) -> np.ndarray:
        """[Q^H G Q]_{r:, r:}: a diagonal or dense Gram form on ker C in frame coordinates."""
        G = np.diag(g) if g.ndim == 1 else g
        G = self._ormqr("R", False, self._ormqr("L", True, G))
        return G[self.rank:, self.rank:]


def kernel_frame(constraint: np.ndarray | None, dim: int) -> KernelFrame:
    """Householder frame of the kernel of ``constraint`` (None: the whole space).

    A complex C whose imaginary part is exactly zero counts as real, so a real
    constraint set keeps the frame, and every pencil projected with it, real.
    The rank counts the singular values of C above max(C.shape) eps times the
    largest, as an SVD null space does; they are read off the small factor R,
    which shares them, since pivot sizes alone need not reveal the rank.
    """
    if constraint is None or np.size(constraint) == 0:
        return KernelFrame(reflectors=np.zeros((dim, 0)), tau=np.zeros(0), dim=dim)
    C = np.atleast_2d(np.asarray(constraint))
    if C.shape[1] != dim:
        raise DimensionMismatch(
            f"constraint acts on dimension {C.shape[1]}, expected {dim}"
        )
    if np.iscomplexobj(C) and not np.any(C.imag):
        C = C.real
    (qr, tau), R, _ = sla.qr(C.conj().T, mode="raw", pivoting=True)
    sv = np.linalg.svd(R, compute_uv=False)
    rank = int(np.sum(sv > max(C.shape) * np.finfo(float).eps * sv[0]))
    return KernelFrame(reflectors=qr[:, :rank], tau=tau[:rank], dim=dim)


def subspace_spectrum(grams: GramPair, frame: KernelFrame):
    """Generalized spectrum of the pair restricted to ker C.

    Returns (lam, to_coords): lam are the generating-operator eigenvalues
    (sqrt of the Gram ratio), and ``to_coords`` maps a (dim,) vector or a
    (dim, batch) block X to the eigencoordinates V^H [Q^H G0 X]_{r:} of its
    G0-orthogonal projection onto ker C, with V the eigenvectors of the
    projected pencil, orthonormal in its G0 form.  ``to_coords(x, g0x)``
    takes G0 X as well, when the caller has it already, and does not apply
    G0 again.  Real Grams and a real frame keep the projection and the
    eigenproblem in real arithmetic.
    """
    A0 = frame.project(grams.gram0)
    A1 = frame.project(grams.gram1)
    A0 = 0.5 * (A0 + A0.conj().T)
    A1 = 0.5 * (A1 + A1.conj().T)
    w, V = sla.eigh(A1, A0)
    lam = np.sqrt(np.maximum(w, 0.0))
    Vh = V.conj().T

    def to_coords(x: np.ndarray, g0x: np.ndarray | None = None) -> np.ndarray:
        if g0x is None:
            g0x = _gram_apply(grams.gram0, x.reshape(frame.dim, -1))
        y = frame.adjoint_apply(g0x)[frame.rank:]
        return (Vh @ y).reshape((-1,) + x.shape[1:])

    return lam, to_coords


# A G0-orthogonal defect at or below this share of ||u||_0^2 is rounding, and u
# a member of the subspace: it counts as 0, in the norms and in ``defect_out``.
# The Lambda-synthesized trials of the jump study at resolutions 32 and 64
# carry defects of 1e-12 to 2.5e-11 of ||u||_0^2 (seeds 0, 5 and 301), so a
# floor of 1e-12 would count that noise as a violation.  (At resolution 16
# their defects are about 2e-5: the coarse stencils of the constraint rows,
# not rounding; the jump study reports them as ``defect_max``.)
_DEFECT_FLOOR = 1e-10


def _subspace_basis(summands):
    """The subspace core's set-up on basis columns: per (grams, frame, x) summand, x a
    (dim,) vector or a (dim, batch) block, the spectrum lam, the eigencoordinates c of
    x's columns, and x and G0 x as (dim, batch) blocks, c from that one G0 x."""
    basis = []
    for grams, frame, u in summands:
        lam, to_coords = subspace_spectrum(grams, frame)
        x = u.reshape(frame.dim, -1)
        g0x = _gram_apply(grams.gram0, x)
        basis.append((lam, to_coords(x, g0x), x, g0x))
    return basis


def _column_norms0(basis) -> np.ndarray:
    """||u||_0^2 of each column of the basis blocks, summed over the summands."""
    return sum(np.real(np.sum(np.conj(x) * g0x, axis=0)) for _, _, x, g0x in basis)


def _subspace_parts(coords, norm0_sq: np.ndarray):
    """The subspace core's evaluation on coefficient columns: per summand |c|^2 of the
    eigencoordinates c, and per column the G0-orthogonal defect delta^2 of the summed
    ||u||_0^2, 0 at or below ``_DEFECT_FLOOR`` times ||u||_0^2 (the membership rule)."""
    a = [np.abs(c) ** 2 for c in coords]
    delta_sq = np.maximum(0.0, norm0_sq - sum(np.sum(x, axis=0) for x in a))
    delta_sq[delta_sq <= _DEFECT_FLOOR * norm0_sq] = 0.0
    return a, delta_sq


def _half_norms(lams, coords, norm0_sq: np.ndarray, t_floor: float | None = None):
    """The K-functional norms with parameter 1/2 of columns given by their per-summand
    spectra lam and eigencoordinates c and their summed ||u||_0^2, and their defects
    delta^2 / ||u||_0^2 as the norms used them (see :func:`half_interp_norm`)."""
    a, delta_sq = _subspace_parts(coords, norm0_sq)
    lam_max = max((float(np.max(lam)) for lam in lams if lam.size), default=1.0)
    t0 = (1.0 / lam_max) if t_floor is None else t_floor
    core = sum((lam * (np.pi / 2.0 - np.arctan(t0 * lam))) @ x for lam, x in zip(lams, a))
    if t0 > 0:
        tail = delta_sq / t0
    else:
        tail = np.where(delta_sq > 0, np.inf, 0.0)
    defect = np.zeros_like(norm0_sq)
    np.divide(delta_sq, norm0_sq, out=defect, where=norm0_sq > 0)
    return np.sqrt((2.0 / np.pi) * (core + tail)), defect


def half_interp_norm(
    summands,
    t_floor: float | None = None,
    defect_out: np.ndarray | None = None,
):
    """K-functional norm with parameter 1/2 over an orthogonal sum, with a spectral floor.

    ``summands`` is a sequence of (grams, frame, u) triples, the summands of
    an orthogonal sum of pencils; a single pencil is the sum of one.  Each u
    is a (dim,) vector of its summand, which gives a float, or a (dim, batch)
    block with the same batch in every summand, which gives a (batch,) array
    from one spectrum set-up per summand.  For u in ker C and ``t_floor = 0``
    this equals :func:`interpolate_subspace_norm` with psi(r) = sqrt(r) (the
    quadratic K-functional integrates in closed form).  The default floor
    ``t_floor = 1/lam_max`` keeps the value finite for data outside the
    subspace: the orthogonal defect delta contributes (2/pi) delta^2 / t_floor,
    which grows with the stiffest constraint direction under lattice
    refinement.  The K-functional of an orthogonal sum is the sum of the
    summands' K-functionals, so each summand brings its own spectrum, while
    lam_max is taken over all of them and the defect floor compares the
    summed delta^2 with the summed ||u||_0^2: the value is that of the
    block-diagonal pencil under the block-diagonal constraints.
    ``defect_out``, when given, receives delta^2 / ||u||_0^2 of each column
    as the norm used it: 0 at or below the noise floor.

    The spectra and coordinates depend on u only through its columns, so a
    caller that evaluates many columns in one fixed span sets the core up once
    on a basis of it (:func:`_subspace_basis`) and evaluates coefficient
    columns with :func:`_half_norms`; the jump study does.
    """
    basis = _subspace_basis(summands)
    out, defect = _half_norms([lam for lam, *_ in basis], [c for _, c, *_ in basis],
                              _column_norms0(basis), t_floor)
    if defect_out is not None:
        defect_out[...] = defect
    return out if summands[0][2].ndim == 2 else float(out[0])


def interpolate_subspace_norm(
    pair: AdmissiblePair,
    psi: InterpParam,
    constraint: np.ndarray | None,
    u: SpectralField,
) -> float:
    """J-method norm (sum psi(lam)^2 |c|^2)^(1/2) on the kernel of ``constraint``.

    ``constraint`` is a matrix of functionals on flattened coefficients (None:
    the whole space); lam, c: spectrum and coordinates of the diagonal Grams on
    ker C, a positive definite pencil.  A defect above ``_DEFECT_FLOOR`` of
    ||u||_0^2 raises ``ValueError``; the lattice holds at most ``_DENSE_CAP`` points.
    """
    if u.lattice != pair.lattice:
        raise DimensionMismatch("field lattice does not match the pair")
    dim = pair.lattice.npoints
    if dim > _DENSE_CAP:
        raise ValueError(
            f"dense subspace interpolation is limited to {_DENSE_CAP} lattice points"
        )
    [(lam, c, *_)] = basis = _subspace_basis(
        [(GramPair.diagonal(pair), kernel_frame(constraint, dim), u.coeffs.reshape(-1))])
    norm0_sq = _column_norms0(basis)
    [a], delta_sq = _subspace_parts([c], norm0_sq)
    if delta_sq[0] > 0:
        raise ValueError(
            "field does not satisfy the constraint set (G0-orthogonal defect "
            f"{delta_sq[0] / norm0_sq[0]:.3e} of ||u||_0^2); project it first"
        )
    return float(np.sqrt(psi(lam) ** 2 @ a[:, 0]))
