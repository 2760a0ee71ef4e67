"""Desk-scale verification benchmarks for the parabolic isomorphisms.

The problem operator maps a cylinder function to (interior equation, lateral
boundary data, initial state).  On the lattice models this map is linear and
exactly computable for trial functions that are restrictions of band-limited
fields on the padded periodic box, so the two-sided bounds of the
well-posedness theorems have a falsifiable surrogate: the ratio of the
target-space norm of the data to the solution-space norm of the trial, whose
spread over a seeded trial ensemble must stay finite and stable under lattice
refinement.  No continuum constants are claimed anywhere; every reported
number is a lattice quantity.

The jump study probes the half-interpolated target space at a jump point of
the compatibility-condition count: the norm built from the two adjacent
regimes at distance eps must be eps-independent up to a trialwise envelope,
and data violating the freshly appearing condition must blow up under
refinement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
import scipy.linalg as sla

from . import interp, parabolic as pb, spectra
from .errors import InvalidConfig, MirrorAsymmetry
from .params import FunctionParam, constant
from .solver import HeatData, SolveResult, solve_heat_interval
from .spectra import Lattice
from .weights import _GridCache, parabolic_split

__all__ = [
    "TrialField",
    "synthesize_trial",
    "apply_lambda",
    "solution_norms",
    "BenchCase",
    "IsomorphismReport",
    "estimate_isomorphism",
    "round_trip_interval",
    "trig_sum",
    "JumpStudyReport",
    "jump_study",
]


# -- trials -----------------------------------------------------------------------

def trig_sum(coeffs: np.ndarray, freqs, points) -> np.ndarray:
    """Values of sum_m coeffs[m] exp(i sum_d freqs[d][m_d] x_d) on an open grid.

    ``freqs`` and ``points`` hold one array per axis of ``coeffs``; each
    point array varies only along its own axis of the broadcast grid (a
    scalar, or shaped like (n, 1) and (1, m)), and the values come back in the
    broadcast shape.  The coefficients meet the phases of one axis at a time
    in a matrix product, so no phase array is spread over the grid.
    """
    out = np.asarray(coeffs)
    for f, x in zip(freqs, points):
        phase = np.exp(1j * np.multiply.outer(f, np.ravel(x)))
        out = out.transpose(*range(1, out.ndim), 0) @ phase  # axis 0 out, grid axis last
    return out.reshape(np.broadcast(*points).shape)


@dataclass(frozen=True, eq=False)
class TrialField:
    """Band-limited field on the padded periodic box over the cylinder.

    ``block`` holds its unitary DFT coefficients at the box modes ``index``
    (FFT-order indices per axis); every other mode is zero.  ``modes``, the
    block over sqrt(#box points), and ``freqs``, the angular frequencies of
    ``index``, are found once; all are read-only copies.  A trial has no
    value equality: it compares and hashes by identity.
    """

    box: Lattice
    index: tuple[np.ndarray, ...]
    block: np.ndarray
    modes: np.ndarray = field(init=False, repr=False)
    freqs: tuple[np.ndarray, ...] = field(init=False, repr=False)

    def __post_init__(self):
        index = tuple(np.array(i, dtype=np.intp) for i in self.index)
        block = np.array(self.block, dtype=complex)
        modes = block / math.sqrt(self.box.npoints)
        freqs = tuple(self.box.freq_axis(ax)[i] for ax, i in enumerate(index))
        for arr in (*index, block, modes, *freqs):
            arr.flags.writeable = False
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "block", block)
        object.__setattr__(self, "modes", modes)
        object.__setattr__(self, "freqs", freqs)

    @property
    def coeffs(self) -> np.ndarray:
        """Whole-box coefficients: the block at ``index``, zeros elsewhere; read-only."""
        coeffs = spectra._band_scatter(self.box, self.index, self.block)
        coeffs.flags.writeable = False
        return coeffs

    def on_cylinder(
        self, geom: pb.Geometry, nt: int, alpha: tuple[int, ...] = ()
    ) -> np.ndarray:
        """The field, or its exact D^alpha (dt in the last slot), on the closed cylinder grid."""
        c, k = self.modes, self.box.k
        for ax, m in enumerate(alpha):
            if m:
                # D_j e^{i xi x} = -xi e^{i xi x}; dt e^{i xi t} = i xi e^{i xi t}
                symbol = 1j * self.freqs[ax] if ax == k - 1 else -self.freqs[ax]
                c = c * (symbol**m).reshape((-1,) + (1,) * (k - 1 - ax))
        counts = geom.g_shape() + (nt + 1,)
        points = [self.box.grid_axis(ax)[:n].reshape((-1,) + (1,) * (k - 1 - ax))
                  for ax, n in enumerate(counts)]
        return trig_sum(c, self.freqs, points)


def synthesize_trial(
    geom: pb.Geometry, tau: float, nt: int, seed: int, band: int = 4
) -> TrialField:
    """The band block (|m| <= band per axis) of :func:`spectra.random_field`.

    The band counts integer modes of the padded box, so one band value
    describes the same function class at every lattice resolution.
    """
    box = pb.omega_domain(geom, tau, nt).lattice
    return TrialField(box, *spectra._band_draw(box, seed, band))


def apply_lambda(
    p: pb.ParabolicProblem, trial: TrialField, nt: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Data triple (A u, boundary data, initial state) of a box trial.

    Differentiation is exact (trials are trigonometric polynomials, summed
    on the cylinder grid from their band modes); coefficients multiply the
    derivative grids, so no truncation warnings arise on this path.
    """
    geom = p.geometry
    n = geom.spatial_dim
    f = trial.on_cylinder(geom, nt, (0,) * n + (1,))
    mesh = np.ix_(*geom.spatial_axes(), np.arange(nt + 1) * (p.tau / nt))
    for alpha, coeff in p.a_coeffs.items():
        dv = trial.on_cylinder(geom, nt, alpha + (0,))
        f = f + coeff.values(*mesh) * dv

    u_grid = trial.on_cylinder(geom, nt)
    h = u_grid[..., 0]
    if p.order_l == 0:
        g = pb.boundary_values(geom, u_grid)
    else:
        bu = sum(b.values(*mesh)
                 * (trial.on_cylinder(geom, nt, alpha + (0,)) if any(alpha) else u_grid)
                 for alpha, b in p.boundary.terms(n).items())
        g = pb.boundary_values(geom, bu)
    return f, g, h


def solution_norms(
    p: pb.ParabolicProblem,
    trials: list[TrialField],
    nt: int,
    s: float | Sequence[float],
    phi: FunctionParam | Sequence[FunctionParam],
) -> np.ndarray:
    """Solution-space norms ||u||_{H^(s, s/2; phi)} over the cylinder, batched.

    A scalar ``s`` with one ``phi`` gives a (trials,) array.  Equally long
    sequences ``s`` and ``phi`` (the cells of a sweep) give a (cells, trials)
    array from one quotient call, so the trials are sampled once; each row
    equals the single-cell call.
    """
    geom = p.geometry
    mask = pb.omega_domain(geom, p.tau, nt)
    cells, single = pb._cells(s, phi)
    idx = [parabolic_split(sc, ph, dimension=mask.lattice.k) for sc, ph in cells]
    datas = [t.on_cylinder(geom, nt).reshape(-1) for t in trials]
    norms = spectra.quotient_norm_batch(idx, datas, mask) * pb._measure_factor(mask.lattice)
    return norms[0] if single else norms


# -- the isomorphism surrogate --------------------------------------------------------

def _check_resolutions(resolutions: Sequence[int]) -> None:
    """Raise :class:`InvalidConfig` unless ``resolutions`` are one or more distinct powers
    of two >= 4: box points per axis, whose finest two the PASS criteria compare."""
    if not resolutions:
        raise InvalidConfig("resolutions must name at least one resolution, got []")
    for i, n in enumerate(resolutions):
        if n < 4 or n & (n - 1):
            raise InvalidConfig(
                f"resolutions must be powers of two >= 4, got {n} in {list(resolutions)}")
        if n in resolutions[:i]:
            raise InvalidConfig(f"resolution {n} is repeated in {list(resolutions)}")


@dataclass(frozen=True)
class BenchCase:
    """Sweep specification for the isomorphism surrogate.

    ``resolutions`` are box points per axis, distinct powers of two >= 4 (the closed
    cylinder grid then has resolution/2 + 1 points per axis); the jump set is
    excluded from ``s_grid`` unless the study explicitly asks for it.  A case
    that cannot run raises :class:`InvalidConfig` when it is made.
    """

    geometry_kind: str  # "interval" | "strip"
    boundary: str = "dirichlet"
    tau: float = 1.0
    s_grid: tuple[float, ...] = (2.6, 3.0, 4.0, 4.6)
    phi_list: tuple[FunctionParam, ...] = ()
    trial_count: int = 30
    resolutions: tuple[int, ...] = (32, 64)
    band: int = 4
    seed: int = 0
    ny: int = 16

    def __post_init__(self):
        for name, kind, kinds in (("geometry", self.geometry_kind, ("interval", "strip")),
                                  ("boundary", self.boundary, ("dirichlet", "neumann"))):
            if kind not in kinds:
                raise InvalidConfig(f"{name} {kind!r} is not one of {list(kinds)}")
        if self.trial_count < 30:
            raise InvalidConfig("need at least 30 trials")
        if self.band < 0:
            raise InvalidConfig(f"band must be >= 0, got {self.band}")
        _check_resolutions(self.resolutions)
        if self.ny < 2 or self.ny & (self.ny - 1):
            raise InvalidConfig(f"ny must be a power of two >= 2, got {self.ny}")
        if not self.s_grid or not all(2 < s < math.inf for s in self.s_grid):
            raise InvalidConfig(f"s_grid must hold finite values s > 2, got {list(self.s_grid)}")
        labels = [phi.describe() for phi in self.phis()]
        if len(set(labels)) < len(labels):  # the report keys its rows by label
            raise InvalidConfig(f"phi_list labels must differ, got {labels}")
        l = 0 if self.boundary == "dirichlet" else 1
        for s in self.s_grid:
            if pb.in_E(s, l):
                raise InvalidConfig(f"s = {s} lies in the jump set; use jump_study")

    def problem(self, resolution: int) -> pb.ParabolicProblem:
        nx = resolution // 2
        if self.geometry_kind == "interval":
            geom: pb.Geometry = pb.IntervalGeometry(nx=nx)
        else:
            geom = pb.PeriodicStripGeometry(nx=nx, ny=self.ny)
        return pb.heat_problem(geom, tau=self.tau, boundary=self.boundary)

    def phis(self) -> tuple[FunctionParam, ...]:
        return self.phi_list if self.phi_list else (constant(),)


@dataclass
class IsomorphismReport:
    case: dict
    rows: list[dict] = field(default_factory=list)

    def add(self, **kw) -> None:
        self.rows.append(kw)

    def condition(self, s: float, phi_label: str, resolution: int) -> float:
        for row in self.rows:
            if (
                row["s"] == s
                and row["phi"] == phi_label
                and row["resolution"] == resolution
            ):
                return row["condition"]
        raise KeyError((s, phi_label, resolution))

    def drift_passed(self, factor: float = 2.0) -> bool:
        res = sorted({row["resolution"] for row in self.rows})
        if len(res) < 2:
            return True
        hi, lo = res[-1], res[-2]
        for row in self.rows:
            if row["resolution"] != hi:
                continue
            c_hi = row["condition"]
            c_lo = self.condition(row["s"], row["phi"], lo)
            if not (1.0 / factor < c_hi / c_lo < factor):
                return False
        return True

    def to_dict(self) -> dict:
        return {"case": self.case, "rows": self.rows}

    def to_csv(self) -> str:
        if not self.rows:
            return ""
        cols = list(self.rows[0])
        lines = [",".join(cols)]
        for row in self.rows:
            lines.append(",".join(str(row[c]) for c in cols))
        return "\n".join(lines)


def estimate_isomorphism(case: BenchCase) -> IsomorphismReport:
    """Two-sided ratio sweep of the problem operator over seeded trials.

    For every (s, phi, resolution) cell the report records the minimum and
    maximum of ||data||_target / ||u||_solution over the trial ensemble and
    their ratio (the surrogate condition number).  Ratios are invariant under
    trial rescaling by homogeneity; stability of the condition number across
    the two finest resolutions is the PASS criterion, checked by
    :meth:`IsomorphismReport.drift_passed`.  Each resolution's trials, their
    data triples and cylinder samples are prepared once, and every cell is
    solved against them: one :func:`solution_norms` and one
    :func:`~hoermander_kit.parabolic.target_norm_batch` call over all cells,
    four quotient calls in all.
    """
    report = IsomorphismReport(
        case={
            "geometry": case.geometry_kind,
            "boundary": case.boundary,
            "s_grid": list(case.s_grid),
            "phi": [pp.describe() for pp in case.phis()],
            "resolutions": list(case.resolutions),
            "trials": case.trial_count,
            "band": case.band,
            "seed": case.seed,
        }
    )
    for resolution in case.resolutions:
        p = case.problem(resolution)
        nt = resolution // 2
        trials = [
            synthesize_trial(
                p.geometry, case.tau, nt,
                seed=case.seed + 7919 * resolution + t, band=case.band,
            )
            for t in range(case.trial_count)
        ]
        datas = [apply_lambda(p, tr, nt) for tr in trials]
        # every (s, phi) cell in one call per norm, so each resolution's data
        # are prepared once
        cells = [(s, phi) for s in case.s_grid for phi in case.phis()]
        s_cells, phi_cells = zip(*cells)
        sols = solution_norms(p, trials, nt, s_cells, phi_cells)
        tgts = pb.target_norm_batch(p, datas, s_cells, phi_cells, nt=nt)
        for (s, phi), sol, tgt in zip(cells, sols, tgts):
            ratios = np.array([b.total for b in tgt]) / sol
            report.add(
                geometry=case.geometry_kind,
                s=s,
                phi=phi.describe(),
                resolution=resolution,
                trials=case.trial_count,
                lower_ratio=float(np.min(ratios)),
                upper_ratio=float(np.max(ratios)),
                condition=float(np.max(ratios) / np.min(ratios)),
                seed=case.seed,
            )
    return report


# -- inverse direction on the interval ---------------------------------------------------

def round_trip_interval(
    resolution: int = 64,
    s: float = 3.0,
    seed: int = 0,
) -> dict:
    """Solve the Dirichlet heat problem for synthesized data and re-apply the map.

    Returns the relative defect of Lambda(solve(data)) against the data in
    the target norm, together with the norms entering the quotient.  The
    solver consumes the trial's analytic callables (its quadrature evaluates
    data between grid times): f, the boundary values and their time
    derivatives and the initial state are all :func:`trig_sum` of the trial's
    band modes times the symbol of dt - dxx, of 1 or of dt.  The
    comparison happens on the bench grid.
    """
    nx = nt = resolution // 2
    geom = pb.IntervalGeometry(nx=nx)
    p = pb.heat_problem(geom)
    trial = synthesize_trial(geom, p.tau, nt, seed=seed, band=3)
    f_grid, g_grid, h_grid = apply_lambda(p, trial, nt)

    fx, ft = trial.freqs
    dt_symbol = (1j * ft)[None, :]

    def evaluator(symbol):
        coeffs = trial.modes * symbol
        return lambda x, t: trig_sum(coeffs, trial.freqs, (x, t))

    u, du = evaluator(1.0), evaluator(dt_symbol)
    data = HeatData(
        f=evaluator(dt_symbol + (fx**2)[:, None]),  # dt - dxx
        g0=lambda t: u(0.0, t),
        g1=lambda t: u(1.0, t),
        h=lambda x: u(x, 0.0),
        dg0=lambda t: du(0.0, t),
        dg1=lambda t: du(1.0, t),
    )
    sol: SolveResult = solve_heat_interval(data, nx, nt, p.tau)

    f_rec = f_grid + sol.f_residual
    g_rec = np.stack([sol.u[0], sol.u[-1]])
    h_rec = sol.u[:, 0]
    defect = (f_rec - f_grid, g_rec - g_grid, h_rec - h_grid)
    norm_defect, norm_data = (
        b.total for b in pb.target_norm_batch(p, [defect, (f_grid, g_grid, h_grid)], s))
    u_err = float(np.max(np.abs(sol.u - trial.on_cylinder(geom, nt))))
    return {
        "s": s,
        "resolution": resolution,
        "relative_defect": norm_defect / norm_data,
        "data_norm": norm_data,
        "max_u_error": u_err,
    }


# -- jump study --------------------------------------------------------------------------

def _data_gram(p: pb.ParabolicProblem, split: _MirrorSplit, s: float) -> list[np.ndarray]:
    """Block Gram of the three-component data space at smoothness s: its even and odd halves,
    the blocks of :func:`spectra.quotient_gram` grouped by :class:`_MirrorSplit`."""
    indices = pb._component_indices(p.geometry, s, p.order_l, constant())
    f, g, h = ([G * pb._measure_factor(mask.lattice) ** 2 for G in spectra.quotient_gram(idx, mask)]
               for idx, mask in zip(indices, split.masks))
    return [sla.block_diag(*half) for half in split.group(f, g, g, h)]


def _flatten_data(f, g, h) -> np.ndarray:
    return np.concatenate([np.ravel(f), np.ravel(g), np.ravel(h)])  # g: sheet 0, then sheet 1


def _data_shapes(geom: pb.Geometry, nt: int):
    f_shape = geom.g_shape() + (nt + 1,)
    g_shape = (2,) + geom.g_shape()[1:] + (nt + 1,)
    h_shape = geom.g_shape()
    return f_shape, g_shape, h_shape


class _MirrorSplit:
    """The flattened (f, g, h) data in the engine's parity basis, halved by R: x -> 1 - x.

    f and h live on the Omega and spatial masks, whose parity plans split x
    (axis 0): R fixes their x-even blocks and negates the x-odd ones.  R
    swaps the two g sheets, so (g_0 +- g_1) / sqrt 2 takes every block of
    the lateral mask, + in the even half and - in the odd one.  The
    coordinates come from :func:`spectra.parity_coords`, an orthonormal basis
    together, so a Gram and a constraint kernel that R preserves split into
    an orthogonal sum of an even and an odd pencil of about half the size
    each (Cantoni & Butler, 1976, symmetric centrosymmetric matrices).  A
    plan that does not split x raises :class:`MirrorAsymmetry`, as do
    constraint rows that R does not map onto each other bitwise
    (:meth:`constraints`); ``mirror[i]``, the index of R i in the flattened
    data, serves that check.
    """

    def __init__(self, p: pb.ParabolicProblem, nt: int):
        geom = p.geometry
        self.masks = (pb.omega_domain(geom, p.tau, nt), pb.lateral_domain(geom, p.tau, nt),
                      pb.spatial_domain(geom))
        self.x_parity = []  # of each block of the f plan, then of the h plan
        for mask in self.masks[::2]:
            plan = spectra._parity_plan(mask.mask)
            if 0 not in plan.split:
                raise MirrorAsymmetry("the data mask is not its own mirror image in x")
            self.x_parity.append(plan.parities[:, plan.split.index(0)])
        offset, parts = 0, []
        for shape in _data_shapes(geom, nt):
            n = int(np.prod(shape))
            parts.append(offset + np.arange(n).reshape(shape)[::-1].reshape(-1))
            offset += n
        self.mirror = np.concatenate(parts)
        self.sheet_points = int(np.prod(geom.g_shape()[1:]))

    def group(self, f: list, g_even: list, g_odd: list, h: list) -> list[list]:
        """The even and the odd half: the x-even (x-odd) blocks of f, then g_even (g_odd),
        then the x-even (x-odd) blocks of h."""
        return [[*(b for b, x in zip(f, self.x_parity[0]) if x == beta), *g,
                 *(b for b, x in zip(h, self.x_parity[1]) if x == beta)]
                for beta, g in ((0, g_even), (1, g_odd))]

    def coords(self, x: np.ndarray) -> list[np.ndarray]:
        """The even and odd coordinates of x, a (dim,) vector or a (dim, batch) block."""
        omega, lateral, spatial = self.masks
        f, g0, g1, h = np.split(x, np.cumsum([omega.npoints, lateral.npoints, lateral.npoints]))
        g_even, g_odd = (spectra.parity_coords(lateral, math.sqrt(0.5) * (g0 + sign * g1))
                         for sign in (1, -1))
        halves = self.group(spectra.parity_coords(omega, f), g_even, g_odd,
                            spectra.parity_coords(spatial, h))
        return [np.concatenate(half) for half in halves]

    def constraints(self, C: np.ndarray) -> list[np.ndarray]:
        """C on the even and on the odd half.

        C's rows are ordered as :func:`_constraint_matrix` orders them: per
        condition, the boundary points of sheet 0, then those of sheet 1.
        R must map each row onto its partner on the other sheet, bitwise; a
        half then sees every row twice (negated on the odd half), and the
        rank cut of :func:`interp.kernel_frame` drops the copies.
        """
        rows = np.arange(len(C)).reshape(-1, 2, self.sheet_points)[:, ::-1].reshape(-1)
        if not np.array_equal(C[np.ix_(rows, self.mirror)], C):
            raise MirrorAsymmetry("the constraint rows of the two boundary sheets are not "
                                  "mirror images of each other")
        return [half.T for half in self.coords(C.T)]


def _constraint_matrix(
    p: pb.ParabolicProblem, nt: int, count: int, acc_x: int = 8,
) -> np.ndarray:
    """Rows of the first ``count`` compatibility functionals (per condition k, per sheet).

    Column j is lhs - rhs, dt^k g(., 0) minus the boundary target, of the
    j-th coordinate impulse of the flattened (f, g, h) data: 0 minus its
    :func:`parabolic.compatibility_mismatch`, from one batched call, so zeros
    are unsigned.  Columns that are exactly zero are never computed: f and g
    impulses at time level (count - 2) + T, resp. (count - 1) + T, or later,
    with T = :data:`parabolic._TRACE_ORDER`, which no trace stencil reads.
    """
    shapes = _data_shapes(p.geometry, nt)
    sizes = [int(np.prod(shape)) for shape in shapes]
    C = np.zeros((count * sizes[1] // (nt + 1), sum(sizes)), dtype=complex)
    if count == 0:
        return C
    levels = (count - 2 + pb._TRACE_ORDER, count - 1 + pb._TRACE_ORDER, None)
    cols = [np.arange(size).reshape(shape)[..., :level].reshape(-1)
            for size, shape, level in zip(sizes, shapes, levels)]
    batch, first = sum(map(len, cols)), np.cumsum([0] + [len(c) for c in cols])
    impulses = []
    for c, i, size, shape in zip(cols, first, sizes, shapes):
        part = np.zeros((batch, size), dtype=complex)
        part[i + np.arange(len(c)), c] = 1.0
        impulses.append(part.reshape((batch,) + shape))
    _, mismatches = pb.compatibility_mismatch(p, *impulses, count=count, acc_x=acc_x)
    columns = np.concatenate([c + offset for c, offset in zip(cols, np.cumsum([0] + sizes[:2]))])
    C[:, columns] = 0.0 - np.stack(mismatches, axis=1).reshape(batch, -1).T
    return C


@dataclass
class JumpStudyReport:
    s_star: float
    eps_pair: tuple[float, float]
    rows: list[dict] = field(default_factory=list)
    violation_rows: list[dict] = field(default_factory=list)

    def envelope(self, resolution: int) -> float:
        for row in self.rows:
            if row["resolution"] == resolution:
                return row["envelope"]
        raise KeyError(resolution)

    def envelope_stable(self, factor: float = 2.0) -> bool:
        res = sorted({row["resolution"] for row in self.rows})
        if len(res) < 2:
            return True
        a, b = self.envelope(res[-2]), self.envelope(res[-1])
        return 1.0 / factor < b / a < factor

    def violation_monotone(self) -> bool:
        rows = sorted(self.violation_rows, key=lambda row: row["resolution"])
        vals = [row["norm"] for row in rows]
        return all(b > a for a, b in zip(vals, vals[1:]))

    def to_dict(self) -> dict:
        return {
            "s_star": self.s_star,
            "eps_pair": list(self.eps_pair),
            "rows": self.rows,
            "violations": self.violation_rows,
        }


@dataclass(frozen=True, eq=False)
class _StudyPencils:
    """What a jump study evaluates its trials with at one (s_star, eps_pair, resolution):
    per eps, the :class:`interp.SubspaceBasis` of :func:`_study_pencils`.  ``nbytes`` is
    their size, as ``weights._GridCache`` counts it."""

    bases: tuple[interp.SubspaceBasis, ...]

    @property
    def nbytes(self) -> int:
        return sum(basis.nbytes for basis in self.bases)


# far above one 16/32/64 study (about 1.3 MiB), with room for resolution 128
_STUDY_CACHE = _GridCache(byte_cap=2**24)


def _study_pencils(
    p: pb.ParabolicProblem, nt: int, s_star: float, eps_pair: tuple[float, float],
    trial: TrialField,
) -> _StudyPencils:
    """The seed-free part of :func:`jump_study` at one resolution.

    ``trial``, any trial of the study, gives the box and the band modes.  Per
    eps, the subspace core is set up on the data columns of the band modes
    and, last, of the violating datum: zero interior/initial data with the
    t-linear boundary value, which satisfies the k = 0 condition and breaks
    the k = 1 condition appearing at s_star.
    """
    geom = p.geometry
    acc_x = 8 if geom.nx + 1 >= 2 + 8 else 4  # small grids degrade gracefully
    split = _MirrorSplit(p, nt)
    C_above = _constraint_matrix(p, nt, pb.compat_count(s_star, 0) + 1, acc_x=acc_x)
    frames = [interp.kernel_frame(C, C.shape[1]) for C in split.constraints(C_above)]

    columns = [_flatten_data(*apply_lambda(
        p, TrialField(trial.box, trial.index, e.reshape(trial.block.shape)), nt))
        for e in np.eye(trial.block.size)]
    f_shape, g_shape, h_shape = _data_shapes(geom, nt)
    g_viol = np.broadcast_to(np.arange(nt + 1) * (p.tau / nt), g_shape)
    columns.append(_flatten_data(np.zeros(f_shape), g_viol, np.zeros(h_shape)))
    halves = split.coords(np.column_stack(columns))
    return _StudyPencils(bases=tuple(
        interp.subspace_basis([(interp.GramPair(gram0=g0, gram1=g1), frame, x) for g0, g1, frame, x
                               in zip(_data_gram(p, split, s_star - eps),
                                      _data_gram(p, split, s_star + eps), frames, halves)])
        for eps in eps_pair))


def jump_study(
    s_star: float = 3.5,
    eps_pair: tuple[float, float] = (0.1, 0.2),
    resolutions: tuple[int, ...] = (16, 32),
    trials: int = 30,
    seed: int = 0,
) -> JumpStudyReport:
    """Half-interpolated target norm at a jump point of the condition count.

    For each resolution and eps the nested pair (conditions of the lower
    regime in the coarser norm, conditions of the upper regime in the finer
    norm) is realized densely and the interpolation norm with parameter 1/2
    is evaluated on Lambda-synthesized trials.  Reported: the trialwise
    envelope of the eps_1-vs-eps_2 norm ratios (eps-independence up to
    equivalence), its stability across resolutions, the growth of the norm
    for data violating the condition that appears at s_star, and
    ``defect_max``, the largest G0-orthogonal defect delta^2 / ||u||_0^2 of a
    trial as the norm used it: 0 where it is rounding, at or below the one
    membership floor of ``interp``'s subspace core, which
    :func:`interp.half_interp_norm` and :func:`interp.interpolate_subspace_norm`
    share.

    The problem is symmetric under x -> 1 - x, so every pencil is evaluated
    as the orthogonal sum of its mirror-even and mirror-odd halves
    (:class:`_MirrorSplit`), two generalized eigenproblems of about half the
    size, in the engine's parity basis: the data by
    :func:`spectra.parity_coords`, the Grams by the blocks of
    :func:`spectra.quotient_gram`.  A constraint set that breaks the
    symmetry raises :class:`MirrorAsymmetry`.

    Everything but the trials depends only on (s_star, eps_pair, resolution):
    the heat problem, tau = 1, band 2 and the stencil orders are fixed.  So
    :func:`_study_pencils` builds it once per such key (the constraint rows,
    the kernel frames, the Grams and, per eps, one
    :class:`interp.SubspaceBasis` on the data columns of the band modes and
    the violating datum) and keeps it in ``_STUDY_CACHE``, at most 16 MiB,
    least recently used out.  A trial's data column is linear in its band
    block B (Lambda is), so a call draws its trials and evaluates them at the
    coefficients [B; 0], and the violating datum at the last unit vector,
    through the core's one evaluation, the one the two ``interp`` norms use
    at the identity.  A cold and a warm call take the same path from the
    cached bases, and their reports are bitwise equal.

    Raises :class:`InvalidConfig` before any work unless s_star is a Dirichlet
    jump point, ``trials`` >= 1, the two eps differ, each with s_star -+ eps
    in the open continuity intervals on either side of s_star, and the
    resolutions are one or more distinct powers of two >= 4.
    """
    if not pb.in_E(s_star, 0):
        raise InvalidConfig(f"s_star = {s_star} is not a Dirichlet jump point")
    if trials < 1:
        raise InvalidConfig(f"need at least 1 trial, got {trials}")
    _check_resolutions(resolutions)
    # the continuity intervals that end and start at s_star
    (below, _), (_, above) = [iv for iv in pb.continuity_intervals(0, math.ceil(s_star))
                              if s_star in iv]
    for eps in eps_pair:
        if not below < s_star - eps < s_star < s_star + eps < above:
            raise InvalidConfig(f"eps = {eps}: s_star -+ eps must lie in ({below}, {s_star}) "
                                f"and ({s_star}, {above})")
    if eps_pair[0] == eps_pair[1]:
        raise InvalidConfig(f"eps_pair {eps_pair} compares a norm with itself; the two eps must differ")
    report = JumpStudyReport(s_star=s_star, eps_pair=eps_pair)
    for resolution in resolutions:
        nx = nt = resolution // 2
        geom = pb.IntervalGeometry(nx=nx)
        p = pb.heat_problem(geom)
        drawn = [synthesize_trial(geom, p.tau, nt, seed=seed + 31 * t, band=2)
                 for t in range(trials)]
        key = (s_star, tuple(eps_pair), resolution)
        pencils = _STUDY_CACHE.get(key)
        if pencils is None:
            pencils = _study_pencils(p, nt, s_star, eps_pair, drawn[0])
            _STUDY_CACHE.put(key, pencils)
        # the trials at [B; 0], B their band blocks; the violating datum at the last unit vector
        blocks = np.stack([trial.block.reshape(-1) for trial in drawn], axis=1)
        blocks = np.vstack([blocks, np.zeros((1, trials))])
        norms, defects = zip(*(basis.evaluate(blocks, None) for basis in pencils.bases))
        [violation], _ = pencils.bases[0].evaluate(np.eye(len(blocks))[:, -1:], None)

        ratios = norms[0] / norms[1]
        envelope = float(max(np.max(ratios), 1.0 / np.min(ratios)))
        report.rows.append(
            {
                "resolution": resolution,
                "envelope": envelope,
                "ratio_min": float(np.min(ratios)),
                "ratio_max": float(np.max(ratios)),
                "defect_max": float(np.max(defects)),
                "trials": trials,
            }
        )
        report.violation_rows.append({"resolution": resolution, "norm": float(violation)})
    return report

