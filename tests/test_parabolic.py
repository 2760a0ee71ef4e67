import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hoermander_kit import bench, parabolic as pb
from hoermander_kit.errors import (
    DimensionMismatch,
    HoermanderKitError,
    InvalidConfig,
    NonFiniteData,
    NotFirstOrder,
    UnknownConfigKey,
)
from hoermander_kit.params import constant, log_power


def interval(nx=256):
    return pb.IntervalGeometry(nx=nx)


def strip(nx=64, ny=16):
    return pb.PeriodicStripGeometry(nx=nx, ny=ny)


# -- condition counting -------------------------------------------------------

@pytest.mark.parametrize(
    "s,l,expected",
    [
        (3.0, 0, 1),
        (3.5, 0, 1),
        (3.5 + 1e-9, 0, 2),
        (4.0, 0, 2),
        (5.5, 0, 2),
        (5.6, 0, 3),
        (2.4, 1, 0),
        (2.5, 1, 0),
        (2.6, 1, 1),
        (4.5, 1, 1),
        (4.6, 1, 2),
    ],
)
def test_compat_count_worked_cases(s, l, expected):
    assert pb.compat_count(s, l) == expected


def test_compat_count_guard():
    with pytest.raises(ValueError):
        pb.compat_count(2.0, 0)


@pytest.mark.parametrize("l,members", [(0, [3.5, 5.5, 7.5]), (1, [2.5, 4.5, 6.5])])
def test_jump_set_membership(l, members):
    for s in members:
        assert pb.in_E(s, l)
    for s in (2.6, 3.0, 4.0, 5.0, 3.5 + 1e-9):
        assert not pb.in_E(s, l) or s in members


def test_jump_sets_disjoint_shifted():
    assert pb.in_E(3.5, 0) and not pb.in_E(3.5, 1)
    assert pb.in_E(2.5, 1) and not pb.in_E(2.5, 0)


@given(s=st.floats(2.001, 20.0), l=st.sampled_from([0, 1]))
@settings(max_examples=300, deadline=None)
def test_count_jumps_exactly_on_E(s, l):
    eps = 1e-6
    jumped = pb.compat_count(s + eps, l) != pb.compat_count(max(s - eps, 2.0 + eps), l)
    # the epsilon window around s contains a jump iff an E-point sits inside
    offset = 1.5 if l == 0 else 0.5
    r_lo = (s - eps - offset) / 2.0
    r_hi = (s + eps - offset) / 2.0
    contains_jump = math.floor(r_hi) > math.floor(r_lo) and math.floor(r_hi) >= 1
    assert jumped == contains_jump


def test_count_constant_on_continuity_intervals():
    for l in (0, 1):
        for lo, hi in pb.continuity_intervals(l, r_max=5):
            ss = np.linspace(lo + 1e-6, hi - 1e-6, 7)
            ss = ss[ss > 2.0]
            counts = {pb.compat_count(float(s), l) for s in ss}
            assert len(counts) == 1


# -- Petrovskii and covering ---------------------------------------------------

def test_heat_passes_petrovskii():
    p = pb.heat_problem(interval(64))
    rep = pb.check_petrovskii(p, 2000, seed=0)
    assert rep.passed and rep.margin > 0.5


def test_backward_heat_fails():
    geom = interval(64)
    p = pb.ParabolicProblem(
        geometry=geom, tau=1.0, a_coeffs={(2,): -1.0}, boundary=pb.Dirichlet()
    )
    rep = pb.check_petrovskii(p, 2000, seed=1)
    assert not rep.passed
    assert rep.margin <= 1e-12


def test_time_dependent_diffusion_passes():
    geom = interval(64)
    p = pb.ParabolicProblem(
        geometry=geom,
        tau=1.0,
        a_coeffs={(2,): pb.Coefficient(evaluator=lambda x, t: 1.0 + t + 0.0 * x)},
        boundary=pb.Dirichlet(),
    )
    assert pb.check_petrovskii(p, 2000, seed=2).passed


def test_neumann_covering_passes():
    p = pb.heat_problem(strip(), boundary="neumann")
    rep = pb.check_covering(p, 2000, seed=0)
    assert rep.passed
    assert rep.margin == pytest.approx(1.0)
    assert rep.margin_b > 1e-3


def test_tangential_boundary_fails_part_a():
    geom = strip()
    p = pb.ParabolicProblem(
        geometry=geom,
        tau=1.0,
        a_coeffs={(2, 0): 1.0, (0, 2): 1.0},
        boundary=pb.FirstOrder(b={2: 1.0}),  # purely tangential
    )
    rep = pb.check_covering(p, 2000, seed=1)
    assert not rep.passed
    assert rep.margin <= 1e-12


def test_oblique_real_boundary_passes():
    geom = strip()
    p = pb.ParabolicProblem(
        geometry=geom,
        tau=1.0,
        a_coeffs={(2, 0): 1.0, (0, 2): 1.0},
        boundary=pb.FirstOrder(
            b={1: pb.Coefficient(evaluator=lambda *a: 1.0 - 2.0 * a[0],
                                 time_constant=True),
               2: 0.5}
        ),
    )
    rep = pb.check_covering(p, 2000, seed=2)
    assert rep.passed


def test_complex_tangential_coefficient_fails_part_b():
    # b = (nu, i): zeta cancels the tangential quadratic term, leaving p,
    # which vanishes at the admissible extreme (|eta| = 1, p = 0)
    geom = strip()
    p = pb.ParabolicProblem(
        geometry=geom,
        tau=1.0,
        a_coeffs={(2, 0): 1.0, (0, 2): 1.0},
        boundary=pb.FirstOrder(
            b={1: pb.Coefficient(evaluator=lambda *a: 1.0 - 2.0 * a[0],
                                 time_constant=True),
               2: 1.0j}
        ),
    )
    rep = pb.check_covering(p, 2000, seed=3)
    assert not rep.passed
    assert rep.margin > 1e-9  # part a is fine
    assert rep.margin_b <= 1e-12


def test_covering_requires_first_order():
    p = pb.heat_problem(interval(64))
    with pytest.raises(NotFirstOrder):
        pb.check_covering(p)


def test_condition_corpus_verdicts():
    # hand-constructed verdicts over a 12-case corpus
    cases = []
    cases.append(("heat-int", pb.heat_problem(interval(64)), "petrovskii", True))
    cases.append(("heat-strip", pb.heat_problem(strip()), "petrovskii", True))
    bw_int = pb.ParabolicProblem(interval(64), 1.0, {(2,): -1.0}, pb.Dirichlet())
    cases.append(("backward-int", bw_int, "petrovskii", False))
    bw_strip = pb.ParabolicProblem(
        strip(), 1.0, {(2, 0): -1.0, (0, 2): -1.0}, pb.Dirichlet()
    )
    cases.append(("backward-strip", bw_strip, "petrovskii", False))
    var_diff = pb.ParabolicProblem(
        interval(64), 1.0,
        {(2,): pb.Coefficient(evaluator=lambda x, t: 1.0 + t + 0.0 * x)},
        pb.Dirichlet(),
    )
    cases.append(("var-diffusion", var_diff, "petrovskii", True))
    aniso = pb.ParabolicProblem(
        strip(), 1.0, {(2, 0): 1.0, (0, 2): 2.0}, pb.Dirichlet()
    )
    cases.append(("aniso-diffusion", aniso, "petrovskii", True))
    mixed_bad = pb.ParabolicProblem(
        strip(), 1.0, {(2, 0): 1.0, (1, 1): 3.0, (0, 2): 1.0}, pb.Dirichlet()
    )
    # symbol p + xi1^2 + 3 xi1 xi2 + xi2^2 has real zeros (discriminant > 0)
    cases.append(("indefinite-cross", mixed_bad, "petrovskii", False))
    cases.append(("neumann", pb.heat_problem(strip(), boundary="neumann"), "covering", True))
    tang = pb.ParabolicProblem(
        strip(), 1.0, {(2, 0): 1.0, (0, 2): 1.0}, pb.FirstOrder(b={2: 1.0})
    )
    cases.append(("tangential", tang, "covering", False))
    obl = pb.ParabolicProblem(
        strip(), 1.0, {(2, 0): 1.0, (0, 2): 1.0},
        pb.FirstOrder(b={1: pb.Coefficient(evaluator=lambda *a: 1.0 - 2.0 * a[0],
                                           time_constant=True), 2: 0.5}),
    )
    cases.append(("oblique", obl, "covering", True))
    cplx = pb.ParabolicProblem(
        strip(), 1.0, {(2, 0): 1.0, (0, 2): 1.0},
        pb.FirstOrder(b={1: pb.Coefficient(evaluator=lambda *a: 1.0 - 2.0 * a[0],
                                           time_constant=True), 2: 1.0j}),
    )
    cases.append(("complex-tangent", cplx, "covering", False))
    zero_b = pb.ParabolicProblem(
        interval(64), 1.0, {(2,): 1.0}, pb.FirstOrder(b={0: 1.0})
    )
    cases.append(("zero-order-only", zero_b, "covering", False))

    assert len(cases) == 12
    for name, prob, which, expected in cases:
        if which == "petrovskii":
            rep = pb.check_petrovskii(prob, 2000, seed=7)
        else:
            rep = pb.check_covering(prob, 2000, seed=7)
        assert rep.passed == expected, f"{name}: {rep}"


# -- the v_k recurrence ---------------------------------------------------------

def omega_grid(geom, tau, nt, fn):
    x = geom.x_axis()
    t = np.arange(nt + 1) * (tau / nt)
    if isinstance(geom, pb.IntervalGeometry):
        return fn(x[:, None], t[None, :])
    y = geom.y_axis()
    return fn(x[:, None, None], y[None, :, None], t[None, None, :])


def test_compute_v_heat_one_step():
    geom = interval(256)
    p = pb.heat_problem(geom)
    nt = 32
    f = omega_grid(geom, 1.0, nt, lambda x, t: np.cos(2 * np.pi * x) * (1.0 + t))
    h = np.sin(2 * np.pi * geom.x_axis())
    v = pb.compute_v(p, f, h, 1)
    lap_h = -((2 * np.pi) ** 2) * np.sin(2 * np.pi * geom.x_axis())
    expected = lap_h + np.cos(2 * np.pi * geom.x_axis())
    assert np.max(np.abs(v[1] - expected)) < 1e-7 * np.max(np.abs(expected))


def test_compute_v_zero_data():
    geom = interval(64)
    p = pb.heat_problem(geom)
    f = np.zeros((65, 17))
    h = np.zeros(65)
    v = pb.compute_v(p, f, h, 3)
    for vk in v:
        assert np.allclose(vk, 0.0)


def test_compute_v_biharmonic_periodic_axis():
    # strip heat with h = sin(2 pi y): v2 = Laplace^2 h = (2 pi)^4 sin(2 pi y)
    geom = strip(nx=32, ny=32)
    p = pb.heat_problem(geom)
    nt = 16
    f = np.zeros(geom.g_shape() + (nt + 1,))
    y = geom.y_axis()
    h = np.tile(np.sin(2 * np.pi * y)[None, :], (geom.nx + 1, 1))
    v = pb.compute_v(p, f, h, 2)
    expected = (2 * np.pi) ** 4 * np.sin(2 * np.pi * y)
    assert np.max(np.abs(v[2] - expected[None, :])) < 1e-8 * (2 * np.pi) ** 4


def test_compute_v_biharmonic_interval_fd():
    # extended-precision samples keep the composed one-sided stencils clear of
    # the float64 quantization floor near the endpoints
    geom = interval(256)
    p = pb.heat_problem(geom)
    f = np.zeros((geom.nx + 1, 17), dtype=np.longdouble)
    x_ext = np.arange(geom.nx + 1, dtype=np.longdouble) / geom.nx
    h = np.sin(2 * np.pi * x_ext)
    v = pb.compute_v(p, f, h, 2)
    expected = (2 * np.pi) ** 4 * np.sin(2 * np.pi * geom.x_axis())
    assert np.max(np.abs(v[2].astype(complex) - expected)) < 1e-8 * (2 * np.pi) ** 4


def test_compute_v_matches_symbolic_oracle():
    # k <= 3 oracle on the periodic axis: spatial differentiation is spectral
    # there, so the sixth-derivative chains stay at machine accuracy
    sympy = pytest.importorskip("sympy")
    y_s, t_s = sympy.symbols("y t", real=True)
    two_pi = 2 * sympy.pi
    a20 = sympy.Integer(1)
    a02 = 1 + sympy.sin(two_pi * y_s) / 2 + t_s / 3
    a01 = sympy.cos(two_pi * y_s) * (1 + t_s**2)
    a00 = sympy.sin(two_pi * y_s) * t_s
    f_s = sympy.cos(two_pi * y_s) * sympy.exp(-t_s) + t_s**2 / 2
    h_s = sympy.sin(two_pi * y_s) + sympy.cos(two_pi * y_s) ** 2

    i = sympy.I
    coeffs = {(2, 0): a20, (0, 2): a02, (0, 1): a01, (0, 0): a00}
    u_derivs = [h_s]
    for k in range(1, 4):
        acc = sympy.Integer(0)
        for alpha, a_s in coeffs.items():
            if alpha[0] > 0:
                continue  # x-derivatives annihilate the x-constant data
            m = alpha[1]
            for q in range(k):
                acc += (
                    sympy.binomial(k - 1, q)
                    * sympy.diff(a_s, t_s, k - 1 - q).subs(t_s, 0)
                    * (i**m)
                    * sympy.diff(u_derivs[q], y_s, m)
                )
        u_derivs.append(sympy.expand(-acc + sympy.diff(f_s, t_s, k - 1).subs(t_s, 0)))

    geom = strip(nx=16, ny=16)
    nt, tau = 64, 1.0

    def lamb(expr, *vars_):
        return sympy.lambdify(vars_, expr, "numpy")

    def mk_coeff(expr):
        ev = lamb(expr, y_s, t_s)
        dts = tuple(lamb(sympy.diff(expr, t_s, q), y_s, t_s) for q in (1, 2, 3))
        return pb.Coefficient(
            evaluator=lambda x, y, t, ev=ev: ev(y, t) + 0.0 * x,
            dt_evaluators=tuple(
                (lambda x, y, t, d=d: d(y, t) + 0.0 * x) for d in dts
            ),
        )

    p = pb.ParabolicProblem(
        geometry=geom,
        tau=tau,
        a_coeffs={k_: mk_coeff(v_) for k_, v_ in coeffs.items()},
        boundary=pb.Dirichlet(),
    )
    y = geom.y_axis()
    t = np.arange(nt + 1) * (tau / nt)
    f = np.tile(lamb(f_s, y_s, t_s)(y[:, None], t[None, :])[None, :, :],
                (geom.nx + 1, 1, 1)).astype(complex)
    h = np.tile(lamb(h_s, y_s)(y)[None, :], (geom.nx + 1, 1)).astype(complex)
    v = pb.compute_v(p, f, h, 3, acc_t=10)
    for k in range(4):
        oracle = np.asarray(lamb(u_derivs[k], y_s)(y), dtype=complex)
        scale = max(1.0, float(np.max(np.abs(oracle))))
        err = float(np.max(np.abs(v[k] - oracle[None, :]))) / scale
        assert err < 1e-8, f"v_{k} deviates {err:.2e}"


def test_compute_v_interval_oracle_two_steps():
    # interval finite-difference route, variable coefficients, k <= 2
    sympy = pytest.importorskip("sympy")
    x_s, t_s = sympy.symbols("x t", real=True)
    a2 = 1 + x_s * (1 - x_s) + t_s / 2
    a1 = sympy.sin(2 * sympy.pi * x_s) * (1 + t_s)
    a0 = sympy.cos(2 * sympy.pi * x_s) * t_s
    f_s = sympy.sin(2 * sympy.pi * x_s) * sympy.exp(-t_s) + x_s * t_s**2
    h_s = sympy.cos(2 * sympy.pi * x_s) + x_s**2 * (1 - x_s) ** 2

    i = sympy.I
    coeffs = {(2,): a2, (1,): a1, (0,): a0}
    u_derivs = [h_s]
    for k in range(1, 3):
        acc = sympy.Integer(0)
        for alpha, a_s in coeffs.items():
            m = alpha[0]
            for q in range(k):
                acc += (
                    sympy.binomial(k - 1, q)
                    * sympy.diff(a_s, t_s, k - 1 - q).subs(t_s, 0)
                    * (i**m) * sympy.diff(u_derivs[q], x_s, m)
                )
        u_derivs.append(sympy.expand(-acc + sympy.diff(f_s, t_s, k - 1).subs(t_s, 0)))

    geom = interval(256)
    nt, tau = 64, 1.0

    def lamb(expr, *vars_):
        return sympy.lambdify(vars_, expr, "numpy")

    p = pb.ParabolicProblem(
        geometry=geom,
        tau=tau,
        a_coeffs={
            key: pb.Coefficient(
                evaluator=lamb(expr, x_s, t_s),
                dt_evaluators=tuple(
                    lamb(sympy.diff(expr, t_s, q), x_s, t_s) for q in (1, 2)
                ),
            )
            for key, expr in coeffs.items()
        },
        boundary=pb.Dirichlet(),
    )
    x_ext = np.arange(geom.nx + 1, dtype=np.longdouble) / geom.nx
    t_ext = np.arange(nt + 1, dtype=np.longdouble) * (tau / nt)
    f = lamb(f_s, x_s, t_s)(x_ext[:, None], t_ext[None, :])
    h = lamb(h_s, x_s)(x_ext)
    v = pb.compute_v(p, f, h, 2, acc_t=8, acc_x=8)
    for k in range(3):
        oracle = np.asarray(lamb(u_derivs[k], x_s)(x_ext)).astype(complex)
        scale = max(1.0, float(np.max(np.abs(oracle))))
        err = float(np.max(np.abs(v[k].astype(complex) - oracle))) / scale
        assert err < 1e-8, f"v_{k} deviates {err:.2e}"


def _batch_problem(geom):
    # a time-dependent coefficient without dt_evaluators runs the dt_on_G
    # one-sided fallback; the others cover first-order and zeroth-order terms
    x_dep = pb.Coefficient(evaluator=lambda *a: 1.0 + 0.3 * a[0] + 0.2 * np.sin(a[-1]))
    a = {(2,) + (0,) * (geom.spatial_dim - 1): x_dep,
         (1,) + (0,) * (geom.spatial_dim - 1): 0.4,
         (0,) * geom.spatial_dim: pb.Coefficient(evaluator=lambda *a: a[-1] ** 2)}
    if geom.spatial_dim == 2:
        a[(0, 2)] = pb.Coefficient(evaluator=lambda x, y, t: 1.0 + 0.1 * np.cos(2 * np.pi * y) * t)
        a[(0, 1)] = 0.5j
    return pb.ParabolicProblem(geometry=geom, tau=1.0, a_coeffs=a, boundary=pb.Dirichlet())


@pytest.mark.parametrize("geom", [interval(16), strip(nx=16, ny=4)], ids=["interval", "strip"])
@pytest.mark.parametrize("k_max", [1, 2, 3])
def test_compute_v_batch_matches_items_bitwise(geom, k_max):
    p = _batch_problem(geom)
    nt = 16
    rng = np.random.default_rng(k_max)
    batch = (2, 3)
    f = rng.standard_normal(batch + geom.g_shape() + (nt + 1,)) + 0j
    h = rng.standard_normal(batch + geom.g_shape()) + 1j * rng.standard_normal(batch + geom.g_shape())
    v_batch = pb.compute_v(p, f, h, k_max)
    assert len(v_batch) == k_max + 1
    for i in np.ndindex(*batch):
        v_item = pb.compute_v(p, f[i], h[i], k_max)
        for vb, vi in zip(v_batch, v_item):
            assert vb[i].shape == geom.g_shape()
            assert vb[i].tobytes() == vi.tobytes()


def _compute_v_recomputing(p, f, h, k_max, acc_t=8, acc_x=8):
    """Reference: the recurrence with D^alpha v_q rebuilt for every k > q."""
    geom = p.geometry
    f = np.asarray(f).astype(complex)
    h = np.asarray(h).astype(complex)
    dt = p.tau / (f.shape[-1] - 1)
    v = [h]
    for k in range(1, k_max + 1):
        acc = np.zeros(h.shape, dtype=complex)
        for alpha, coeff in p.a_coeffs.items():
            for q in range(k):
                acc += math.comb(k - 1, q) * coeff.dt_on_G(geom, k - 1 - q, p.tau) * (
                    pb.apply_D_alpha(geom, v[q], alpha, acc_x)
                )
        v.append(-acc + pb.trace_deriv_at_zero(f, f.ndim - 1, dt, k - 1, acc_t))
    return v


@pytest.mark.parametrize("geom", [interval(16), strip(nx=16, ny=4)], ids=["interval", "strip"])
def test_compute_v_reuses_derivatives_bitwise(geom):
    p = _batch_problem(geom)
    rng = np.random.default_rng(5)
    f = rng.standard_normal(geom.g_shape() + (17,)) + 0j
    h = rng.standard_normal(geom.g_shape()) + 1j * rng.standard_normal(geom.g_shape())
    for vm, vr in zip(pb.compute_v(p, f, h, 3), _compute_v_recomputing(p, f, h, 3)):
        assert vm.tobytes() == vr.tobytes()


def test_compute_v_differentiates_each_v_q_once(monkeypatch):
    calls = []
    original = pb.apply_deriv_axis

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(pb, "apply_deriv_axis", counting)
    geom = interval(128)
    p = pb.heat_problem(geom)
    rng = np.random.default_rng(0)
    pb.compute_v(p, rng.standard_normal((129, 33)), rng.standard_normal(129), 3)
    assert len(calls) == 3  # D^2 of v_0, v_1, v_2; the recurrence reads each for every k > q


def test_dt_on_G_differentiates_without_exact_evaluators():
    geom = interval(8)
    x = geom.x_axis()
    c = pb.Coefficient(evaluator=lambda x, t: (1.0 + x) * np.sin(t))
    assert np.max(np.abs(c.dt_on_G(geom, 1, 1.0) - (1.0 + x))) < 1e-9
    assert np.max(np.abs(c.dt_on_G(geom, 2, 1.0))) < 1e-9
    assert np.max(np.abs(c.dt_on_G(geom, 1, 1.0, acc=4) - (1.0 + x))) < 1e-8
    assert c.dt_on_G(geom, 1, 1.0, acc=4).tobytes() != c.dt_on_G(geom, 1, 1.0).tobytes()


def _box_expectation(sizes, periods, closed):
    mask = np.zeros(sizes, dtype=bool)
    mask[closed] = True
    return sizes, periods, mask


@pytest.mark.parametrize(
    "geom,expected",
    [
        (interval(4), {
            "omega": _box_expectation((8, 16), (2.0, 1.0), np.s_[:5, :9]),
            "lateral": _box_expectation((16,), (1.0,), np.s_[:9]),
            "spatial": _box_expectation((8,), (2.0,), np.s_[:5]),
        }),
        (pb.PeriodicStripGeometry(nx=4, ny=4, period_y=3.0), {
            "omega": _box_expectation((8, 4, 16), (2.0, 3.0, 1.0), np.s_[:5, :, :9]),
            "lateral": _box_expectation((4, 16), (3.0, 1.0), np.s_[:, :9]),
            "spatial": _box_expectation((8, 4), (2.0, 3.0), np.s_[:5, :]),
        }),
    ],
    ids=["interval", "strip"],
)
def test_domains_embed_closed_grids_at_box_origin(geom, expected):
    got = {
        "omega": pb.omega_domain(geom, 0.5, 8),
        "lateral": pb.lateral_domain(geom, 0.5, 8),
        "spatial": pb.spatial_domain(geom),
    }
    for name, (sizes, periods, mask) in expected.items():
        dom = got[name]
        assert dom.lattice.sizes == sizes, name
        assert dom.lattice.periods == periods, name
        assert np.array_equal(dom.mask, mask), name


def test_compute_v_batch_shape_guard():
    geom = interval(16)
    p = pb.heat_problem(geom)
    with pytest.raises(DimensionMismatch):
        pb.compute_v(p, np.zeros((3, 17, 17)), np.zeros((2, 17)), 1)
    with pytest.raises(DimensionMismatch):
        pb.compute_v(p, np.zeros((3, 17)), np.zeros((3, 17)), 1)


def test_boundary_recurrence_time_independent_reduction():
    # with time-independent b only the q = k term survives: B_k = B applied to v_k
    geom = strip(nx=64, ny=16)
    p = pb.ParabolicProblem(
        geometry=geom,
        tau=1.0,
        a_coeffs={(2, 0): 1.0, (0, 2): 1.0},
        boundary=pb.FirstOrder(
            b={1: pb.Coefficient(evaluator=lambda *a: 1.0 - 2.0 * a[0],
                                 time_constant=True),
               2: 0.5, 0: 2.0}
        ),
    )
    rng = np.random.default_rng(0)
    v = [
        np.asarray(
            np.sin(2 * np.pi * geom.y_axis())[None, :]
            * np.cos((k + 1) * np.pi * geom.x_axis())[:, None],
            dtype=complex,
        )
        for k in range(3)
    ]
    bk = pb.apply_boundary_recurrence(p, v, 2)
    # direct: B v_2 on the boundary
    direct = pb.apply_boundary_recurrence(p, [v[2]], 0)
    assert np.max(np.abs(bk - direct)) < 1e-10 * max(1.0, np.max(np.abs(direct)))


# -- compatibility checks -------------------------------------------------------

def test_check_compatibility_constant_offset_fails():
    geom = interval(128)
    p = pb.heat_problem(geom)
    nt = 64
    x = geom.x_axis()
    # u = 1 everywhere solves the heat equation with f = 0, h = 1, g = 1
    f = np.zeros((geom.nx + 1, nt + 1), dtype=complex)
    h = np.ones(geom.nx + 1, dtype=complex)
    g = np.ones((2, nt + 1), dtype=complex)
    rep = pb.check_compatibility(p, f, g, h, s=3.0)
    assert rep.passed and rep.count == 1
    rep_bad = pb.check_compatibility(p, f, g + 1.0, h, s=3.0)
    assert not rep_bad.passed
    assert rep_bad.residuals[0] == pytest.approx(math.sqrt(2.0), rel=1e-10)


def test_check_compatibility_vacuous_first_order():
    geom = interval(128)
    p = pb.heat_problem(geom, boundary="neumann")
    nt = 64
    f = np.zeros((geom.nx + 1, nt + 1), dtype=complex)
    h = np.ones(geom.nx + 1, dtype=complex)
    g = np.zeros((2, nt + 1), dtype=complex)
    rep = pb.check_compatibility(p, f, g, h, s=2.4)
    assert rep.count == 0
    assert rep.passed  # vacuous


def test_check_compatibility_at_jump_reports_both():
    geom = interval(128)
    p = pb.heat_problem(geom)
    nt = 64
    f = np.zeros((geom.nx + 1, nt + 1), dtype=complex)
    h = np.ones(geom.nx + 1, dtype=complex)
    g = np.ones((2, nt + 1), dtype=complex)
    rep = pb.check_compatibility(p, f, g, h, s=3.5)
    assert rep.at_jump
    assert rep.count == 1 and rep.count_above == 2
    assert len(rep.residuals) == 2


def _first_order_batch_problem(geom):
    # time-dependent b_1 and b_0 without dt_evaluators: B_k for k >= 1 reads their
    # one-sided time derivatives
    b = {1: pb.Coefficient(evaluator=lambda *a: (1.0 - 2.0 * a[0]) * (1.0 + 0.5 * np.sin(a[-1]))),
         0: pb.Coefficient(evaluator=lambda *a: 0.3 + a[-1] ** 2 + 0.0 * a[0])}
    if geom.spatial_dim == 2:
        b[2] = 0.5j
    return pb.ParabolicProblem(geometry=geom, tau=1.0, a_coeffs=_batch_problem(geom).a_coeffs,
                               boundary=pb.FirstOrder(b=b))


@pytest.mark.parametrize("geom", [interval(16), strip(nx=16, ny=4)], ids=["interval", "strip"])
@pytest.mark.parametrize("make", [_batch_problem, _first_order_batch_problem],
                         ids=["dirichlet", "first-order"])
def test_compatibility_mismatch_batch_matches_items_bitwise(geom, make):
    p = make(geom)
    nt, batch, count = 16, (2, 3), 3
    rng = np.random.default_rng(7)
    g_shape = (2,) + geom.g_shape()[1:] + (nt + 1,)
    f = rng.standard_normal(batch + geom.g_shape() + (nt + 1,)) + 0j
    g = rng.standard_normal(batch + g_shape) + 1j * rng.standard_normal(batch + g_shape)
    h = rng.standard_normal(batch + geom.g_shape()) + 1j * rng.standard_normal(batch + geom.g_shape())
    v_batch, m_batch = pb.compatibility_mismatch(p, f, g, h, count)
    assert len(m_batch) == count
    for i in np.ndindex(*batch):
        v_item, m_item = pb.compatibility_mismatch(p, f[i], g[i], h[i], count)
        for mb, mi in zip(m_batch, m_item, strict=True):
            assert mb[i].shape == g_shape[:-1]
            assert mb[i].tobytes() == mi.tobytes()
        for vb, vi in zip(v_batch, v_item, strict=True):
            assert vb[i].tobytes() == vi.tobytes()


def test_compatibility_mismatch_rejects_g_without_the_batch_of_h():
    p = pb.heat_problem(interval(16))
    f, h = np.zeros((3, 17, 17)), np.zeros((3, 17))
    for g in (np.zeros((2, 17)), np.zeros((2, 2, 17)), np.zeros((3, 1, 2, 17))):
        with pytest.raises(DimensionMismatch):
            pb.compatibility_mismatch(p, f, g, h, 2)


def test_check_compatibility_takes_one_datum():
    p = pb.heat_problem(interval(16))
    f, g, h = np.zeros((3, 17, 17)), np.ones((3, 2, 17)), np.ones((3, 17))
    with pytest.raises(DimensionMismatch, match="one datum"):
        pb.check_compatibility(p, f, g, h, 3.0)


def test_compatibility_shape_guards():
    geom = interval(64)
    p = pb.heat_problem(geom)
    with pytest.raises(DimensionMismatch):
        pb.compute_v(p, np.zeros((3, 3)), np.zeros(65), 1)
    with pytest.raises(DimensionMismatch):
        pb.check_compatibility(
            p, np.zeros((65, 17)), np.zeros((3, 17)), np.zeros(65), 3.0
        )


# -- target norms ------------------------------------------------------------------

def test_target_norm_zero_data():
    geom = interval(32)
    p = pb.heat_problem(geom)
    nt = 32
    f = np.zeros((geom.nx + 1, nt + 1), dtype=complex)
    g = np.zeros((2, nt + 1), dtype=complex)
    h = np.zeros(geom.nx + 1, dtype=complex)
    assert pb.target_norm_batch(p, [(f, g, h)], s=3.0)[0].total == 0.0


def test_target_norm_single_component():
    geom = interval(32)
    p = pb.heat_problem(geom)
    nt = 32
    rng = np.random.default_rng(5)
    f = rng.standard_normal((geom.nx + 1, nt + 1)) * 1j + rng.standard_normal(
        (geom.nx + 1, nt + 1)
    )
    g = np.zeros((2, nt + 1), dtype=complex)
    h = np.zeros(geom.nx + 1, dtype=complex)
    bd = pb.target_norm_batch(p, [(f, g, h)], s=3.0)[0]
    assert bd.lateral == 0.0 and bd.initial == 0.0
    assert bd.total == pytest.approx(bd.interior)
    # interior component equals the standalone quotient norm of f in the
    # integral normalization
    from hoermander_kit import spectra, weights

    om = pb.omega_domain(geom, p.tau, nt)
    idx = weights.parabolic_split(1.0, dimension=2)
    direct = spectra.quotient_norm_batch(idx, [f.reshape(-1)], om)[0]
    assert bd.interior == pytest.approx(direct * pb._measure_factor(om.lattice), rel=1e-8)


def test_target_norm_lateral_order_distinguishes_l():
    # single-mode probe: the Dirichlet lateral order s-1/2 and first-order
    # lateral order s-3/2 give different norms for an oscillatory g
    geom = interval(32)
    nt = 32
    s = 3.0
    pd = pb.heat_problem(geom, boundary="dirichlet")
    pn = pb.heat_problem(geom, boundary="neumann")
    tgrid = np.arange(nt + 1) / nt
    g = np.exp(2j * np.pi * 8 * tgrid)[None, :] * np.ones((2, 1))
    f = np.zeros((geom.nx + 1, nt + 1), dtype=complex)
    h = np.zeros(geom.nx + 1, dtype=complex)
    vd = pb.target_norm_batch(pd, [(f, g, h)], s=s)[0].lateral
    vn = pb.target_norm_batch(pn, [(f, g, h)], s=s)[0].lateral
    assert vd > vn * 1.5  # higher order weighs the oscillation more


@pytest.mark.parametrize("geom", [interval(16), strip(8, 8)], ids=["interval", "strip"])
def test_target_norm_batch_keeps_the_bits_of_each_single_datum(geom):
    # the round trip takes its defect and data norms from one batched call
    p = pb.heat_problem(geom)
    nt = 8
    rng = np.random.default_rng(13)

    def draw(shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    shape = geom.g_shape()
    datas = [(draw(shape + (nt + 1,)), draw((2,) + shape[1:] + (nt + 1,)), draw(shape))
             for _ in range(2)]

    def bits(bd):
        return np.array([bd.interior, bd.lateral, bd.initial]).tobytes()

    batched = pb.target_norm_batch(p, datas, s=3.0)
    for datum, got in zip(datas, batched, strict=True):
        assert bits(got) == bits(pb.target_norm_batch(p, [datum], s=3.0)[0])


def test_expression_language_problem():
    cfg = {
        "geometry": {"kind": "interval", "nx": 64},
        "tau": 0.5,
        "a": {"2": "1 + x*(1-x)", "0": "cos(2*pi*x)*t"},
        "boundary": {"kind": "dirichlet"},
    }
    p = pb.problem_from_config(cfg)
    assert pb.check_petrovskii(p, 2000, seed=0).passed
    cfg["a"]["2"] = "-1"
    p_bad = pb.problem_from_config(cfg)
    assert not pb.check_petrovskii(p_bad, 2000, seed=0).passed


def _gamma_norm_by_sheets(geom, vals, sigma, phi):
    """Reference: the boundary norm summed sheet by sheet, from one FFT per circle."""
    if isinstance(geom, pb.IntervalGeometry):
        return float(phi(1.0)) * math.sqrt(float(np.sum(np.abs(vals) ** 2)))
    bracket = 1.0 + (2.0 * np.pi * np.fft.fftfreq(geom.ny, d=geom.period_y / geom.ny)) ** 2
    mu = bracket ** (sigma / 2.0) * phi(np.sqrt(bracket))
    total = 0.0
    for sheet in vals:
        total += float(np.sum((mu * np.abs(np.fft.fft(sheet, norm="ortho"))) ** 2))
    return math.sqrt(total)


@pytest.mark.parametrize("phi", [constant(), log_power(-1.0)], ids=["constant", "log-power"])
@pytest.mark.parametrize("geom", [pb.IntervalGeometry(nx=16),
                                  pb.PeriodicStripGeometry(nx=16, ny=8, period_y=2.0)],
                         ids=["interval", "strip"])
def test_gamma_norm_matches_the_per_sheet_sum(geom, phi):
    rng = np.random.default_rng(3)
    shape = (2,) + geom.g_shape()[1:]
    vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for sigma in (-0.5, 1.5, 2.5):
        ref = _gamma_norm_by_sheets(geom, vals, sigma, phi)
        assert pb.gamma_norm(geom, vals, sigma, phi) == pytest.approx(ref, rel=1e-14, abs=0.0)


def _config(**changes):
    cfg = {
        "geometry": {"kind": "interval", "nx": 16},
        "tau": 1.0,
        "a": {"2": "1"},
        "boundary": {"kind": "dirichlet"},
    }
    cfg.update(changes)
    return cfg


@pytest.mark.parametrize("cfg, unknown", [
    ({**_config(), "tua": 2.0}, r"config: unknown keys \['tua'\]"),
    (_config(geometry={"kind": "interval", "nx": 16, "ny": 4}),
     r"interval geometry: unknown keys \['ny'\]"),
    (_config(geometry={"kind": "strip", "nx": 16, "ny": 4, "period": 2.0}),
     r"strip geometry: unknown keys \['period'\]"),
    (_config(boundary={"kind": "dirichlet", "b": {"0": 1.0}}),
     r"dirichlet boundary: unknown keys \['b'\]"),
    (_config(boundary={"kind": "first_order", "b": {"0": 1.0}, "c": 1}),
     r"first_order boundary: unknown keys \['c'\]"),
], ids=["top", "interval", "strip", "dirichlet", "first-order"])
def test_config_rejects_unknown_keys(cfg, unknown):
    with pytest.raises(UnknownConfigKey, match=unknown):
        pb.problem_from_config(cfg)


@pytest.mark.parametrize("cfg, message", [
    (_config(boundary={"kind": "neumann"}), "boundary kind 'neumann'"),
    (_config(boundary={"kind": "first_order"}), r"missing keys \['b'\]"),
    (_config(boundary={"b": {"0": 1.0}}), "boundary kind None"),
    (_config(geometry={"kind": "disc", "nx": 16}), "geometry kind 'disc'"),
    (_config(geometry={"kind": "strip", "nx": 16}), r"missing keys \['ny'\]"),
    ({"geometry": {"kind": "interval", "nx": 16}}, r"missing keys \['a'\]"),
    (_config(a={"x": "1"}), "a key 'x'"),
    (_config(boundary={"kind": "first_order", "b": {"z": 1.0}}), "boundary b key 'z'"),
    (_config(a=["1"]), "a must be an object"),
    (_config(boundary={"kind": "first_order", "b": [1.0]}), "boundary b must be an object"),
    (_config(a={"2": "foo("}), r"a\['2'\]"),
    (_config(a={"2": "x +* 1"}), r"a\['2'\]"),
    (_config(boundary={"kind": "first_order", "b": {"0": "x +* 1"}}), r"boundary b\['0'\]"),
    (_config(geometry={"kind": "interval", "nx": "abc"}), "geometry nx"),
    (_config(geometry={"kind": "strip", "nx": 16, "ny": "four"}), "geometry ny"),
    (_config(tau="one"), "tau"),
    (_config(geometry={"kind": "interval", "nx": 12}), "geometry nx"),
    (_config(geometry={"kind": "interval", "nx": 1}), "geometry nx"),
    (_config(geometry={"kind": "interval", "nx": 16.5}), "geometry nx"),
    (_config(geometry={"kind": "strip", "nx": 16, "ny": 3}), "geometry ny"),
    (_config(geometry={"kind": "strip", "nx": 16, "ny": 4, "period_y": -1}), "geometry period_y"),
    (_config(tau=-1), "tau"),
    (_config(tau=0), "tau"),
    (_config(tau="nan"), "tau"),
    (_config(a={"2,0": "1"}), "a key '2,0'"),
    (_config(a={"3": "1"}), "a key '3'"),
    (_config(a={"-1": "1"}), "a key '-1'"),
    (_config(boundary={"kind": "first_order", "b": {"5": 1.0}}), "boundary b key '5'"),
    (_config(a={"2": "1", "02": "-1"}), "a keys '2' and '02'"),
    (_config(boundary={"kind": "first_order", "b": {"1": 1.0, " 1": 2.0}}),
     "boundary b keys '1' and ' 1'"),
], ids=["boundary-kind", "first-order-without-b", "no-kind", "geometry-kind", "strip-without-ny",
        "no-a", "a-key", "b-key", "a-list", "b-list", "a-unclosed-call", "a-bad-operator",
        "b-bad-operator", "nx-not-a-number", "ny-not-a-number", "tau-not-a-number",
        "nx-not-a-power-of-two", "nx-one", "nx-fraction", "ny-not-a-power-of-two",
        "period-y-negative", "tau-negative", "tau-zero", "tau-nan", "a-key-too-long",
        "a-key-order-three", "a-key-negative", "b-key-out-of-range", "a-key-twice",
        "b-key-twice"])
def test_config_rejects_unknown_kinds_and_missing_keys(cfg, message):
    with pytest.raises(InvalidConfig, match=message) as err:
        pb.problem_from_config(cfg)
    assert isinstance(err.value, HoermanderKitError)


def test_config_reads_every_documented_key():
    p = pb.problem_from_config(_config(
        geometry={"kind": "strip", "nx": 16, "ny": 4, "period_y": 2.0},
        a={"2,0": "1", "0,2": "1"},
        boundary={"kind": "first_order", "b": {"0": "1 + x", "1": 1.0}},
        tau=0.5,
    ))
    assert p.tau == 0.5 and p.geometry.ny == 4 and p.geometry.period_y == 2.0
    assert p.order_l == 1 and set(p.boundary.b) == {0, 1}


def test_expression_language_rejects_malice():
    from hoermander_kit._expr import compile_expr

    with pytest.raises(ValueError):
        compile_expr("__import__('os')", ("x", "t"))
    with pytest.raises(ValueError):
        compile_expr("x.__class__", ("x", "t"))
    with pytest.raises(ValueError):
        compile_expr("lambda: 1", ("x", "t"))


@pytest.mark.parametrize("cfg, message", [
    (_config(tau=True), "tau"),
    (_config(geometry={"kind": "strip", "nx": 16, "ny": 4, "period_y": True}), "geometry period_y"),
    (_config(a={"2": True}), r"a\['2'\]"),
    (_config(a={"2": "True"}), r"a\['2'\]"),
    (_config(a={"2": math.nan}), r"a\['2'\]"),
    (_config(boundary={"kind": "first_order", "b": {"0": math.inf}}), r"boundary b\['0'\]"),
], ids=["tau", "period-y", "a-true", "a-true-expression", "a-nan", "b-infinity"])
def test_config_rejects_true_and_non_finite_numbers(cfg, message):
    with pytest.raises(InvalidConfig, match=message):
        pb.problem_from_config(cfg)


@pytest.mark.parametrize("expr", [
    "1 + x*9**9**9",  # an exact big-integer power that runs for minutes
    "+".join(["x"] * 1500),  # deeper than the checker's recursion
    "+".join(["x"] * 5000),  # deeper than the parser's
    "1e400*x",
    "1/(2-2)*x",
    "log(0)*x",
], ids=["huge-power", "deep-1500", "deep-5000", "infinite-constant", "divide-by-zero", "log-zero"])
def test_config_rejects_an_expression_without_a_finite_value_at_read(expr):
    with pytest.raises(InvalidConfig, match=r"a\['2'\]"):
        pb.problem_from_config(_config(a={"2": expr}))


@pytest.mark.parametrize("cfg, key, evaluate", [
    (_config(a={"2": "1", "0": "1/x"}), r"a\['0'\] = 1/x",
     lambda p: pb.compute_v(p, np.zeros((17, 33)), np.zeros(17), k_max=2)),
    # finite at t = 0; infinite at x = 0 at the second sample of its time derivative
    (_config(a={"2": "1", "1": "1/(x + 1 - 256*t)"}), r"a\['1'\] = 1/\(x \+ 1 - 256\*t\)",
     lambda p: pb.compute_v(p, np.zeros((17, 33)), np.zeros(17), k_max=2)),
    (_config(a={"2": "1", "0": "1/t"}), r"a\['0'\] = 1/t",  # t = 0.0 is a Python float here
     lambda p: pb.compute_v(p, np.zeros((17, 33)), np.zeros(17), k_max=2)),
    (_config(a={"2": "1/x"}), r"a\['2'\]",
     lambda p: bench.apply_lambda(p, bench.synthesize_trial(p.geometry, p.tau, 16, seed=0), 16)),
    (_config(boundary={"kind": "first_order", "b": {"1": "1", "0": "1/(1-x)"}}),
     r"boundary b\['0'\]", lambda p: pb.check_covering(p)),
    (_config(boundary={"kind": "first_order", "b": {"1": "1", "0": "1/(1-x)"}}),
     r"boundary b\['0'\]", lambda p: pb.apply_boundary_recurrence(p, [np.zeros(17)], 0)),
], ids=["a-on-G", "a-dt-on-G", "a-at-scalar-t", "a-on-cylinder", "b-covering", "b-recurrence"])
def test_a_coefficient_that_is_not_finite_on_the_grid_raises_naming_its_key(cfg, key, evaluate):
    # each expression is infinite somewhere on the closed grid (x = 0 or 1, or
    # t = 0) but passes the read-time check, which folds only the variable-free parts
    p = pb.problem_from_config(cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the error reports the values; numpy does not warn
        with pytest.raises(NonFiniteData, match=key):
            evaluate(p)


def test_integer_literals_compile_as_floats_bit_for_bit():
    from hoermander_kit._expr import compile_expr

    rng = np.random.default_rng(5)
    x, t = rng.uniform(0.1, 2.0, 64), rng.uniform(0.1, 2.0, 64)
    namespace = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "pi": math.pi, "e": math.e}
    for src in ("x**2", "x**3", "x**-2", "t**e", "2*x", "x/3", "1 + x*(1-x)",
                "cos(2*pi*x)*t", "exp(-2)*x + sin(1)"):
        got = compile_expr(src, ("x", "t"))(x, t)
        assert np.array_equal(got, eval(src, {"__builtins__": {}}, {**namespace, "x": x, "t": t}))


def test_count_jump_sweep_dense():
    # 1e4 random s: the count jumps across s iff s is within eps of a jump point
    rng = np.random.default_rng(0)
    eps = 1e-6
    for l in (0, 1):
        ss = rng.uniform(2.0 + 1e-3, 20.0, 10_000)
        offset = 1.5 if l == 0 else 0.5
        for s in ss:
            jumped = pb.compat_count(s + eps, l) != pb.compat_count(s - eps, l)
            r_lo = math.floor((s - eps - offset) / 2.0)
            r_hi = math.floor((s + eps - offset) / 2.0)
            expected = r_hi > r_lo and r_hi >= 1
            assert jumped == expected


def test_cg_matches_direct_engine_on_mild_index():
    # on the cylinder at a mild spread the CG cross-check agrees with the
    # direct engine
    from hoermander_kit import spectra, weights

    geom = interval(32)
    om = pb.omega_domain(geom, 1.0, 32)
    rng = np.random.default_rng(8)
    d = rng.standard_normal(om.npoints) + 1j * rng.standard_normal(om.npoints)
    mild = weights.parabolic_split(0.5, dimension=2)
    cg = spectra.quotient_norm(mild, d, om)
    direct = spectra.quotient_norm_batch(mild, [d], om)[0]
    assert cg == pytest.approx(direct, rel=1e-6)
