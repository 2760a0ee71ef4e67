import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from hoermander_kit import interp, params, spectra, weights
from hoermander_kit.errors import DimensionMismatch

TWO_PI = 2.0 * np.pi


def lattice(n=16, k=2):
    return spectra.Lattice(sizes=(n,) * k, periods=(TWO_PI,) * k)


def pair_power(s0, s1, lat, aniso="parabolic"):
    make = weights.parabolic_split if aniso == "parabolic" else weights.isotropic
    return interp.AdmissiblePair(
        idx0=make(s0, dimension=lat.k), idx1=make(s1, dimension=lat.k), lattice=lat
    )


def test_generating_multiplier_isometry():
    lat = lattice()
    pair = pair_power(0.0, 2.0, lat)
    jb = pair.generating_multiplier()
    u = spectra.random_field(lat, 0)
    ju = spectra.SpectralField(lat, jb * u.coeffs)
    lhs = spectra.norm(pair.idx0, ju)
    rhs = spectra.norm(pair.idx1, u)
    assert lhs == pytest.approx(rhs, rel=1e-13)


def test_interpolated_norm_trivial_psi():
    lat = lattice()
    pair = pair_power(0.5, 2.5, lat)
    one = params.InterpParam(evaluator=lambda r: np.ones_like(r))
    ident = params.InterpParam(evaluator=lambda r: r)
    u = spectra.random_field(lat, 1)
    assert interp.interpolated_norm(pair, one, u) == pytest.approx(
        spectra.norm(pair.idx0, u), rel=1e-13
    )
    assert interp.interpolated_norm(pair, ident, u) == pytest.approx(
        spectra.norm(pair.idx1, u), rel=1e-13
    )


def test_interpolated_norm_power_case_single_mode():
    # X0 = H^0, X1 = H^2 isotropic, psi = sqrt, mode with |xi|^2 = 3 -> norm 2
    lat = lattice(16)
    pair = pair_power(0.0, 2.0, lat, aniso="isotropic")
    psi = params.InterpParam(evaluator=np.sqrt)
    mode = spectra.SpectralField.single_mode(lat, (1, 1))  # wait: |xi|^2 = 2
    # use mode (1,1)*... pick integer frequencies: need |xi|^2 = 3 unavailable;
    # mode (1,1) has mu0 psi(j) = (1+2)^(1/2) = sqrt(3) = H^1 norm of that mode
    val = interp.interpolated_norm(pair, psi, mode)
    h1 = weights.isotropic(1.0, dimension=2)
    assert val == pytest.approx(spectra.norm(h1, mode), rel=1e-13)


def test_prop_interpolation_power_and_log():
    lat = lattice(16)
    rep = interp.verify_prop_interpolation(
        0.0, 1.0, 2.0, 0.0, params.constant(), lat, trials=25, seed=0
    )
    assert rep.max_deviation <= 1e-10
    rep = interp.verify_prop_interpolation(
        0.0, 1.0, 2.0, 0.0, params.log_power(1.0), lat, trials=25, seed=1
    )
    assert rep.max_deviation <= 1e-10
    rep_iso = interp.verify_prop_interpolation(
        0.0, 1.0, 2.0, 0.0, params.log_power(1.0), lat,
        anisotropy="isotropic", trials=25, seed=2,
    )
    assert rep_iso.max_deviation <= 1e-10


def test_prop_interpolation_with_shift_flags_hypotheses():
    lat = lattice(8)
    rep = interp.verify_prop_interpolation(
        1.0, 2.0, 3.0, 2.0, params.log_power(-0.5), lat, trials=10, seed=3
    )
    assert rep.max_deviation <= 1e-10
    assert rep.notes  # lam > s0 flagged


def test_orthogonal_sum_identity():
    lat = lattice(8)
    pairs = [pair_power(0.0, 2.0, lat), pair_power(1.0, 3.0, lat)]
    psi = params.build_psi(0, 1, 2, params.log_power(1.0))
    rep = interp.verify_orthogonal_sum(pairs, psi, trials=50, seed=0)
    assert rep.max_deviation <= 1e-12


def test_orthogonal_sum_pythagorean_blocks():
    lat = lattice(8)
    pairs = [pair_power(0.0, 2.0, lat), pair_power(0.0, 2.0, lat)]
    psi = params.InterpParam(evaluator=lambda r: np.ones_like(r))
    u1 = spectra.SpectralField.single_mode(lat, (0, 0), amplitude=3.0)
    u2 = spectra.SpectralField.single_mode(lat, (0, 0), amplitude=4.0)
    n1 = interp.interpolated_norm(pairs[0], psi, u1)
    n2 = interp.interpolated_norm(pairs[1], psi, u2)
    assert np.hypot(n1, n2) == pytest.approx(5.0, rel=1e-13)


def test_reiteration_classical_power():
    lat = lattice(16)
    pair = pair_power(0.0, 2.0, lat)
    alpha = params.InterpParam(evaluator=lambda r: np.ones_like(r))
    beta = params.InterpParam(evaluator=lambda r: r)
    psi = params.InterpParam(evaluator=lambda r: r**0.3)
    rep = interp.verify_reiteration(alpha, beta, psi, pair, trials=25, seed=0)
    assert rep.max_deviation <= 1e-12


def test_reiteration_paper_triple():
    lat = lattice(16)
    pair = pair_power(0.0, 2.0, lat)
    phi = params.log_power(1.0)
    alpha = params.InterpParam(
        evaluator=lambda r: r ** (1.0 / 3.0) * phi(r ** (2.0 / 3.0))
    )
    beta = params.InterpParam(
        evaluator=lambda r: r ** (2.0 / 3.0) * phi(r ** (2.0 / 3.0))
    )
    psi = params.InterpParam(evaluator=np.sqrt)
    rep = interp.verify_reiteration(alpha, beta, psi, pair, trials=25, seed=5)
    assert rep.max_deviation <= 1e-12


def test_reiteration_random_weights():
    lat = lattice(8)
    pair = pair_power(0.3, 1.7, lat)
    alpha = params.build_psi(0, 0.5, 2, params.log_power(0.5))
    beta = params.build_psi(0, 1.5, 2, params.log_power(0.5))
    psi = params.build_psi(0, 1, 2, params.log_power(-1.0))
    rep = interp.verify_reiteration(alpha, beta, psi, pair, trials=25, seed=7)
    assert rep.max_deviation <= 1e-12


def test_diagonal_factor_commutation():
    lat = lattice(8)
    pair = pair_power(0.0, 2.0, lat)
    psi = params.build_psi(0, 1, 2, params.log_power(1.0))
    mu0 = pair.mu0()
    jb = pair.generating_multiplier()
    u = spectra.random_field(lat, 4)
    a = np.linalg.norm((mu0 * psi(jb)) * np.abs(u.coeffs))
    b = np.linalg.norm(mu0 * (psi(jb) * np.abs(u.coeffs)))
    assert abs(a - b) <= 1e-14 * b


def test_embedding_chain_constants():
    lat = lattice(8)
    pair = pair_power(0.0, 2.0, lat)
    psi = params.build_psi(0, 1, 2, params.constant())
    u = spectra.random_field(lat, 8)
    n_psi = interp.interpolated_norm(pair, psi, u)
    jb = pair.generating_multiplier()
    c_lower = float(np.max(1.0 / psi(jb)))  # X_psi -> X_0 embedding constant
    c_upper = float(np.max(psi(jb) / jb))  # X_1 -> X_psi
    assert spectra.norm(pair.idx0, u) <= c_lower * n_psi * (1 + 1e-12)
    assert n_psi <= c_upper * spectra.norm(pair.idx1, u) * (1 + 1e-12)


def test_subspace_norm_trivial_constraint():
    lat = lattice(4)
    pair = pair_power(0.0, 2.0, lat)
    psi = params.build_psi(0, 1, 2, params.log_power(1.0))
    u = spectra.random_field(lat, 2)
    full = interp.interpolate_subspace_norm(pair, psi, None, u)
    assert full == pytest.approx(interp.interpolated_norm(pair, psi, u), rel=1e-10)


def test_subspace_norm_unconstrained_mode_unchanged():
    lat = lattice(4)
    pair = pair_power(0.0, 2.0, lat)
    psi = params.InterpParam(evaluator=np.sqrt)
    # constraint: coefficient at flat index 0 vanishes
    C = np.zeros((1, lat.npoints), dtype=complex)
    C[0, 0] = 1.0
    u = spectra.SpectralField.single_mode(lat, (1, 2))
    val = interp.interpolate_subspace_norm(pair, psi, C, u)
    assert val == pytest.approx(interp.interpolated_norm(pair, psi, u), rel=1e-10)


def test_subspace_norm_against_sqrtm_oracle():
    # one-dimensional constraint on an 8-point lattice; oracle builds psi(J)
    # on the subspace via a matrix square root, an independent dense route
    lat = spectra.Lattice(sizes=(8,), periods=(TWO_PI,))
    pair = pair_power(0.0, 2.0, lat)
    psi = params.InterpParam(evaluator=np.sqrt)
    rng = np.random.default_rng(3)
    C = (rng.standard_normal((1, 8)) + 1j * rng.standard_normal((1, 8))).astype(complex)
    basis = sla.null_space(C)
    x = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    u = spectra.SpectralField(lat, (basis @ x).reshape(lat.sizes))

    val = interp.interpolate_subspace_norm(pair, psi, C, u)

    mu0 = pair.mu0().reshape(-1)
    mu1 = pair.mu1().reshape(-1)
    G0 = basis.conj().T @ np.diag(mu0**2) @ basis
    G1 = basis.conj().T @ np.diag(mu1**2) @ basis
    T = np.linalg.solve(G0, G1)  # J^2 in subspace coordinates
    J = sla.sqrtm(T)
    y = sla.sqrtm(J) @ x  # psi(J) = J^(1/2)
    oracle = float(np.sqrt(np.real(y.conj() @ G0 @ y)))
    assert val == pytest.approx(oracle, rel=1e-8)


def test_subspace_norm_rejects_a_small_field_outside_the_kernel():
    # the membership rule is relative: a field of norm 1e-9 wholly outside
    # ker C is not a member, however small ||C u|| is
    lat = spectra.Lattice(sizes=(8,), periods=(TWO_PI,))
    pair = pair_power(0.0, 2.0, lat)
    C = np.zeros((1, 8))
    C[0, 0] = 1.0
    u = spectra.SpectralField.single_mode(lat, (0,), amplitude=1e-9)
    with pytest.raises(ValueError, match="defect 1.000e"):
        interp.interpolate_subspace_norm(pair, params.InterpParam(evaluator=np.sqrt), C, u)


def test_subspace_norm_rejects_a_field_on_another_lattice():
    pair = pair_power(0.0, 2.0, spectra.Lattice(sizes=(8,), periods=(TWO_PI,)))
    u = spectra.random_field(spectra.Lattice(sizes=(16,), periods=(TWO_PI,)), 2)
    with pytest.raises(DimensionMismatch):
        interp.interpolate_subspace_norm(pair, params.InterpParam(evaluator=np.sqrt), None, u)


@given(n=st.sampled_from([4, 8, 16, 32]), rank=st.integers(0, 3),
       seed=st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_j_method_equals_the_unfloored_k_functional_on_members(n, rank, seed):
    lat = spectra.Lattice(sizes=(n,), periods=(TWO_PI,))
    pair = pair_power(0.0, 2.0, lat)
    rng = np.random.default_rng(seed)
    C = rng.standard_normal((rank, n)) + 1j * rng.standard_normal((rank, n)) if rank else None
    basis = sla.null_space(C) if rank else np.eye(n)
    u = basis @ (rng.standard_normal(n - rank) + 1j * rng.standard_normal(n - rank))
    j_norm = interp.interpolate_subspace_norm(
        pair, params.InterpParam(evaluator=np.sqrt), C, spectra.SpectralField(lat, u))
    k_norm = interp.half_interp_norm(
        [(interp.GramPair.diagonal(pair), interp.kernel_frame(C, n), u)], t_floor=0.0)
    assert j_norm == pytest.approx(k_norm, rel=1e-10)


def test_half_interp_matches_spectral_on_members():
    lat = spectra.Lattice(sizes=(16,), periods=(TWO_PI,))
    pair = pair_power(0.0, 2.0, lat)
    grams = interp.GramPair.diagonal(pair)
    rng = np.random.default_rng(9)
    C = (rng.standard_normal((2, 16)) + 1j * rng.standard_normal((2, 16)))
    basis = sla.null_space(C)
    u = basis @ (rng.standard_normal(14) + 1j * rng.standard_normal(14))
    frame = interp.kernel_frame(C, 16)
    sqrt_psi = params.InterpParam(evaluator=np.sqrt)
    j_norm = interp.interpolate_subspace_norm(pair, sqrt_psi, C, spectra.SpectralField(lat, u))
    k_norm = interp.half_interp_norm([(grams, frame, u)], t_floor=0.0)
    assert k_norm == pytest.approx(j_norm, rel=1e-10)
    # the default spectral floor only dampens the stiffest modes
    k_floor = interp.half_interp_norm([(grams, frame, u)])
    assert k_floor <= j_norm * (1 + 1e-12)
    assert k_floor >= j_norm * np.sqrt(1 - 2 / np.pi) * (1 - 1e-12)


def test_half_interp_detects_violation():
    lat = spectra.Lattice(sizes=(8,), periods=(TWO_PI,))
    pair = pair_power(0.0, 2.0, lat)
    grams = interp.GramPair.diagonal(pair)
    C = np.zeros((1, 8), dtype=complex)
    C[0, 0] = 1.0
    frame = interp.kernel_frame(C, 8)
    inside = np.zeros(8, dtype=complex)
    inside[1] = 1.0
    outside = np.zeros(8, dtype=complex)
    outside[0] = 1.0
    v_in = interp.half_interp_norm([(grams, frame, inside)])
    v_out = interp.half_interp_norm([(grams, frame, outside)])
    assert np.isfinite(v_in)
    assert v_out > v_in  # defect term dominates


def _svd_spectrum(grams, C):
    """Reference: the pencil on an explicit SVD basis of ker C, and its coordinates."""
    B = sla.null_space(C)
    G0, G1 = np.diag(grams.gram0), np.diag(grams.gram1)
    w, V = sla.eigh(B.conj().T @ G1 @ B, B.conj().T @ G0 @ B)
    return np.sqrt(np.maximum(w, 0.0)), (G0 @ B @ V).conj().T


def _frame_cases():
    rng = np.random.default_rng(3)
    c8 = rng.standard_normal((1, 8)) + 1j * rng.standard_normal((1, 8))
    rng = np.random.default_rng(9)
    c16 = rng.standard_normal((2, 16)) + 1j * rng.standard_normal((2, 16))
    rng = np.random.default_rng(11)
    rows = rng.standard_normal((3, 16)) + 1j * rng.standard_normal((3, 16))
    repeated = np.vstack([rows, rows[1]])  # rank 3 of 4 rows
    return [(c8, 8), (c16, 16), (repeated, 16), (repeated.real, 16)]


@pytest.mark.parametrize("C,n", _frame_cases(),
                         ids=["complex-1x8", "complex-2x16", "repeated-row", "repeated-row-real"])
def test_kernel_frame_matches_svd_basis(C, n):
    lat = spectra.Lattice(sizes=(n,), periods=(TWO_PI,))
    grams = interp.GramPair.diagonal(pair_power(0.0, 2.0, lat))
    frame = interp.kernel_frame(C, n)
    lam_ref, proj = _svd_spectrum(grams, C)
    assert frame.rank == n - len(lam_ref) == np.linalg.matrix_rank(C)
    lam, to_coords = interp.subspace_spectrum(grams, frame)
    assert np.max(np.abs(lam - lam_ref)) <= 1e-12 * np.max(lam_ref)
    # eigencoordinates agree up to a unit factor per (simple) eigenvalue
    rng = np.random.default_rng(5)
    x = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
    c = to_coords(interp._gram_apply(grams.gram0, x))
    assert c.shape == (len(lam_ref), 3)
    assert np.allclose(np.abs(c), np.abs(proj @ x), rtol=1e-10, atol=1e-12 * np.abs(proj @ x).max())


def test_half_interp_norm_batch_matches_columns():
    lat = spectra.Lattice(sizes=(16,), periods=(TWO_PI,))
    grams = interp.GramPair.diagonal(pair_power(0.0, 2.0, lat))
    rng = np.random.default_rng(9)
    C = rng.standard_normal((2, 16)) + 1j * rng.standard_normal((2, 16))
    frame = interp.kernel_frame(C, 16)
    members = sla.null_space(C) @ (rng.standard_normal((14, 3)) + 1j * rng.standard_normal((14, 3)))
    x = np.column_stack([members, rng.standard_normal(16)])  # the last one violates C
    batch = interp.half_interp_norm([(grams, frame, x)])
    single = [interp.half_interp_norm([(grams, frame, x[:, j])]) for j in range(4)]
    assert batch.shape == (4,)
    assert np.allclose(batch, single, rtol=1e-13, atol=0.0)


def _dense_pencil(n, seed):
    rng = np.random.default_rng(seed)
    A, B = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    return interp.GramPair(gram0=A @ A.T + n * np.eye(n), gram1=B @ B.T + 4 * n * np.eye(n))


@pytest.mark.parametrize("t_floor", [None, 0.0], ids=["default-floor", "no-floor"])
def test_half_interp_norm_of_an_orthogonal_sum_is_the_block_pencil(t_floor):
    # summand 1: diagonal Grams on 16 points, one complex constraint; summand 2:
    # dense Grams on 10 points, two real constraints.  Columns 0-2 are members of
    # both kernels, column 3 violates only the first, column 4 only the second.
    rng = np.random.default_rng(23)
    lat = spectra.Lattice(sizes=(16,), periods=(TWO_PI,))
    grams1, grams2 = interp.GramPair.diagonal(pair_power(0.0, 2.0, lat)), _dense_pencil(10, 4)
    C1 = rng.standard_normal((1, 16)) + 1j * rng.standard_normal((1, 16))
    C2 = rng.standard_normal((2, 10))
    x1 = sla.null_space(C1) @ (rng.standard_normal((15, 5)) + 1j * rng.standard_normal((15, 5)))
    x2 = sla.null_space(C2) @ rng.standard_normal((8, 5))
    x1[:, 3] += rng.standard_normal(16)
    x2[:, 4] += rng.standard_normal(10)
    summands = [(grams1, interp.kernel_frame(C1, 16), x1),
                (grams2, interp.kernel_frame(C2, 10), x2)]
    block = interp.GramPair(gram0=sla.block_diag(np.diag(grams1.gram0), grams2.gram0),
                            gram1=sla.block_diag(np.diag(grams1.gram1), grams2.gram1))
    whole = [(block, interp.kernel_frame(sla.block_diag(C1, C2), 26), np.vstack([x1, x2]))]

    defects, whole_defects = np.empty(5), np.empty(5)
    split = interp.half_interp_norm(summands, t_floor=t_floor, defect_out=defects)
    ref = interp.half_interp_norm(whole, t_floor=t_floor, defect_out=whole_defects)
    assert split.shape == (5,)
    assert np.allclose(split[:3], ref[:3], rtol=1e-10, atol=0.0)
    assert np.all(np.isfinite(split[:3]))
    if t_floor is None:
        assert np.allclose(split[3:], ref[3:], rtol=1e-10, atol=0.0)
        assert np.all(split[3:] > 0) and np.all(np.isfinite(split[3:]))
    else:
        assert np.all(np.isinf(split[3:])) and np.all(np.isinf(ref[3:]))
    assert np.max(defects[:3]) <= 1e-12 and np.min(defects[3:]) > 1e-3
    assert np.allclose(defects[3:], whole_defects[3:], rtol=1e-10, atol=0.0)
    # one vector per summand gives a float
    single = interp.half_interp_norm([(g, f, x[:, 0]) for g, f, x in summands], t_floor=t_floor)
    assert isinstance(single, float) and single == pytest.approx(split[0], rel=1e-13)


def test_half_interp_norm_applies_g0_once_per_summand(monkeypatch):
    # ||u||_0^2 and the eigencoordinates share one G0 x per summand (diagonal
    # and dense)
    rng = np.random.default_rng(31)
    lat = spectra.Lattice(sizes=(16,), periods=(TWO_PI,))
    summands = [
        (interp.GramPair.diagonal(pair_power(0.0, 2.0, lat)),
         interp.kernel_frame(rng.standard_normal((1, 16)), 16),
         rng.standard_normal((16, 3)) + 1j * rng.standard_normal((16, 3))),
        (_dense_pencil(10, 5), interp.kernel_frame(rng.standard_normal((2, 10)), 10),
         rng.standard_normal((10, 3))),
    ]
    applied = []
    real_gram_apply = interp._gram_apply

    def counting(g, x):
        applied.append(g.shape)
        return real_gram_apply(g, x)

    monkeypatch.setattr(interp, "_gram_apply", counting)
    interp.half_interp_norm(summands)
    assert applied == [(16,), (10, 10)]


def _basis_cases():
    """(summands on 4 basis columns X, coefficients K): a complex summand with a diagonal
    Gram, a real one with a dense Gram, and their orthogonal sum.  Columns 0-2 of X lie
    in ker C, column 3 violates it; K's columns 0-2 combine members only."""
    rng = np.random.default_rng(41)
    lat = spectra.Lattice(sizes=(16,), periods=(TWO_PI,))
    C1 = rng.standard_normal((1, 16)) + 1j * rng.standard_normal((1, 16))
    C2 = rng.standard_normal((2, 10))
    x1 = sla.null_space(C1) @ (rng.standard_normal((15, 4)) + 1j * rng.standard_normal((15, 4)))
    x2 = sla.null_space(C2) @ rng.standard_normal((8, 4))
    x1[:, 3] += rng.standard_normal(16)
    x2[:, 3] += rng.standard_normal(10)
    diagonal = (interp.GramPair.diagonal(pair_power(1.0, 3.0, lat)),
                interp.kernel_frame(C1, 16), x1)
    dense = (_dense_pencil(10, 6), interp.kernel_frame(C2, 10), x2)
    K = rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5))
    K[3, :3] = 0.0
    return [([diagonal], K), ([dense], K), ([diagonal, dense], K)]


@pytest.mark.parametrize("t_floor", [None, 0.0], ids=["default-floor", "no-floor"])
@pytest.mark.parametrize("summands, K", _basis_cases(), ids=["diagonal", "dense", "sum"])
def test_a_basis_evaluated_at_coefficients_is_the_basis_of_the_combined_columns(
        summands, K, t_floor):
    # a basis set up on X and evaluated at K equals one set up on X K at the identity
    norms, defects = interp.subspace_basis(summands).evaluate(K, t_floor)
    combined = interp.subspace_basis([(g, f, x @ K) for g, f, x in summands])
    ref_norms, ref_defects = combined.evaluate(np.eye(K.shape[1]), t_floor)
    np.testing.assert_allclose(norms, ref_norms, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(defects, ref_defects, rtol=1e-12, atol=0.0)
    assert np.all(defects[:3] == 0.0) and np.min(defects[3:]) > 1e-3
    assert np.all(np.isfinite(norms[:3])) and np.all(np.isfinite(norms[3:])) == (t_floor is None)


def test_power_case_geometric_mean():
    # theta in {0, 1/2, 1} reproduces X0, the geometric-mean space, X1
    lat = lattice(8)
    pair = pair_power(0.5, 2.5, lat)
    u = spectra.random_field(lat, 6)
    mu0, mu1 = pair.mu0(), pair.mu1()
    for theta, mult in ((0.0, mu0), (0.5, np.sqrt(mu0 * mu1)), (1.0, mu1)):
        psi = params.InterpParam(evaluator=lambda r, th=theta: r**th)
        val = interp.interpolated_norm(pair, psi, u)
        direct = float(np.linalg.norm(mult * np.abs(u.coeffs)))
        assert val == pytest.approx(direct, rel=1e-13)


def test_pair_weight_is_mu0_psi_of_the_ratio():
    lat = lattice(16)
    pair = pair_power(0.5, 2.5, lat)
    psi = params.build_psi(0.5, 1.0, 2.5, params.log_power(1.0))
    w = pair.weight(psi)
    assert np.array_equal(w, pair.mu0() * psi(pair.mu1() / pair.mu0()))
    u = spectra.random_field(lat, 4)
    assert interp.interpolated_norm(pair, psi, u) == spectra.weighted_norm(w, u.coeffs)
    assert interp.interpolated_norm(pair, psi, u) == pytest.approx(
        np.sqrt(np.sum(w**2 * np.abs(u.coeffs) ** 2)), rel=1e-14
    )


def _counting(fn):
    calls = []

    def evaluator(r):
        calls.append(1)
        return fn(r)

    return evaluator, calls


@pytest.mark.parametrize("anisotropy", ["parabolic", "isotropic"])
def test_prop_interpolation_evaluates_phi_once_per_sweep(anisotropy):
    # the weights are built before the trials: phi is evaluated as often for
    # one trial as for ten
    evaluator, calls = _counting(lambda r: 1.0 + np.log(r))
    phi = params.custom(evaluator)
    counts = []
    for trials in (1, 10):
        calls.clear()
        rep = interp.verify_prop_interpolation(0.0, 1.0, 2.0, 0.0, phi, lattice(8),
                                               anisotropy=anisotropy, trials=trials)
        counts.append(len(calls))
        assert rep.max_deviation <= 1e-10
    assert counts[0] == counts[1] > 0


def test_orthogonal_sum_and_reiteration_evaluate_psi_once_per_sweep():
    lat = lattice(8)
    pairs = [pair_power(0.0, 2.0, lat), pair_power(1.0, 3.0, lat)]
    evaluator, calls = _counting(np.sqrt)
    psi = params.InterpParam(evaluator=evaluator)
    one = params.InterpParam(evaluator=lambda r: np.ones_like(r))
    ident = params.InterpParam(evaluator=lambda r: r)
    for sweep in (lambda trials: interp.verify_orthogonal_sum(pairs, psi, trials=trials),
                  lambda trials: interp.verify_reiteration(one, ident, psi, pairs[0],
                                                           trials=trials)):
        counts = []
        for trials in (1, 10):
            calls.clear()
            assert sweep(trials).max_deviation <= 1e-12
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0
