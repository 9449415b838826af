"""Tests for cover operators, Krylov extremes, and gap estimation.

Oracles: dense eigensolvers on small grids (kron-assembled operators)
and the ball-area identity for the constant eigenvector on the full fiber.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

from covergap.hyperbolic import ball_area
from covergap.surface_group import build_bolza_realization, support_set
from covergap.domain import (
    BlockFamily,
    assemble_support_blocks,
    build_grid,
    svd_truncate,
)
from covergap.selberg import SpectralParameter, selberg_h
from covergap.symmetric_group import (
    HomTuple,
    Permutation,
    make_hom_tuple,
    sample_uniform_hom,
)
from covergap.cover_spectrum import (
    CoverOperator,
    KrylovConvergenceError,
    _lanczos_extremes,
    _mean_zero_basis,
    build_cover_operator,
    cayley_ball_rayleigh,
    estimate_gap,
    matvec,
    regular_baseline,
    top_norm,
    truncation_components,
)

T_RADIUS = 1.0


@pytest.fixture(scope="module")
def real():
    return build_bolza_realization()


@pytest.fixture(scope="module")
def small(real):
    grid = build_grid(real, 50)
    return grid, assemble_support_blocks(support_set(real, T_RADIUS), T_RADIUS, grid)


@pytest.fixture(scope="module")
def medium(real):
    grid = build_grid(real, 120)
    return grid, assemble_support_blocks(support_set(real, T_RADIUS), T_RADIUS, grid)


def _dense_operator(op, r=None):
    """kron-assembled dense matrix of the operator, same coordinates; with
    a rank r, of its rank-r truncation."""
    n = op.n
    mats = []
    for b, idx in zip(op.blocks, op.perm_images):
        P = np.zeros((n, n))
        # column j of the fiber factor picks source column idx[j]
        for j in range(n):
            P[idx[j], j] = 1.0
        A = b.dense() if r is None else svd_truncate(b, r).dense()
        mats.append(np.kron(A, P.T))
    M = sum(mats)
    if op.fiber == "mean-zero":
        Q = _mean_zero_basis(n)
        E = np.kron(np.eye(op.m), Q)
        M = E.T @ M @ E
    return M


# ------------------------------------------------------------ construction


def test_mean_zero_basis_is_orthonormal_and_mean_free():
    for n in (2, 3, 7):
        Q = _mean_zero_basis(n)
        assert Q.shape == (n, n - 1)
        assert np.allclose(Q.T @ Q, np.eye(n - 1), atol=1e-14)
        assert np.abs(Q.sum(axis=0)).max() < 1e-14


def test_build_validation(small):
    _, blocks = small
    hom = sample_uniform_hom(3, 2, seed=0)
    with pytest.raises(ValueError):
        build_cover_operator(blocks, hom, fiber="bogus")
    with pytest.raises(ValueError):
        build_cover_operator([], hom)
    e = Permutation.identity(3)
    bad = make_hom_tuple(3, 2, (Permutation([2, 3, 1]), Permutation([2, 1, 3]), e, e))
    assert not bad.relation_ok
    with pytest.raises(ValueError):
        build_cover_operator(blocks, bad)
    # dropping one non-identity block breaks inverse closure
    broken = [b for b in blocks if b.gamma[0] != blocks[1].gamma[0]]
    with pytest.raises(ValueError):
        build_cover_operator(broken, hom)
    # the blocks are Bolza (genus-2) translates; a genus-3 tuple labels
    # nothing on that surface
    with pytest.raises(ValueError):
        build_cover_operator(blocks, sample_uniform_hom(4, 3, seed=0))


def test_block_family_rejects_adjoint_mismatch(small):
    _, blocks = small
    assert isinstance(blocks, BlockFamily)
    assert (blocks.m, blocks.t, blocks.genus) == (blocks[0].matrix.shape[0], T_RADIUS, 2)
    word = next(b.gamma[0] for b in blocks if b.gamma[0])
    skewed = [
        dataclasses.replace(b, matrix=b.matrix * 1.01) if b.gamma[0] == word else b
        for b in blocks
    ]
    with pytest.raises(ValueError, match="adjoint"):
        BlockFamily(skewed)


def test_family_is_reused_per_cover(small):
    _, blocks = small
    op = build_cover_operator(blocks, sample_uniform_hom(4, 2, seed=0))
    assert op.blocks is blocks
    plain = build_cover_operator(list(blocks), sample_uniform_hom(4, 2, seed=0))
    assert isinstance(plain.blocks, BlockFamily) and plain.blocks is not blocks
    assert plain.blocks.rowsum_ceiling == blocks.rowsum_ceiling


def test_operator_is_immutable(small):
    _, blocks = small
    op = build_cover_operator(blocks, sample_uniform_hom(3, 2, seed=1))
    with pytest.raises(dataclasses.FrozenInstanceError):
        op.fiber = "full"


def test_empty_fiber_at_n_one(small):
    _, blocks = small
    e = Permutation.identity(1)
    hom = make_hom_tuple(1, 2, (e, e, e, e))
    op = build_cover_operator(blocks, hom, fiber="mean-zero")
    assert op.dimension == 0
    assert matvec(op, np.zeros(0)).shape == (0,)
    for solve in (top_norm, estimate_gap, lambda o: truncation_components(o, 2)):
        with pytest.raises(ValueError, match="empty fiber"):
            solve(op)


def test_matvec_shape_check(small):
    _, blocks = small
    op = build_cover_operator(blocks, sample_uniform_hom(3, 2, seed=2))
    with pytest.raises(ValueError):
        matvec(op, np.zeros(op.dimension + 1))


# ---------------------------------------------------------------- symmetry


def test_matvec_symmetry_both_fibers(small):
    _, blocks = small
    hom = sample_uniform_hom(4, 2, seed=5)
    rng = np.random.default_rng(7)
    for fiber in ("mean-zero", "full"):
        op = build_cover_operator(blocks, hom, fiber=fiber)
        for _ in range(100):
            x = rng.standard_normal(op.dimension)
            y = rng.standard_normal(op.dimension)
            dev = abs(matvec(op, x) @ y - x @ matvec(op, y))
            assert dev <= 1e-10 * np.linalg.norm(x) * np.linalg.norm(y)


def test_matvec_matches_dense_kron(small):
    _, blocks = small
    hom = sample_uniform_hom(3, 2, seed=9)
    rng = np.random.default_rng(1)
    for fiber in ("mean-zero", "full"):
        op = build_cover_operator(blocks, hom, fiber=fiber)
        M = _dense_operator(op)
        assert np.abs(M - M.T).max() < 1e-12
        for _ in range(5):
            x = rng.standard_normal(op.dimension)
            assert np.allclose(matvec(op, x), M @ x, atol=1e-11)


# ----------------------------------------------------------------- Lanczos


def test_lanczos_against_dense_symmetric():
    rng = np.random.default_rng(3)
    for dim in (1, 2, 40, 120):
        S = rng.standard_normal((dim, dim))
        S = (S + S.T) / 2
        w = np.linalg.eigvalsh(S)
        res = _lanczos_extremes(lambda x: S @ x, dim, seed=0)
        assert abs(res.top - w[-1]) <= 1e-8 * max(1, abs(w[-1]))
        assert abs(res.bottom - w[0]) <= 1e-6 * max(1, abs(w[0]))


def test_lanczos_zero_operator():
    res = _lanczos_extremes(lambda x: np.zeros_like(x), 12, seed=0)
    assert res.top == 0.0 and res.bottom == 0.0


def test_lanczos_iteration_cap_raises_with_payload():
    rng = np.random.default_rng(0)
    S = rng.standard_normal((200, 200))
    S = (S + S.T) / 2
    with pytest.raises(KrylovConvergenceError) as exc:
        _lanczos_extremes(lambda x: S @ x, 200, seed=0, maxiter=3)
    assert math.isfinite(exc.value.best_estimate)
    assert exc.value.residual > 0
    assert exc.value.iterations == 3


def test_top_norm_deterministic_by_seed(small):
    _, blocks = small
    op = build_cover_operator(blocks, sample_uniform_hom(4, 2, seed=1))
    a = top_norm(op, seed=42)
    b = top_norm(op, seed=42)
    c = top_norm(op, seed=43)
    assert a == b
    assert abs(a - c) <= 1e-7


# ----------------------------------------------------- spectra and oracles


def test_identity_hom_reduces_to_grid_operator(small):
    _, blocks = small
    e = Permutation.identity(4)
    hom = make_hom_tuple(4, 2, (e, e, e, e))
    op = build_cover_operator(blocks, hom, fiber="full")
    dense_top = np.linalg.eigvalsh(sum(b.dense() for b in blocks)).max()
    assert abs(top_norm(op, seed=0) - dense_top) <= 1e-8


def test_constant_eigenvector_identity_any_hom(medium):
    # rows of the summed blocks integrate the ball indicator, so the
    # constant-fiber constant-grid vector sees the ball area
    _, blocks = medium
    target = ball_area(T_RADIUS)
    for n, seed in ((2, 0), (4, 1), (5, 2)):
        op = build_cover_operator(blocks, sample_uniform_hom(n, 2, seed=seed),
                                  fiber="full")
        v = top_norm(op, seed=3)
        assert abs(v - target) / target < 0.02


def test_fiber_restriction_monotone_and_decomposition(small):
    _, blocks = small
    dense_top = np.linalg.eigvalsh(sum(b.dense() for b in blocks)).max()
    for seed in (0, 1, 2):
        hom = sample_uniform_hom(4, 2, seed=seed)
        full = top_norm(build_cover_operator(blocks, hom, "full"), seed=5)
        zero = top_norm(build_cover_operator(blocks, hom, "mean-zero"), seed=5)
        assert zero <= full + 1e-8
        assert abs(full - max(dense_top, zero)) <= 1e-8


def test_mean_zero_top_matches_dense(small):
    _, blocks = small
    for seed in (0, 4):
        op = build_cover_operator(blocks, sample_uniform_hom(3, 2, seed=seed))
        dense_top = np.linalg.eigvalsh(_dense_operator(op)).max()
        assert abs(top_norm(op, seed=1) - dense_top) <= 1e-8


# ------------------------------------------------------------- estimation


def test_estimate_gap_good_cover(small):
    _, blocks = small
    op = build_cover_operator(blocks, sample_uniform_hom(4, 2, seed=3))
    est = estimate_gap(op, seed=1)
    assert est.peak_baseline == pytest.approx(
        selberg_h(T_RADIUS, SpectralParameter.real(0.0)).value, abs=1e-12
    )
    assert est.lambda_lower_bound <= 0.25
    assert est.param.kind == "imaginary" and 0 <= est.param.value <= 0.5
    assert est.lambda_lower_bound == pytest.approx(0.25 - est.param.value**2, abs=1e-12)
    assert est.linearized_lower_bound <= est.lambda_lower_bound + 1e-8
    if est.op_norm <= est.peak_baseline:
        assert est.lambda_exact_if_below_quarter is None
        assert est.lambda_lower_bound == pytest.approx(0.25, abs=1e-6)
    rec = json.loads(est.to_json())
    assert rec["op_norm"] == est.op_norm
    assert rec["metadata"]["n"] == 4 and rec["metadata"]["m"] == op.m
    assert rec["metadata"]["transitive"] == op.hom.transitive


def test_estimate_gap_trivial_cover_sees_zero(medium):
    # the disconnected identity cover keeps the constant eigenvalue in the
    # mean-zero fiber, so the estimate must flag an eigenvalue near 0
    _, blocks = medium
    e = Permutation.identity(4)
    op = build_cover_operator(blocks, make_hom_tuple(4, 2, (e, e, e, e)))
    est = estimate_gap(op, seed=1)
    assert est.op_norm > est.peak_baseline
    assert est.lambda_exact_if_below_quarter is not None
    assert 0.0 <= est.lambda_exact_if_below_quarter < 0.1
    assert est.linearized_lower_bound <= est.lambda_lower_bound + 1e-8


def test_estimate_gap_requires_mean_zero(small):
    _, blocks = small
    op = build_cover_operator(blocks, sample_uniform_hom(3, 2, seed=1), "full")
    with pytest.raises(ValueError):
        estimate_gap(op)


def test_estimate_gap_clamps_inflated_norm(small):
    # uniformly scaled blocks stay consistent with their own row-sum
    # certificate, so the estimate lands at the flagged parameter edge
    # rather than raising
    _, blocks = small
    scaled = [
        dataclasses.replace(b, matrix=b.matrix * 1.6, hs_norm=1.6 * b.hs_norm)
        for b in blocks
    ]
    op = build_cover_operator(scaled, sample_uniform_hom(4, 2, seed=3))
    est = estimate_gap(op, seed=1)
    assert est.param.clamped
    assert est.param.kind == "imaginary" and est.param.value == 0.5
    assert est.lambda_lower_bound == 0.0
    assert est.op_norm <= est.metadata["rowsum_ceiling"] * (1 + 1e-9)


def test_estimate_gap_clamps_coarse_grid_overshoot(small):
    # a disconnected cover's mean-zero norm is the discrete constant
    # eigenvalue, which overshoots the continuum ball area on this crude
    # grid; the row-sum certificate marks that as quadrature noise
    _, blocks = small
    e = Permutation.identity(3)
    op = build_cover_operator(blocks, make_hom_tuple(3, 2, (e, e, e, e)))
    est = estimate_gap(op, seed=1)
    ball = selberg_h(1.0, SpectralParameter.imaginary(0.5)).value
    assert est.op_norm > ball
    assert est.param.clamped and est.lambda_lower_bound == 0.0
    assert est.op_norm <= est.metadata["rowsum_ceiling"] * (1 + 1e-9)


def test_estimate_gap_rejects_impossible_norm(small):
    # a top eigenvalue beating the nonnegative row-sum certificate cannot
    # come from a ball kernel; build one from a mixed-sign rank-one matrix
    # whose signed row sums all vanish
    grid, blocks = small
    ident = next(b for b in blocks if not b.gamma[0])
    v = np.ones(grid.m)
    v[::2] = -1.0
    v /= np.sqrt(grid.m)
    fake = dataclasses.replace(ident, matrix=20.0 * np.outer(v, v), hs_norm=20.0)
    op = build_cover_operator([fake], sample_uniform_hom(2, 2, seed=0))
    with pytest.raises(ValueError):
        estimate_gap(op, seed=1)


# ------------------------------------------------------------- truncation


def test_truncation_exact_at_full_rank(small):
    grid, blocks = small
    op = build_cover_operator(blocks, sample_uniform_hom(4, 2, seed=2))
    full = top_norm(op, seed=0)
    comp = truncation_components(op, grid.m, seed=0)
    assert comp["bound"] == pytest.approx(full, abs=1e-10)


def test_truncation_bound_brackets_norm(small):
    grid, blocks = small
    op = build_cover_operator(blocks, sample_uniform_hom(4, 2, seed=6))
    full = top_norm(op, seed=0)
    prev_gap = None
    for r in (1, 4, 16, 32):
        comp = truncation_components(op, r, seed=0)
        bound = comp["bound"]
        assert bound >= full - comp["certified_gap"] - 1e-9
        gap = abs(bound - full)
        assert gap <= comp["certified_gap"] + 1e-9
        assert comp["certified_gap"] <= 2 * comp["hs_reference"] + 1e-9
        if prev_gap is not None:
            assert comp["hs_reference"] <= prev_gap + 1e-12
        prev_gap = comp["hs_reference"]


def test_truncated_top_close_to_full_dense_oracle(small):
    # the factored apply matches the dense truncated operator, and
    # |top(T_r) - top(T)| <= sum sigma_{r+1}, dense eigensolver on both
    _, blocks = small
    for seed in range(5):
        op = build_cover_operator(blocks, sample_uniform_hom(3, 2, seed=seed))
        M = _dense_operator(op)
        full = np.linalg.eigvalsh(M).max()
        for r in (2, 8):
            comp = truncation_components(op, r, seed=0)
            truncated = np.linalg.eigvalsh(_dense_operator(op, r)).max()
            assert comp["truncated_top"] == pytest.approx(truncated, rel=1e-9)
            assert abs(comp["truncated_top"] - full) <= comp["sigma_error_total"] + 1e-9


# --------------------------------------------------------------- baseline


def test_regular_baseline_value_and_probe():
    peak = selberg_h(1.0, SpectralParameter.real(0.0)).value
    assert regular_baseline(1.0) == pytest.approx(peak, abs=1e-12)


def test_cayley_rayleigh_monotone_below_peak(real):
    peak = selberg_h(1.0, SpectralParameter.real(0.0)).value
    r4 = cayley_ball_rayleigh(real, 1.0, radius=4.0)
    r6 = cayley_ball_rayleigh(real, 1.0, radius=6.0)
    assert r4 <= r6 + 1e-10  # nested variational families
    assert r6 <= peak + 1e-6
