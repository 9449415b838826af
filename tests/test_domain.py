"""Tests for the quadrature grid, Nystrom blocks, and SVD truncation."""

import math

import numpy as np
import pytest
from scipy.sparse import csr_matrix

from covergap.domain import (
    SPARSE_DENSITY,
    QuadratureGrid,
    assemble_block,
    assemble_support_blocks,
    build_grid,
    svd_truncate,
)
from covergap.hyperbolic import (
    IDENTITY,
    HPoint,
    ball_candidates,
    mobius_apply,
    pairwise_cosh_distance,
)
from covergap.surface_group import (
    build_bolza_realization,
    dehn_reduce,
    in_fundamental_domain,
    inverse_word,
    support_set,
)


@pytest.fixture(scope="module")
def real():
    return build_bolza_realization()


@pytest.fixture(scope="module")
def grid(real):
    return build_grid(real, 120)


@pytest.fixture(scope="module")
def support(real):
    return support_set(real, 1.0)


# ------------------------------------------------------------------- grid

def test_grid_sizes_and_weight_sum(real):
    # weights are exact cell areas, so the 1% contract (and the 2x
    # improvement under refinement) is met at the roundoff floor
    for target, m in ((400, 392), (1600, 1568)):
        g = build_grid(real, target)
        assert g.m == m == len(g.points) == len(g.weights)
        assert abs(g.weights.sum() - 4.0 * math.pi) < 1e-10
        assert (g.weights > 0).all()


def test_grid_nodes_strictly_inside(real):
    g = build_grid(real, 400)
    for p in g.points:
        assert in_fundamental_domain(real, p, slack=-1e-9)


def test_grid_rejects_small_target(real):
    with pytest.raises(ValueError):
        build_grid(real, 49)


def test_grid_validation():
    with pytest.raises(ValueError):
        QuadratureGrid(points=[HPoint(0, 1)], weights=np.array([1.0, 2.0]), m=1)
    with pytest.raises(ValueError):
        QuadratureGrid(points=[HPoint(0, 1)], weights=np.array([-1.0]), m=1)


# ----------------------------------------------------------------- blocks

def test_identity_block_full_coverage(real, grid):
    # t beyond the domain diameter: the indicator is identically one and the
    # block is the rank-one matrix sqrt(w) sqrt(w)^T with top value sum(w)
    ident = ((), real.side_pairings[0] @ real.side_pairings[0].inverse())
    b = assemble_block(ident, real.domain_diameter + 0.1, grid)
    sqw = np.sqrt(grid.weights)
    assert np.allclose(b.dense(), np.outer(sqw, sqw), atol=1e-14)
    assert b.hs_norm == pytest.approx(grid.weights.sum(), rel=1e-12)
    s = np.linalg.svd(b.dense(), compute_uv=False)
    assert s[0] == pytest.approx(4.0 * math.pi, rel=1e-10)
    assert s[1] < 1e-12


def test_identity_block_t0_diagonal(real, grid):
    ident = ((), real.side_pairings[0] @ real.side_pairings[0].inverse())
    b = assemble_block(ident, 0.0, grid)
    assert b.is_sparse
    D = b.dense()
    assert np.allclose(np.diag(D), grid.weights, atol=1e-15)
    assert np.abs(D - np.diag(np.diag(D))).max() == 0.0


def test_adjoint_relation(real, grid, support):
    blocks = {w: assemble_block((w, M), 1.0, grid) for w, M in support.elements}
    for w, M in support.elements:
        winv = dehn_reduce(inverse_word(w), real.presentation)
        assert winv in blocks
        dev = np.abs(blocks[w].dense().T - blocks[winv].dense()).max()
        assert dev <= 1e-12


def test_hs_norm_matches_double_sum(real, grid):
    g = (real.side_pairing_words[0], real.side_pairings[0])
    b = assemble_block(g, 1.0, grid)
    mask = pairwise_cosh_distance(grid.xy, mobius_apply(g[1].m, grid.xy)) <= math.cosh(1.0)
    oracle = math.sqrt(float((np.outer(grid.weights, grid.weights) * mask).sum()))
    assert abs(b.hs_norm - oracle) <= 1e-10


def test_hs_monotone_in_t(real, grid):
    for g in [((), real.side_pairings[0] @ real.side_pairings[0].inverse()),
              (real.side_pairing_words[2], real.side_pairings[2])]:
        norms = [assemble_block(g, t, grid).hs_norm for t in (0.5, 1.0, 1.5)]
        assert norms[0] <= norms[1] <= norms[2]


def test_sparse_dense_switch(real, grid):
    ident = ((), real.side_pairings[1] @ real.side_pairings[1].inverse())
    small = assemble_block(ident, 0.3, grid)
    big = assemble_block(ident, 3.0, grid)
    assert small.is_sparse
    assert not big.is_sparse
    dens = (big.dense() != 0).mean()
    assert dens >= 0.25


def test_zero_blocks_dropped(real, grid):
    # at t = 0 only the identity translate can pair any node with itself
    ss = support_set(real, 0.0)
    blocks = assemble_support_blocks(ss, 0.0, grid)
    assert len(blocks) == 1
    assert blocks[0].gamma[0] == ()


def _dense_block(gamma, t, grid):
    """(matrix, hs_norm) from the full m x m mask, the assembly that the
    culled search replaced."""
    mask = pairwise_cosh_distance(grid.xy, mobius_apply(gamma[1].m, grid.xy)) <= math.cosh(t)
    sqw = np.sqrt(grid.weights)
    mat = sqw[:, None] * mask * sqw[None, :]
    hs = float(np.sqrt((mat * mat).sum()))
    if mask.mean() < SPARSE_DENSITY:
        mat = csr_matrix(mat)
    return mat, hs


@pytest.mark.parametrize("t, target", [(1.0, 400), (2.0, 400), (1.0, 1600)])
def test_blocks_equal_dense_assembly(real, t, target):
    grid = build_grid(real, target)
    dense_seen = False
    for g in support_set(real, t).elements:
        b = assemble_block(g, t, grid)
        mat, hs = _dense_block(g, t, grid)
        assert b.hs_norm == hs
        assert b.is_sparse == (not isinstance(mat, np.ndarray))
        if b.is_sparse:
            for name in ("data", "indices", "indptr"):
                got, want = getattr(b.matrix, name), getattr(mat, name)
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()
        else:
            dense_seen = True
            assert b.matrix.tobytes() == mat.tobytes()
    # t = 2 on 392 nodes has the one dense block, the identity's
    assert dense_seen == (t == 2.0)


def test_threshold_pair_kept_and_pair_above_dropped():
    # z1 sits where the computed cosh d(z0, z1) equals cosh t exactly, z2 a
    # few ulps farther; the widened search returns both pairs, and the
    # cosh-scale test alone keeps the first and drops the second
    t = 1.0
    c = math.cosh(t)

    def cosh_to(y):
        return pairwise_cosh_distance([[0.0, 1.0]], [[0.0, y]])[0, 0]

    y = math.exp(t)
    while cosh_to(y) < c:
        y = np.nextafter(y, np.inf)
    while cosh_to(y) > c:
        y = np.nextafter(y, 0.0)
    assert cosh_to(y) == c
    y_above = y
    while cosh_to(y_above) < c + 2 * np.spacing(c):
        y_above = np.nextafter(y_above, np.inf)
    assert cosh_to(y_above) <= c + 8 * np.spacing(c)

    pts = [HPoint(0.0, 1.0), HPoint(0.0, float(y)), HPoint(0.0, float(y_above))]
    grid = QuadratureGrid(points=pts, weights=np.ones(3), m=3)
    i, j = ball_candidates(grid.tree, grid.xy, c)
    assert {(0, 1), (0, 2)} <= set(zip(i.tolist(), j.tolist()))
    D = assemble_block(((), IDENTITY), t, grid).dense()
    assert D[0, 1] == 1.0
    assert D[0, 2] == 0.0


# -------------------------------------------------------------- truncation

def test_svd_exact_at_full_rank(real, grid):
    g = (real.side_pairing_words[0], real.side_pairings[0])
    b = assemble_block(g, 1.0, grid)
    tb = svd_truncate(b, grid.m)
    assert tb.op_error_bound == 0.0
    assert np.allclose(tb.dense(), b.dense(), atol=1e-10)


def test_svd_bound_and_frobenius(real, grid):
    g = (real.side_pairing_words[3], real.side_pairings[3])
    b = assemble_block(g, 1.0, grid)
    s = np.linalg.svd(b.dense(), compute_uv=False)
    assert abs((s * s).sum() - b.hs_norm**2) <= 1e-10 * b.hs_norm**2
    for r in range(1, 41):
        tb = svd_truncate(b, r)
        assert tb.op_error_bound == pytest.approx(s[r] if r < len(s) else 0.0, abs=1e-14)
        assert tb.op_error_bound <= b.hs_norm / math.sqrt(r) + 1e-12
        assert len(tb.singular_values) <= r


def test_svd_spectral_error_is_next_singular_value(real, grid):
    g = (real.side_pairing_words[1], real.side_pairings[1])
    b = assemble_block(g, 1.0, grid)
    A = b.dense()
    for r in (3, 10):
        tb = svd_truncate(b, r)
        err = np.linalg.norm(A - tb.dense(), 2)
        assert err == pytest.approx(tb.op_error_bound, abs=1e-10)


def test_svd_factors_are_shared_and_read_only(real, grid):
    # every rank slices one cached SVD, so a write through one truncation
    # would corrupt all the others
    g = (real.side_pairing_words[2], real.side_pairings[2])
    b = assemble_block(g, 1.0, grid)
    tb = svd_truncate(b, 3)
    assert np.shares_memory(tb.left_factors, svd_truncate(b, 8).left_factors)
    for arr in (tb.left_factors, tb.singular_values, tb.right_factors):
        with pytest.raises(ValueError):
            arr[0] = 1.0


def test_svd_rejects_bad_rank(real, grid):
    g = (real.side_pairing_words[0], real.side_pairings[0])
    b = assemble_block(g, 1.0, grid)
    with pytest.raises(ValueError):
        svd_truncate(b, 0)
