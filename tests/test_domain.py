"""Tests for the quadrature grid, Nystrom blocks, and SVD truncation."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.sparse import csr_matrix

import covergap.cover_spectrum as cover_spectrum
import covergap.domain as domain
from covergap.domain import (
    SPARSE_DENSITY,
    BlockFamily,
    QuadratureGrid,
    assemble_block,
    assemble_support_blocks,
    build_grid,
    fan_mesh,
    svd_truncate,
)
from covergap.hyperbolic import (
    ball_candidates,
    distance,
    mobius_apply,
    pairwise_cosh_distance,
)
from covergap.surface_group import (
    SupportSet,
    build_bolza_realization,
    dehn_reduce,
    inverse_word,
    lattice_points,
    support_radius,
    support_set,
)
from covergap.symmetric_group import sample_uniform_hom
from geometry_oracle import in_fundamental_domain


@pytest.fixture(scope="module")
def real():
    return build_bolza_realization()


@pytest.fixture(scope="module")
def grid(real):
    return build_grid(real, 120)


@pytest.fixture(scope="module")
def support(real):
    return support_set(real, 1.0)


def _dense_partners(matrices):
    """The position of each element's one inverse in the list: the j with
    M_i M_j = +-I entrywise to 1e-9 times the product of their largest
    entries, from all n^2 products."""
    mats = np.stack(matrices)
    prod = np.einsum("iab,jbc->ijac", mats, mats)
    dev = np.minimum(np.abs(prod - np.eye(2)).max(axis=(2, 3)),
                     np.abs(prod + np.eye(2)).max(axis=(2, 3)))
    scale = np.abs(mats).max(axis=(1, 2))
    (i, j) = np.nonzero(dev <= 1e-9 * np.outer(scale, scale))
    assert (i == np.arange(len(mats))).all()
    return j.tolist()


def _through_pairing(real, k):
    """The identity element as P_k P_k^-1, computed through side pairing k
    and its inverse, which side_pairings holds at k + 4."""
    return ((), real.side_pairings[k] @ real.side_pairings[k + 4])


# ------------------------------------------------------------------- grid

def test_grid_sizes_and_weight_sum(real):
    # weights are exact cell areas, so the 1% contract (and the 2x
    # improvement under refinement) is met at the roundoff floor
    for target, m in ((400, 392), (1600, 1568)):
        g = build_grid(real, target)
        assert g.m == m == len(g.weights)
        assert g.xy.shape == (m, 2)
        assert abs(g.weights.sum() - 4.0 * math.pi) < 1e-10
        assert (g.weights > 0).all()


def test_fan_mesh_repeats_only_the_apex_and_the_spoke_points(real):
    # each fan keeps its own vertices, so the apex repeats in every fan and
    # each spoke point in the two fans it borders, to a few ulps
    k, sides = 7, len(real.domain_vertices)
    xy, tris = fan_mesh(real, k)
    assert xy.shape == (sides * (k + 1) * (k + 2) // 2, 2)
    assert tris.shape == (sides * k * k, 3)
    assert sorted(np.unique(tris)) == list(range(len(xy)))
    i, j = np.nonzero(np.triu(pairwise_cosh_distance(xy, xy) - 1.0 < 1e-12, 1))
    assert len(i) == sides * (sides - 1) // 2 + sides * k
    assert np.abs(xy[i] - xy[j]).max() <= 1e-14


def test_grid_nodes_strictly_inside(real):
    g = build_grid(real, 400)
    for row in g.xy:
        assert in_fundamental_domain(real, row, slack=-1e-9)


def test_grid_rejects_small_target(real):
    with pytest.raises(ValueError):
        build_grid(real, 49)


def test_grid_validation():
    with pytest.raises(ValueError):
        QuadratureGrid(xy=np.array([[0.0, 1.0]]), weights=np.array([1.0, 2.0]), m=1)
    with pytest.raises(ValueError):
        QuadratureGrid(xy=np.array([[0.0, 1.0]]), weights=np.array([-1.0]), m=1)
    with pytest.raises(ValueError):
        QuadratureGrid(xy=np.array([0.0, 1.0]), weights=np.array([1.0]), m=1)


# ----------------------------------------------------------------- blocks

def test_identity_block_full_coverage(real, grid):
    # t beyond the domain diameter: the indicator is identically one and the
    # block is the rank-one matrix sqrt(w) sqrt(w)^T with top value sum(w)
    ident = _through_pairing(real, 0)
    verts = real.domain_vertices
    diameter = max(distance(v, w) for v in verts for w in verts)
    b = assemble_block(ident, diameter + 0.1, grid)
    sqw = np.sqrt(grid.weights)
    assert np.allclose(b.dense(), np.outer(sqw, sqw), atol=1e-14)
    assert b.hs_norm == pytest.approx(grid.weights.sum(), rel=1e-12)
    s = np.linalg.svd(b.dense(), compute_uv=False)
    assert s[0] == pytest.approx(4.0 * math.pi, rel=1e-10)
    assert s[1] < 1e-12


def test_identity_block_t0_diagonal(real, grid):
    ident = _through_pairing(real, 0)
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


def test_t4_family_pairs_blocks_by_element(real):
    # from t ~ 3.6 up, Dehn reduction gives some elements and their
    # inverses unrelated words, so the family must find each block's
    # partner by the element, not by the reduced inverse word
    family = assemble_support_blocks(support_set(real, 4.0), 4.0, build_grid(real, 400))
    words = {b.gamma[0] for b in family}
    unrelated = [b.gamma[0] for b in family
                 if dehn_reduce(inverse_word(b.gamma[0]), real.presentation) not in words]
    assert unrelated
    for b, j in zip(family, family.partners):
        P = b.gamma[1] @ family[j].gamma[1]
        assert min(np.abs(P - np.eye(2)).max(), np.abs(P + np.eye(2)).max()) <= 1e-6


def test_hs_norm_matches_double_sum(real, grid):
    g = (real.side_pairing_words[0], real.side_pairings[0])
    b = assemble_block(g, 1.0, grid)
    mask = pairwise_cosh_distance(grid.xy, mobius_apply(g[1], grid.xy)) <= math.cosh(1.0)
    oracle = math.sqrt(float((np.outer(grid.weights, grid.weights) * mask).sum()))
    assert abs(b.hs_norm - oracle) <= 1e-10


def test_hs_monotone_in_t(real, grid):
    for g in [_through_pairing(real, 0),
              (real.side_pairing_words[2], real.side_pairings[2])]:
        norms = [assemble_block(g, t, grid).hs_norm for t in (0.5, 1.0, 1.5)]
        assert norms[0] <= norms[1] <= norms[2]


def test_sparse_dense_switch(real, grid):
    ident = _through_pairing(real, 1)
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
    mask = pairwise_cosh_distance(grid.xy, mobius_apply(gamma[1], grid.xy)) <= math.cosh(t)
    sqw = np.sqrt(grid.weights)
    mat = sqw[:, None] * mask * sqw[None, :]
    hs = math.sqrt(math.fsum((mat * mat).ravel()))
    if mask.mean() < SPARSE_DENSITY:
        mat = csr_matrix(mat)
    return mat, hs


def _assert_block_is(b, mat, hs):
    assert b.hs_norm == hs
    assert b.is_sparse == (not isinstance(mat, np.ndarray))
    if b.is_sparse:
        for name in ("data", "indices", "indptr"):
            got, want = getattr(b.matrix, name), getattr(mat, name)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
    else:
        assert b.matrix.tobytes() == mat.tobytes()


@pytest.mark.parametrize("t, target", [(1.0, 400), (2.0, 400), (1.0, 1600)])
def test_blocks_equal_dense_assembly(real, t, target):
    # each block alone, and in two families built on one grid, equals the
    # dense build
    grid = build_grid(real, target)
    support = support_set(real, t)
    oracle = {g[0]: _dense_block(g, t, grid) for g in support.elements}
    for g in support.elements:
        _assert_block_is(assemble_block(g, t, grid), *oracle[g[0]])
    kept = [w for w, _ in support.elements if oracle[w][1] > 0.0]
    for _ in range(2):
        family = assemble_support_blocks(support, t, grid)
        assert [b.gamma[0] for b in family] == kept
        for b in family:
            _assert_block_is(b, *oracle[b.gamma[0]])
    # t = 2 on 392 nodes has the one dense block, the identity's
    dense = [w for w, (mat, _) in oracle.items() if isinstance(mat, np.ndarray)]
    assert dense == ([()] if t == 2.0 else [])


def test_sparse_block_allocates_no_m_by_m_array(real):
    # a sparse block's values, indices and norm come from its kept pairs
    # alone, so its assembly peaks well below one m x m float64 array
    grid = build_grid(real, 1600)
    g = (real.side_pairing_words[0], real.side_pairings[0])
    tracemalloc.start()
    try:
        b = assemble_block(g, 1.0, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert b.is_sparse and b.hs_norm > 0.0
    assert peak < grid.m * grid.m * 8


def test_large_block_assembles_in_row_chunks(real):
    # the identity at t = 1 on 1568 nodes spans several ROW_CHUNKs: only
    # one chunk's candidate pairs are alive at once, so the peak stays
    # below 48 bytes per kept pair (assembled in one pass it was 93; the
    # finished CSR block holds 12)
    grid = build_grid(real, 1600)
    assert grid.m > 2 * domain.ROW_CHUNK
    tracemalloc.start()
    try:
        b = assemble_block(((), np.eye(2)), 1.0, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert b.is_sparse
    assert peak < 48 * b.matrix.nnz


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
def test_partner_blocks_equal_their_own_assembly(real, t):
    # each partner is its block's transpose, and equals the direct assembly
    # of its own element byte for byte, with the partners of the direct
    # assemblies' elements and the rowsum_ceiling of their family
    support = support_set(real, t)
    for target in (50, 120, 400, 1600):
        grid = build_grid(real, target)
        family = assemble_support_blocks(support, t, grid)
        direct = [b for b in (assemble_block(g, t, grid) for g in support.elements)
                  if not b.is_zero]
        partners = _dense_partners([b.gamma[1] for b in direct])
        assert family.partners == partners
        assert family.rowsum_ceiling == BlockFamily(direct, partners).rowsum_ceiling
        for b, d in zip(family, direct, strict=True):
            assert b.gamma is d.gamma
            _assert_block_is(b, d.matrix, d.hs_norm)
            if not b.is_sparse:
                assert b.matrix.flags.c_contiguous


@pytest.mark.parametrize("t", [1.0, 2.25, 3.0])
def test_support_set_holds_every_nonzero_block(real, grid, t):
    # the family is assembled from S(t) alone: no candidate outside it has
    # a nonzero block
    words = {w for w, _ in support_set(real, t).elements}
    cand = lattice_points(real, support_radius(t))
    outside = [g for g in cand if g[0] not in words]
    assert len(outside) > 0
    assert all(assemble_block(g, t, grid).is_zero for g in outside)


def test_swapped_inverse_partners_fail_loudly(grid, support):
    # a partner's block is its transpose on the support set's pairing
    # alone, so a partner that is no inverse must fail before its block is
    # made
    a, b = [i for i, j in enumerate(support.partners) if j > i][:2]
    partners = list(support.partners)
    partners[a], partners[b] = partners[b], partners[a]
    with pytest.raises(ValueError, match="not inverse"):
        assemble_support_blocks(SupportSet(support.elements, partners), 1.0, grid)


def test_family_is_paired_once(grid, support, monkeypatch):
    # assembly reads the support set's partners: it builds no _OrbitIndex,
    # and the family keeps those partners, renumbered to its kept blocks
    made = []
    monkeypatch.setattr("covergap.surface_group._OrbitIndex.__init__",
                        lambda self: made.append(self))
    family = assemble_support_blocks(support, 1.0, grid)
    assert made == []
    position = {id(g): i for i, g in enumerate(support.elements)}
    kept = [position[id(b.gamma)] for b in family]
    assert family.partners == [kept.index(support.partners[i]) for i in kept]


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

    xy = np.array([[0.0, 1.0], [0.0, y], [0.0, y_above]])
    grid = QuadratureGrid(xy=xy, weights=np.ones(3), m=3)
    i, j = ball_candidates(grid.tree, grid.xy, c)
    assert {(0, 1), (0, 2)} <= set(zip(i.tolist(), j.tolist()))
    D = assemble_block(((), np.eye(2)), t, grid).dense()
    assert D[0, 1] == 1.0
    assert D[0, 2] == 0.0


# -------------------------------------------------------------- truncation

def _padded(block, ranks):
    """svd_truncate's compact factors placed back at their rows and columns
    of m x top and top x m zero arrays, top = min(max(ranks), m), with its
    errors."""
    left, right, rows, cols, errors = svd_truncate(block, ranks)
    m, k = block.matrix.shape[0], left.shape[1]
    top = min(max(ranks), m)
    L, R = np.zeros((m, top)), np.zeros((top, m))
    L[rows, :k], R[:k, cols] = left, right
    return L, R, errors


def test_svd_exact_at_full_rank(real, grid):
    g = (real.side_pairing_words[0], real.side_pairings[0])
    b = assemble_block(g, 1.0, grid)
    left, right, [err] = _padded(b, [grid.m])
    assert err == 0.0
    assert np.allclose(left @ right, b.dense(), atol=1e-10)


def test_svd_bound_and_frobenius(real, grid):
    g = (real.side_pairing_words[3], real.side_pairings[3])
    b = assemble_block(g, 1.0, grid)
    s = np.linalg.svd(b.dense(), compute_uv=False)
    assert abs((s * s).sum() - b.hs_norm**2) <= 1e-10 * b.hs_norm**2
    ranks = range(1, 41)
    left, right, errors = _padded(b, ranks)
    assert len(errors) == len(ranks)
    for r, err in zip(ranks, errors):
        assert err == pytest.approx(s[r] if r < len(s) else 0.0, abs=1e-14)
        assert err <= b.hs_norm / math.sqrt(r) + 1e-12
    # only the top max(ranks) factors are returned
    assert left.shape == (grid.m, 40) and right.shape == (40, grid.m)


def test_svd_spectral_error_is_next_singular_value(real, grid):
    g = (real.side_pairing_words[1], real.side_pairings[1])
    b = assemble_block(g, 1.0, grid)
    A = b.dense()
    ranks = [3, 10]
    left, right, errors = _padded(b, ranks)
    for r, err in zip(ranks, errors):
        assert np.linalg.norm(A - left[:, :r] @ right[:r], 2) == pytest.approx(err, abs=1e-10)


def test_svd_factors_the_nonzero_part_once_per_block(real, grid, support, monkeypatch):
    # one SVD of the block's nonzero rows x columns, returned compact with
    # those rows and columns and here placed back: left is the top of U
    # scaled by s and right the top of Vt, zero off the block's rows and
    # columns, and every rank with sigma_r > sigma_{r+1} gets the
    # dense rank-r truncation; a study with several ranks takes one SVD per
    # inverse pair, of the pair's first block
    g = (real.side_pairing_words[2], real.side_pairings[2])
    b = assemble_block(g, 1.0, grid)
    rows, cols = np.unique(b.matrix.nonzero()[0]), np.unique(b.matrix.nonzero()[1])
    assert b.is_sparse and 0 < len(rows) < grid.m and 0 < len(cols) < grid.m
    U, s, Vt = np.linalg.svd(b.dense(), full_matrices=False)
    ranks = list(range(1, 41))
    compact, compact_t, on_rows, on_cols, _ = svd_truncate(b, ranks)
    k = min(40, len(rows), len(cols))
    assert np.array_equal(on_rows, rows) and np.array_equal(on_cols, cols)
    assert compact.shape == (len(rows), k) and compact_t.shape == (k, len(cols))
    left, right, errors = _padded(b, ranks)
    assert left.shape == (grid.m, 40) and right.shape == (40, grid.m)
    assert not left[np.setdiff1d(np.arange(grid.m), rows)].any()
    assert not right[:, np.setdiff1d(np.arange(grid.m), cols)].any()
    # columns past the restricted SVD's min(rows, columns) are exact zeros
    assert not left[:, min(len(rows), len(cols)):].any()
    assert not right[min(len(rows), len(cols)):].any()
    for r, err in zip(ranks, errors):
        assert err == pytest.approx(s[r], abs=1e-14)
        if s[r - 1] > s[r]:
            dense = (U[:, :r] * s[:r]) @ Vt[:r]
            assert np.abs(left[:, :r] @ right[:r] - dense).max() <= 1e-12

    # a block whose nonzero rows and columns are all m, sparse (the identity
    # at t = 1) or dense (the identity at t = 2), is factored bit for bit
    # as the dense block
    for t in (1.0, 2.0):
        full = assemble_block(((), np.eye(2)), t, grid)
        assert full.is_sparse == (t == 1.0)
        U, s, Vt = np.linalg.svd(full.dense(), full_matrices=False)
        left, right, errors = _padded(full, [3, 8, 5])
        assert np.array_equal(left, U[:, :8] * s[:8]) and np.array_equal(right, Vt[:8])
        assert errors == [s[3], s[8], s[5]]

    calls = []

    def counted(block, ranks):
        calls.append(block)
        return svd_truncate(block, ranks)

    monkeypatch.setattr(cover_spectrum, "svd_truncate", counted)
    blocks = assemble_support_blocks(support, 1.0, grid)
    op = cover_spectrum.build_cover_operator(blocks, sample_uniform_hom(3, 2, seed=1))
    assert len(cover_spectrum.truncation_components(op, [1, 4, 16], seed=0)) == 3
    first = [b for i, (b, j) in enumerate(zip(op.blocks, op.blocks.partners)) if i <= j]
    assert len(calls) == len(first) == (len(blocks) + 1) // 2
    assert all(c is d for c, d in zip(calls, first))


def test_svd_of_dense_block_reads_its_nonzero_core(real):
    # the identity at t = 2 on 392 nodes is stored dense; read through CSR
    # like every block, its core is the dense block's nonzero rows x
    # columns, so its factors are LAPACK's for that core bit for bit
    grid = build_grid(real, 400)
    b = assemble_block(((), np.eye(2)), 2.0, grid)
    assert not b.is_sparse
    A = b.matrix
    left, right, rows, cols, errors = svd_truncate(b, [1, 8, 64])
    assert np.array_equal(rows, np.flatnonzero(A.any(axis=1)))
    assert np.array_equal(cols, np.flatnonzero(A.any(axis=0)))
    U, s, Vt = np.linalg.svd(A[np.ix_(rows, cols)], full_matrices=False)
    assert left.tobytes() == (U[:, :64] * s[:64]).tobytes()
    assert right.tobytes() == Vt[:64].tobytes()
    assert errors == [s[1], s[8], s[64]]


def test_svd_rejects_bad_rank(real, grid):
    g = (real.side_pairing_words[0], real.side_pairings[0])
    b = assemble_block(g, 1.0, grid)
    for ranks in ([0], [4, 0], []):
        with pytest.raises(ValueError):
            svd_truncate(b, ranks)
