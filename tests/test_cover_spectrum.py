"""Tests for cover operators, Krylov extremes, and gap estimation.

Oracles: dense eigensolvers on small grids (kron-assembled operators,
restricted to the mean-zero fiber through the Helmert basis).
"""

import dataclasses
import functools
import math

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal
from scipy.sparse import csr_matrix, issparse

from covergap.surface_group import build_bolza_realization, support_set
from covergap.domain import (
    SPARSE_DENSITY,
    BlockFamily,
    RowLayout,
    assemble_support_blocks,
    build_grid,
    svd_truncate,
)
from covergap.selberg import SpectralParameter, h_peak, invert_h, selberg_h
from covergap.symmetric_group import (
    Permutation,
    evaluate_word,
    make_hom_tuple,
    sample_uniform_hom,
)
import covergap.cover_spectrum as cover_spectrum
from covergap.cover_spectrum import (
    KrylovConvergenceError,
    _lanczos_top,
    _mean_zero_basis,
    build_cover_operator,
    estimate_gap,
    matvec,
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
def dense_t2(real):
    # at t = 2 on the coarsest grid the identity block is stored dense
    grid = build_grid(real, 50)
    blocks = assemble_support_blocks(support_set(real, 2.0), 2.0, grid)
    assert sum(not b.is_sparse for b in blocks) == 1
    return grid, blocks


@pytest.fixture(scope="module")
def half_t(real):
    grid = build_grid(real, 50)
    return grid, assemble_support_blocks(support_set(real, 0.5), 0.5, grid)


@pytest.fixture(scope="module")
def medium(real):
    grid = build_grid(real, 120)
    return grid, assemble_support_blocks(support_set(real, T_RADIUS), T_RADIUS, grid)


def _placed(factors, r, m):
    """The m x m rank-r truncation from svd_truncate's compact factors,
    placed at their rows and columns."""
    left, right, rows, cols, _ = factors
    A = np.zeros((m, m))
    A[np.ix_(rows, cols)] = left[:, :r] @ right[:r]
    return A


def _truncated_block(b, r):
    """The m x m rank-r truncation of a block from its own svd_truncate."""
    return _placed(svd_truncate(b, [r]), r, b.matrix.shape[0])


def _dense_operator(op, r=None):
    """kron-assembled dense matrix of the operator, restricted to the
    mean-zero coordinates; with a rank r, of its rank-r truncation."""
    n = op.n
    mats = []
    for b, idx in zip(op.blocks, op.perm_images):
        P = np.zeros((n, n))
        # column j of the fiber factor picks source column idx[j]
        for j in range(n):
            P[idx[j], j] = 1.0
        A = b.dense() if r is None else _truncated_block(b, r)
        mats.append(np.kron(A, P.T))
    E = np.kron(np.eye(op.m), _mean_zero_basis(n))
    return E.T @ sum(mats) @ E


def _block_loop_matvec(op, x, products=None):
    """The per-block loop that matvec replaced: one product per block, its
    columns gathered and added to a zero start in family order; products,
    if given, replace each block's own dot."""
    if products is None:
        products = [lambda X, A=b.matrix: A.dot(X) for b in op.blocks]
    X = x.reshape(op.m, op.n - 1) @ op.basis.T
    Y = np.zeros_like(X)
    for p, idx in zip(products, op.perm_images):
        Y += p(X)[:, idx]
    return (Y @ op.basis).ravel()


# ------------------------------------------------------------ construction


def test_mean_zero_basis_is_orthonormal_and_mean_free():
    for n in (2, 3, 7):
        Q = _mean_zero_basis(n)
        assert Q.shape == (n, n - 1)
        assert np.allclose(Q.T @ Q, np.eye(n - 1), atol=1e-14)
        assert np.abs(Q.sum(axis=0)).max() < 1e-14


def test_build_validation(small):
    _, blocks = small
    e = Permutation.identity(3)
    bad = make_hom_tuple(3, 2, (Permutation([1, 2, 0]), Permutation([1, 0, 2]), e, e))
    assert not bad.relation_ok
    with pytest.raises(ValueError):
        build_cover_operator(blocks, bad)
    # the blocks are Bolza (genus-2) translates; a genus-3 tuple labels
    # nothing on that surface
    with pytest.raises(ValueError):
        build_cover_operator(blocks, sample_uniform_hom(4, 3, seed=0))


def test_family_is_reused_per_cover(small):
    _, blocks = small
    assert isinstance(blocks, BlockFamily)
    assert (blocks.m, blocks.t, blocks.genus) == (blocks[0].matrix.shape[0], T_RADIUS, 2)
    op = build_cover_operator(blocks, sample_uniform_hom(4, 2, seed=0))
    assert op.blocks is blocks


def test_operator_is_immutable(small):
    _, blocks = small
    op = build_cover_operator(blocks, sample_uniform_hom(3, 2, seed=1))
    with pytest.raises(dataclasses.FrozenInstanceError):
        op.n = 5


def test_empty_fiber_at_n_one(small):
    _, blocks = small
    e = Permutation.identity(1)
    hom = make_hom_tuple(1, 2, (e, e, e, e))
    op = build_cover_operator(blocks, hom)
    assert op.dimension == 0
    assert matvec(op, np.zeros(0)).shape == (0,)
    for solve in (estimate_gap, lambda o: truncation_components(o, [2])):
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
    op = build_cover_operator(blocks, hom)
    for _ in range(100):
        x = rng.standard_normal(op.dimension)
        y = rng.standard_normal(op.dimension)
        dev = abs(matvec(op, x) @ y - x @ matvec(op, y))
        assert dev <= 1e-10 * np.linalg.norm(x) * np.linalg.norm(y)


def test_matvec_matches_dense_kron(small, dense_t2):
    hom = sample_uniform_hom(3, 2, seed=9)
    rng = np.random.default_rng(1)
    for blocks in (small[1], dense_t2[1]):
        op = build_cover_operator(blocks, hom)
        M = _dense_operator(op)
        assert np.abs(M - M.T).max() < 1e-12
        for _ in range(5):
            x = rng.standard_normal(op.dimension)
            assert np.allclose(matvec(op, x), M @ x, atol=1e-11)


@pytest.mark.parametrize("grid_m", [50, 120])
def test_trace_of_square_matches_fixed_points(real, grid_m):
    """sum_i |T e_i|^2 = sum_{gamma,delta} tr(A_gamma A_delta) (fix
    phi(gamma delta) - 1) on the mean-zero fiber, with phi(gamma delta)
    evaluated on the concatenated words: a grid-free check of gather and
    the mean-zero basis. At t = 2 pairs other than (gamma, gamma^-1) meet;
    on a coarse t = 1 grid only those do, and the identity holds whatever
    the permutations are. It is blind to the fiber convention (phi or
    phi^-1), since fix phi(gamma delta) = fix phi(delta gamma)."""
    t = 2.0
    blocks = assemble_support_blocks(support_set(real, t), t, build_grid(real, grid_m))
    D = np.array([b.dense() for b in blocks])
    # tr(A_gamma A_delta) = sum_jk A_gamma[j, k] A_delta[k, j]
    traces = D.reshape(len(D), -1) @ D.transpose(0, 2, 1).reshape(len(D), -1).T
    words = [b.gamma[0] for b in blocks]
    pairs = np.argwhere(traces != 0.0)
    assert any(blocks.partners[g] != d for g, d in pairs)
    for n in (3, 4, 6, 8):
        hom = sample_uniform_hom(n, 2, seed=n)
        op = build_cover_operator(blocks, hom)
        lhs = math.fsum(np.square(matvec(op, e)).sum() for e in np.eye(op.dimension))
        rhs = math.fsum(
            traces[g, d] * (np.count_nonzero(np.equal(
                evaluate_word(hom, words[g] + words[d]).images0, np.arange(n))) - 1)
            for g, d in pairs)
        assert abs(lhs - rhs) <= 1e-12 * lhs


def _composed_pairs(blocks):
    """(gamma, delta, k): family positions with gamma != delta and
    M_gamma M_delta = +-M_k, the product gamma delta again a family
    element, matched by matrix up to sign."""
    M = np.array([b.gamma[1] for b in blocks])
    P = np.einsum("gij,djk->gdik", M, M)[:, :, None]
    dev = np.minimum(np.abs(P - M).max(axis=(-2, -1)), np.abs(P + M).max(axis=(-2, -1)))
    hits = np.argwhere(dev <= 1e-9 * np.abs(P).max(axis=(-2, -1)))
    assert len({(g, d) for g, d, _ in hits}) == len(hits)  # one match each
    return [(g, d, k) for g, d, k in hits if g != d]


def _breaks_composition(pi, pairs):
    """The pairs whose column maps break pi_{gamma delta} = pi_delta o
    pi_gamma, the rule a cover's operator obeys (output column c of block
    gamma reads column pi_gamma(c))."""
    return [(g, d) for g, d, k in pairs if not np.array_equal(pi[k], pi[d][pi[g]])]


def test_inverse_images_compose_as_a_cover_needs(dense_t2):
    # grid-free: phi is a homomorphism, so pi = phi(.)^-1 obeys the rule on
    # every composed pair of the t = 2 family
    _, blocks = dense_t2
    hom = sample_uniform_hom(8, 2, seed=3002)
    pairs = _composed_pairs(blocks)
    assert len(pairs) == 480
    pi = np.array([evaluate_word(hom, b.gamma[0]).inverse().images0 for b in blocks])
    assert _breaks_composition(pi, pairs) == []


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: perm_images holds phi(gamma), "
                   "so the operator reads pi_{gamma delta} = pi_gamma o pi_delta")
def test_perm_images_compose_as_a_cover_needs(dense_t2):
    _, blocks = dense_t2
    op = build_cover_operator(blocks, sample_uniform_hom(8, 2, seed=3002))
    assert _breaks_composition(op.perm_images, _composed_pairs(blocks)) == []


@pytest.mark.parametrize("family", ["small", "dense_t2", "half_t"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_stacked_matvec_bit_identical_to_block_loop(request, family, n):
    _, blocks = request.getfixturevalue(family)
    hom = sample_uniform_hom(n, 2, seed=n)
    rng = np.random.default_rng(n)
    op = build_cover_operator(blocks, hom)
    for _ in range(3):
        x = rng.standard_normal(op.dimension)
        assert np.array_equal(matvec(op, x), _block_loop_matvec(op, x))


@pytest.mark.parametrize("family", ["small", "dense_t2", "half_t"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_lanczos_solve_bit_identical_to_block_loop(request, family, n):
    # every matvec of the solve, and so its top, residual and step count,
    # equals the per-block loop's
    _, blocks = request.getfixturevalue(family)
    op = build_cover_operator(blocks, sample_uniform_hom(n, 2, seed=10 + n))
    fast = _lanczos_top(lambda x: matvec(op, x), op.dimension, seed=n)
    slow = _lanczos_top(lambda x: _block_loop_matvec(op, x), op.dimension, seed=n)
    assert fast == slow and fast.iterations > 1


def _captured_truncated_applies(monkeypatch):
    """Collects the apply that truncation_components hands each rank's
    Lanczos solve."""
    applies = []
    lanczos = cover_spectrum._lanczos_top

    def capture(apply, dim, seed):
        applies.append(apply)
        return lanczos(apply, dim, seed)

    monkeypatch.setattr(cover_spectrum, "_lanczos_top", capture)
    return applies


def _form_products(blocks, ranks, j):
    """One product per block for the rank-ranks[j] truncation, each in the
    form the study applies it in, with the form's letter: E, where
    sigma_{r+1} = 0, the block itself as matvec applies it (a sparse
    block's nonzero rows, a dense-stored block's own dot on all m rows);
    D, the factors by BLAS where rows x cols is dense by SPARSE_DENSITY;
    T, CSR copies of the factors."""
    r, m = ranks[j], blocks.m

    def product(X, form, A, L, R, rows, cols):
        if form == "E" and not issparse(A):
            return A.dot(X)
        Y = np.zeros_like(X)
        if form == "E":
            Y[rows] = A[rows] @ X
        elif form == "D":
            Y[rows] = L[:, :r] @ (R[:r] @ X[cols])
        else:
            Y[rows] = csr_matrix(L[:, :r]) @ (csr_matrix(R[:r]) @ X[cols])
        return Y

    products, forms = [], []
    for b, (L, R, rows, cols, errors) in zip(blocks, cover_spectrum._pair_factors(blocks, ranks)):
        form = ("E" if errors[j] == 0.0 else
                "D" if len(rows) * len(cols) >= SPARSE_DENSITY * m * m else "T")
        forms.append(form)
        products.append(functools.partial(product, form=form, A=b.matrix, L=L, R=R,
                                          rows=rows, cols=cols))
    return products, forms


def test_truncated_apply_bit_identical_to_block_loop(small, dense_t2, monkeypatch):
    # the truncated operator reaches _apply with each block's nonzero rows
    # as its layout, each block in its cheapest exact form, and equals a
    # loop over the blocks of their own products in those forms; every
    # form occurs on both families, and at r = m = 32 the dense-stored
    # identity block of dense_t2 is exact
    applies = _captured_truncated_applies(monkeypatch)
    rng = np.random.default_rng(0)
    ranks = [2, 8, 32]
    for blocks in (small[1], dense_t2[1]):
        op = build_cover_operator(blocks, sample_uniform_hom(4, 2, seed=3))
        records = truncation_components(op, ranks, seed=0)
        seen = set()
        for j, (apply, record) in enumerate(zip(applies[-len(ranks):], records)):
            products, forms = _form_products(op.blocks, ranks, j)
            seen.update(forms)
            for _ in range(3):
                x = rng.standard_normal(op.dimension)
                assert np.array_equal(apply(x), _block_loop_matvec(op, x, products))
            loop = _lanczos_top(lambda x: _block_loop_matvec(op, x, products),
                                op.dimension, 0)
            assert record["truncated_top"] == loop.top
        assert seen == {"E", "D", "T"}


def test_truncated_apply_at_full_rank_equals_matvec(small, dense_t2, monkeypatch):
    # at r = m every block's truncation is the block itself, applied from
    # the family's exact rows as matvec applies it: bit for bit the
    # operator, with sparse blocks only (t = 1) and with a dense-stored
    # identity block (t = 2)
    applies = _captured_truncated_applies(monkeypatch)
    rng = np.random.default_rng(1)
    for grid, blocks in (small, dense_t2):
        op = build_cover_operator(blocks, sample_uniform_hom(4, 2, seed=3))
        truncation_components(op, [grid.m], seed=0)
        for _ in range(3):
            x = rng.standard_normal(op.dimension)
            assert np.array_equal(applies[-1](x), matvec(op, x))


def test_row_layout_built_once_per_family_and_per_rank(small, monkeypatch):
    # RowLayout.of runs once when the family is built, never per cover or
    # per matvec; truncation makes only its per-rank layouts
    _, blocks = small
    calls = []
    of = RowLayout.of.__func__

    def counting(cls, *args):
        calls.append(cls)
        return of(cls, *args)

    monkeypatch.setattr(RowLayout, "of", classmethod(counting))
    family = BlockFamily(list(blocks), blocks.partners)
    layout = family.layout
    assert len(calls) == 1
    ranks = [2, 4]
    op = build_cover_operator(family, sample_uniform_hom(4, 2, seed=2))
    truncation_components(op, ranks, seed=0)
    assert len(calls) == 1 + len(ranks) and family.layout is layout
    for seed in (0, 1):
        op = build_cover_operator(family, sample_uniform_hom(3, 2, seed=seed))
        matvec(op, np.ones(op.dimension))
        assert op.blocks.layout is layout
        assert np.array_equal(op.gather, layout.gather(op.perm_images))
    assert len(calls) == 1 + len(ranks)
    # only the nonempty rows of the sparse blocks are kept
    kept = sum(np.count_nonzero(np.diff(b.matrix.indptr)) for b in family)
    assert len(layout.order) == kept < len(family) * family.m


# ----------------------------------------------------------------- Lanczos


def test_lanczos_against_dense_symmetric():
    rng = np.random.default_rng(3)
    for dim in (1, 2, 40, 120):
        S = rng.standard_normal((dim, dim))
        S = (S + S.T) / 2
        w = np.linalg.eigvalsh(S)
        res = _lanczos_top(lambda x: S @ x, dim, seed=0)
        assert abs(res.top - w[-1]) <= 1e-8 * max(1, abs(w[-1]))


def _per_step_lanczos(apply, dim, seed, maxiter=400):
    """The Lanczos loop that runs the Ritz solve at every step, kept as the
    reference for the lazily tested one."""
    cap = min(maxiter, dim)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    V = np.empty((cap + 1, dim))
    V[0] = v
    alphas, betas = [], []
    beta_prev = 0.0
    for j in range(cap):
        w = apply(V[j])
        if j:
            w = w - beta_prev * V[j - 1]
        a = float(V[j] @ w)
        alphas.append(a)
        w = w - a * V[j]
        for _ in range(2):
            w = w - V[: j + 1].T @ (V[: j + 1] @ w)
        b = float(np.linalg.norm(w))
        theta, U = eigh_tridiagonal(np.array(alphas), np.array(betas))
        top = float(theta[-1])
        res_top = b * abs(float(U[-1, -1]))
        scale = max(abs(top), abs(float(theta[0])))
        if (res_top <= cover_spectrum.KRYLOV_TOL * scale
                or b <= 1e-14 * max(1.0, scale) or j + 1 == dim):
            return cover_spectrum.LanczosResult(top, res_top, j + 1)
        betas.append(b)
        beta_prev = b
        V[j + 1] = w / b
    raise KrylovConvergenceError(top, res_top, cap)


def _outcome(solve, *args, **kwargs):
    try:
        return solve(*args, **kwargs)
    except KrylovConvergenceError as exc:
        return ("cap", exc.best_estimate, exc.residual, exc.iterations)


@pytest.mark.parametrize("family", ["small", "dense_t2"])
def test_lazy_ritz_tests_equal_the_per_step_loop(request, family, monkeypatch):
    # 30 covers per family (t = 1 and t = 2): the same top, residual and
    # step count bit for bit, with one matvec per step and fewer Ritz
    # solves than steps; with small caps, the same result or the same
    # KrylovConvergenceError
    _, blocks = request.getfixturevalue(family)
    solves, matvecs = [], []
    ritz = cover_spectrum.eigh_tridiagonal

    def counted(*args):
        solves.append(1)
        return ritz(*args)

    steps = 0
    for n in (4, 8, 16):
        for s in range(10):
            op = build_cover_operator(blocks, sample_uniform_hom(n, 2, seed=s))
            apply = functools.partial(matvec, op)
            want = _per_step_lanczos(apply, op.dimension, s)
            monkeypatch.setattr(cover_spectrum, "eigh_tridiagonal", counted)
            assert _lanczos_top(lambda x: matvecs.append(1) or apply(x),
                                op.dimension, s) == want
            monkeypatch.setattr(cover_spectrum, "eigh_tridiagonal", ritz)
            steps += want.iterations
            if s == 0:
                for cap in (1, 2, 5, 12, want.iterations - 1, want.iterations):
                    assert _outcome(_lanczos_top, apply, op.dimension, s, maxiter=cap) \
                        == _outcome(_per_step_lanczos, apply, op.dimension, s, maxiter=cap)
    assert len(matvecs) == steps and len(solves) < steps / 2


def test_lazy_ritz_tests_survive_a_misjudging_estimate(small, monkeypatch):
    # an estimate that never sees a stop leaves only step 0 and the cap to
    # the full solve; the untested steps are then tested in order, and the
    # first stop is still the per-step loop's
    _, blocks = small
    monkeypatch.setattr(cover_spectrum, "_top_residual_estimate",
                        lambda *args: math.inf)
    for n, s in ((4, 0), (8, 1)):
        op = build_cover_operator(blocks, sample_uniform_hom(n, 2, seed=s))
        apply = functools.partial(matvec, op)
        want = _per_step_lanczos(apply, op.dimension, s)
        for cap in (want.iterations + 7, 400):
            assert _lanczos_top(apply, op.dimension, s, maxiter=cap) == want


def test_lanczos_zero_operator():
    res = _lanczos_top(lambda x: np.zeros_like(x), 12, seed=0)
    assert res.top == 0.0


def test_lanczos_iteration_cap_raises_with_payload():
    rng = np.random.default_rng(0)
    S = rng.standard_normal((200, 200))
    S = (S + S.T) / 2
    with pytest.raises(KrylovConvergenceError) as exc:
        _lanczos_top(lambda x: S @ x, 200, seed=0, maxiter=3)
    assert math.isfinite(exc.value.best_estimate)
    assert exc.value.residual > 0
    assert exc.value.iterations == 3


def test_top_norm_deterministic_by_seed(small):
    _, blocks = small
    op = build_cover_operator(blocks, sample_uniform_hom(4, 2, seed=1))
    a = estimate_gap(op, seed=42).op_norm
    b = estimate_gap(op, seed=42).op_norm
    c = estimate_gap(op, seed=43).op_norm
    assert a == b
    assert abs(a - c) <= 1e-7


# ----------------------------------------------------- spectra and oracles


def test_identity_hom_reduces_to_grid_operator(small):
    # on the identity tuple the mean-zero operator is n - 1 copies of the
    # scalar operator sum A_gamma, so it has the same top
    _, blocks = small
    e = Permutation.identity(4)
    hom = make_hom_tuple(4, 2, (e, e, e, e))
    op = build_cover_operator(blocks, hom)
    dense_top = np.linalg.eigvalsh(sum(b.dense() for b in blocks)).max()
    assert abs(estimate_gap(op, seed=0).op_norm - dense_top) <= 1e-8


def test_mean_zero_top_matches_dense(small):
    _, blocks = small
    for seed in (0, 4):
        op = build_cover_operator(blocks, sample_uniform_hom(3, 2, seed=seed))
        dense_top = np.linalg.eigvalsh(_dense_operator(op)).max()
        assert abs(estimate_gap(op, seed=1).op_norm - dense_top) <= 1e-8


# ------------------------------------------------------------- estimation


def test_estimate_gap_good_cover(small):
    _, blocks = small
    hom = sample_uniform_hom(4, 2, seed=3)
    op = build_cover_operator(blocks, hom)
    est = estimate_gap(op, seed=1)
    peak = h_peak(T_RADIUS)
    assert 0.0 <= est.lambda_lower_bound <= 0.25
    a = invert_h(T_RADIUS, max(est.op_norm, peak)).value
    assert est.lambda_lower_bound == 0.25 - a * a
    assert est.linearized_lower_bound <= est.lambda_lower_bound + 1e-8
    if est.op_norm <= peak:
        assert est.lambda_exact_if_below_quarter is None
        assert est.lambda_lower_bound == pytest.approx(0.25, abs=1e-6)
    assert (op.n, op.m) == (4, blocks.m) and hom.transitive
    assert set(est.metadata) == {"iterations"}


def test_estimate_gap_iterations_count_matvecs(small, monkeypatch):
    _, blocks = small
    op = build_cover_operator(blocks, sample_uniform_hom(4, 2, seed=3))
    calls = []

    def counted(*args):
        calls.append(1)
        return matvec(*args)

    monkeypatch.setattr(cover_spectrum, "matvec", counted)
    est = estimate_gap(op, seed=1)
    assert est.metadata["iterations"] == len(calls) > 0


def test_estimate_gap_trivial_cover_sees_zero(medium):
    # the disconnected identity cover keeps the constant eigenvalue in the
    # mean-zero fiber, so the estimate must flag an eigenvalue near 0
    _, blocks = medium
    e = Permutation.identity(4)
    op = build_cover_operator(blocks, make_hom_tuple(4, 2, (e, e, e, e)))
    est = estimate_gap(op, seed=1)
    assert est.op_norm > h_peak(T_RADIUS)
    assert est.lambda_exact_if_below_quarter is not None
    assert 0.0 <= est.lambda_exact_if_below_quarter < 0.1
    assert est.linearized_lower_bound <= est.lambda_lower_bound + 1e-8


def test_estimate_gap_clamps_inflated_norm(small):
    # uniformly scaled blocks stay consistent with their own row-sum
    # certificate, so the estimate lands at the flagged parameter edge
    # rather than raising
    _, blocks = small
    scaled = [
        dataclasses.replace(b, matrix=b.matrix * 1.6, hs_norm=1.6 * b.hs_norm)
        for b in blocks
    ]
    op = build_cover_operator(BlockFamily(scaled, blocks.partners),
                              sample_uniform_hom(4, 2, seed=3))
    est = estimate_gap(op, seed=1)
    assert est.op_norm > selberg_h(T_RADIUS, SpectralParameter.imaginary(0.5)).value
    assert est.lambda_lower_bound == 0.0
    assert est.op_norm <= op.blocks.rowsum_ceiling * (1 + 1e-9)


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
    assert est.lambda_lower_bound == 0.0
    assert est.op_norm <= op.blocks.rowsum_ceiling * (1 + 1e-9)


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
    op = build_cover_operator(BlockFamily([fake], [0]), sample_uniform_hom(2, 2, seed=0))
    with pytest.raises(ValueError):
        estimate_gap(op, seed=1)


# ------------------------------------------------------------- truncation


def test_truncation_exact_at_full_rank(small):
    grid, blocks = small
    op = build_cover_operator(blocks, sample_uniform_hom(4, 2, seed=2))
    full = estimate_gap(op, seed=0).op_norm
    [comp] = truncation_components(op, [grid.m], seed=0)
    assert comp["bound"] == pytest.approx(full, abs=1e-10)


def test_truncation_bound_brackets_norm(small):
    grid, blocks = small
    op = build_cover_operator(blocks, sample_uniform_hom(4, 2, seed=6))
    full = estimate_gap(op, seed=0).op_norm
    prev_gap = None
    for comp in truncation_components(op, [1, 4, 16, 32], seed=0):
        bound = comp["bound"]
        assert bound >= full - comp["certified_gap"] - 1e-9
        gap = abs(bound - full)
        assert gap <= comp["certified_gap"] + 1e-9
        assert comp["certified_gap"] <= 2 * comp["hs_reference"] + 1e-9
        if prev_gap is not None:
            assert comp["hs_reference"] <= prev_gap + 1e-12
        prev_gap = comp["hs_reference"]


def test_truncation_certificate_holds_at_a_tied_rank(dense_t2):
    # at t = 2 on the coarsest grid eight blocks have sigma_5 = sigma_6, so
    # their rank-5 truncation depends on which singular vectors LAPACK
    # returns; either choice is off by exactly sigma_6, and the study's
    # certificate holds there
    _, blocks = dense_t2
    tied = 0
    for b in blocks:
        s = np.linalg.svd(b.dense(), compute_uv=False)
        if abs(s[4] - s[5]) > 1e-12 * s[0]:
            continue
        tied += 1
        U, _, Vt = np.linalg.svd(b.dense(), full_matrices=False)
        [err] = svd_truncate(b, [5])[-1]
        dense = (U[:, :5] * s[:5]) @ Vt[:5]
        for A5 in (dense, _truncated_block(b, 5)):
            assert np.linalg.norm(b.dense() - A5, 2) == pytest.approx(err, abs=1e-12)
    assert tied >= 8
    op = build_cover_operator(blocks, sample_uniform_hom(4, 2, seed=3))
    full = estimate_gap(op, seed=0).op_norm
    [comp] = truncation_components(op, [5], seed=0)
    assert abs(comp["truncated_top"] - full) <= comp["certified_gap"] / 2 + 1e-12
    assert comp["bound"] >= full - 1e-12


@pytest.mark.parametrize("family", ["small", "dense_t2"])
def test_partner_truncations_are_transposes(request, family):
    # one SVD per inverse pair: the first block of a pair keeps its own
    # svd_truncate, and its partner's rank-r truncation is that one
    # transposed, with the same errors, off its own block by exactly
    # sigma_{r+1}; the identity is its own partner, and a split +-lambda
    # tie leaves its truncation non-symmetric (t = 2, r = 8)
    _, blocks = request.getfixturevalue(family)
    ranks = [1, 2, 5, 8]
    factors = cover_spectrum._pair_factors(blocks, ranks)
    for i, j in enumerate(blocks.partners):
        assert factors[i][4] == factors[j][4]
        if i <= j:
            for got, want in zip(factors[i], svd_truncate(blocks[i], ranks)):
                assert np.array_equal(got, want)
        if i == j:
            continue
        for r, error in zip(ranks, factors[j][4]):
            Ti, Tj = _placed(factors[i], r, blocks.m), _placed(factors[j], r, blocks.m)
            assert np.abs(Ti - Tj.T).max() <= 1e-12
            assert np.linalg.norm(blocks[j].dense() - Tj, 2) == pytest.approx(error, abs=1e-12)
    assert sum(i < j for i, j in enumerate(blocks.partners)) == len(blocks) // 2


def test_truncated_apply_symmetric_at_a_tied_partner_rank(dense_t2, monkeypatch):
    # at t = 2 on the coarsest grid non-identity blocks tie at sigma_5 =
    # sigma_6, where separate SVDs of A and A^T can keep different singular
    # vectors; with the partner's factors transposed the rank-5 truncated
    # operator stays symmetric, as Lanczos assumes
    _, blocks = dense_t2
    tied = 0
    for b in blocks:
        s = np.linalg.svd(b.dense(), compute_uv=False)
        tied += bool(b.gamma[0]) and abs(s[4] - s[5]) <= 1e-12 * s[0]
    assert tied >= 2
    applies = _captured_truncated_applies(monkeypatch)
    op = build_cover_operator(blocks, sample_uniform_hom(8, 2, seed=3))
    truncation_components(op, [5], seed=0)
    rng = np.random.default_rng(2)
    for _ in range(5):
        x, y = rng.standard_normal((2, op.dimension))
        skew = abs(y @ applies[-1](x) - x @ applies[-1](y))
        assert skew <= 1e-12 * np.linalg.norm(x) * np.linalg.norm(y)


@pytest.mark.xfail(strict=True, reason="CHANGES.md FOUND: the identity block is its "
                   "own partner, and its rank-8 truncation splits a +-lambda tie")
def test_truncated_apply_symmetric_at_a_split_identity_tie(dense_t2, monkeypatch):
    # at t = 2 on the coarsest grid the identity's eigenvalues by |lambda|
    # run -0.785, +0.785, +0.785 at positions 8-10; the rank-8 truncated
    # apply reads a largest relative skew of 0.061 at n = 4 and 0.034 at
    # n = 8 over these 20 pairs, against about 1e-16 for matvec
    _, blocks = dense_t2
    applies = _captured_truncated_applies(monkeypatch)
    for n in (4, 8):
        op = build_cover_operator(blocks, sample_uniform_hom(n, 2, seed=3))
        truncation_components(op, [8], seed=0)
        rng = np.random.default_rng(2)
        for _ in range(20):
            x, y = rng.standard_normal((2, op.dimension))
            skew = abs(y @ applies[-1](x) - x @ applies[-1](y))
            assert skew <= 1e-12 * np.linalg.norm(x) * np.linalg.norm(y)


def test_truncated_top_close_to_full_dense_oracle(small):
    # the factored apply matches the dense truncated operator, and
    # |top(T_r) - top(T)| <= sum sigma_{r+1}, dense eigensolver on both
    _, blocks = small
    for seed in range(5):
        op = build_cover_operator(blocks, sample_uniform_hom(3, 2, seed=seed))
        M = _dense_operator(op)
        full = np.linalg.eigvalsh(M).max()
        for r, comp in zip((2, 8), truncation_components(op, [2, 8], seed=0)):
            truncated = np.linalg.eigvalsh(_dense_operator(op, r)).max()
            assert comp["truncated_top"] == pytest.approx(truncated, rel=1e-9)
            assert abs(comp["truncated_top"] - full) <= comp["certified_gap"] / 2 + 1e-9


def test_truncation_one_pass_equals_per_rank_calls(small):
    # one SVD per block serves every rank, and each record is exactly what
    # a study of that rank alone gives
    _, blocks = small
    op = build_cover_operator(blocks, sample_uniform_hom(4, 2, seed=5))
    joint = truncation_components(op, [2, 8], seed=3)
    assert [c["r"] for c in joint] == [2, 8]
    assert joint == (truncation_components(op, [2], seed=3)
                     + truncation_components(op, [8], seed=3))
    assert truncation_components(op, [], seed=3) == []
