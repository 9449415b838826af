"""Tensor operators on covers and their spectral-gap estimates.

A cover is described by generator images phi in S_n. The operator applied
here sums the translate blocks A_gamma on the mean-zero fiber: output fiber
column c of block gamma reads column phi(gamma)(c), phi evaluated on the
block's word left to right. Only when phi has an abelian image is that the
cover's ball-kernel operator, whose spectrum there is the cover's new
eigenvalues; the cover's own operator reads column phi(gamma)^-1(c). Its
top eigenvalue, from Lanczos with the full Ritz solve run only near the
steps where it can stop, feeds the inverse Selberg transform to give a
lower bound on the first new Laplacian eigenvalue.
"""

import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dstebz, dstein
from scipy.sparse import csr_matrix

from .domain import SPARSE_DENSITY, BlockFamily, RowLayout, svd_truncate
from .hyperbolic import ball_area
from .selberg import (
    SpectralParameter,
    gap_lower_bound_coefficient,
    invert_h,
    selberg_h,
)
from .symmetric_group import HomTuple, evaluate_word

KRYLOV_TOL = 1e-8  # Lanczos stops when the top residual is <= KRYLOV_TOL * scale


def _mean_zero_basis(n: int) -> np.ndarray:
    """Helmert basis: n x (n-1) orthonormal columns spanning sum x_i = 0."""
    Q = np.zeros((n, n - 1))
    for k in range(1, n):
        s = 1.0 / math.sqrt(k * (k + 1))
        Q[:k, k - 1] = s
        Q[k, k - 1] = -k * s
    return Q


@dataclass(frozen=True, eq=False)
class CoverOperator:
    """Immutable operator on the mean-zero fiber, in the coordinates of
    basis = _mean_zero_basis(n). perm_images holds phi(gamma) for every
    block in family order, and output fiber column c of block gamma reads
    column phi(gamma)(c): the cover's operator only if phi's image is abelian."""

    blocks: BlockFamily
    m: int
    n: int
    dimension: int
    perm_images: np.ndarray = field(repr=False)
    basis: np.ndarray = field(repr=False)
    gather: np.ndarray = field(repr=False)  # blocks.layout.gather(perm_images)


def build_cover_operator(blocks: BlockFamily, hom: HomTuple) -> CoverOperator:
    """Pair a sweep's block family, reused as it is, with a generator tuple.

    Requires the tuple to satisfy the surface relation of the family's
    genus, otherwise the words labelling the blocks would not map to
    well-defined permutations.
    """
    if not hom.relation_ok:
        raise ValueError("generator images must satisfy the surface relation")
    if hom.genus != blocks.genus:
        raise ValueError(
            f"genus-{hom.genus} tuple cannot label genus-{blocks.genus} blocks")
    perms = np.array([evaluate_word(hom, b.gamma[0]) for b in blocks], dtype=np.intp)
    m, n = blocks.m, hom.n
    return CoverOperator(
        blocks=blocks, m=m, n=n, dimension=m * (n - 1), perm_images=perms,
        basis=_mean_zero_basis(n), gather=blocks.layout.gather(perms),
    )


def _apply(op: CoverOperator, layout: RowLayout, gather, x: np.ndarray) -> np.ndarray:
    """sum_gamma (A_gamma X) with fiber columns permuted by phi(gamma), in
    mean-zero coordinates: one product makes every partial row the layout
    holds, one take through gather (layout.gather of the cover's
    permutations) permutes their columns and puts them in node order, and
    one product with layout.summing adds each node's rows in family order."""
    X = x.reshape(op.m, op.n - 1) @ op.basis.T
    Y = layout.summing @ layout.product(X).take(gather)
    return (Y @ op.basis).ravel()


def matvec(op: CoverOperator, x) -> np.ndarray:
    """Apply the operator to a flat vector of op.dimension entries."""
    x = np.asarray(x, dtype=float)
    if x.shape != (op.dimension,):
        raise ValueError(f"expected shape ({op.dimension},), got {x.shape}")
    return _apply(op, op.blocks.layout, op.gather, x)


# ------------------------------------------------------------------ Krylov


class KrylovConvergenceError(RuntimeError):
    """Iteration cap hit; carries the best estimate and its residual."""

    def __init__(self, best_estimate: float, residual: float, iterations: int):
        self.best_estimate = best_estimate
        self.residual = residual
        self.iterations = iterations
        super().__init__(
            f"no convergence after {iterations} iterations: "
            f"best estimate {best_estimate:.12g}, residual {residual:.3g}"
        )


@dataclass(frozen=True)
class LanczosResult:
    top: float
    top_residual: float
    iterations: int


def _top_residual_estimate(alphas: np.ndarray, betas: np.ndarray, j: int) -> float:
    """beta_j |u_last| for the top Ritz pair of T_j (diagonal alphas[:j+1],
    off-diagonal betas[:j]), from LAPACK bisection for the top eigenvalue
    alone and inverse iteration for its vector: close to eigh_tridiagonal's
    residual, not bit for bit. 0 where either routine reports a failure."""
    d, e = alphas[: j + 1], betas[:j]
    found, w, block, split, info = dstebz(d, e, 2, 0.0, 0.0, j + 1, j + 1, 0.0, "B")
    if info or found != 1:
        return 0.0
    u, info = dstein(d, e, w[:1], block, split)
    return 0.0 if info else float(betas[j]) * abs(float(u[-1, 0]))


def _lanczos_top(apply, dim: int, seed, maxiter: int = 400) -> LanczosResult:
    """Top eigenvalue of a symmetric operator by Lanczos with full
    reorthogonalization and a deterministic seeded start vector.

    Stops at the first step j whose top Ritz residual beta_j |u_last| is at
    most KRYLOV_TOL times the largest |Ritz value| (scale), whose beta_j is
    at most 1e-14 max(1, scale), or that exhausts the space. The full Ritz
    solve of step j (eigh_tridiagonal on alphas[:j+1], betas[:j]) runs only
    near where the loop can stop: at step 0, at the cap (exhaustion is the
    cap, as cap = min(maxiter, dim)) and where the cheap residual estimate
    (_top_residual_estimate) is at most 20 KRYLOV_TOL G, with
    G = max(1, max|alpha| + 2 max beta) a Gershgorin bound on scale. That
    takes in every step with beta_j <= 1e-14 G, as the estimate is 0 or at
    most beta_j (u has unit norm), and the factor 20 makes the first full
    solve come a step or more before the stop. Once a tested step stops, or
    the cap is reached, the untested steps since the last test are tested
    in order on the leading slices and the first that stops is returned, so
    the result (or KrylovConvergenceError) is that of testing every step,
    bit for bit, even where the estimate misjudges a step; only such a
    step costs Lanczos steps past the stop.
    """
    if dim < 1:
        raise ValueError("operator has an empty fiber")
    cap = min(maxiter, dim)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    V = np.empty((cap + 1, dim))
    V[0] = v
    alphas, betas = np.empty(cap), np.empty(cap)

    def ritz(j):
        """(stops, top, residual) of step j."""
        theta, U = eigh_tridiagonal(alphas[: j + 1], betas[:j])
        top = float(theta[-1])
        res_top = float(betas[j]) * abs(float(U[-1, -1]))
        scale = max(abs(top), abs(float(theta[0])))
        stops = (res_top <= KRYLOV_TOL * scale or betas[j] <= 1e-14 * max(1.0, scale)
                 or j + 1 == dim)
        return stops, top, res_top

    a_max = b_max = 0.0
    last = -1  # the last tested step
    for j in range(cap):
        w = apply(V[j])
        if j:
            w = w - betas[j - 1] * V[j - 1]
            b_max = max(b_max, betas[j - 1])
        a = float(V[j] @ w)
        alphas[j] = a
        a_max = max(a_max, abs(a))
        w = w - a * V[j]
        for _ in range(2):  # full reorthogonalization, twice is enough
            w = w - V[: j + 1].T @ (V[: j + 1] @ w)
        b = betas[j] = float(np.linalg.norm(w))
        gershgorin = max(1.0, a_max + 2.0 * b_max)
        if (j == 0 or j + 1 == cap
                or _top_residual_estimate(alphas, betas, j) <= 20.0 * KRYLOV_TOL * gershgorin):
            stops, top, res_top = ritz(j)
            if stops or j + 1 == cap:
                for s in range(last + 1, j):
                    out = ritz(s)
                    if out[0]:
                        return LanczosResult(out[1], out[2], s + 1)
                if stops:
                    return LanczosResult(top, res_top, j + 1)
                raise KrylovConvergenceError(top, res_top, cap)
            last = j
        V[j + 1] = w / b
    raise AssertionError("unreachable: the cap is always tested")


# ------------------------------------------------------------- estimation


@dataclass(frozen=True)
class SpectralEstimate:
    """Gap estimate from one cover operator.

    lambda_lower_bound = 1/4 - a^2 with a read off the inverse transform of
    op_norm clamped to [h_t(0), ball area]. When the norm exceeds the peak
    the same number is reported as the estimated first new eigenvalue; the
    linearized bound 1/4 - (norm - peak)/c(t) is a strictly weaker
    cross-check.
    """

    op_norm: float
    lambda_lower_bound: float
    lambda_exact_if_below_quarter: Optional[float]
    linearized_lower_bound: float
    krylov_residual: float
    metadata: dict


def estimate_gap(op: CoverOperator, seed=0) -> SpectralEstimate:
    """Invert the top norm of a cover operator to a gap bound.

    A norm above the lambda = 0 transform value (the ball area) cannot be
    inverted.  Covers with more than one component keep the constant
    direction inside the mean-zero fiber, and the discretized constant
    eigenvalue can legitimately sit above the continuum ball area, so the
    estimate clamps to the parameter edge (lambda bound 0) as long as the
    norm stays below the operator's own row-sum certificate; only a norm
    beyond that certificate is flagged as inconsistent input.
    """
    t = op.blocks.t
    ext = _lanczos_top(lambda x: matvec(op, x), op.dimension, seed)
    v = ext.top
    peak = selberg_h(t, SpectralParameter.real(0.0)).value
    ball = ball_area(t)  # h_t(i/2)
    ceiling = op.blocks.rowsum_ceiling
    if v > max(ball * (1.0 + 1e-6) + 1e-9, ceiling * (1.0 + 1e-9)):
        raise ValueError(
            f"value {v} exceeds the lambda=0 transform {ball} and the "
            f"row-sum certificate {ceiling}: inconsistent with a ball "
            f"kernel of this radius"
        )
    a = invert_h(t, min(v, ball)).value
    lam = 0.25 - a * a
    c = gap_lower_bound_coefficient(t)
    return SpectralEstimate(
        op_norm=v,
        lambda_lower_bound=lam,
        lambda_exact_if_below_quarter=lam if v > peak else None,
        linearized_lower_bound=0.25 - max(v - peak, 0.0) / c,
        krylov_residual=ext.top_residual,
        metadata={"iterations": ext.iterations},
    )


# ------------------------------------------------------------- truncation


def _stacked_csr(pieces, width: int) -> csr_matrix:
    """The dense pieces stacked by rows as one CSR matrix, each piece's
    columns at its own column indices (increasing), every entry stored."""
    data = np.concatenate([P.ravel() for P, _ in pieces])
    indices = np.concatenate([np.tile(c, len(P)) for P, c in pieces])
    counts = np.concatenate([np.full(len(P), len(c)) for P, c in pieces])
    indptr = np.concatenate([[0], np.cumsum(counts)])
    return csr_matrix((data, indices, indptr), shape=(len(counts), width))


def _pair_factors(family: BlockFamily, ranks) -> list:
    """svd_truncate's (left, right, rows, cols, errors) for every block in
    family order, from one call per inverse-partner pair: the first block
    A_i of a pair is factored, and its partner A_j = A_i^T takes (right.T,
    left.T, cols, rows, errors), whose rank-r truncations are A_i's
    transposed, with the same sigma_{r+1}."""
    factors = [None] * len(family)
    for i, j in enumerate(family.partners):
        if factors[i] is None:
            left, right, rows, cols, errors = factors[i] = svd_truncate(family[i], ranks)
            if j != i:
                factors[j] = (right.T, left.T, cols, rows, errors)
    return factors


def _truncated_layout(family: BlockFamily, factors, j: int, r: int) -> RowLayout:
    """RowLayout of the rank-r truncation, r = ranks[j], on every block's
    nonzero rows, each block in the cheapest exact form of its truncation,
    q = min(r, number of its factors):
    - sigma_{r+1} = 0: the block itself, from the family's exact_rows, as
      matvec applies it;
    - rows x cols dense by the family's storage rule (SPARSE_DENSITY):
      L[:, :q] @ (R[:q] @ X[cols]) by BLAS, as the family layout applies
      its dense blocks;
    - otherwise two CSR products shared by all such blocks: the first q
      rows of each right factor, stacked at the block's nonzero columns,
      then the first q columns of each left factor, block-diagonal.
    CSR sums each row in index order, so every partial row is
    bit-identical to that block's own product in its form."""
    m = family.m
    exact, thin, dense = [], [], []
    for b, (_, _, rows, cols, errors) in enumerate(factors):
        if errors[j] == 0.0:
            exact.append(b)
        elif len(rows) * len(cols) >= SPARSE_DENSITY * m * m:
            dense.append(b)
        else:
            thin.append(b)
    block, node, products = ([[part] for part in family.exact_rows(exact)] if exact
                             else ([], [], []))
    block += [np.full(len(factors[b][2]), b) for b in thin + dense]
    node += [factors[b][2] for b in thin + dense]
    if thin:
        # down (sum q x m) takes X to every block's first q right-factor
        # coordinates, up (sum |rows| x sum q) back to its nonzero rows
        q = [min(r, factors[b][0].shape[1]) for b in thin]
        offset = np.cumsum([0] + q)
        down = _stacked_csr([(factors[b][1][:k], factors[b][3]) for b, k in zip(thin, q)], m)
        up = _stacked_csr([(factors[b][0][:, :k], np.arange(s, s + k))
                           for b, k, s in zip(thin, q, offset)], offset[-1])
        products.append(lambda X: up @ (down @ X))
    for b in dense:
        L, R, _, cols, _ = factors[b]
        k = min(r, L.shape[1])
        products.append(lambda X, L=L[:, :k], R=R[:k], cols=cols: L @ (R @ X[cols]))
    return RowLayout.of(m, np.concatenate(block), np.concatenate(node),
                        lambda X: np.concatenate([p(X) for p in products]))


def truncation_components(op: CoverOperator, ranks, seed=0) -> list:
    """Truncated-operator norm plus the error-budget pieces, one record per
    rank in ranks, from one svd_truncate per inverse-partner pair
    (_pair_factors): a partner's truncation is the transpose of its first
    block's, so every truncated operator is symmetric even where singular
    values tie, apart from the identity block's own ties (README,
    truncation-study). Every rank goes through the same _apply as matvec
    with the layout of _truncated_layout."""
    if not ranks:
        return []
    family = op.blocks
    factors = _pair_factors(family, ranks)
    hs_total = sum(b.hs_norm for b in family)
    records = []
    for j, r in enumerate(ranks):
        layout = _truncated_layout(family, factors, j, r)
        apply = functools.partial(_apply, op, layout, layout.gather(op.perm_images))
        res = _lanczos_top(apply, op.dimension, seed)
        sigma_total = sum(f[4][j] for f in factors)
        records.append({
            "r": r,
            "truncated_top": res.top,
            "certified_gap": 2.0 * sigma_total,
            "hs_reference": hs_total / math.sqrt(r),
            "bound": res.top + sigma_total,
        })
    return records
