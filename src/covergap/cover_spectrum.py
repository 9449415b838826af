"""Tensor operators on covers and their spectral-gap estimates.

A cover is described by generator images in S_n. The ball kernel on the
cover acts, after Nystrom discretization, as T = sum_gamma A_gamma (x)
rho(gamma^-1) with A_gamma the translate blocks and rho the permutation
action on the fiber. Its top eigenvalue feeds the inverse Selberg
transform to produce a lower bound on the first new Laplacian eigenvalue.
"""

import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .domain import BlockFamily, assemble_support_blocks, build_grid, svd_truncate
from .selberg import (
    SpectralParameter,
    gap_lower_bound_coefficient,
    invert_h,
    selberg_h,
)
from .surface_group import (
    build_bolza_realization,
    concat,
    dehn_reduce,
    lattice_points,
    support_set,
)
from .symmetric_group import HomTuple, evaluate_word

MEAN_ZERO = "mean-zero"
FULL = "full"


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
    """Immutable assembled operator sum A_gamma (x) rho(gamma^-1)."""

    blocks: BlockFamily
    hom: HomTuple
    fiber: str
    m: int
    n: int
    t: float
    dimension: int
    perm_images: tuple = field(repr=False, default=())
    basis: Optional[np.ndarray] = field(repr=False, default=None)


def build_cover_operator(blocks, hom: HomTuple, fiber: str = MEAN_ZERO) -> CoverOperator:
    """Pair translate blocks with a generator tuple.

    A BlockFamily is reused as it is; any other sequence of blocks is
    validated into one first. Requires the tuple to satisfy the surface
    relation of the family's genus, otherwise the words labelling the
    blocks would not map to well-defined permutations.
    """
    if fiber not in (MEAN_ZERO, FULL):
        raise ValueError(f"unknown fiber {fiber!r}")
    family = blocks if isinstance(blocks, BlockFamily) else BlockFamily(blocks)
    if not hom.relation_ok:
        raise ValueError("generator images must satisfy the surface relation")
    if hom.genus != family.genus:
        raise ValueError(
            f"genus-{hom.genus} tuple cannot label genus-{family.genus} blocks")
    perms = tuple(
        np.asarray(evaluate_word(hom, b.gamma[0]).images0, dtype=np.intp)
        for b in family
    )
    m, n = family.m, hom.n
    if fiber == MEAN_ZERO:
        dim = m * (n - 1)
        basis = _mean_zero_basis(n) if n > 1 else None
    else:
        dim = m * n
        basis = None
    return CoverOperator(
        blocks=family, hom=hom, fiber=fiber, m=m, n=n, t=family.t,
        dimension=dim, perm_images=perms, basis=basis,
    )


def _apply(op: CoverOperator, products, x: np.ndarray) -> np.ndarray:
    """sum_gamma (A_gamma X) with fiber columns permuted by phi(gamma), in
    the operator's fiber coordinates; products[k](X) computes A_gamma X for
    the k-th block."""
    if op.fiber == MEAN_ZERO:
        X = x.reshape(op.m, op.n - 1) @ op.basis.T
    else:
        X = x.reshape(op.m, op.n)
    Y = np.zeros_like(X)
    for product, idx in zip(products, op.perm_images):
        Y += product(X)[:, idx]
    if op.fiber == MEAN_ZERO:
        Y = Y @ op.basis
    return Y.ravel()


def matvec(op: CoverOperator, x) -> np.ndarray:
    """Apply the operator to a flat vector of op.dimension entries."""
    x = np.asarray(x, dtype=float)
    if x.shape != (op.dimension,):
        raise ValueError(f"expected shape ({op.dimension},), got {x.shape}")
    if op.dimension == 0:
        return np.zeros(0)
    return _apply(op, [b.matrix.dot for b in op.blocks], x)


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
    bottom: float
    top_residual: float
    bottom_residual: float
    iterations: int


def _lanczos_extremes(apply, dim: int, seed, tol: float = 1e-8,
                      maxiter: Optional[int] = None) -> LanczosResult:
    """Extreme eigenvalues of a symmetric operator by Lanczos with full
    reorthogonalization and a deterministic seeded start vector.

    Converges on the top Ritz pair (residual beta |u_last| <= tol * scale);
    the bottom estimate is reported with its own residual as a diagnostic.
    """
    if dim < 1:
        raise ValueError("operator has an empty fiber")
    cap = min(maxiter if maxiter is not None else 400, dim)
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
        for _ in range(2):  # full reorthogonalization, twice is enough
            w = w - V[: j + 1].T @ (V[: j + 1] @ w)
        b = float(np.linalg.norm(w))
        theta, U = eigh_tridiagonal(np.array(alphas), np.array(betas))
        top, bottom = float(theta[-1]), float(theta[0])
        res_top = b * abs(float(U[-1, -1]))
        res_bot = b * abs(float(U[-1, 0]))
        scale = max(abs(top), abs(bottom))
        exhausted = j + 1 == dim
        if res_top <= tol * scale or b <= 1e-14 * max(1.0, scale) or exhausted:
            return LanczosResult(top, bottom, res_top, res_bot, j + 1)
        betas.append(b)
        beta_prev = b
        V[j + 1] = w / b
    raise KrylovConvergenceError(top, res_top, cap)


def top_norm(op: CoverOperator, seed=0, tol: float = 1e-8,
             maxiter: Optional[int] = None) -> float:
    """Largest eigenvalue of the symmetric cover operator."""
    res = _lanczos_extremes(lambda x: matvec(op, x), op.dimension, seed,
                            tol=tol, maxiter=maxiter)
    return res.top


# ------------------------------------------------------------- estimation


@dataclass(frozen=True)
class SpectralEstimate:
    """Gap estimate from one cover operator.

    lambda_lower_bound = 1/4 - a^2 with a read off the inverse transform of
    max(op_norm, peak). When the norm exceeds the peak the same number is
    reported as the estimated first new eigenvalue; the linearized bound
    1/4 - (norm - peak)/c(t) is a strictly weaker cross-check.
    """

    op_norm: float
    peak_baseline: float
    param: SpectralParameter
    lambda_lower_bound: float
    lambda_exact_if_below_quarter: Optional[float]
    linearized_lower_bound: float
    krylov_residual: float
    metadata: dict

    def to_json(self) -> str:
        return json.dumps(
            {
                "op_norm": self.op_norm,
                "peak_baseline": self.peak_baseline,
                "param": {
                    "kind": self.param.kind,
                    "value": self.param.value,
                    "clamped": self.param.clamped,
                },
                "lambda_lower_bound": self.lambda_lower_bound,
                "lambda_exact_if_below_quarter": self.lambda_exact_if_below_quarter,
                "linearized_lower_bound": self.linearized_lower_bound,
                "krylov_residual": self.krylov_residual,
                "metadata": self.metadata,
            }
        )


def estimate_gap(op: CoverOperator, t: Optional[float] = None, seed=0) -> SpectralEstimate:
    """Invert the top norm of a mean-zero-fiber operator to a gap bound.

    A norm above the lambda = 0 transform value (the ball area) cannot be
    inverted.  Covers with more than one component keep the constant
    direction inside the mean-zero fiber, and the discretized constant
    eigenvalue can legitimately sit above the continuum ball area, so the
    estimate clamps to the parameter edge (lambda bound 0) as long as the
    norm stays below the operator's own row-sum certificate; only a norm
    beyond that certificate is flagged as inconsistent input.
    """
    if op.fiber != MEAN_ZERO:
        raise ValueError("gap estimation needs the mean-zero fiber")
    t = op.t if t is None else t
    ext = _lanczos_extremes(lambda x: matvec(op, x), op.dimension, seed)
    v = ext.top
    peak = selberg_h(t, SpectralParameter.real(0.0)).value
    ball = selberg_h(t, SpectralParameter.imaginary(0.5)).value
    ceiling = op.blocks.rowsum_ceiling
    if v > max(ball * (1.0 + 1e-6) + 1e-9, ceiling * (1.0 + 1e-9)):
        raise ValueError(
            f"value {v} exceeds the lambda=0 transform {ball} and the "
            f"row-sum certificate {ceiling}: inconsistent with a ball "
            f"kernel of this radius"
        )
    if v > ball:
        param = SpectralParameter("imaginary", 0.5, clamped=True)
    else:
        param = invert_h(t, max(v, peak))
    a = param.value
    lam = 0.25 - a * a
    c = gap_lower_bound_coefficient(t)
    return SpectralEstimate(
        op_norm=v,
        peak_baseline=peak,
        param=param,
        lambda_lower_bound=lam,
        lambda_exact_if_below_quarter=lam if v > peak else None,
        linearized_lower_bound=0.25 - max(v - peak, 0.0) / c,
        krylov_residual=ext.top_residual,
        metadata={
            "n": op.n,
            "t": t,
            "m": op.m,
            "seed": seed,
            "transitive": op.hom.transitive,
            "most_negative": ext.bottom,
            "most_negative_residual": ext.bottom_residual,
            "iterations": ext.iterations,
            "rowsum_ceiling": ceiling,
        },
    )


# ------------------------------------------------------------- truncation


def _factored_product(tb):
    """X -> B^(r) X through the rank-r factors, never forming B^(r)."""
    Ls, R = tb.left_factors * tb.singular_values, tb.right_factors
    return lambda X: Ls @ (R @ X)


def truncation_components(op: CoverOperator, r: int, seed=0) -> dict:
    """Truncated-operator norm plus the error-budget pieces for rank r."""
    truncs = [svd_truncate(b, r) for b in op.blocks]
    sigma_total = sum(tb.op_error_bound for tb in truncs)
    products = [_factored_product(tb) for tb in truncs]
    res = _lanczos_extremes(lambda x: _apply(op, products, x), op.dimension, seed)
    hs_ref = sum(b.hs_norm for b in op.blocks) / math.sqrt(r)
    return {
        "r": r,
        "truncated_top": res.top,
        "sigma_error_total": sigma_total,
        "certified_gap": 2.0 * sigma_total,
        "hs_reference": hs_ref,
        "bound": res.top + sigma_total,
    }


# --------------------------------------------------------------- baseline


def cayley_ball_rayleigh(real, t: float, radius: float = 6.0,
                         grid_target: int = 50, seed=0) -> float:
    """Top eigenvalue of the finite section of the group-translation analog
    of the cover operator, on grid (x) ball-of-words coordinates.

    This is a variational lower bound for the plane operator norm: the
    section is a compression, so its top eigenvalue cannot exceed the peak
    transform value.
    """
    grid = build_grid(real, grid_target)
    blocks = assemble_support_blocks(support_set(real, t), t, grid)
    ball = lattice_points(real, radius)
    words = [tuple(w) for w in ball.words()]
    index = {w: i for i, w in enumerate(words)}
    pres = real.presentation
    terms = []
    for b in blocks:
        G, H = [], []
        for gi, wg in enumerate(words):
            wh = tuple(dehn_reduce(concat(b.gamma[0], wg), pres))
            hi = index.get(wh)
            if hi is not None:
                G.append(gi)
                H.append(hi)
        if G:
            terms.append((b.matrix, np.array(G), np.array(H)))
    m, nb = grid.m, len(words)

    def apply(x):
        X = x.reshape(m, nb)
        Y = np.zeros_like(X)
        for mat, G, H in terms:
            Y[:, G] += mat.dot(X[:, H])
        return Y.ravel()

    return _lanczos_extremes(apply, m * nb, seed).top


def regular_baseline(t: float, radius: float = 6.0, grid_target: int = 50,
                     probe: bool = True, seed=0) -> float:
    """Peak transform value h_t(0), the group-translation operator norm.

    With probe on, a Cayley-ball Rayleigh quotient is computed and checked
    against the peak from below.
    """
    peak = selberg_h(t, SpectralParameter.real(0.0)).value
    if probe:
        emp = cayley_ball_rayleigh(build_bolza_realization(), t,
                                   radius=radius, grid_target=grid_target,
                                   seed=seed)
        if not emp <= peak + 1e-6:
            raise RuntimeError(f"variational bound {emp} above peak {peak}")
    return peak
