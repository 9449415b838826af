"""Discretization of functions on the fundamental polygon.

A quadrature grid subdivides the octagon into geodesic triangles with one
node per cell and the cell's exact hyperbolic area as weight, so the weights
sum to the Gauss-Bonnet area 4*pi*(genus-1) up to roundoff. Kernel blocks
are assembled in symmetrized Nystrom form sqrt(w_j) k(z_j, gamma z_k)
sqrt(w_k), which keeps the global operator exactly symmetric, and truncated
by SVD with the Hilbert-Schmidt certificate sigma_{r+1} <= hs / sqrt(r).
"""

import functools
import math
from dataclasses import dataclass, field
from typing import List

import numpy as np
from scipy.sparse import csr_matrix, issparse, vstack

from .hyperbolic import (
    HPoint,
    ball_candidates,
    disk_tree,
    distance,
    geodesic_point,
    mobius_apply,
    pairwise_cosh_distance,
)
from .surface_group import (
    FuchsianRealization,
    SurfacePresentation,
    dehn_reduce,
    inverse_word,
)

SPARSE_DENSITY = 0.25


@dataclass
class QuadratureGrid:
    points: List[HPoint]
    weights: np.ndarray
    m: int
    xy: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        if len(self.points) != self.m or len(self.weights) != self.m:
            raise ValueError("inconsistent grid sizes")
        if not (self.weights > 0).all():
            raise ValueError("weights must be positive")
        if self.xy is None:
            self.xy = np.array([[p.x, p.y] for p in self.points])

    @functools.cached_property
    def tree(self):
        """disk_tree of the nodes, built on first use and shared by every
        translate's block."""
        return disk_tree(self.xy)


def _triangle_area(A: HPoint, B: HPoint, C: HPoint) -> float:
    """Angle deficit pi - alpha - beta - gamma via the law of cosines."""
    a = distance(B, C)
    b = distance(A, C)
    c = distance(A, B)

    def angle(p, q, opp):
        cos = (math.cosh(p) * math.cosh(q) - math.cosh(opp)) / (
            math.sinh(p) * math.sinh(q)
        )
        return math.acos(min(1.0, max(-1.0, cos)))

    return math.pi - angle(b, c, a) - angle(a, c, b) - angle(a, b, c)


def _triangle_node(A: HPoint, B: HPoint, C: HPoint) -> HPoint:
    """Approximate hyperbolic centroid: 2/3 along the median from A."""
    return geodesic_point(A, geodesic_point(B, C, 0.5), 2.0 / 3.0)


def build_grid(real: FuchsianRealization, target_m: int) -> QuadratureGrid:
    """Fan-triangulate the polygon from the base point and subdivide each of
    the 8 fan triangles into k^2 geodesic cells, k chosen so 8 k^2 is as
    close to target_m as possible. One node per cell at the approximate
    centroid, weight = the cell's exact area (angle deficit), so the weight
    sum hits 4 pi at machine precision rather than the 1% contract.
    """
    if target_m < 50:
        raise ValueError("target_m must be at least 50")
    k = max(1, int(round(math.sqrt(target_m / 8.0))))
    if abs(8 * (k + 1) ** 2 - target_m) < abs(8 * k * k - target_m):
        k += 1

    verts = real.domain_vertices
    center = real.base_point
    points, weights = [], []
    for j in range(len(verts)):
        vL, vR = verts[j], verts[(j + 1) % len(verts)]
        # rows of vertices from the apex toward the far side
        rows = [[center]]
        for i in range(1, k + 1):
            L = geodesic_point(center, vL, i / k)
            R = geodesic_point(center, vR, i / k)
            row = [geodesic_point(L, R, jj / i) for jj in range(i)] + [R]
            rows.append(row)
        for i in range(k):
            for jj in range(i + 1):
                tri = (rows[i][jj], rows[i + 1][jj], rows[i + 1][jj + 1])
                points.append(_triangle_node(*tri))
                weights.append(_triangle_area(*tri))
                if jj < i:
                    tri = (rows[i][jj], rows[i][jj + 1], rows[i + 1][jj + 1])
                    points.append(_triangle_node(*tri))
                    weights.append(_triangle_area(*tri))
    return QuadratureGrid(points=points, weights=np.array(weights), m=len(points))


@dataclass
class OperatorBlock:
    """One translate's Nystrom block sqrt(w_j) 1[d(z_j, gamma z_k) <= t] sqrt(w_k)."""

    gamma: tuple  # (word, Isometry)
    matrix: object  # dense ndarray or csr_matrix
    hs_norm: float
    t: float

    def dense(self) -> np.ndarray:
        if issparse(self.matrix):
            return self.matrix.toarray()
        return self.matrix

    @functools.cached_property
    def svd(self):
        """Thin SVD (U, s, Vt) of the dense block, computed once and shared
        by every truncation rank; the factors are read-only so that no rank
        can corrupt what the others read."""
        factors = np.linalg.svd(self.dense(), full_matrices=False)
        for f in factors:
            f.flags.writeable = False
        return factors

    @property
    def is_sparse(self) -> bool:
        return issparse(self.matrix)

    @property
    def is_zero(self) -> bool:
        return self.hs_norm == 0.0


def assemble_block(gamma, t: float, grid: QuadratureGrid) -> OperatorBlock:
    """Indicator-kernel block for one translate, stored sparse below 25%
    density. The kernel is compared on the cosh scale, matching ball_kernel.

    Only the node pairs that ball_candidates returns for the grid's tree are
    tested; they include every pair within cosh t, so the kept pairs are
    exactly those of the full m x m test. Sorted by row and then column they
    are in CSR order, and the Hilbert-Schmidt norm sums the full m x m array
    of squares, so both are bit-identical to the dense build.
    """
    word, M = gamma
    image = mobius_apply(M.m, grid.xy)
    cosh_t = math.cosh(t)
    i, j = ball_candidates(grid.tree, image, cosh_t)
    keep = pairwise_cosh_distance(grid.xy[i, None], image[j, None]).ravel() <= cosh_t
    i, j = i[keep], j[keep]
    order = np.lexsort((j, i))
    i, j = i[order], j[order]
    sqw = np.sqrt(grid.weights)
    m = grid.m
    vals = sqw[i] * sqw[j]
    mat = np.zeros((m, m))
    mat[i, j] = vals
    hs = float(np.sqrt((mat * mat).sum()))
    if len(i) / (m * m) < SPARSE_DENSITY:
        indptr = np.searchsorted(i, np.arange(m + 1))
        mat = csr_matrix((vals, j, indptr), shape=(m, m))
    return OperatorBlock(gamma=gamma, matrix=mat, hs_norm=hs, t=t)


class BlockFamily(tuple):
    """The translate blocks of one sweep, validated once for every cover.

    The blocks share one grid size m and radius t, their words use the
    letters of the genus-2 octagon group, and the family is closed under
    gamma -> gamma^-1 with transposed matrices, which makes every cover
    operator built from it symmetric.

    rowsum_ceiling is the Collatz-Wielandt bound max_j (T u)_j / u_j on the
    top eigenvalue of any cover operator T built from the family.  T is
    entrywise nonnegative, so any positive test vector certifies an upper
    bound.  The identity translate's diagonal is exactly the quadrature
    weight vector, and u = sqrt(w) (x) 1 makes the ratios row sums of the
    scalar grid operator, i.e. per-node quadrature estimates of the ball
    area.  Falls back to u = 1 if no identity block is present.
    """

    genus = 2  # every block is a translate of the Bolza octagon

    def __new__(cls, blocks):
        self = super().__new__(cls, blocks)
        if not self:
            raise ValueError("no blocks supplied")
        m, t = self[0].matrix.shape[0], self[0].t
        pres = SurfacePresentation(genus=cls.genus)
        by_word = {}
        for b in self:
            word = tuple(b.gamma[0])
            if b.matrix.shape != (m, m) or b.t != t:
                raise ValueError("inconsistent block family")
            if any(abs(letter) > 2 * cls.genus for letter in word):
                raise ValueError("block word uses letters outside the generators")
            by_word[word] = b
        for word, b in by_word.items():
            partner = by_word.get(dehn_reduce(inverse_word(word), pres))
            if partner is None:
                raise ValueError(f"family is not inverse-closed at {word}")
            dev = abs(b.matrix.T - partner.matrix).max()
            if dev > 1e-10 * max(1.0, b.hs_norm):
                raise ValueError(f"adjoint block mismatch at {word}: {dev}")
        u = np.ones(m)
        for b in self:
            if not b.gamma[0]:
                diag = b.matrix.diagonal()
                if np.all(diag > 0):
                    u = np.sqrt(diag)
                break
        s = np.zeros(m)
        for b in self:
            s += b.matrix.dot(u)
        self.m, self.t = m, t
        self.rowsum_ceiling = float(np.max(s / u))
        return self

    @functools.cached_property
    def stacked(self):
        """The sparse blocks vstacked in family order as one (k m) x m CSR
        matrix, or None if every block is dense; built on first use."""
        sparse = [b.matrix for b in self if b.is_sparse]
        return vstack(sparse, format="csr") if sparse else None

    def block_products(self, X: np.ndarray) -> list:
        """A_gamma X for every block, in family order, each bit-identical to
        b.matrix.dot(X): the sparse blocks come from one product with
        `stacked`, whose rows sum their entries in the blocks' own order,
        and a dense block keeps its own dot, since CSR would sum it in
        another order."""
        parts = iter(())
        if self.stacked is not None:
            parts = iter((self.stacked @ X).reshape(-1, self.m, X.shape[1]))
        return [next(parts) if b.is_sparse else b.matrix.dot(X) for b in self]


def assemble_support_blocks(support, t: float, grid: QuadratureGrid) -> BlockFamily:
    """Blocks for every element of a support set, dropping all-zero ones
    (their translate's qualifying region missed every node pair)."""
    blocks = [assemble_block(g, t, grid) for g in support.elements]
    return BlockFamily(b for b in blocks if not b.is_zero)


@dataclass
class TruncatedBlock:
    left_factors: np.ndarray
    singular_values: np.ndarray
    right_factors: np.ndarray
    op_error_bound: float

    def dense(self) -> np.ndarray:
        return (self.left_factors * self.singular_values) @ self.right_factors


def svd_truncate(block: OperatorBlock, r: int) -> TruncatedBlock:
    """Best rank-r approximation, sliced from the block's cached SVD; the
    discarded top singular value is the spectral-norm error and is
    certified <= hs_norm / sqrt(r) because
    (r+1) sigma_{r+1}^2 <= sum sigma_j^2 = hs_norm^2."""
    if r < 1:
        raise ValueError("rank must be at least 1")
    U, s, Vt = block.svd
    bound = s[r] if r < len(s) else 0.0
    cert = block.hs_norm / math.sqrt(r)
    if bound > cert * (1.0 + 1e-9) + 1e-12:
        raise RuntimeError(
            f"sigma_{r + 1} = {bound} exceeds hs/sqrt(r) = {cert}: "
            "inconsistent SVD or hs_norm"
        )
    keep = min(r, len(s))
    return TruncatedBlock(
        left_factors=U[:, :keep],
        singular_values=s[:keep],
        right_factors=Vt[:keep],
        op_error_bound=bound,
    )
