"""Discretization of functions on the fundamental polygon.

A quadrature grid has one node per geodesic cell of the polygon's fan mesh
(fan_mesh) and the cell's exact hyperbolic area as weight, so the weights
sum to the Gauss-Bonnet area 4*pi*(genus-1) up to roundoff. Kernel blocks
are assembled in symmetrized Nystrom form sqrt(w_j) k(z_j, gamma z_k)
sqrt(w_k), which keeps the global operator exactly symmetric, and truncated
by SVD with the Hilbert-Schmidt certificate sigma_{r+1} <= hs / sqrt(r).
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix, issparse, vstack

from .hyperbolic import (
    ball_candidates,
    disk_tree,
    distance,
    geodesic_point,
    mobius_apply,
    pairwise_cosh_distance,
)
from .surface_group import BASE_POINT, FuchsianRealization

SPARSE_DENSITY = 0.25
ROW_CHUNK = 512  # translated nodes per candidate-and-keep pass of assemble_block


@dataclass
class QuadratureGrid:
    xy: np.ndarray  # (m, 2): x and y of each node in the upper half-plane
    weights: np.ndarray
    m: int
    tree: object = field(init=False, repr=False)  # disk_tree of the nodes

    def __post_init__(self):
        self.xy = np.asarray(self.xy, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        if self.xy.shape != (self.m, 2) or len(self.weights) != self.m:
            raise ValueError("inconsistent grid sizes")
        if not (self.weights > 0).all():
            raise ValueError("weights must be positive")
        self.tree = disk_tree(self.xy)


def _triangle_area(A, B, C) -> float:
    """Angle deficit pi - alpha - beta - gamma of the triangle of three
    (x, y) points, via the law of cosines."""
    a = distance(B, C)
    b = distance(A, C)
    c = distance(A, B)

    def angle(p, q, opp):
        cos = (math.cosh(p) * math.cosh(q) - math.cosh(opp)) / (
            math.sinh(p) * math.sinh(q)
        )
        return math.acos(min(1.0, max(-1.0, cos)))

    return math.pi - angle(b, c, a) - angle(a, c, b) - angle(a, b, c)


def _triangle_node(A, B, C) -> tuple:
    """Approximate hyperbolic centroid: 2/3 along the median from A."""
    return geodesic_point(A, geodesic_point(B, C, 0.5), 2.0 / 3.0)


def fan_mesh(real: FuchsianRealization, k: int) -> tuple:
    """Half-plane vertices (V, 2) and triangles (T, 3) of the polygon's fan
    triangulation: one fan triangle from the base point per side, each cut
    into k^2 geodesic cells. Each fan has its own vertices: row i runs from
    geodesic_point(L, R, 0.0), a few ulps off the spoke point L, to the
    spoke point R, so the apex and the spoke points repeat across fans."""
    verts = real.domain_vertices.tolist()  # Python floats for geodesic_point
    points = []
    for j in range(len(verts)):
        vL, vR = verts[j], verts[(j + 1) % len(verts)]
        # rows of i + 1 vertices from the apex toward the far side
        points.append(BASE_POINT)
        for i in range(1, k + 1):
            L = geodesic_point(BASE_POINT, vL, i / k)
            R = geodesic_point(BASE_POINT, vR, i / k)
            points += [geodesic_point(L, R, jj / i) for jj in range(i)] + [R]
    fan = []
    for i in range(k):
        r, s = i * (i + 1) // 2, (i + 1) * (i + 2) // 2  # first vertex of rows i, i + 1
        for jj in range(i + 1):
            fan.append((r + jj, s + jj, s + jj + 1))
            if jj < i:
                fan.append((r + jj, r + jj + 1, s + jj + 1))
    offsets = len(points) // len(verts) * np.arange(len(verts))
    return np.array(points), (np.array(fan) + offsets[:, None, None]).reshape(-1, 3)


def build_grid(real: FuchsianRealization, target_m: int) -> QuadratureGrid:
    """One node per cell of fan_mesh, k chosen so that sides * k^2 is as
    close to target_m as possible: the cell's approximate centroid, with
    the cell's exact area (angle deficit) as weight, so the weight sum hits
    4 pi at machine precision rather than the 1% contract."""
    if target_m < 50:
        raise ValueError("target_m must be at least 50")
    sides = len(real.domain_vertices)
    k = max(1, int(round(math.sqrt(target_m / sides))))
    if abs(sides * (k + 1) ** 2 - target_m) < abs(sides * k * k - target_m):
        k += 1
    points, tris = fan_mesh(real, k)
    points = points.tolist()  # Python floats for geodesic_point
    nodes, weights = [], []
    for a, b, c in zip(*tris.T.tolist()):
        cell = points[a], points[b], points[c]
        nodes.append(_triangle_node(*cell))
        weights.append(_triangle_area(*cell))
    return QuadratureGrid(xy=np.array(nodes), weights=np.array(weights), m=len(nodes))


@dataclass
class OperatorBlock:
    """One translate's Nystrom block sqrt(w_j) 1[d(z_j, gamma z_k) <= t] sqrt(w_k)."""

    gamma: tuple  # (word, read-only 2x2 matrix)
    matrix: object  # dense ndarray or csr_matrix
    hs_norm: float
    t: float

    def dense(self) -> np.ndarray:
        return self.matrix.toarray() if self.is_sparse else self.matrix

    @property
    def is_sparse(self) -> bool:
        return issparse(self.matrix)

    @property
    def is_zero(self) -> bool:
        return self.hs_norm == 0.0


def assemble_block(gamma, t: float, grid: QuadratureGrid) -> OperatorBlock:
    """Indicator-kernel block for one translate, stored sparse below 25%
    density. The kernel is compared on the cosh scale: no arccosh.

    Only the node pairs that ball_candidates returns for the grid's tree are
    tested; they include every pair within cosh t, so the kept pairs are
    exactly those of the full m x m test. The test runs on ROW_CHUNK
    translated nodes at a time, so only one chunk's candidate pairs are
    alive at once. The Hilbert-Schmidt norm is the square root of the
    correctly rounded (math.fsum) sum of the kept values' squares, so it
    depends on neither storage nor summation order, and a sparse block
    allocates no m x m array.
    """
    image = mobius_apply(gamma[1], grid.xy)
    cosh_t = math.cosh(t)
    kept = []
    for lo in range(0, grid.m, ROW_CHUNK):
        i, j = ball_candidates(grid.tree, image[lo:lo + ROW_CHUNK], cosh_t)
        j += lo
        keep = pairwise_cosh_distance(grid.xy[i, None], image[j, None]).ravel() <= cosh_t
        # 32-bit kept indices, and this chunk's candidates freed before the
        # next search, bound the peak
        kept.append((i[keep].astype(np.int32), j[keep].astype(np.int32)))
        del i, j, keep
    i, j = (np.concatenate(v) for v in zip(*kept))
    del kept
    m = grid.m
    sparse = len(i) / (m * m) < SPARSE_DENSITY
    if sparse:
        # j ascends, chunk by chunk and within each, so a stable sort by
        # row (by radix, on a 16-bit key up to m = 65535) is CSR order
        order = np.argsort(i.astype(np.min_scalar_type(m)), kind="stable")
        i, j = i[order], j[order]
        del order
    sqw = np.sqrt(grid.weights)
    vals = sqw[i] * sqw[j]
    hs = math.sqrt(math.fsum(vals * vals))
    if sparse:
        mat = csr_matrix((vals, j, np.searchsorted(i, np.arange(m + 1))), shape=(m, m))
    else:
        mat = np.zeros((m, m))
        mat[i, j] = vals
    return OperatorBlock(gamma=gamma, matrix=mat, hs_norm=hs, t=t)


class BlockFamily(tuple):
    """The translate blocks of one sweep, shared by every cover.

    A plain container: assemble_support_blocks builds it and establishes
    what the cover operators rely on. The blocks share one grid size m and
    radius t, and the family is closed under gamma -> gamma^-1 with
    transposed matrices, which makes every cover operator built from it
    symmetric. partners[i] is the family position of block i's inverse
    partner, so self[partners[i]].matrix is self[i].matrix transposed; the
    identity block is its own partner.

    rowsum_ceiling is the Collatz-Wielandt bound max_j (T u)_j / u_j on the
    top eigenvalue of any cover operator T built from the family.  T is
    entrywise nonnegative, so any positive test vector certifies an upper
    bound.  The identity translate's diagonal is exactly the quadrature
    weight vector, and u = sqrt(w) (x) 1 makes the ratios row sums of the
    scalar grid operator, i.e. per-node quadrature estimates of the ball
    area.  Every family holds that block (d(z, z) = 0 <= t), and the
    weights are positive, so u needs no fallback.

    layout is the RowLayout of every block's exact_rows (only the block
    rows that can be nonzero), built with the family for every cover.
    """

    genus = 2  # every block is a translate of the Bolza octagon

    def __new__(cls, blocks, partners):
        self = super().__new__(cls, blocks)
        m, t = self[0].matrix.shape[0], self[0].t
        u = np.sqrt(next(b for b in self if not b.gamma[0]).matrix.diagonal())
        s = np.zeros(m)
        for b in self:
            s += b.matrix.dot(u)
        self.m, self.t, self.partners = m, t, partners
        self.rowsum_ceiling = float(np.max(s / u))
        self.layout = RowLayout.of(m, *self.exact_rows(range(len(self))))
        return self

    def exact_rows(self, positions) -> tuple:
        """(block, node, product) of the rows of A_k X that can be nonzero,
        k over positions (nonempty): the sparse blocks' nonempty rows from
        one product with those rows of their CSR stack, then each dense
        block's m rows from its own dot (CSR would sum it in another
        order), so every row of product(X) is bit-identical to row node of
        self[k].matrix.dot(X), k its block."""
        sparse = [k for k in positions if self[k].is_sparse]
        dense = [k for k in positions if not self[k].is_sparse]
        rows = [np.flatnonzero(np.diff(self[k].matrix.indptr)) for k in sparse]
        block = np.repeat(sparse + dense, [len(r) for r in rows] + [self.m] * len(dense))
        node = np.concatenate(rows + [np.arange(self.m)] * len(dense))
        compressed = (vstack([self[k].matrix for k in sparse], format="csr")[
            np.concatenate([i * self.m + r for i, r in enumerate(rows)])]
            if sparse else csr_matrix((0, self.m)))

        def product(X):
            W = compressed @ X
            return np.concatenate([W] + [self[k].matrix.dot(X) for k in dense]) if dense else W

        return block, node, product


@dataclass(frozen=True)
class RowLayout:
    """The partial rows of the block products A_gamma X and how a cover
    adds them. product(X) returns them as one R x n array, labelled by
    block and node in of(). order lists them by node, then by family
    position, and summing (m x R, entries 1.0) adds each node's run of
    gathered rows from zero: the sums of a loop over the blocks, less its
    0.0 terms (the empty rows of sparse blocks, which are left out).
    """

    block: np.ndarray  # (R,) family position of each product row's block
    order: np.ndarray  # (R,) product rows sorted by node, then by block
    summing: csr_matrix  # (m, R)
    product: object  # X -> the (R, n) partial rows

    @classmethod
    def of(cls, m: int, block, node, product) -> "RowLayout":
        order = np.lexsort((block, node))
        R = len(order)
        indptr = np.searchsorted(node[order], np.arange(m + 1))
        summing = csr_matrix((np.ones(R), np.arange(R), indptr), shape=(m, R))
        return cls(block=block, order=order, summing=summing, product=product)

    def gather(self, perms: np.ndarray) -> np.ndarray:
        """(R, n) flat indices into an R x n product: row i picks product
        row order[i] with its columns permuted by perms[block] (a k x n
        array, one permutation per block in family order), as summing
        expects."""
        n = perms.shape[1]
        return self.order[:, None] * n + perms[self.block[self.order]]


def assemble_support_blocks(support, t: float, grid: QuadratureGrid) -> BlockFamily:
    """The BlockFamily of a support set: a block for every element, less
    the all-zero ones (their translate's qualifying region missed every
    node pair).

    Each element's inverse partner is read from support.partners, paired
    by element in support_set's search (Dehn-reduced words are no normal
    form). One block of each inverse pair is assembled; its partner is its
    transpose, as d(z_j, gamma^-1 z_k) = d(gamma z_j, z_k), stored the
    same way (CSR, or a C-ordered dense copy) with the same hs_norm and the
    partner's own (word, matrix). So the pair is adjoint by
    construction, and the two elements are checked to be inverses:
    M_i M_j = +-I entrywise to 1e-9 times the product of their largest
    entries. A zero block's partner is zero too, so the kept blocks stay
    inverse-closed, and their partner positions are renumbered to the
    family's."""
    elements, partners = support.elements, support.partners
    blocks = [None] * len(elements)
    for i, (g, j) in enumerate(zip(elements, partners)):
        if blocks[i] is not None:
            continue
        blocks[i] = b = assemble_block(g, t, grid)
        if j == i:
            continue
        h = elements[j]
        P, N = g[1], h[1]
        dev = min(np.abs(P @ N - s * np.eye(2)).max() for s in (1.0, -1.0))
        if not dev <= 1e-9 * np.abs(P).max() * np.abs(N).max():
            raise ValueError(f"inverse partners {tuple(g[0])} and {tuple(h[0])} "
                             f"are not inverse: |M_i M_j -+ I| = {dev}")
        mat = b.matrix.T.tocsr() if b.is_sparse else np.ascontiguousarray(b.matrix.T)
        blocks[j] = OperatorBlock(gamma=h, matrix=mat, hs_norm=b.hs_norm, t=t)
    kept = [i for i, b in enumerate(blocks) if not b.is_zero]
    position = {i: k for k, i in enumerate(kept)}
    return BlockFamily([blocks[i] for i in kept], [position[partners[i]] for i in kept])


def svd_truncate(block: OperatorBlock, ranks) -> tuple:
    """(left, right, rows, cols, errors) from one SVD of the block's
    nonzero rows x nonzero columns, read off the indptr and indices of the
    block in CSR form, whether it is stored sparse or dense, so a sparse
    block forms no m x m dense copy. rows and cols are those indices in
    increasing order; left (len(rows) x k) is the top of U scaled by s and
    right (k x len(cols)) the top of Vt, k = min(max(ranks), len(s)): the
    rank-r truncation of the block is the first r columns of the one times
    the first r rows of the other, placed at rows x cols and zero
    elsewhere. A block whose rows and columns are all nonzero gives LAPACK
    the dense block's values, so its factors are the dense SVD's bit for
    bit.

    errors[i] = sigma_{r_i+1} (0.0 for r_i >= len(s)) is the spectral-norm
    error of rank ranks[i], certified <= hs_norm / sqrt(r) because
    (r+1) sigma_{r+1}^2 <= sum sigma_j^2 = hs_norm^2. Where sigma_r =
    sigma_{r+1} the rank-r truncation is not unique: which singular
    vectors come back for the tied values depends on LAPACK's input, so
    the truncated operator and its norm at that rank differ between the
    dense and the restricted SVD, while sigma_{r+1} does not.

    The truncations of a block's inverse partner (its transpose) are
    these transposed, (right.T, left.T, cols, rows, errors), so a family
    needs one call per partner pair. Taking them so keeps a truncated
    cover operator symmetric at a tie, where two calls could pick
    different singular vectors for A and A^T; a self-partnered block
    (the identity) gets no such guarantee where a +-lambda tie of its
    eigenvalues is split."""
    if min(ranks, default=0) < 1:
        raise ValueError("ranks must be nonempty and at least 1")
    A = csr_matrix(block.matrix)
    rows, cols = np.flatnonzero(np.diff(A.indptr)), np.unique(A.indices)
    core = A[rows][:, cols].toarray()
    U, s, Vt = np.linalg.svd(core, full_matrices=False)
    k = min(max(ranks), len(s))
    errors = []
    for r in ranks:
        bound = s[r] if r < len(s) else 0.0
        cert = block.hs_norm / math.sqrt(r)
        if bound > cert * (1.0 + 1e-9) + 1e-12:
            raise RuntimeError(
                f"sigma_{r + 1} = {bound} exceeds hs/sqrt(r) = {cert}: "
                "inconsistent SVD or hs_norm"
            )
        errors.append(bound)
    return U[:, :k] * s[:k], Vt[:k].copy(), rows, cols, errors
