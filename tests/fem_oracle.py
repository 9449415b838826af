"""A P1 finite-element Laplacian on a glued cover of the Bolza surface: a
grid-free oracle for the first eigenvalues of the cover, with no kernel and
no Selberg transform.

The mesh lives in the Poincare disk w = (z - i)/(z + i). The Dirichlet
energy is conformally invariant in two dimensions, so the stiffness matrix
is the Euclidean P1 one there; the mass matrix carries the hyperbolic
density 4/(1 - |w|^2)^2, integrated by a 6-point degree-4 rule. The mesh is
build_grid's fan triangulation: the octagon cut from its base point into 8
triangles, each into k^2 cells whose vertices lie on geodesics
(geodesic_point), with straight edges in the disk. Boundary vertices are
matched through the side pairings, and n sheets are glued by
(x, i) ~ (P x, phi(P)(i)). Eigenvalues converge as O(h^2), h ~ 1/k.
"""

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import eigsh
from scipy.spatial import cKDTree

from covergap.hyperbolic import geodesic_point
from covergap.surface_group import BASE_POINT, evaluate
from covergap.symmetric_group import evaluate_word

# Dunavant's 6-point rule, exact for degree 4: (barycentric a, weight), each
# at the three points (a, a, 1 - 2a) up to permutation
_RULE = ((0.445948490915965, 0.223381589678011), (0.091576213509771, 0.109951743655322))
_MATCH_TOL = 1e-8  # disk distance within which a mapped boundary vertex lands


def fan_mesh(real, k: int):
    """Vertices (complex disk coordinates), triangles (T, 3) and boundary
    vertex indices of the fan mesh with k subdivisions per spoke. Vertices
    on a spoke are shared by its two fan triangles."""
    verts, center = real.domain_vertices.tolist(), BASE_POINT
    points = [center]

    def add(p):
        points.append(p)
        return len(points) - 1

    spokes = [[0] + [add(geodesic_point(center, v, i / k)) for i in range(1, k + 1)]
              for v in verts]
    tris, boundary = [], []
    for j in range(len(verts)):
        left, right = spokes[j], spokes[(j + 1) % len(verts)]
        rows = [[0]]
        for i in range(1, k + 1):
            a, b = points[left[i]], points[right[i]]
            rows.append([left[i]] + [add(geodesic_point(a, b, jj / i)) for jj in range(1, i)]
                        + [right[i]])
        for i in range(k):
            for jj in range(i + 1):
                tris.append((rows[i][jj], rows[i + 1][jj], rows[i + 1][jj + 1]))
                if jj < i:
                    tris.append((rows[i][jj], rows[i][jj + 1], rows[i + 1][jj + 1]))
        boundary += rows[k]
    z = np.array([complex(*p) for p in points])
    return (z - 1j) / (z + 1j), np.array(tris), np.unique(boundary)


def _side_matches(real, w, boundary):
    """(pairing index, a, b) for every boundary vertex a that side pairing
    P maps onto boundary vertex b."""
    tree = cKDTree(np.column_stack([w[boundary].real, w[boundary].imag]))
    z = 1j * (1 + w[boundary]) / (1 - w[boundary])
    out = []
    for p, (P, word) in enumerate(zip(real.side_pairings, real.side_pairing_words)):
        M = evaluate(word, real)
        assert min(np.abs(M - P).max(), np.abs(M + P).max()) <= 1e-9
        (a, b), (c, d) = P
        image = (a * z + b) / (c * z + d)
        image = (image - 1j) / (image + 1j)
        dist, hit = tree.query(np.column_stack([image.real, image.imag]),
                               distance_upper_bound=_MATCH_TOL)
        found = np.isfinite(dist)
        out += [(p, x, y) for x, y in zip(boundary[found], boundary[hit[found]])]
    return out


def _element_matrices(w, tris):
    """P1 stiffness (Euclidean) and mass (density 4/(1 - |w|^2)^2) of every
    triangle, (T, 3, 3) each."""
    p = np.stack([w[tris].real, w[tris].imag], axis=-1)  # (T, 3, 2)
    edges = np.roll(p, -1, axis=1) - np.roll(p, 1, axis=1)  # opposite each vertex
    area = 0.5 * np.abs(edges[:, 0, 0] * edges[:, 1, 1] - edges[:, 0, 1] * edges[:, 1, 0])
    K = np.einsum("tad,tbd->tab", edges, edges) / (4.0 * area)[:, None, None]
    M = np.zeros_like(K)
    for a, weight in _RULE:
        for bary in (np.roll([a, a, 1.0 - 2.0 * a], s) for s in range(3)):
            q = bary @ p  # (T, 2)
            rho = 4.0 / (1.0 - (q * q).sum(axis=1)) ** 2
            M += (weight * area * rho)[:, None, None] * np.outer(bary, bary)
    return K, M


def fem_eigenvalues(real, k: int, hom=None, count: int = 2) -> np.ndarray:
    """The `count` smallest eigenvalues of the P1 Laplacian on the cover of
    the surface glued by hom (the surface itself for hom None), ascending."""
    w, tris, boundary = fan_mesh(real, k)
    n = 1 if hom is None else hom.n
    perms = [tuple(range(n)) if hom is None else evaluate_word(hom, word)
             for word in real.side_pairing_words]
    # union-find over (vertex, sheet) = vertex * n + sheet, as graph components
    edges = np.array([(a * n + i, b * n + perms[p][i])
                      for p, a, b in _side_matches(real, w, boundary) for i in range(n)])
    size = len(w) * n
    glue = coo_matrix((np.ones(len(edges)), (edges[:, 0], edges[:, 1])), shape=(size, size))
    dofs, label = connected_components(glue, directed=False)
    K, M = _element_matrices(w, tris)
    idx = label[tris[None] * n + np.arange(n)[:, None, None]]  # (n, T, 3)
    rows = np.broadcast_to(idx[..., :, None], idx.shape + (3,)).ravel()
    cols = np.broadcast_to(idx[..., None, :], idx.shape + (3,)).ravel()

    def assemble(E):
        data = np.broadcast_to(E, (n,) + E.shape).ravel()
        return coo_matrix((data, (rows, cols)), shape=(dofs, dofs)).tocsc()

    vals = eigsh(assemble(K), k=count, M=assemble(M), sigma=-0.05,
                 return_eigenvectors=False)
    return np.sort(vals)
