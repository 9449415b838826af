"""A P1 finite-element Laplacian on a glued cover of the Bolza surface: a
grid-free oracle for the first eigenvalues of the cover, with no kernel and
no Selberg transform.

The mesh lives in the Poincare disk w = (z - i)/(z + i). The Dirichlet
energy is conformally invariant in two dimensions, so the stiffness matrix
is the Euclidean P1 one there; the mass matrix carries the hyperbolic
density 4/(1 - |w|^2)^2, integrated by a 6-point degree-4 rule. The mesh is
the program's own domain.fan_mesh, with straight edges in the disk. Its
vertices are glued on each sheet to their repeats in the other fans, and n
sheets are glued by (x, i) ~ (P x, phi(P)(i)) for every side pairing P. The
glued complex must be a closed surface: every edge borders exactly two
triangles and V - E + F = n (2 - 2g), or the oracle fails. Eigenvalues
converge as O(h^2), h ~ 1/k.
"""

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import eigsh
from scipy.spatial import cKDTree

from covergap.domain import fan_mesh
from covergap.hyperbolic import mobius_apply
from covergap.surface_group import evaluate
from covergap.symmetric_group import evaluate_word

# Dunavant's 6-point rule, exact for degree 4: (barycentric a, weight), each
# at the three points (a, a, 1 - 2a) up to permutation
_RULE = ((0.445948490915965, 0.223381589678011), (0.091576213509771, 0.109951743655322))
_MATCH_TOL = 1e-8  # disk distance within which two vertices are one


def _disk(xy):
    z = xy[:, 0] + 1j * xy[:, 1]
    return (z - 1j) / (z + 1j)


def glued_mesh(real, k: int, hom=None):
    """(w, tris, idx, chi): fan_mesh(real, k) in the disk, the (n, T, 3)
    degree of freedom of each triangle corner on every sheet of the cover
    glued by hom (the surface for hom None), and the Euler characteristic.
    Fails unless the glued complex is closed with chi = n (2 - 2g)."""
    xy, tris = fan_mesh(real, k)
    w = _disk(xy)
    n = 1 if hom is None else hom.n
    sheets = np.arange(n)
    tree = cKDTree(np.column_stack([w.real, w.imag]))

    def glue(a, b, perm):  # (a, sheet) ~ (b, perm[sheet]), node vertex * n + sheet
        return (a[:, None] * n + sheets).ravel(), (b[:, None] * n + perm).ravel()

    pairs = [glue(*tree.query_pairs(_MATCH_TOL, output_type="ndarray").T, sheets)]
    for P, word in zip(real.side_pairings, real.side_pairing_words):
        M = evaluate(word, real)
        assert min(np.abs(M - P).max(), np.abs(M + P).max()) <= 1e-9
        image = _disk(mobius_apply(P, xy))
        dist, hit = tree.query(np.column_stack([image.real, image.imag]),
                               distance_upper_bound=_MATCH_TOL)
        found = np.isfinite(dist)
        perm = sheets if hom is None else np.array(evaluate_word(hom, word))
        pairs.append(glue(np.flatnonzero(found), hit[found], perm))
    a, b = (np.concatenate(v) for v in zip(*pairs))
    glued = coo_matrix((np.ones(len(a)), (a, b)), shape=(len(w) * n,) * 2)
    dofs, label = connected_components(glued, directed=False)
    idx = label[tris[None] * n + sheets[:, None, None]]
    lo, hi = np.sort(np.stack([idx, np.roll(idx, -1, axis=2)]), axis=0)
    _, shared = np.unique(lo * dofs + hi, return_counts=True)
    assert (shared == 2).all(), f"{(shared != 2).sum()} edges do not border two triangles"
    chi = dofs - len(shared) + idx[..., 0].size
    assert chi == n * (2 - 2 * real.presentation.genus), f"Euler characteristic {chi}"
    return w, tris, idx, chi


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
    w, tris, idx, _ = glued_mesh(real, k, hom)
    n, dofs = len(idx), idx.max() + 1  # every vertex lies in a triangle
    K, M = _element_matrices(w, tris)
    rows = np.broadcast_to(idx[..., :, None], idx.shape + (3,)).ravel()
    cols = np.broadcast_to(idx[..., None, :], idx.shape + (3,)).ravel()

    def assemble(E):
        data = np.broadcast_to(E, (n,) + E.shape).ravel()
        return coo_matrix((data, (rows, cols)), shape=(dofs, dofs)).tocsc()

    vals = eigsh(assemble(K), k=count, M=assemble(M), sigma=-0.05,
                 return_eigenvectors=False)
    return np.sort(vals)
