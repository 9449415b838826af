"""Genus-g surface groups, symbolically and as Fuchsian groups.

Words over the standard generators a1, b1, ..., a_g, b_g (letters +-1..+-2g),
Dehn's algorithm for the word problem, the explicit genus-2 realization from
the regular hyperbolic octagon (the Bolza surface), and geometric enumeration
of lattice points and operator support sets. A group element is a read-only
float64 2x2 matrix of determinant one, up to sign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .hyperbolic import check_radius, mobius_apply

Word = tuple  # of signed ints


# ---------------------------------------------------------------------------
# free-group word arithmetic

def free_reduce(letters) -> Word:
    """Cancel adjacent x x^-1 pairs."""
    out = []
    for l in letters:
        if out and out[-1] == -l:
            out.pop()
        else:
            out.append(l)
    return tuple(out)


def inverse_word(w: Word) -> Word:
    return tuple(-l for l in reversed(w))


@dataclass(frozen=True)
class SurfacePresentation:
    """<a1, b1, ..., a_g, b_g | prod [a_i, b_i]> for genus g >= 2."""

    genus: int

    def __post_init__(self):
        if self.genus < 2:
            raise ValueError("surface presentations need genus >= 2")

    @property
    def relator(self) -> Word:
        r = []
        for i in range(self.genus):
            a, b = 2 * i + 1, 2 * i + 2
            r += [a, b, -a, -b]
        return tuple(r)


@lru_cache(maxsize=None)
def _rotation_table(genus):
    """All cyclic rotations of the relator and its inverse, bucketed by
    first letter. Used by the Dehn scan."""
    rel = SurfacePresentation(genus).relator
    rots = set()
    for w in (rel, inverse_word(rel)):
        for i in range(len(w)):
            rots.add(w[i:] + w[:i])
    table = {}
    for r in rots:
        table.setdefault(r[0], []).append(r)
    return table


def dehn_reduce(w, p: SurfacePresentation) -> Word:
    """Dehn's algorithm: freely reduce, then greedily replace any subword
    that matches more than half of a cyclic rotation of the relator (or its
    inverse) by the shorter complement. For surface groups this terminates
    with the empty word exactly on representatives of the identity.
    """
    table = _rotation_table(p.genus)
    L = 4 * p.genus
    half = 2 * p.genus
    w = free_reduce(w)
    changed = True
    while changed:
        changed = False
        n = len(w)
        for i in range(n):
            for rot in table.get(w[i], ()):
                # longest common prefix of w[i:] and rot
                m = 1
                while m < L and i + m < n and w[i + m] == rot[m]:
                    m += 1
                if m > half:
                    # rot = matched * rest  =>  matched == inverse(rest)
                    replacement = inverse_word(rot[m:])
                    w = free_reduce(w[:i] + replacement + w[i + m:])
                    changed = True
                    break
            if changed:
                break
    return w


# ---------------------------------------------------------------------------
# Fuchsian realization

def _read_only(M: np.ndarray) -> np.ndarray:
    M.flags.writeable = False
    return M


def _adjugate(M: np.ndarray) -> np.ndarray:
    """[[d, -b], [-c, a]] of one 2x2 matrix or of each of a stack (n, 2, 2),
    read-only: the inverse of determinant-one matrices, exact where
    np.linalg.inv would round."""
    a, b, c, d = M[..., 0, 0], M[..., 0, 1], M[..., 1, 0], M[..., 1, 1]
    return _read_only(np.stack([d, -b, -c, a], axis=-1).reshape(M.shape))


@dataclass(frozen=True)
class FuchsianRealization:
    """A surface group acting on the half-plane with a fundamental polygon.

    generator_matrices (2g, 2, 2) realize a1, b1, ..., a_g, b_g;
    domain_vertices (k, 2) are the k-gon's vertices in order, about the
    base point BASE_POINT; side_pairings (k, 2, 2) are its face-pairing
    matrices, side_pairing_words their expressions as words in the
    standard generators. The arrays are read-only.
    """

    presentation: SurfacePresentation
    generator_matrices: np.ndarray
    domain_vertices: np.ndarray
    side_pairings: np.ndarray
    side_pairing_words: list
    circumradius: float

    def letter_matrix(self, letter: int) -> np.ndarray:
        M = self.generator_matrices[abs(letter) - 1]
        return M if letter > 0 else _adjugate(M)


def evaluate(w, real: FuchsianRealization) -> np.ndarray:
    """Product of generator matrices along the word."""
    M = np.eye(2)
    for letter in w:
        M = M @ real.letter_matrix(letter)
    return M


def _rot_about_i(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, s], [-s, c]])


def _translate_along_real(length: float) -> np.ndarray:
    # hyperbolic translation along the unit half-circle geodesic through i
    c, s = math.cosh(length / 2.0), math.sinh(length / 2.0)
    return np.array([[c, s], [s, c]])


def _disk_to_halfplane(wx: float, wy: float) -> tuple:
    # inverse Cayley transform, disk center -> i
    den = (1.0 - wx) ** 2 + wy ** 2
    return -2.0 * wy / den, (1.0 - wx * wx - wy * wy) / den


# words expressing the octagon side pairings g0..g3 in the standard letters
_PAIRING_WORDS = [(-2, 3, 4), (-1, -2, 3, 4), (3,), (-4,)]
BOLZA_CIRCUMRADIUS = math.acosh(3.0 + 2.0 * math.sqrt(2.0))
BASE_POINT = (0.0, 1.0)  # i, the centre of the fundamental polygon


def build_bolza_realization() -> FuchsianRealization:
    """The genus-2 surface of the regular hyperbolic octagon with pi/4 corners.

    Opposite sides are identified by the four hyperbolic translations
    g_k = rot(k pi/4) trans(2 rho) rot(-k pi/4), rho the apothem with
    cosh rho = 1 + sqrt(2). Standard generators are the basis
    a1 = g0 g1^-1, b1 = g2 g3^-1 g0^-1, a2 = g2, b2 = g3^-1, under which
    [a1,b1][a2,b2] freely equals the octagon relation, so the relator holds
    to machine precision. All four generators are conjugates of systolic
    translations: |trace| = 2(1 + sqrt 2), translation length
    2 arccosh(1 + sqrt 2).
    """
    rho = math.acosh(1.0 + math.sqrt(2.0))          # apothem
    circum = BOLZA_CIRCUMRADIUS

    g = np.stack([
        _rot_about_i(k * math.pi / 4.0)
        @ _translate_along_real(2.0 * rho)
        @ _rot_about_i(-k * math.pi / 4.0)
        for k in range(4)
    ])
    gi = _adjugate(g)
    gens = _read_only(np.stack([g[0] @ gi[1], g[2] @ gi[3] @ gi[0], g[2], gi[3]]))

    # vertices: disk radius tanh(circum/2), angles between side-pairing axes
    rv = math.tanh(circum / 2.0)
    angles = (-math.pi / 2.0 + math.pi / 8.0 + k * math.pi / 4.0 for k in range(8))
    vertices = [_disk_to_halfplane(rv * math.cos(a), rv * math.sin(a)) for a in angles]

    pairing_words = list(_PAIRING_WORDS) + [inverse_word(w) for w in _PAIRING_WORDS]

    real = FuchsianRealization(
        presentation=SurfacePresentation(2),
        generator_matrices=gens,
        domain_vertices=_read_only(np.array(vertices)),
        side_pairings=_read_only(np.concatenate([g, gi])),
        side_pairing_words=pairing_words,
        circumradius=circum,
    )
    rel = evaluate(real.presentation.relator, real)
    if not min(np.abs(rel - s * np.eye(2)).max() for s in (1.0, -1.0)) <= 1e-8:
        raise RuntimeError("octagon side pairings do not satisfy the surface relation")
    return real


# ---------------------------------------------------------------------------
# lattice enumeration

@dataclass
class SupportSet:
    """Group elements paired with their standard-letter words, closed under
    inversion: partners[i] is the position of element i's inverse."""

    elements: list          # of (Word, read-only 2x2 matrix)
    partners: list          # of int

    def __len__(self):
        return len(self.elements)


MAX_R = 12.0  # displacement cap of lattice_points and support_set


_I = np.array([BASE_POINT])  # as mobius_apply's (1, 2) array


def _cell(x: float, y: float):
    """Unit cell of x + iy in hyperboloid coordinates (X1, X2)."""
    return math.floor(x / y), math.floor((x * x + y * y - 1.0) / (2.0 * y))


class _OrbitIndex:
    """Group elements keyed on the _cell of their orbit point gamma i.

    A lookup scans the 3x3 block of cells around the query. The Euclidean
    (X1, X2) distance bounds the hyperbolic one from above, since
    ds^2 = dX1^2 + dX2^2 - dX0^2 on the hyperboloid; points in the block are
    less than 2 sqrt 2 apart, and distinct orbit points of the octagon group
    at least 2 * apothem = 3.057. So a hit is the same element.
    """

    def __init__(self):
        self.points = []
        self.cells = {}

    def find(self, x: float, y: float):
        """Index of the element with orbit point x + iy, or None."""
        i, j = _cell(x, y)
        for key in ((i + di, j + dj) for di in (-1, 0, 1) for dj in (-1, 0, 1)):
            idx = self.cells.get(key)
            if idx is not None:
                px, py = self.points[idx]
                # 2 (cosh d - 1), about d^2: the same point within d = 1e-6
                if ((x - px) ** 2 + (y - py) ** 2) / (y * py) > 1e-12:
                    raise RuntimeError(
                        f"distinct orbit points {x} + {y}i and {px} + {py}i "
                        "lie within one 3x3 block of cells")
                return idx
        return None

    def add(self, x: float, y: float):
        self.cells[_cell(x, y)] = len(self.points)
        self.points.append((x, y))


def _keep_cosh(R: float) -> float:
    """cosh R with lattice_points' rounding allowance, R checked by
    check_radius and against the enumeration cap."""
    if check_radius(R) > MAX_R:
        raise ValueError(f"R={R} exceeds the enumeration cap {MAX_R}")
    return math.cosh(R) * (1.0 + 1e-12) + 1e-12


def _search(real: FuchsianRealization, admit):
    """Breadth-first search over the side-pairing moves from the identity
    into the new products that admit accepts. admit gets a level's
    products gamma g_s, (n, moves, 2, 2), renormalized where |det - 1| >
    1e-12, and their cosh d(i, gamma g_s i), (n, moves), and returns a
    bool array of that shape. Returns the _OrbitIndex of the elements
    found, and their matrices, free-reduced words and cosh displacements
    in the index's order."""
    moves = real.side_pairings
    index = _OrbitIndex()
    index.add(*BASE_POINT)
    mats, words, disps = [np.eye(2)], [()], [1.0]  # disps: cosh displacement

    level = [0]
    while level:
        stack = np.stack([mats[i] for i in level])
        prods = np.einsum("nij,gjk->ngik", stack, moves)
        x, y = mobius_apply(prods.reshape(-1, 2, 2), _I)[:, 0].T
        coshd = 1.0 + (x * x + (y - 1.0) ** 2) / (2.0 * y)
        # renormalize drift before it accumulates
        det = prods[..., 0, 0] * prods[..., 1, 1] - prods[..., 0, 1] * prods[..., 1, 0]
        drift = np.abs(det - 1.0) > 1e-12
        prods[drift] /= np.sqrt(det[drift])[:, None, None]
        ok = admit(prods, coshd.reshape(len(level), -1)).tolist()
        coshd, x, y = (v.reshape(len(level), -1).tolist() for v in (coshd, x, y))
        next_level = []
        for li, src in enumerate(level):
            for gidx in range(len(moves)):
                if not ok[li][gidx] or index.find(x[li][gidx], y[li][gidx]) is not None:
                    continue
                index.add(x[li][gidx], y[li][gidx])
                next_level.append(len(mats))
                mats.append(prods[li, gidx])
                words.append(free_reduce(words[src] + real.side_pairing_words[gidx]))
                disps.append(coshd[li][gidx])
        level = next_level
    return index, mats, words, disps


def _sorted_elements(real: FuchsianRealization, mats, words, disps, found):
    """The found positions of a _search sorted by cosh displacement, word
    length and word, and their (Dehn-reduced word, matrix) pairs, whose
    matrices are the rows of one read-only stack."""
    order = sorted(found, key=lambda i: (disps[i], len(words[i]), words[i]))
    stack = _read_only(np.stack([mats[i] for i in order]))
    return order, [(dehn_reduce(words[i], real.presentation), M) for i, M in zip(order, stack)]


def lattice_points(real: FuchsianRealization, R: float) -> list:
    """All gamma with d(base, gamma base) <= R, as (Word, matrix) pairs,
    by breadth-first search over the side-pairing moves.

    The search keeps every element whose displacement is at most
    R + circumradius + 0.1: if d(i, gamma i) <= R, the tiles meeting the
    geodesic from i to gamma i form a side/vertex-adjacent chain whose
    centers all lie within circumradius of the geodesic, so gamma is reached
    without ever leaving that padded ball. Pruning beyond it is safe.
    """
    keep_cosh = _keep_cosh(R)
    prune_cosh = math.cosh(R + real.circumradius + 0.1)
    _, mats, words, disps = _search(real, lambda prods, coshd: coshd <= prune_cosh)
    found = [i for i in range(len(mats)) if disps[i] <= keep_cosh]
    return _sorted_elements(real, mats, words, disps, found)[1]


_J = np.array([1.0, -1.0, -1.0])


def _dot(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """<X, Y> = X0 Y0 - X1 Y1 - X2 Y2 over the last axis, broadcast."""
    return (X * _J * Y).sum(axis=-1)


def _hyperboloid(P: np.ndarray) -> np.ndarray:
    """Half-plane rows (..., 2) as points (..., 3) of the hyperboloid sheet
    X0^2 - X1^2 - X2^2 = 1, X0 > 0, where cosh d(X, Y) = <X, Y>."""
    x, y = P[..., 0], P[..., 1]
    r2 = x * x + y * y
    return np.stack([(r2 + 1.0) / (2.0 * y), x / y, (r2 - 1.0) / (2.0 * y)], axis=-1)


def _act(g: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Images of the vectors X (k, 3) under each matrix of a stack g
    (n, 2, 2) of SL(2, R), shape (n, k, 3). X is the symmetric matrix
    K = [[X0 + X2, X1], [X1, X0 - X2]], det K = <X, X>, and g maps it to
    g K g^T: the hyperboloid point of z = x + iy has K = [[|z|^2, x], [x, 1]]
    / y, on which this is the Mobius action. The map is linear and keeps
    <., .>, so it moves side normals as well as points."""
    K = np.stack([X[:, 0] + X[:, 2], X[:, 1], X[:, 1], X[:, 0] - X[:, 2]], axis=-1)
    gKg = g[:, None] @ K.reshape(-1, 2, 2) @ g[:, None].swapaxes(-1, -2)
    a, b, d = gKg[..., 0, 0], gKg[..., 0, 1], gKg[..., 1, 1]
    return np.stack([(a + d) / 2.0, b, (a - d) / 2.0], axis=-1)


def _translate_cosh_distance(P: np.ndarray, g: np.ndarray) -> np.ndarray:
    """cosh d(P, gamma P) between the convex polygon with half-plane
    vertices P (k, 2), in order, and its image under each matrix gamma of
    a stack g (n, 2, 2) of SL(2, R); shape (n,). Exact, up to rounding,
    where the interiors of P and gamma P are disjoint, or equal.

    Side s of P runs from A_s to B_s = A_{s+1} on the hyperboloid, along
    the line <X, n_s> = 0 for the unit normal n_s = J (A_s x B_s) / norm,
    <n_s, n_s> = -1; c_s = <A_s, B_s>. The distance is attained on the
    two boundaries, in one of two ways.

    From a vertex V of one polygon to a side of the other: the foot of the
    perpendicular from V lies on side s iff <V, A_s> <= c_s <V, B_s> and
    <V, B_s> <= c_s <V, A_s>, and then cosh d = sqrt(1 + <V, n_s>^2), else
    it is the nearer end's. A vertex of P against a side of gamma P is the
    vertex of gamma^-1 P against the side of P, so every such term reads
    P's sides only.

    At interior points of two sides whose lines are ultraparallel, along
    their common perpendicular: cosh d = |<n_s, gamma n_s'>|, > 1. Its
    line has normal m = J (n_s x gamma n_s'), and the foot lies on side s
    iff <A_s, m> <B_s, m> <= 0; on gamma's side s' iff the same holds for
    A_s', B_s' and gamma^-1 m = J (gamma^-1 n_s x n_s'). The tiling's
    edges run straight through its vertices, so far tiles have sides on
    the lines of P's: there |<n_s, gamma n_s'>| = 1 up to rounding, and a
    pair counts as ultraparallel only beyond 1 + 1e-9; such sides come
    closest at an end, a vertex-to-side term.

    Every image is moved by _act, never rebuilt from the cross product of
    two far points: their coordinates reach 1e6 near the enumeration cap,
    and such a normal, rebuilt, is off by over 1e-7 relatively from t = 5
    and NaN at t = 7.
    """
    A = _hyperboloid(P)
    B = np.roll(A, -1, axis=0)
    n = _J * np.cross(A, B)
    n /= np.sqrt(-_dot(n, n))[:, None]
    c = _dot(A, B)
    g_inv = _adjugate(g)

    def to_sides(V):  # vertices V (n, k, 3) against P's sides
        VA, VB, Vn = (V @ (_J * X).T for X in (A, B, n))
        foot = (VA <= c * VB) & (VB <= c * VA)
        return np.where(foot, np.sqrt(1.0 + Vn * Vn), np.minimum(VA, VB)).min(axis=(1, 2))

    cosh_d = np.minimum(to_sides(_act(g, A)), to_sides(_act(g_inv, A)))
    # side s of P (axis 1) against side s' of gamma P (axis 2)
    gn = _act(g, n)[:, None]
    nn = np.abs(_dot(n[:, None], gn))
    m = _J * np.cross(n[:, None], gn)
    m_inv = _J * np.cross(_act(g_inv, n)[:, :, None], n)
    common = ((nn > 1.0 + 1e-9)
              & (_dot(A[:, None], m) * _dot(B[:, None], m) <= 0)
              & (_dot(A, m_inv) * _dot(B, m_inv) <= 0))
    return np.minimum(cosh_d, np.where(common, nn, np.inf).min(axis=(1, 2)))


def support_radius(t: float, circumradius: float = BOLZA_CIRCUMRADIUS) -> float:
    """Bound on d(i, gamma i) over S(t), as P lies within circumradius of
    i; support_set raises where it passes MAX_R."""
    return 2.0 * circumradius + t + 1e-6


def support_set(real: FuchsianRealization, t: float) -> SupportSet:
    """Elements gamma with d(P, gamma P) <= t, P the fundamental polygon,
    i.e. exactly those that can contribute a nonzero kernel block.

    N_t(P), the points within t of P, is convex, and gamma is in S(t) iff
    gamma P meets it; the geodesic from i to a common point stays in
    N_t(P), and the tiles it crosses follow one another across a side or
    around a vertex (all 8 tiles there contain it). So S(t) is connected
    under the side-pairing moves, and one _search enters exactly S(t): it
    admits a displacement within support_radius(t), then cosh d(P, gamma P)
    <= cosh t (1 + 1e-7) by _translate_cosh_distance (out to t = 7 within
    2e-13, relatively, of the closest boundary samples' distance).

    Each element's inverse is looked up in the search's index, and one
    whose inverse was not admitted is dropped: the verdicts differ only
    within rounding of the 1e-7 margin, where both are beyond t. Elements
    are sorted as lattice_points sorts them."""
    near_cosh = _keep_cosh(support_radius(check_radius(t), real.circumradius))
    cosh_t = math.cosh(t) * (1.0 + 1e-7)

    def admit(prods, coshd):
        ok = coshd <= near_cosh
        ok[ok] = _translate_cosh_distance(real.domain_vertices, prods[ok]) <= cosh_t
        return ok

    index, mats, words, disps = _search(real, admit)
    x, y = mobius_apply(_adjugate(np.stack(mats)), _I)[:, 0].T
    inverse = [index.find(*p) for p in zip(x.tolist(), y.tolist())]
    found = [i for i, j in enumerate(inverse) if j is not None and inverse[j] == i]
    order, elements = _sorted_elements(real, mats, words, disps, found)
    position = {i: k for k, i in enumerate(order)}
    return SupportSet(elements=elements, partners=[position[inverse[i]] for i in order])
