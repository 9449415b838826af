"""Genus-g surface groups, symbolically and as Fuchsian groups.

Words over the standard generators a1, b1, ..., a_g, b_g (letters +-1..+-2g),
Dehn's algorithm for the word problem, the explicit genus-2 realization from
the regular hyperbolic octagon (the Bolza surface), and geometric enumeration
of lattice points and operator support sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .hyperbolic import (
    IDENTITY,
    HPoint,
    Isometry,
    ball_candidates,
    disk_tree,
    distance,
    geodesic_point,
    mobius_apply,
    pairwise_cosh_distance,
)

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

@dataclass
class FuchsianRealization:
    """A surface group acting on the half-plane with a fundamental polygon.

    generator_matrices realize a1, b1, ..., a_g, b_g; side_pairings are the
    face-pairing isometries of the polygon together with their expressions
    as words in the standard generators.
    """

    presentation: SurfacePresentation
    generator_matrices: list
    base_point: HPoint
    domain_vertices: list
    domain_diameter: float
    side_pairings: list = field(default_factory=list)
    side_pairing_words: list = field(default_factory=list)
    circumradius: float = 0.0
    apothem: float = 0.0

    def __post_init__(self):
        self._gen_inv = [m.inverse() for m in self.generator_matrices]

    def letter_matrix(self, letter: int) -> Isometry:
        if letter > 0:
            return self.generator_matrices[letter - 1]
        return self._gen_inv[-letter - 1]


def evaluate(w, real: FuchsianRealization) -> Isometry:
    """Product of generator matrices along the word."""
    M = IDENTITY
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


def _disk_to_halfplane(wx: float, wy: float) -> HPoint:
    # inverse Cayley transform, disk center -> i
    den = (1.0 - wx) ** 2 + wy ** 2
    return HPoint(-2.0 * wy / den, (1.0 - wx * wx - wy * wy) / den)


# words expressing the octagon side pairings g0..g3 in the standard letters
_PAIRING_WORDS = [(-2, 3, 4), (-1, -2, 3, 4), (3,), (-4,)]
BOLZA_CIRCUMRADIUS = math.acosh(3.0 + 2.0 * math.sqrt(2.0))


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

    g = [
        Isometry(_rot_about_i(k * math.pi / 4.0)
                 @ _translate_along_real(2.0 * rho)
                 @ _rot_about_i(-k * math.pi / 4.0))
        for k in range(4)
    ]
    gi = [m.inverse() for m in g]

    a1 = g[0] @ gi[1]
    b1 = g[2] @ gi[3] @ gi[0]
    a2 = g[2]
    b2 = gi[3]
    gens = [a1, b1, a2, b2]

    pres = SurfacePresentation(2)
    rel = IDENTITY
    for letter in pres.relator:
        rel = rel @ (gens[letter - 1] if letter > 0 else gens[-letter - 1].inverse())
    if not rel.is_identity(1e-8):
        raise RuntimeError("octagon side pairings do not satisfy the surface relation")

    # vertices: disk radius tanh(circum/2), angles between side-pairing axes
    rv = math.tanh(circum / 2.0)
    vertices = []
    for k in range(8):
        ang = -math.pi / 2.0 + math.pi / 8.0 + k * math.pi / 4.0
        vertices.append(_disk_to_halfplane(rv * math.cos(ang), rv * math.sin(ang)))

    diam = max(distance(v, w) for v in vertices for w in vertices)

    pairings = list(g) + gi
    pairing_words = list(_PAIRING_WORDS) + [inverse_word(w) for w in _PAIRING_WORDS]

    return FuchsianRealization(
        presentation=pres,
        generator_matrices=gens,
        base_point=HPoint(0.0, 1.0),
        domain_vertices=vertices,
        domain_diameter=diam,
        side_pairings=pairings,
        side_pairing_words=pairing_words,
        circumradius=circum,
        apothem=rho,
    )


def in_fundamental_domain(real: FuchsianRealization, z: HPoint, slack: float = 0.0) -> bool:
    """Dirichlet-domain membership: z is no farther from the base point than
    from any of its side-pairing translates. slack > 0 admits a margin,
    slack < 0 demands strict interiority."""
    base = real.base_point
    d0 = distance(z, base)
    for P in real.side_pairings:
        if d0 > distance(z, P.apply(base)) + slack:
            return False
    return True


# ---------------------------------------------------------------------------
# lattice enumeration

@dataclass
class SupportSet:
    """Group elements paired with their standard-letter words."""

    elements: list          # of (Word, Isometry)
    displacements: list = field(default_factory=list)

    def __len__(self):
        return len(self.elements)

    def isometries(self):
        return [M for _, M in self.elements]


MAX_R = 12.0  # displacement cap of lattice_points and support_set
_PER_SIDE = 64  # boundary samples per polygon side in support_set


def _orbit_points(mats: np.ndarray):
    """x and y of gamma i for each matrix of a stacked (n, 2, 2) array."""
    a, b = mats[:, 0, 0], mats[:, 0, 1]
    c, d = mats[:, 1, 0], mats[:, 1, 1]
    den = c * c + d * d
    return (b * d + a * c) / den, 1.0 / den


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


def lattice_points(real: FuchsianRealization, R: float) -> SupportSet:
    """All gamma with d(base, gamma base) <= R, by breadth-first search over
    the side-pairing moves.

    The search keeps every element whose displacement is at most
    R + circumradius + 0.1: if d(i, gamma i) <= R, the tiles meeting the
    geodesic from i to gamma i form a side/vertex-adjacent chain whose
    centers all lie within circumradius of the geodesic, so gamma is reached
    without ever leaving that padded ball. Pruning beyond it is safe.
    """
    if not math.isfinite(R) or R < 0:
        raise ValueError(f"R must be finite and nonnegative, got {R}")
    if R > MAX_R:
        raise ValueError(f"R={R} exceeds the enumeration cap {MAX_R}")

    pres = real.presentation
    moves = np.stack([P.m for P in real.side_pairings])
    move_words = real.side_pairing_words
    prune_cosh = math.cosh(R + real.circumradius + 0.1)
    keep_cosh = math.cosh(R) * (1.0 + 1e-12) + 1e-12

    index = _OrbitIndex()
    mats = [np.eye(2)]
    words = [()]
    disps = [1.0]  # cosh displacement
    index.add(0.0, 1.0)

    level = [0]
    while level:
        stack = np.stack([mats[i] for i in level])
        prods = np.einsum("nij,gjk->ngik", stack, moves)
        x, y = _orbit_points(prods.reshape(-1, 2, 2))
        coshd = 1.0 + (x * x + (y - 1.0) ** 2) / (2.0 * y)
        coshd, x, y = (v.reshape(len(level), -1).tolist() for v in (coshd, x, y))
        next_level = []
        for li, src in enumerate(level):
            for gidx in range(len(moves)):
                if coshd[li][gidx] > prune_cosh:
                    continue
                if index.find(x[li][gidx], y[li][gidx]) is not None:
                    continue
                index.add(x[li][gidx], y[li][gidx])
                m = prods[li, gidx]
                # renormalize drift before it accumulates
                det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
                if abs(det - 1.0) > 1e-12:
                    m = m / math.sqrt(det)
                next_level.append(len(mats))
                mats.append(m)
                words.append(free_reduce(words[src] + move_words[gidx]))
                disps.append(coshd[li][gidx])
        level = next_level

    order = [i for i in range(len(mats)) if disps[i] <= keep_cosh]
    order.sort(key=lambda i: (disps[i], len(words[i]), words[i]))
    elements = [(dehn_reduce(words[i], pres), Isometry(mats[i])) for i in order]
    displacements = [math.acosh(min(max(disps[i], 1.0), 1e300)) for i in order]
    return SupportSet(elements=elements, displacements=displacements)


def _boundary_samples(real: FuchsianRealization):
    """Uniform sample of the polygon boundary (vertices included) plus the
    maximum arclength gap between consecutive samples.

    The distance between two disjoint convex sets is attained on their
    boundaries, so boundary samples bound min-distance queries two-sidedly:
    sample minimum <= true minimum + gap.
    """
    verts = real.domain_vertices
    k = len(verts)
    pts = []
    gap = 0.0
    for j in range(k):
        v, w = verts[j], verts[(j + 1) % k]
        side = distance(v, w)
        gap = max(gap, side / _PER_SIDE)
        for i in range(_PER_SIDE):
            pts.append(geodesic_point(v, w, i / _PER_SIDE))
    return np.array([[p.x, p.y] for p in pts]), gap


def support_radius(t: float, circumradius: float = BOLZA_CIRCUMRADIUS) -> float:
    """Displacement out to which support_set enumerates candidates at t."""
    return 2.0 * circumradius + t + 1e-6


def support_set(real: FuchsianRealization, t: float) -> SupportSet:
    """Elements whose translated domain comes within distance t of the domain,
    i.e. exactly those that can contribute a nonzero kernel block.

    Candidates are enumerated out to 2*circumradius + t (triangle inequality:
    the polygon sits inside the circumball). One is accepted iff some pair of
    a boundary sample and a translated boundary sample lies within the
    threshold, t widened by one sample gap so no qualifying element can be
    missed; a borderline extra element only contributes a near-empty block.
    The sample pairs are culled by a KD-tree search in the disk model
    (ball_candidates), whose candidates include every pair that passes, and
    only they are tested on the cosh scale; so the result equals that of
    testing every sample pair. The result is inverse-closed and contains the
    identity.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    cand = lattice_points(real, support_radius(t, real.circumradius))

    S, gap = _boundary_samples(real)
    cosh_t = math.cosh(t + gap) * (1.0 + 1e-12)

    tree = disk_tree(S)
    accept = []
    for M in cand.isometries():
        image = mobius_apply(M.m, S)
        i, j = ball_candidates(tree, image, cosh_t)
        accept.append(bool((pairwise_cosh_distance(S[i, None], image[j, None]) <= cosh_t).any()))

    # symmetrize: gamma in S(t) iff gamma^-1 in S(t); the sample-pair
    # predicate is symmetric in exact arithmetic, make it so in floats too
    index = _OrbitIndex()
    for x, y in zip(*_orbit_points(np.stack([M.m for M in cand.isometries()]))):
        index.add(x, y)
    inverses = _orbit_points(np.stack([M.inverse().m for M in cand.isometries()]))
    for i, (x, y) in enumerate(zip(*inverses)):
        if accept[i]:
            j = index.find(x, y)
            if j is not None:
                accept[j] = True

    elements = [e for e, a in zip(cand.elements, accept) if a]
    displacements = [d for d, a in zip(cand.displacements, accept) if a]
    return SupportSet(elements=elements, displacements=displacements)
