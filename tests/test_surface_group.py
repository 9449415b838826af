"""Tests for the genus-2 word machinery, the octagon realization, lattice
enumeration, and kernel support sets."""

import itertools
import math
import random

import numpy as np
import pytest

from covergap.hyperbolic import (
    distance,
    geodesic_point,
    mobius_apply,
    pairwise_cosh_distance,
)
from covergap.surface_group import (
    BASE_POINT,
    MAX_R,
    _cell,
    _OrbitIndex,
    _rot_about_i,
    _translate_along_real,
    _translate_cosh_distance,
    SurfacePresentation,
    build_bolza_realization,
    dehn_reduce,
    evaluate,
    free_reduce,
    inverse_word,
    lattice_points,
    support_radius,
    support_set,
)
from geometry_oracle import act, in_fundamental_domain

SQRT2 = math.sqrt(2.0)
LETTERS = (1, 2, 3, 4, -1, -2, -3, -4)


@pytest.fixture(scope="module")
def real():
    return build_bolza_realization()


def _displacement(M):
    """d(i, M i) from the matrix entries: cosh d = (a^2 + b^2 + c^2 + d^2) / 2."""
    return math.acosh(max(1.0, float((M ** 2).sum()) / 2.0))


@pytest.fixture(scope="module")
def pres(real):
    return real.presentation


def random_reduced_word(rng, length):
    w = []
    while len(w) < length:
        l = rng.choice(LETTERS)
        if w and l == -w[-1]:
            continue
        w.append(l)
    return tuple(w)


def proj_close(A, B, rtol=1e-10):
    scale = max(1.0, np.abs(B).max())
    d = min(np.abs(A - B).max(), np.abs(A + B).max())
    return d <= rtol * scale


# ----------------------------------------------------------------- words

def test_free_reduce():
    assert free_reduce(()) == ()
    assert free_reduce((1, 2, -2, -1)) == ()
    assert free_reduce((1, 2, -2, 3)) == (1, 3)
    assert free_reduce((1, -2, 2, -1, 4)) == (4,)


def test_inverse_word_and_concat():
    w = (1, -3, 2, 2)
    assert inverse_word(w) == (-2, -2, 3, -1)
    assert free_reduce(w + inverse_word(w)) == ()
    assert free_reduce((1, 2) + (-2, 3)) == (1, 3)


def test_presentation():
    p = SurfacePresentation(genus=2)
    assert p.relator == (1, 2, -1, -2, 3, 4, -3, -4)
    assert {abs(letter) for letter in p.relator} == {1, 2, 3, 4}
    with pytest.raises(ValueError):
        SurfacePresentation(genus=1)


# ------------------------------------------------------------------ Dehn

def test_dehn_relator_rotations_vanish(pres):
    r = pres.relator
    for k in range(len(r)):
        rot = r[k:] + r[:k]
        assert dehn_reduce(rot, pres) == ()
        assert dehn_reduce(inverse_word(rot), pres) == ()


def test_dehn_w_winv_vanishes(pres):
    rng = random.Random(7)
    for _ in range(2000):
        w = random_reduced_word(rng, rng.randint(0, 12))
        assert dehn_reduce(free_reduce(w + inverse_word(w)), pres) == ()


def test_dehn_relator_conjugates_vanish(pres):
    rng = random.Random(13)
    r = pres.relator
    for _ in range(300):
        u = random_reduced_word(rng, rng.randint(0, 8))
        k = rng.randrange(8)
        rr = r[k:] + r[:k]
        if rng.random() < 0.5:
            rr = inverse_word(rr)
        assert dehn_reduce(free_reduce(u + rr + inverse_word(u)), pres) == ()


def test_dehn_idempotent_and_reducing(pres):
    rng = random.Random(17)
    for _ in range(500):
        w = random_reduced_word(rng, rng.randint(0, 14))
        out = dehn_reduce(w, pres)
        assert len(out) <= len(w)
        assert dehn_reduce(out, pres) == out


def test_short_words_never_trivial(real, pres):
    # The shortest relation in the group has length 8, so every nonempty
    # reduced word of length <= 5 is a nontrivial element. Check that both
    # Dehn reduction and the matrix realization agree on this, exhaustively.
    eye = np.eye(2)
    level = {(): eye}
    margin = math.inf
    for _ in range(5):
        nxt = {}
        for w, M in level.items():
            for l in LETTERS:
                if w and l == -w[-1]:
                    continue
                nxt[w + (l,)] = M @ real.letter_matrix(l)
        for w, M in nxt.items():
            assert dehn_reduce(w, pres) != ()
            margin = min(margin, min(np.abs(M - eye).max(), np.abs(M + eye).max()))
        level = nxt
    # nearest approach of any nontrivial short word to +-identity
    assert margin > 0.1


def test_dehn_preserves_group_element(real, pres):
    # words containing relator chunks: the reduction must not change the
    # matrix (the relator evaluates to +I, so not even the sign flips)
    rng = random.Random(23)
    r = pres.relator
    for _ in range(200):
        u = random_reduced_word(rng, rng.randint(0, 5))
        v = random_reduced_word(rng, rng.randint(0, 5))
        k = rng.randrange(8)
        piece = (r[k:] + r[:k])[: rng.randint(5, 8)]
        w = free_reduce(u + piece + v)
        A = evaluate(w, real)
        B = evaluate(dehn_reduce(w, pres), real)
        # the unreduced product passes through larger intermediates than the
        # reduced one, so allow a little forward-error headroom
        assert proj_close(A, B, rtol=1e-9)


# ----------------------------------------------------------- realization

def test_generator_traces_and_translation_lengths(real):
    for M in real.generator_matrices:
        tr = abs(np.trace(M))
        assert tr == pytest.approx(2.0 + 2.0 * SQRT2, abs=1e-9)
        length = 2.0 * math.acosh(tr / 2.0)
        assert length == pytest.approx(2.0 * math.acosh(1.0 + SQRT2), abs=1e-9)


def test_relator_evaluates_to_identity(real):
    M = evaluate(real.presentation.relator, real)
    assert np.abs(M - np.eye(2)).max() < 1e-9


def test_side_pairing_words_match_matrices(real):
    for P, w in zip(real.side_pairings, real.side_pairing_words):
        assert proj_close(evaluate(w, real), P, rtol=1e-10)
        assert abs(np.trace(P)) > 2.0 + 1e-6
        d = distance(BASE_POINT, act(P, BASE_POINT))
        assert d == pytest.approx(2.0 * math.acosh(1.0 + SQRT2), abs=1e-9)


def test_octagon_area_is_4pi(real):
    # independent check: triangulate from the center, hyperbolic triangle
    # area = pi - angle sum, angles from the law of cosines
    verts = real.domain_vertices
    c = BASE_POINT

    def angle(a, b, opp):
        return math.acos(
            (math.cosh(a) * math.cosh(b) - math.cosh(opp))
            / (math.sinh(a) * math.sinh(b))
        )

    total = 0.0
    for j in range(8):
        v, w = verts[j], verts[(j + 1) % 8]
        A, B, C = distance(c, v), distance(c, w), distance(v, w)
        total += math.pi - angle(A, B, C) - angle(A, C, B) - angle(B, C, A)
    assert total == pytest.approx(4.0 * math.pi, abs=1e-9)


def test_vertices_and_diameter(real):
    verts = real.domain_vertices
    assert len(verts) == 8
    circ = math.acosh(3.0 + 2.0 * SQRT2)
    for v in verts:
        assert distance(BASE_POINT, v) == pytest.approx(circ, abs=1e-9)
    dmax = max(
        distance(verts[i], verts[j])
        for i in range(8)
        for j in range(i + 1, 8)
    )
    assert dmax == pytest.approx(2.0 * circ, abs=1e-9)


def test_side_pairings_glue_sides(real):
    verts = real.domain_vertices
    sides = [(verts[j], verts[(j + 1) % 8]) for j in range(8)]

    def is_side(p, q):
        for a, b in sides:
            if (distance(p, a) < 1e-9 and distance(q, b) < 1e-9) or (
                distance(p, b) < 1e-9 and distance(q, a) < 1e-9
            ):
                return True
        return False

    for P in real.side_pairings:
        glued = sum(1 for v, w in sides if is_side(act(P, v), act(P, w)))
        assert glued >= 1


def test_in_fundamental_domain(real):
    assert in_fundamental_domain(real, BASE_POINT)
    for v in real.domain_vertices:
        assert in_fundamental_domain(real, v, slack=1e-9)
        assert not in_fundamental_domain(real, v, slack=-1e-6)
    assert not in_fundamental_domain(real, (5.0, 0.01))
    for P in real.side_pairings:
        z = act(P, BASE_POINT)
        assert not in_fundamental_domain(real, z, slack=-1e-6)


@pytest.mark.parametrize("stored, shape", [
    (lambda real: real.side_pairings, (2, 2)),
    (lambda real: real.generator_matrices, (2, 2)),
    (lambda real: [M for _, M in support_set(real, 1.0).elements], (2, 2)),
    (lambda real: [M for _, M in lattice_points(real, 5.0)], (2, 2)),
    (lambda real: [real.domain_vertices], (8, 2)),
], ids=["side_pairings", "generator_matrices", "support_set", "lattice_points",
        "domain_vertices"])
def test_group_elements_are_read_only_matrices(real, stored, shape):
    # a group element is a float64 2x2 array, and the polygon's vertices
    # one (8, 2) array, that no caller can write to
    arrays = stored(real)
    assert len(arrays) > 0
    for M in arrays:
        assert isinstance(M, np.ndarray) and M.dtype == np.float64 and M.shape == shape
        with pytest.raises(ValueError, match="read-only"):
            M[0, 0] = 0.0


# ---------------------------------------------------------------- lattice

def test_lattice_origin(real):
    L = lattice_points(real, 0.0)
    assert len(L) == 1
    w, M = L[0]
    assert w == ()
    assert proj_close(M, np.eye(2))
    assert _displacement(M) == 0.0


def test_lattice_r4_identity_plus_pairings(real):
    L = lattice_points(real, 4.0)
    assert len(L) == 9
    mats = [M for _, M in L]
    for P in real.side_pairings:
        assert sum(1 for M in mats if proj_close(M, P, rtol=1e-8)) == 1
    disps = sorted(map(_displacement, mats))
    assert disps[0] == 0.0
    for d in disps[1:]:
        assert d == pytest.approx(2.0 * math.acosh(1.0 + SQRT2), abs=1e-9)


def test_lattice_words_and_displacements_consistent(real):
    L = lattice_points(real, 5.0)
    base = BASE_POINT
    disps = []
    for w, M in L:
        assert proj_close(evaluate(w, real), M, rtol=1e-9)
        disps.append(distance(base, act(M, base)))
        assert disps[-1] == pytest.approx(_displacement(M), abs=1e-9)
        assert dehn_reduce(w, real.presentation) == w
    # sorted by displacement, up to roundoff between equal displacements
    assert all(a <= b + 1e-9 for a, b in zip(disps, disps[1:]))


def test_lattice_monotone_and_frozen_counts(real):
    counts = [len(lattice_points(real, R)) for R in (0.0, 2.0, 4.0, 5.0, 6.0, 8.0)]
    assert all(a <= b for a, b in zip(counts, counts[1:]))
    assert counts[0] == 1
    assert counts[2] == 9
    assert counts[4] == 97
    assert counts[5] == 793


def test_lattice_enumeration_cap(real):
    with pytest.raises(ValueError, match=f"enumeration cap {MAX_R}"):
        lattice_points(real, MAX_R + 0.5)


@pytest.mark.parametrize("R", [math.nan, math.inf, -math.inf])
def test_lattice_rejects_non_finite_radius(real, R):
    # cosh(nan) would disable the pruning and the search would never end
    with pytest.raises(ValueError, match="finite"):
        lattice_points(real, R)


def test_lattice_against_unpruned_enumeration(real):
    # oracle: all products of side pairings to depth 7, no pruning, dedup by
    # rounded sign-normalized entries; compare the displacement <= R slices
    gens = real.side_pairings

    def keys(mats):
        flat = mats.reshape(len(mats), 4).copy()
        lead = flat[np.arange(len(flat)), np.argmax(np.abs(flat) > 1e-9, axis=1)]
        flat *= np.sign(lead)[:, None]
        return np.round(flat, 6)

    level = np.eye(2)[None]
    seen = {tuple(k) for k in keys(level)}
    all_mats = [np.eye(2)]
    for _ in range(7):
        prod = np.einsum("nij,gjk->ngik", level, gens).reshape(-1, 2, 2)
        prod /= np.sqrt(np.linalg.det(prod))[:, None, None]
        kk = keys(prod)
        fresh = []
        for M, k in zip(prod, kk):
            t = tuple(k)
            if t not in seen:
                seen.add(t)
                fresh.append(M)
                all_mats.append(M)
        if not fresh:
            break
        level = np.array(fresh)

    all_mats = np.array(all_mats)
    a, b, c, d = all_mats[:, 0, 0], all_mats[:, 0, 1], all_mats[:, 1, 0], all_mats[:, 1, 1]
    x, y = BASE_POINT
    den = (c * x + d) ** 2 + (c * y) ** 2
    gx = ((a * x + b) * (c * x + d) + a * c * y * y) / den
    gy = y / den
    disp = np.arccosh(np.maximum(1.0, 1.0 + ((gx - x) ** 2 + (gy - y) ** 2) / (2 * y * gy)))

    for R in (4.0, 5.0):
        want = {tuple(k) for k in keys(all_mats[disp <= R + 1e-9])}
        L = lattice_points(real, R)
        got = {tuple(k) for k in keys(np.array([M for _, M in L]))}
        assert got == want


def _orbit_points(mats):
    """x and y of gamma i for each matrix of a stacked (n, 2, 2) array."""
    return mobius_apply(mats, np.array([BASE_POINT]))[:, 0].T


def test_lattice_at_cap_has_distinct_orbit_points(real):
    # at the cap, matrix-entry quantization once let 10 elements in twice;
    # scan 3x3 blocks of side-5 cells in (X1, X2), which hold every pair
    # less than 5 apart there (a duplicate pair is about 1e-10 apart, and
    # neighbours of one orbit level 2 sinh(apothem) = 4.39)
    L = lattice_points(real, MAX_R)
    assert len(L) == 40905
    x, y = _orbit_points(np.array([M for _, M in L]))
    X1, X2 = x / y, (x * x + y * y - 1.0) / (2.0 * y)
    cells = {}
    for k, key in enumerate(zip(np.floor(X1 / 5.0).astype(int),
                                np.floor(X2 / 5.0).astype(int))):
        cells.setdefault(key, []).append(k)
    nearest = math.inf
    for (i, j), members in cells.items():
        block = [q for di in (-1, 0, 1) for dj in (-1, 0, 1)
                 for q in cells.get((i + di, j + dj), ())]
        for p in members:
            for q in block:
                if q != p:
                    eps = ((x[p] - x[q]) ** 2 + (y[p] - y[q]) ** 2) / (2.0 * y[p] * y[q])
                    nearest = min(nearest, math.acosh(1.0 + eps))
    apothem = math.acosh(1.0 + SQRT2)
    assert 2.0 * apothem - 1e-6 <= nearest < 2.0 * apothem + 1e-6


def test_orbit_index_finds_perturbed_elements(real):
    mats = np.array([M for _, M in lattice_points(real, 6.0)])
    index = _OrbitIndex()
    for x, y in zip(*_orbit_points(mats)):
        index.add(x, y)
    for sign in (1.0, -1.0):
        for signs in itertools.product((-1.0, 1.0), repeat=4):
            noisy = sign * mats * (1.0 + 1e-9 * np.reshape(signs, (2, 2)))
            for k, (x, y) in enumerate(zip(*_orbit_points(noisy))):
                assert index.find(x, y) == k
                i, j = _cell(x, y)
                hits = {index.cells.get((i + di, j + dj))
                        for di in (-1, 0, 1) for dj in (-1, 0, 1)}
                assert hits - {None} == {k}
    # a point 1e-3 from an element, inside its cell block: not a duplicate
    x, y = _orbit_points(mats[5:6])
    with pytest.raises(RuntimeError, match="distinct orbit points"):
        index.find(x[0] + 1e-3 * y[0], y[0])


# ---------------------------------------------------------------- support

def test_support_identity_and_pairings(real):
    ss = support_set(real, 0.5)
    assert () in [w for w, _ in ss.elements]
    mats = [M for _, M in ss.elements]
    for P in real.side_pairings:
        assert any(proj_close(M, P, rtol=1e-8) for M in mats)
        assert any(proj_close(M, np.linalg.inv(P), rtol=1e-8) for M in mats)
    assert support_radius(0.5) >= 2.0 * real.circumradius + 0.5
    assert max(map(_displacement, mats)) <= support_radius(0.5)


def test_support_inverse_closed(real):
    ss = support_set(real, 1.0)
    mats = [M for _, M in ss.elements]
    for M in mats:
        Minv = np.linalg.inv(M)
        assert any(proj_close(N, Minv, rtol=1e-7) for N in mats)


def test_support_counts_and_growth(real):
    # 8 octagons meet at every vertex (cone angle 2pi), so the tiles touching
    # the central one number 8*7 minus the 8 side-neighbours counted at both
    # of their shared vertices: 48, plus the identity = 49. The next ring
    # sits at distance arccosh(2 + 2 sqrt 2) = 2.2568, so the count is flat
    # on t <= 1.5.
    sizes = {}
    for t in (0.0, 0.5, 1.0, 1.5):
        ss = support_set(real, t)
        sizes[t] = len(ss)
        assert max(len(w) for w, _ in ss.elements) <= 6
    assert sizes[0.0] == 49
    assert sizes[1.5] == 49
    C = sizes[0.5] / math.exp(1.0)
    for t in (0.5, 1.0, 1.5):
        assert sizes[t] <= C * math.exp(2.0 * t) + 1e-9


def test_support_t0_elements_touch_domain(real):
    # at t = 0 every admitted translate must actually meet the closed domain
    verts = real.domain_vertices
    pts = [BASE_POINT] + verts.tolist()
    for j in range(8):
        (vx, vy), (wx, wy) = verts[j], verts[(j + 1) % 8]
        pts.append(((vx + wx) / 2, math.sqrt(vy * wy)))
    ss = support_set(real, 0.0)
    X = np.array(pts)
    for wd, M in ss.elements:
        a, b, c, d = M.ravel()
        den = (c * X[:, 0] + d) ** 2 + (c * X[:, 1]) ** 2
        gx = ((a * X[:, 0] + b) * (c * X[:, 0] + d) + a * c * X[:, 1] ** 2) / den
        gy = X[:, 1] / den
        dx = X[:, 0][:, None] - gx[None, :]
        dy = X[:, 1][:, None] - gy[None, :]
        cmin = (1.0 + (dx * dx + dy * dy) / (2.0 * X[:, 1][:, None] * gy[None, :])).min()
        assert math.acosh(max(1.0, cmin)) < 0.2


def _boundary_samples(real, per_side=64):
    """per_side uniform samples of each side of the polygon (vertices
    included) and the largest arclength gap between consecutive ones."""
    verts = real.domain_vertices.tolist()
    pts, gap = [], 0.0
    for v, w in zip(verts, verts[1:] + verts[:1]):
        gap = max(gap, distance(v, w) / per_side)
        pts += [geodesic_point(v, w, i / per_side) for i in range(per_side)]
    return np.array(pts), gap


def _bracketed_distances(real, t, per_side):
    """The candidates of support_set at t and their exact cosh d(P, gamma P),
    checked against per_side boundary samples of each polygon: the closest
    sample pair is no nearer, and at most one sample gap farther (each
    closest point is within half a gap of a sample). Rounding allowance:
    1e-10 relative on the cosh scale; the largest excess measured out to
    t = 7 is 2e-13."""
    cand = lattice_points(real, support_radius(t))
    mats = np.stack([M for _, M in cand])
    exact = _translate_cosh_distance(real.domain_vertices, mats)
    S, gap = _boundary_samples(real, per_side)
    sampled = np.array([pairwise_cosh_distance(S, mobius_apply(M, S)).min() for M in mats])
    assert (exact <= sampled * (1.0 + 1e-10)).all()
    assert (np.arccosh(sampled) <= np.arccosh(np.maximum(exact, 1.0)) + gap + 1e-9).all()
    return cand, exact


def _dense_partners(mats):
    """For each of a stack (n, 2, 2) of group elements, the positions j
    with M_i M_j = +-I entrywise to 1e-9 times the product of their
    largest entries, from all n^2 products."""
    prod = np.einsum("iab,jbc->ijac", mats, mats)
    dev = np.minimum(np.abs(prod - np.eye(2)).max(axis=(2, 3)),
                     np.abs(prod + np.eye(2)).max(axis=(2, 3)))
    scale = np.abs(mats).max(axis=(1, 2))
    return [np.flatnonzero(row).tolist() for row in dev <= 1e-9 * np.outer(scale, scale)]


@pytest.mark.parametrize("t", [0.0, 0.05, 0.25, 0.5, 1.0, 1.5, 2.0, 2.25, 2.5, 3.0, 3.5, 4.0])
def test_support_set_equals_dense_filter(real, t):
    # every distance is bracketed by 64 samples per side, and S(t) is
    # exactly the lattice candidates with d <= t, in candidate order and
    # with their matrices bit for bit, each paired with its one inverse
    cand, exact = _bracketed_distances(real, t, per_side=64)
    want = [g for g, c in zip(cand, exact) if c <= math.cosh(t) * (1.0 + 1e-7)]
    ss = support_set(real, t)
    assert [w for w, _ in ss.elements] == [w for w, _ in want]
    assert [M.tobytes() for _, M in ss.elements] == [M.tobytes() for _, M in want]
    assert _dense_partners(np.stack([M for _, M in ss.elements])) == [[j] for j in ss.partners]


@pytest.mark.parametrize("t", [1.0, 4.0])
def test_support_set_indexes_only_its_elements(real, monkeypatch, t):
    # the search enters S(t) alone: its _OrbitIndex files each element once
    # and nothing else
    added = []
    add = _OrbitIndex.add

    def counted(self, x, y):
        added.append((x, y))
        add(self, x, y)

    monkeypatch.setattr(_OrbitIndex, "add", counted)
    ss = support_set(real, t)
    assert len(added) == len(ss)


def test_support_set_drops_an_element_whose_inverse_is_rejected(real, monkeypatch):
    # the distance test turns down one element's inverse only: the search
    # still enters the element, finds no inverse for it and drops it, and
    # every element left keeps its one inverse partner
    full = support_set(real, 1.0)
    i = len(full) - 1
    j = full.partners[i]
    gone = full.elements[j][1]
    exact = _translate_cosh_distance

    def rejecting(P, g):
        d = exact(P, g)
        d[np.minimum(np.abs(g - gone).max(axis=(1, 2)),
                     np.abs(g + gone).max(axis=(1, 2))) <= 1e-9] = np.inf
        return d

    monkeypatch.setattr("covergap.surface_group._translate_cosh_distance", rejecting)
    ss = support_set(real, 1.0)
    mats = np.stack([M for _, M in ss.elements])
    for k in (i, j):
        M = full.elements[k][1]
        assert np.minimum(np.abs(mats - M).max(axis=(1, 2)),
                          np.abs(mats + M).max(axis=(1, 2))).min() > 1e-3
    assert len(ss) == len(full) - 2
    assert {w for w, _ in ss.elements} < {w for w, _ in full.elements}
    assert _dense_partners(mats) == [[p] for p in ss.partners]


def test_support_set_enumeration_cap(real):
    # the search admits displacements out to support_radius(t), which
    # must stay within MAX_R
    t = MAX_R - support_radius(0.0) + 0.5
    with pytest.raises(ValueError, match=f"enumeration cap {MAX_R}"):
        support_set(real, t)
    with pytest.raises(ValueError, match="finite"):
        support_set(real, math.nan)
    with pytest.raises(ValueError, match="nonnegative"):
        support_set(real, -0.5)


def test_support_set_sees_a_common_perpendicular(real):
    # P moved by D along the axis of a pair of opposite sides is D - 2 rho
    # from P, along that axis, between the midpoints of two sides: no
    # vertex-to-side distance is that short
    rho = math.acosh(1.0 + SQRT2)
    P = real.domain_vertices
    for k in range(4):
        for D in (2.5 * rho, 3.0 * rho, 5.0 * rho):
            M = _rot_about_i(k * math.pi / 4.0) @ _translate_along_real(D) \
                @ _rot_about_i(-k * math.pi / 4.0)
            cosh_d = _translate_cosh_distance(P, M[None])[0]
            assert math.acosh(cosh_d) == pytest.approx(D - 2.0 * rho, abs=1e-9)


def test_translate_distance_holds_far_out(real):
    # at t = 6 candidates reach displacement 10.9 (MAX_R is 12) and their
    # vertices hyperboloid coordinates 3e5; 16 samples per side still
    # bracket every distance
    _bracketed_distances(real, 6.0, per_side=16)
