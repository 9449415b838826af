"""Tests for the genus-2 word machinery, the octagon realization, lattice
enumeration, and kernel support sets."""

import itertools
import math
import random

import numpy as np
import pytest

from covergap.hyperbolic import HPoint, distance, mobius_apply, pairwise_cosh_distance
from covergap.surface_group import (
    MAX_R,
    _boundary_samples,
    _cell,
    _orbit_points,
    _OrbitIndex,
    SurfacePresentation,
    build_bolza_realization,
    dehn_reduce,
    evaluate,
    free_reduce,
    in_fundamental_domain,
    inverse_word,
    lattice_points,
    support_radius,
    support_set,
)

SQRT2 = math.sqrt(2.0)
LETTERS = (1, 2, 3, 4, -1, -2, -3, -4)


@pytest.fixture(scope="module")
def real():
    return build_bolza_realization()


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
                nxt[w + (l,)] = M @ real.letter_matrix(l).m
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
        A = evaluate(w, real).m
        B = evaluate(dehn_reduce(w, pres), real).m
        # the unreduced product passes through larger intermediates than the
        # reduced one, so allow a little forward-error headroom
        assert proj_close(A, B, rtol=1e-9)


# ----------------------------------------------------------- realization

def test_generator_traces_and_translation_lengths(real):
    for M in real.generator_matrices:
        tr = abs(np.trace(M.m))
        assert tr == pytest.approx(2.0 + 2.0 * SQRT2, abs=1e-9)
        length = 2.0 * math.acosh(tr / 2.0)
        assert length == pytest.approx(2.0 * math.acosh(1.0 + SQRT2), abs=1e-9)


def test_relator_evaluates_to_identity(real):
    M = evaluate(real.presentation.relator, real)
    assert np.abs(M.m - np.eye(2)).max() < 1e-9


def test_side_pairing_words_match_matrices(real):
    for P, w in zip(real.side_pairings, real.side_pairing_words):
        assert proj_close(evaluate(w, real).m, P.m, rtol=1e-10)
        assert abs(np.trace(P.m)) > 2.0 + 1e-6
        d = distance(real.base_point, P.apply(real.base_point))
        assert d == pytest.approx(2.0 * math.acosh(1.0 + SQRT2), abs=1e-9)


def test_octagon_area_is_4pi(real):
    # independent check: triangulate from the center, hyperbolic triangle
    # area = pi - angle sum, angles from the law of cosines
    verts = real.domain_vertices
    c = real.base_point

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
        assert distance(real.base_point, v) == pytest.approx(circ, abs=1e-9)
    dmax = max(
        distance(verts[i], verts[j])
        for i in range(8)
        for j in range(i + 1, 8)
    )
    assert dmax == pytest.approx(2.0 * circ, abs=1e-9)
    assert real.domain_diameter == pytest.approx(dmax, abs=1e-12)


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
        glued = sum(1 for v, w in sides if is_side(P.apply(v), P.apply(w)))
        assert glued >= 1


def test_in_fundamental_domain(real):
    assert in_fundamental_domain(real, real.base_point)
    for v in real.domain_vertices:
        assert in_fundamental_domain(real, v, slack=1e-9)
        assert not in_fundamental_domain(real, v, slack=-1e-6)
    assert not in_fundamental_domain(real, HPoint(5.0, 0.01))
    for P in real.side_pairings:
        z = P.apply(real.base_point)
        assert not in_fundamental_domain(real, z, slack=-1e-6)


# ---------------------------------------------------------------- lattice

def test_lattice_origin(real):
    L = lattice_points(real, 0.0)
    assert len(L) == 1
    w, M = L.elements[0]
    assert w == ()
    assert M.is_identity()
    assert L.displacements[0] == 0.0


def test_lattice_r4_identity_plus_pairings(real):
    L = lattice_points(real, 4.0)
    assert len(L) == 9
    mats = L.isometries()
    for P in real.side_pairings:
        assert sum(1 for M in mats if M.same_as(P, tol=1e-8)) == 1
    disps = sorted(L.displacements)
    assert disps[0] == 0.0
    for d in disps[1:]:
        assert d == pytest.approx(2.0 * math.acosh(1.0 + SQRT2), abs=1e-9)


def test_lattice_words_and_displacements_consistent(real):
    L = lattice_points(real, 5.0)
    base = real.base_point
    for (w, M), d in zip(L.elements, L.displacements):
        assert proj_close(evaluate(w, real).m, M.m, rtol=1e-9)
        assert distance(base, M.apply(base)) == pytest.approx(d, abs=1e-9)
        assert dehn_reduce(w, real.presentation) == w
    assert list(L.displacements) == sorted(L.displacements)


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
    gens = np.array([P.m for P in real.side_pairings])
    base = real.base_point

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
    x, y = base.x, base.y
    den = (c * x + d) ** 2 + (c * y) ** 2
    gx = ((a * x + b) * (c * x + d) + a * c * y * y) / den
    gy = y / den
    disp = np.arccosh(np.maximum(1.0, 1.0 + ((gx - x) ** 2 + (gy - y) ** 2) / (2 * y * gy)))

    for R in (4.0, 5.0):
        want = {tuple(k) for k in keys(all_mats[disp <= R + 1e-9])}
        L = lattice_points(real, R)
        got = {tuple(k) for k in keys(np.array([M.m for M in L.isometries()]))}
        assert got == want


def test_lattice_at_cap_has_distinct_orbit_points(real):
    # at the cap, matrix-entry quantization once let 10 elements in twice;
    # scan 3x3 blocks of side-5 cells in (X1, X2), which hold every pair
    # less than 5 apart there (a duplicate pair is about 1e-10 apart, and
    # neighbours of one orbit level 2 sinh(apothem) = 4.39)
    L = lattice_points(real, MAX_R)
    assert len(L) == 40905
    x, y = _orbit_points(np.array([M.m for M in L.isometries()]))
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
    assert 2.0 * real.apothem - 1e-6 <= nearest < 2.0 * real.apothem + 1e-6


def test_orbit_index_finds_perturbed_elements(real):
    mats = np.array([M.m for M in lattice_points(real, 6.0).isometries()])
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
    mats = ss.isometries()
    for P in real.side_pairings:
        assert any(M.same_as(P, tol=1e-8) for M in mats)
        assert any(M.same_as(P.inverse(), tol=1e-8) for M in mats)
    assert support_radius(0.5) >= 2.0 * real.circumradius + 0.5
    assert max(ss.displacements) <= support_radius(0.5)


def test_support_inverse_closed(real):
    ss = support_set(real, 1.0)
    mats = ss.isometries()
    for M in mats:
        Minv = M.inverse()
        assert any(N.same_as(Minv, tol=1e-7) for N in mats)


def test_support_counts_and_growth(real):
    # 8 octagons meet at every vertex (cone angle 2pi), so the tiles touching
    # the central one number 8*7 minus the 8 side-neighbours counted at both
    # of their shared vertices: 48, plus the identity = 49. The next ring
    # sits at distance 2.25, so the count is flat on t <= 1.5.
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
    pts = [real.base_point] + list(verts)
    for j in range(8):
        v, w = verts[j], verts[(j + 1) % 8]
        pts.append(HPoint((v.x + w.x) / 2, math.sqrt(v.y * w.y)))
    ss = support_set(real, 0.0)
    X = np.array([[p.x, p.y] for p in pts])
    for wd, M in ss.elements:
        a, b, c, d = M.m.ravel()
        den = (c * X[:, 0] + d) ** 2 + (c * X[:, 1]) ** 2
        gx = ((a * X[:, 0] + b) * (c * X[:, 0] + d) + a * c * X[:, 1] ** 2) / den
        gy = X[:, 1] / den
        dx = X[:, 0][:, None] - gx[None, :]
        dy = X[:, 1][:, None] - gy[None, :]
        cmin = (1.0 + (dx * dx + dy * dy) / (2.0 * X[:, 1][:, None] * gy[None, :])).min()
        assert math.acosh(max(1.0, cmin)) < 0.2


def _dense_support_set(real, t):
    """support_set with the full boundary-sample matrix of every candidate
    and its minimum, the filter that the culled search replaced."""
    cand = lattice_points(real, support_radius(t, real.circumradius))
    S, gap = _boundary_samples(real)
    cosh_t = math.cosh(t + gap) * (1.0 + 1e-12)
    accept = [(not w) or pairwise_cosh_distance(S, mobius_apply(M.m, S)).min() <= cosh_t
              for w, M in cand.elements]
    index = _OrbitIndex()
    for x, y in zip(*_orbit_points(np.stack([M.m for M in cand.isometries()]))):
        index.add(x, y)
    inverses = _orbit_points(np.stack([M.inverse().m for M in cand.isometries()]))
    for i, (x, y) in enumerate(zip(*inverses)):
        if accept[i]:
            j = index.find(x, y)
            if j is not None:
                accept[j] = True
    return [(e, d) for e, d, a in zip(cand.elements, cand.displacements, accept) if a]


@pytest.mark.parametrize("t", [0.0, 0.5, 1.0, 2.0, 2.5])
def test_support_set_equals_dense_filter(real, t):
    # same elements in the same order, same matrices and displacements
    got = support_set(real, t)
    want = _dense_support_set(real, t)
    assert [w for w, _ in got.elements] == [w for (w, _), _ in want]
    assert [M.m.tobytes() for M in got.isometries()] == \
        [M.m.tobytes() for (_, M), _ in want]
    assert got.displacements == [d for _, d in want]
