"""Tests for permutations, characters, and the uniform relation sampler.

Counting oracles here are brute force: commutator tables over all of S_3 and
S_4, hook-length dimensions, and the fixed-point formula for the standard
character. Sampler uniformity is checked by chi-square against fully
enumerated solution sets.
"""

import copy
import itertools
import math
import operator
import pickle
import random
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from scipy.stats import chi2

import covergap.symmetric_group as symmetric_group
from covergap.symmetric_group import (
    CharacterTable,
    MAX_N,
    Permutation,
    _beta_mask,
    _commutator_pair,
    _f_k,
    _gram,
    _identity_target_weights,
    _pair_class_weights,
    _sampler_tables,
    _table_array,
    _verify_table,
    character_table,
    centralizer_order,
    class_size,
    commutator,
    count_homs,
    evaluate_word,
    make_hom_tuple,
    partitions,
    sample_uniform_hom,
)


# ------------------------------------------------- brute-force S_n utilities


def _perm_objects(n):
    return [Permutation(p) for p in itertools.permutations(range(n))]


def _comm_table(n):
    """dict (A.images0, B.images0) -> [A,B] for all of S_n x S_n."""
    perms = _perm_objects(n)
    return {
        (a.images0, b.images0): commutator(a, b) for a in perms for b in perms
    }


def _commutator_counts(n):
    """dict images0 -> number of pairs with that commutator."""
    counts = {}
    for c in _comm_table(n).values():
        counts[c.images0] = counts.get(c.images0, 0) + 1
    return counts


# ==================================================== permutation arithmetic


def test_composition_convention():
    # (p * q)(i) = p(q(i))
    p = Permutation([1, 2, 0])  # 0->1, 1->2, 2->0
    q = Permutation([0, 2, 1])
    pq = p * q
    for i in (0, 1, 2):
        assert pq.images0[i] == p.images0[q.images0[i]]
    assert pq.images0 == (1, 0, 2)


def test_inverse_and_identity():
    rng = random.Random(0)
    for n in (1, 2, 5, 9):
        for _ in range(20):
            imgs = list(range(n))
            rng.shuffle(imgs)
            p = Permutation(imgs)
            assert (p * p.inverse()).is_identity()
            assert (p.inverse() * p).is_identity()
    assert Permutation.identity(4).is_identity()


def test_cycle_structure():
    p = Permutation([1, 0, 3, 4, 2])
    assert p.cycle_type() == (3, 2)
    assert sorted(len(c) for c in p.cycles()) == [2, 3]
    assert Permutation.identity(4).cycle_type() == (1, 1, 1, 1)


def test_conjugation_preserves_type_and_moves_points():
    rng = random.Random(3)
    perms = _perm_objects(4)
    for _ in range(50):
        p, s = rng.choice(perms), rng.choice(perms)
        q = p.conjugate_by(s)
        assert q.cycle_type() == p.cycle_type()
        assert q == s * p * s.inverse()


def test_permutation_validation_and_immutability():
    with pytest.raises(ValueError):
        Permutation([0, 0, 2])
    with pytest.raises(ValueError):
        Permutation([1, 2, 3])  # one-based input, missing 0
    p = Permutation([1, 0])
    with pytest.raises(AttributeError):
        p.images0 = (0, 1)
    with pytest.raises(ValueError):
        Permutation([1, 0]) * Permutation([1, 0, 2])


def test_permutation_and_tuple_pickle_and_deepcopy():
    p = Permutation([1, 0, 2])
    t = sample_uniform_hom(6, 2, seed=3)
    for obj in (p, t):
        for back in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj)):
            assert back == obj
    back = pickle.loads(pickle.dumps(t))
    assert all(isinstance(g, Permutation) for g in back.gens)
    assert back.relation_ok and back.transitive == t.transitive
    with pytest.raises(AttributeError):
        copy.deepcopy(p).images0 = (0, 1, 2)


def test_commutator_identities():
    perms = _perm_objects(4)
    rng = random.Random(1)
    for _ in range(60):
        a, b = rng.choice(perms), rng.choice(perms)
        assert commutator(a, a).is_identity()
        assert commutator(a, b) * commutator(b, a) == Permutation.identity(4)
        s = rng.choice(perms)
        assert commutator(a, b).conjugate_by(s) == commutator(
            a.conjugate_by(s), b.conjugate_by(s)
        )


# ======================================================= partitions, classes


def test_partition_counts_and_order():
    known = [1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    for n, cnt in zip(range(1, 11), known):
        parts = partitions(n)
        assert len(parts) == cnt
        assert parts[0] == (n,)
        assert parts[-1] == (1,) * n
        for lam in parts:
            assert sum(lam) == n and list(lam) == sorted(lam, reverse=True)


def test_class_sizes_sum_to_group_order():
    for n in (3, 4, 5, 7):
        assert sum(class_size(n, mu) for mu in partitions(n)) == math.factorial(n)
    # S_4 by hand
    sizes = {mu: class_size(4, mu) for mu in partitions(4)}
    assert sizes[(4,)] == 6
    assert sizes[(3, 1)] == 8
    assert sizes[(2, 2)] == 3
    assert sizes[(2, 1, 1)] == 6
    assert sizes[(1, 1, 1, 1)] == 1


def test_centralizer_order_matches_brute_force():
    for n in (3, 4):
        perms = _perm_objects(n)
        for mu in partitions(n):
            rep = next(p for p in perms if p.cycle_type() == mu)
            z = sum(1 for s in perms if s * rep == rep * s)
            assert z == centralizer_order(mu)


# ================================================================ characters


def _hook_dimension(n, lam):
    hooks = 1
    for i, row in enumerate(lam):
        for j in range(row):
            arm = row - j - 1
            leg = sum(1 for k in range(i + 1, len(lam)) if lam[k] > j)
            hooks *= arm + leg + 1
    return math.factorial(n) // hooks


@lru_cache(maxsize=None)
def _beta_list_character(lam, mu):
    """chi_lambda at class mu by border-strip removal on a list of beta
    numbers, one entry at a time, kept as the reference for n <= 10."""
    if not mu:
        return 1 if not lam else 0
    r = mu[0]
    rest = mu[1:]
    k = len(lam)
    beta = [lam[i] + (k - 1 - i) for i in range(k)]  # strictly decreasing
    bset = set(beta)
    total = 0
    for b in beta:
        low = b - r
        if low < 0 or low in bset:
            continue
        height = sum(1 for c in beta if low < c < b)
        new = sorted((c if c != b else low for c in beta), reverse=True)
        newlam = tuple(
            p for p in (v - (k - 1 - i) for i, v in enumerate(new)) if p > 0
        )
        total += (-1) ** height * _beta_list_character(newlam, rest)
    return total


@pytest.mark.parametrize("n", range(1, 11))
def test_bitmask_table_equals_beta_list_recursion(n):
    parts = partitions(n)
    want = tuple(
        tuple(_beta_list_character(lam, mu) for mu in parts) for lam in parts
    )
    assert character_table(n).chi == want


@lru_cache(maxsize=None)
def _bitmask_character(mask, mu):
    """chi_lambda at class mu by Murnaghan-Nakayama on the beta-set mask of
    lambda, one entry at a time with the largest part of mu removed first:
    the per-entry recursion the strip-matrix tables replaced, kept as the
    reference above n = 10."""
    if not mu:
        return 1
    r, rest = mu[0], mu[1:]
    between = (1 << (r - 1)) - 1
    cand = mask & ~(mask << r) & ~((1 << r) - 1)
    total = 0
    while cand:
        bead = cand & -cand
        cand ^= bead
        low = bead.bit_length() - 1 - r
        term = _bitmask_character(mask ^ bead ^ (1 << low), rest)
        total += -term if ((mask >> (low + 1)) & between).bit_count() & 1 else term
    return total


@pytest.mark.parametrize("n", range(11, MAX_N + 1))
def test_strip_matrix_table_equals_bitmask_recursion(n):
    parts = partitions(n)
    want = tuple(
        tuple(_bitmask_character(_beta_mask(lam, n), mu) for mu in parts)
        for lam in parts
    )
    _bitmask_character.cache_clear()  # every key holds n beads
    chi = character_table(n).chi
    assert chi == want
    if n == MAX_N:
        # the sampler's products of three values and a codimension need
        # Python ints, which never wrap
        assert all(type(v) is int for row in chi for v in row)


def test_table_build_is_one_public_call(monkeypatch):
    # perfbench times the table as the character_table span; the recursion
    # over smaller tables must not add spans
    calls = []
    public = symmetric_group.character_table

    def counted(n):
        calls.append(n)
        return public(n)

    monkeypatch.setattr(symmetric_group, "character_table", counted)
    for cached in (symmetric_group._sampler_tables, public,
                   symmetric_group._table_array):
        cached.cache_clear()
    symmetric_group._sampler_tables(12)
    assert calls == [12]


def test_s3_table_exact():
    tab = character_table(3)
    want = {
        (3,): {(3,): 1, (2, 1): 1, (1, 1, 1): 1},
        (2, 1): {(3,): -1, (2, 1): 0, (1, 1, 1): 2},
        (1, 1, 1): {(3,): 1, (2, 1): -1, (1, 1, 1): 1},
    }
    for li, lam in enumerate(tab.partitions):
        for mi, mu in enumerate(tab.partitions):
            assert tab.chi[li][mi] == want[lam][mu]


def test_s4_dimensions_and_values():
    tab = character_table(4)
    assert sorted(tab.dimensions) == [1, 1, 2, 3, 3]
    idx = {lam: i for i, lam in enumerate(tab.partitions)}
    # standard representation (3,1) at a transposition has trace 1
    assert tab.chi[idx[(3, 1)]][idx[(2, 1, 1)]] == 1
    # sign of a 4-cycle is -1
    assert tab.chi[idx[(1, 1, 1, 1)]][idx[(4,)]] == -1


def test_dimensions_match_hook_lengths():
    for n in (5, 6, 8):
        tab = character_table(n)
        for lam, d in zip(tab.partitions, tab.dimensions):
            assert d == _hook_dimension(n, lam)


def test_standard_and_sign_character_formulas():
    # chi_{(n-1,1)}(mu) = fix(mu) - 1, chi_{(1^n)}(mu) = (-1)^(n - #parts)
    for n in (5, 6, 8):
        tab = character_table(n)
        idx = {lam: i for i, lam in enumerate(tab.partitions)}
        std, sgn = idx[(n - 1, 1)], idx[(1,) * n]
        for mi, mu in enumerate(tab.partitions):
            fix = sum(1 for part in mu if part == 1)
            assert tab.chi[std][mi] == fix - 1
            assert tab.chi[sgn][mi] == (-1) ** (n - len(mu))


def test_row_orthogonality():
    tab = character_table(6)
    fact = math.factorial(6)
    ncls = len(tab.partitions)
    for a in range(ncls):
        for b in range(a, ncls):
            s = sum(
                tab.class_sizes[m] * tab.chi[a][m] * tab.chi[b][m]
                for m in range(ncls)
            )
            assert s == (fact if a == b else 0)


def test_verify_table_names_the_broken_column_pair():
    X = _table_array(5)
    _verify_table(5, X)
    broken = X.copy()
    broken[2, 1] += 1  # an interior entry: row 0 and the degrees stay intact
    with pytest.raises(AssertionError,
                       match=r"column orthogonality fails at \d+,\d+") as err:
        _verify_table(5, broken)
    pair = err.value.args[0].rsplit(" ", 1)[1].split(",")
    assert "1" in pair


def test_verify_table_checks_trivial_row_degrees_and_bound():
    X = _table_array(5)
    # 11 > isqrt(5!) = 10; column -1 holds the degrees
    for (i, j), value, message in (((0, 1), 2, "trivial character row"),
                                   ((2, -1), X[2, -1] + 1, "squared dimensions"),
                                   ((2, 1), 11, "exceeds sqrt")):
        broken = X.copy()
        broken[i, j] = value
        with pytest.raises(AssertionError, match=message):
            _verify_table(5, broken)


def test_float64_gram_is_exact_at_max_n():
    # slow reference: the same Gram matrix in Python integers
    tab = character_table(MAX_N)
    cols = list(zip(*tab.chi))
    X = _table_array(MAX_N)
    gram = _gram(X)
    assert gram.dtype == np.float64
    fact = math.factorial(MAX_N)
    for i, ci in enumerate(cols):
        for j in range(i, len(cols)):
            exact = sum(map(operator.mul, ci, cols[j]))
            assert int(gram[i, j]) == exact == int(gram[j, i])
            assert exact == (fact // tab.class_sizes[i] if i == j else 0)


def test_table_bounds():
    with pytest.raises(ValueError):
        character_table(0)
    with pytest.raises(ValueError):
        character_table(MAX_N + 1)
    assert isinstance(character_table(2), CharacterTable)


# ====================================================== counting identities


def test_commutator_distribution_matches_characters():
    # brute-force M(c) against the character sum, for every class
    for n in (3, 4):
        counts = _commutator_counts(n)
        tab = character_table(n)
        idx = {lam: i for i, lam in enumerate(tab.partitions)}
        perms = _perm_objects(n)
        for p in perms:
            want = _f_k(n, idx[p.cycle_type()], 1)
            assert counts.get(p.images0, 0) == want


def test_hom_counts_small_n():
    assert count_homs(2, 2) == 16
    assert count_homs(3, 2) == 486
    assert count_homs(4, 2) == 34176


def test_hom_count_matches_brute_force_convolution():
    for n in (3, 4):
        counts = _commutator_counts(n)
        perms = _perm_objects(n)
        total = sum(
            counts.get(p.images0, 0) * counts.get(p.inverse().images0, 0)
            for p in perms
        )
        assert total == count_homs(n, 2)


def test_f2_matches_brute_force_convolution():
    # f_2(x) = sum_y M(y) M(y^-1 x), checked elementwise over S_3
    n = 3
    counts = _commutator_counts(n)
    perms = _perm_objects(n)
    tab = character_table(n)
    idx = {lam: i for i, lam in enumerate(tab.partitions)}
    for x in perms:
        f2 = sum(
            counts.get(y.images0, 0) * counts.get((y.inverse() * x).images0, 0)
            for y in perms
        )
        assert f2 == _f_k(n, idx[x.cycle_type()], 2)


def test_commuting_pair_count():
    # genus 1: number of commuting pairs is (number of classes) * n!
    for n in (3, 4):
        assert count_homs(n, 1) == len(partitions(n)) * math.factorial(n)


def _fraction_triple_count(st, e, c, z):
    """The Fraction form of the class triple count, as a dense reference."""
    s = sum(
        Fraction(a * b * x, d)
        for a, b, x, d in zip(st.chi_by_class[e], st.chi_by_class[c],
                              st.chi_by_class[z], st.dims)
    )
    val = Fraction(st.sizes[e] * st.sizes[c], st.fact) * s
    assert val.denominator == 1 and val >= 0
    return int(val)


def _fraction_f_k(st, i, k):
    s = sum(Fraction(x, d ** (2 * k - 1))
            for x, d in zip(st.chi_by_class[i], st.dims))
    val = Fraction(st.fact) ** (2 * k - 1) * s
    assert val.denominator == 1
    return int(val)


@pytest.mark.parametrize("n", range(2, 9))
def test_integer_weights_equal_fraction_weights(n):
    st = _sampler_tables(n)
    ncls = len(st.types)
    for e, c, z in itertools.product(range(ncls), repeat=3):
        assert st.triple_count(e, c, z) == _fraction_triple_count(st, e, c, z)
    for i in range(ncls):
        for k in (1, 2):
            assert _f_k(n, i, k) == _fraction_f_k(st, i, k)
    for ci, ctype in enumerate(st.types):
        want = tuple(_fraction_triple_count(st, k, k, ci) * (st.fact // st.sizes[k])
                     for k in range(ncls))
        assert _pair_class_weights(n, ctype) == want
    want = tuple(st.sizes[i] * _fraction_f_k(st, i, 1) ** 2 for i in range(ncls))
    assert _identity_target_weights(n, 2) == want


def test_pair_class_weights_total():
    for n in (4, 6):
        tab = character_table(n)
        idx = {lam: i for i, lam in enumerate(tab.partitions)}
        for ctype in tab.partitions:
            ws = _pair_class_weights(n, ctype)
            assert sum(ws) == _f_k(n, idx[ctype], 1)
            assert all(w >= 0 for w in ws)


# ============================================================= the sampler


def test_sampler_validation():
    with pytest.raises(ValueError):
        sample_uniform_hom(0, 2)
    with pytest.raises(ValueError):
        sample_uniform_hom(MAX_N + 1, 2)
    with pytest.raises(ValueError):
        sample_uniform_hom(4, 0)


def test_sampler_deterministic_by_seed():
    a = sample_uniform_hom(6, 2, seed=123)
    b = sample_uniform_hom(6, 2, seed=123)
    c = sample_uniform_hom(6, 2, seed=124)
    assert a.gens == b.gens
    assert a.gens != c.gens


def test_sampler_always_satisfies_relation():
    for n in (2, 5, 8, 11):
        for s in range(8):
            t = sample_uniform_hom(n, 2, seed=s)
            assert t.relation_ok
            assert t.n == n and t.genus == 2 and len(t.gens) == 4
    for s in range(8):
        assert sample_uniform_hom(5, 3, seed=s).relation_ok


def test_commutator_pair_uniform_over_solutions():
    # fix a 3-cycle in S_4, enumerate all (A,B) with [A,B] = c, chi-square
    n = 4
    c = Permutation([1, 2, 0, 3])
    sols = [
        (a.images0, b.images0)
        for a in _perm_objects(n)
        for b in _perm_objects(n)
        if commutator(a, b) == c
    ]
    tab = character_table(n)
    idx = {lam: i for i, lam in enumerate(tab.partitions)}
    assert len(sols) == _f_k(n, idx[c.cycle_type()], 1)
    rng = random.Random(42)
    draws = 120 * len(sols)
    obs = {s: 0 for s in sols}
    for _ in range(draws):
        A, B = _commutator_pair(c, rng)
        obs[(A.images0, B.images0)] += 1
    expected = draws / len(sols)
    stat = sum((o - expected) ** 2 / expected for o in obs.values())
    assert stat < chi2.ppf(0.999, len(sols) - 1)


def test_sampler_uniform_over_full_solution_set():
    # enumerate all 486 genus-2 solutions in S_3 and chi-square the sampler
    n = 3
    comm = _comm_table(n)
    perms = _perm_objects(n)
    keys = [p.images0 for p in perms]
    hom = [
        (a, b, c, d)
        for a in keys
        for b in keys
        for c in keys
        for d in keys
        if (comm[(a, b)] * comm[(c, d)]).is_identity()
    ]
    assert len(hom) == 486
    obs = {t: 0 for t in hom}
    draws = 100 * len(hom)
    for s in range(draws):
        t = sample_uniform_hom(n, 2, seed=s)
        obs[tuple(p.images0 for p in t.gens)] += 1
    expected = draws / len(hom)
    stat = sum((o - expected) ** 2 / expected for o in obs.values())
    assert stat < chi2.ppf(0.999, len(hom) - 1)


def test_genus3_class_marginals_match_enumeration():
    # project genus-3 S_3 solutions onto the first two commutator classes
    n = 3
    comm = _comm_table(n)
    perms = _perm_objects(n)
    keys = [p.images0 for p in perms]
    comp = {(a, b): (Permutation(a) * Permutation(b)).images0
            for a in keys for b in keys}
    inv = {p.images0: p.inverse().images0 for p in perms}
    ctype = {p.images0: p.cycle_type() for p in perms}
    cells = {}
    total = 0
    for a in keys:
        for b in keys:
            x1 = comm[(a, b)].images0
            for c in keys:
                for d in keys:
                    x2 = comm[(c, d)].images0
                    # count closings by the third commutator
                    rest = comp[(x1, x2)]
                    closings = sum(
                        1
                        for e in keys
                        for f in keys
                        if comm[(e, f)].images0 == inv[rest]
                    )
                    if closings:
                        cells[(ctype[x1], ctype[x2])] = (
                            cells.get((ctype[x1], ctype[x2]), 0) + closings
                        )
                        total += closings
    assert total == count_homs(n, 3)
    draws = 6000
    obs = {k: 0 for k in cells}
    for s in range(draws):
        t = sample_uniform_hom(n, 3, seed=s)
        k = (
            commutator(t.gens[0], t.gens[1]).cycle_type(),
            commutator(t.gens[2], t.gens[3]).cycle_type(),
        )
        obs[k] += 1
    stat = sum(
        (obs[k] - draws * cells[k] / total) ** 2 / (draws * cells[k] / total)
        for k in cells
    )
    assert stat < chi2.ppf(0.999, len(cells) - 1)


def test_transitive_fraction_is_high():
    hits = sum(sample_uniform_hom(8, 2, seed=s).transitive for s in range(40))
    assert hits >= 30


# ====================================================== tuples and actions


def test_make_hom_tuple_flags():
    n = 4
    e = Permutation.identity(n)
    t = make_hom_tuple(n, 2, (e, e, e, e))
    assert t.relation_ok and not t.transitive
    cyc = Permutation([1, 2, 3, 0])
    t2 = make_hom_tuple(n, 2, (cyc, e, e, e))
    assert t2.relation_ok and t2.transitive
    a, b = Permutation([1, 2, 0, 3]), Permutation([0, 2, 3, 1])
    t3 = make_hom_tuple(n, 1, (a, b))
    assert t3.relation_ok == commutator(a, b).is_identity()
    with pytest.raises(ValueError):
        make_hom_tuple(n, 2, (e, e, e))


def test_evaluate_word_convention():
    t = sample_uniform_hom(6, 2, seed=5)
    g1, g2 = t.gens[0], t.gens[1]
    assert evaluate_word(t, (1,)) == g1
    assert evaluate_word(t, (-1,)) == g1.inverse()
    assert evaluate_word(t, (1, 2)) == g1 * g2
    assert evaluate_word(t, ()).is_identity()
    relator = (1, 2, -1, -2, 3, 4, -3, -4)
    assert evaluate_word(t, relator).is_identity()
