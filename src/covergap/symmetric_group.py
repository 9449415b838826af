"""Symmetric-group machinery: permutations, characters, and exact uniform
sampling of surface-relation tuples.

The sampler draws (A_1, B_1, ..., A_g, B_g) with prod [A_i, B_i] = e exactly
uniformly, by resolving conjugacy classes one commutator at a time with
exact big-integer class weights, then realizing each commutator pair through
a class-rejection step and a uniform centralizer coset element. The weights
are plain Python integers: every 1/d_lambda in the character sums is
replaced by the integer codimension n!/d_lambda. Character tables come from
the Murnaghan-Nakayama rule applied a whole table at a time, as signed
border-strip-removal matrices times smaller tables, and are verified against
orthogonality when a table is built.
"""

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import List, Tuple

import numpy as np
from scipy.sparse import csr_matrix

# -------------------------------------------------------------- permutations


class Permutation:
    """A bijection of {0..n-1} in one-line notation: images0[i] is the image
    of i.

    Composition is (p * q)(i) = p(q(i)).
    """

    __slots__ = ("images0",)

    def __init__(self, images0):
        t = tuple(images0)
        if sorted(t) != list(range(len(t))):
            raise ValueError("not a permutation of 0..n-1")
        object.__setattr__(self, "images0", t)

    def __setattr__(self, *a):
        raise AttributeError("Permutation is immutable")

    def __reduce__(self):
        # pickle and deepcopy would restore the slot through __setattr__
        return (Permutation, (self.images0,))

    @property
    def n(self) -> int:
        return len(self.images0)

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(range(n))

    def __mul__(self, other: "Permutation") -> "Permutation":
        if self.n != other.n:
            raise ValueError("size mismatch")
        p, q = self.images0, other.images0
        return Permutation(tuple(p[j] for j in q))

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, j in enumerate(self.images0):
            inv[j] = i
        return Permutation(inv)

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images0 == other.images0

    def __hash__(self):
        return hash(self.images0)

    def is_identity(self) -> bool:
        return self.images0 == tuple(range(self.n))

    def cycles(self) -> List[Tuple[int, ...]]:
        """Zero-based cycle decomposition, fixed points included."""
        seen = [False] * self.n
        out = []
        for start in range(self.n):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            j = self.images0[start]
            while j != start:
                cyc.append(j)
                seen[j] = True
                j = self.images0[j]
            out.append(tuple(cyc))
        return out

    def cycle_type(self) -> Tuple[int, ...]:
        return tuple(sorted((len(c) for c in self.cycles()), reverse=True))

    def conjugate_by(self, s: "Permutation") -> "Permutation":
        """s * self * s^-1."""
        return s * self * s.inverse()

    def __repr__(self):
        return f"Permutation({list(self.images0)})"


def commutator(A: Permutation, B: Permutation) -> Permutation:
    """A B A^-1 B^-1."""
    if A.n != B.n:
        raise ValueError("size mismatch")
    return A * B * A.inverse() * B.inverse()


# ---------------------------------------------------------------- partitions


@lru_cache(maxsize=None)
def partitions(n: int) -> Tuple[Tuple[int, ...], ...]:
    """All partitions of n, descending parts, [n] first and [1^n] last."""

    def gen(total, largest):
        if total == 0:
            yield ()
            return
        for first in range(min(total, largest), 0, -1):
            for rest in gen(total - first, first):
                yield (first,) + rest

    return tuple(gen(n, n))


def centralizer_order(ctype: Tuple[int, ...]) -> int:
    """z_mu = prod k^{m_k} m_k! for a cycle type mu."""
    z = 1
    mult = {}
    for part in ctype:
        mult[part] = mult.get(part, 0) + 1
    for k, m in mult.items():
        z *= k**m * math.factorial(m)
    return z


def class_size(n: int, ctype: Tuple[int, ...]) -> int:
    return math.factorial(n) // centralizer_order(ctype)


# -------------------------------------------------------- Murnaghan-Nakayama


def _beta_mask(lam: Tuple[int, ...], beads: int) -> int:
    """The beta-set of lam with `beads` beads, bead i at lam_i + beads-1-i,
    as a bit mask."""
    padded = tuple(lam) + (0,) * (beads - len(lam))
    return sum(1 << (part + beads - 1 - i) for i, part in enumerate(padded))


@lru_cache(maxsize=None)
def _beta_index(k: int) -> dict:
    """Index in partitions(k) of each partition's beta-set mask with k
    beads, keyed in partitions(k) order."""
    return {_beta_mask(lam, k): i for i, lam in enumerate(partitions(k))}


def _strip_matrix(k: int, r: int) -> csr_matrix:
    """The signed border-strip-removal matrix R_{k,r}: rows are the
    partitions lam of k, columns the partitions nu of k - r, and the entry is
    (-1)^height when removing one border strip of length r takes lam to nu.

    On the beta-set mask of lam, a strip is a bead at b with b - r free, and
    its height is the number of beads strictly between. nu has at most
    k - r parts, so its r lowest beads sit at 0..r-1 and shifting them out
    leaves its mask with k - r beads."""
    cols = _beta_index(k - r)
    between = (1 << (r - 1)) - 1
    data, indices, indptr = [], [], [0]
    for mask in _beta_index(k):
        cand = mask & ~(mask << r) & ~((1 << r) - 1)
        while cand:
            bead = cand & -cand
            cand ^= bead
            low = bead.bit_length() - 1 - r
            indices.append(cols[(mask ^ bead ^ (1 << low)) >> r])
            data.append(-1 if ((mask >> (low + 1)) & between).bit_count() & 1 else 1)
        indptr.append(len(indices))
    return csr_matrix((np.array(data, dtype=np.int64), indices, indptr),
                      shape=(len(indptr) - 1, len(cols)))


@lru_cache(maxsize=None)
def _table_array(k: int) -> np.ndarray:
    """The character table of S_k as a read-only int64 array, rows lambda
    and columns mu in partitions(k) order.

    The columns mu with largest part r are one contiguous block, and their
    remainders nu = mu[1:] are, in the same order, the partitions of k - r
    with largest part at most r: a suffix of partitions(k - r). By
    Murnaghan-Nakayama the block is R_{k,r} @ T_{k-r}[:, suffix]. int64 is
    exact: every entry satisfies |chi| <= sqrt(k!) (column orthogonality),
    and each output is a signed sum of at most k entries (one per bead),
    which stays below 2^63 for every k <= 31."""
    parts = partitions(k)
    # k = 0 keeps the ones, the table [[1]] of S_0; for k > 0 the blocks
    # overwrite every column
    out = np.ones((len(parts), len(parts)), dtype=np.int64)
    start = 0
    for r in range(k, 0, -1):
        rest = partitions(k - r)
        first = next(j for j, nu in enumerate(rest) if not nu or nu[0] <= r)
        stop = start + len(rest) - first
        out[:, start:stop] = _strip_matrix(k, r) @ _table_array(k - r)[:, first:]
        start = stop
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class CharacterTable:
    n: int
    partitions: Tuple[Tuple[int, ...], ...]
    class_sizes: Tuple[int, ...]
    chi: Tuple[Tuple[int, ...], ...]  # chi[lam_index][class_index]

    @property
    def dimensions(self) -> Tuple[int, ...]:
        one = self.partitions.index((1,) * self.n)
        return tuple(row[one] for row in self.chi)


MAX_N = 16


@lru_cache(maxsize=None)
def character_table(n: int) -> CharacterTable:
    """Full integer character table of S_n, orthogonality-verified."""
    if not 1 <= n <= MAX_N:
        raise ValueError(f"n must be in [1, {MAX_N}]")
    X = _table_array(n)
    _verify_table(n, X)
    parts = partitions(n)
    sizes = tuple(class_size(n, mu) for mu in parts)
    # .tolist() gives Python ints: the sampler multiplies character values
    # and codimensions beyond int64
    chi = tuple(map(tuple, X.tolist()))
    return CharacterTable(n=n, partitions=parts, class_sizes=sizes, chi=chi)


def _gram(X: np.ndarray) -> np.ndarray:
    """X^T X of an integer table as a float64 BLAS product."""
    Xf = X.astype(np.float64)
    return Xf.T @ Xf


def _verify_table(n: int, X: np.ndarray) -> None:
    """Check the int64 character table X of S_n (rows lambda, columns mu in
    partitions(n) order): the trivial row, the squared degrees, the size of
    every value and column orthogonality.

    The Gram product X^T X is taken in float64, where BLAS runs it, and is
    exact once |chi| <= sqrt(n!) holds, which is checked before it: each
    product is then an integer of size at most n!, and for n <= MAX_N = 16
    every partial sum of p(16) = 231 such terms is an integer below
    231 * 16! ~ 4.8e15 < 2^53, so no addition rounds in any order. For a
    true table the sums are even smaller,
    |sum_lam chi_lam(mu) chi_lam(nu)| <= sqrt(z_mu z_nu) <= 16! ~ 2.1e13 by
    Cauchy-Schwarz.
    """
    fact = math.factorial(n)
    if (X[0] != 1).any():
        raise AssertionError("trivial character row is not all ones")
    # the degrees are the last column, the class (1^n); squared as Python ints
    if sum(d * d for d in X[:, -1].tolist()) != fact:
        raise AssertionError("sum of squared dimensions != n!")
    if np.abs(X).max() > math.isqrt(fact):
        raise AssertionError("character value exceeds sqrt(n!)")
    # column orthogonality: sum_lam chi_lam(mu) chi_lam(nu) = z_mu delta_mu,nu
    want = np.diag([float(centralizer_order(mu)) for mu in partitions(n)])
    bad = np.argwhere(np.triu(_gram(X) != want))
    if len(bad):
        mu, nu = bad[0]
        raise AssertionError(f"column orthogonality fails at {mu},{nu}")


def count_homs(n: int, g: int) -> int:
    """|Hom| for the genus-g surface group: (n!)^{2g-1} sum_lam d^{2-2g}."""
    if g < 1:
        raise ValueError("genus must be at least 1")
    tab = character_table(n)
    fact = math.factorial(n)
    total = sum(Fraction(1, d ** (2 * g - 2)) for d in tab.dimensions)
    total *= Fraction(fact) ** (2 * g - 1)
    if not total.denominator == 1:
        raise ArithmeticError(f"Frobenius-Mednykh count {total} is not an integer")
    return int(total)


# ------------------------------------------------------------ class weights


class _SamplerTables:
    """Exact integer class data shared by all samples at one n."""

    def __init__(self, n: int):
        self.n = n
        self.tab = character_table(n)
        self.types = self.tab.partitions  # cycle types = partitions
        self.index = {t: i for i, t in enumerate(self.types)}
        self.sizes = self.tab.class_sizes
        self.fact = math.factorial(n)
        self.dims = self.tab.dimensions
        if any(self.fact % d for d in self.dims):
            raise ArithmeticError(f"a character degree does not divide {n}!")
        # n!/d_lambda, so that each 1/d_lambda becomes codim/n! in integers
        self.codims = tuple(self.fact // d for d in self.dims)
        # per class, the character vector over lambda
        self.chi_by_class = list(zip(*self.tab.chi))

    def triple_count(self, e_idx: int, c_idx: int, z_idx: int) -> int:
        """#{(y, x) in E x C : y x = z} for one fixed z in class Z:
        |E||C| sum chi_E chi_C chi_Z codim / (n!)^2."""
        s = sum(
            a * b * c * w
            for a, b, c, w in zip(
                self.chi_by_class[e_idx],
                self.chi_by_class[c_idx],
                self.chi_by_class[z_idx],
                self.codims,
            )
        )
        val, rem = divmod(self.sizes[e_idx] * self.sizes[c_idx] * s, self.fact**2)
        if rem or val < 0:
            raise ArithmeticError(
                f"class triple count {val} + {rem}/{self.fact**2} "
                "is not a natural number"
            )
        return val


@lru_cache(maxsize=None)
def _sampler_tables(n: int) -> _SamplerTables:
    return _SamplerTables(n)


@lru_cache(maxsize=None)
def _f_k(n: int, class_idx: int, k: int) -> int:
    """Number of 2k-tuples whose commutator product equals one fixed
    representative of the class: (n!)^{2k-1} sum chi(c) / d^{2k-1}
    = sum chi(c) codim^{2k-1}."""
    st = _sampler_tables(n)
    return sum(
        c * w ** (2 * k - 1) for c, w in zip(st.chi_by_class[class_idx], st.codims)
    )


@lru_cache(maxsize=None)
def _identity_target_weights(n: int, k: int) -> Tuple[int, ...]:
    """Class weights |C| M(C) f_{k-1}(C) for the last of k commutators when
    the remaining product must close to the identity; their total recovers
    the Frobenius-Mednykh count, which is asserted."""
    st = _sampler_tables(n)
    ws = tuple(
        st.sizes[i] * _f_k(n, i, 1) * _f_k(n, i, k - 1) for i in range(len(st.types))
    )
    if not sum(ws) == count_homs(n, k):
        raise ArithmeticError(f"class weights miss the count of Hom at n={n}, k={k}")
    return ws


@lru_cache(maxsize=None)
def _pair_class_weights(n: int, c_type: Tuple[int, ...]) -> Tuple[int, ...]:
    """For [A,B] = c: weights N_K(c) * |Z_K| over the class K of A; the
    total must equal M(c), which is asserted."""
    st = _sampler_tables(n)
    c_idx = st.index[c_type]
    ws = tuple(
        st.triple_count(k, k, c_idx) * (st.fact // st.sizes[k])
        for k in range(len(st.types))
    )
    if not sum(ws) == _f_k(n, c_idx, 1):
        raise ArithmeticError(f"pair class weights miss M(c) at n={n}, c={c_type}")
    return ws


# ------------------------------------------------------------- realizations


def _canonical_of_type(n: int, ctype: Tuple[int, ...]) -> Permutation:
    """Cycles laid out consecutively: (0 1 .. k1-1)(k1 ..)..."""
    img = [0] * n
    pos = 0
    for length in ctype:
        for j in range(length):
            img[pos + j] = pos + (j + 1) % length
        pos += length
    return Permutation(img)


def _uniform_in_class(n: int, ctype: Tuple[int, ...], rng) -> Permutation:
    rep = _canonical_of_type(n, ctype)
    s = list(range(n))
    rng.shuffle(s)
    return rep.conjugate_by(Permutation(s))


def _matching_conjugator(p: Permutation, q: Permutation) -> Permutation:
    """Some b with b p b^-1 = q (p, q of equal cycle type)."""
    by_len_p, by_len_q = {}, {}
    for c in p.cycles():
        by_len_p.setdefault(len(c), []).append(c)
    for c in q.cycles():
        by_len_q.setdefault(len(c), []).append(c)
    img = [0] * p.n
    for length, cps in by_len_p.items():
        for cp, cq in zip(cps, by_len_q[length]):
            for a, b in zip(cp, cq):
                img[a] = b
    return Permutation(img)


def _uniform_centralizer(p: Permutation, rng) -> Permutation:
    """Uniform element of Z(p): permute equal-length cycles and rotate each."""
    by_len = {}
    for c in p.cycles():
        by_len.setdefault(len(c), []).append(c)
    img = [0] * p.n
    for length, cycs in by_len.items():
        order = list(range(len(cycs)))
        rng.shuffle(order)
        for i, c in enumerate(cycs):
            target = cycs[order[i]]
            off = rng.randrange(length)
            for j in range(length):
                img[c[j]] = target[(j + off) % length]
    return Permutation(img)


def _weighted_choice(weights, rng) -> int:
    """Index distributed by exact (big) integer weights."""
    total = sum(weights)
    r = rng.randrange(total)
    acc = 0
    for i, w in enumerate(weights):
        acc += w
        if r < acc:
            return i
    raise AssertionError("unreachable")


_REJECT_CAP = 100000


def _class_elements(n: int, ctype: Tuple[int, ...]):
    """All elements of one conjugacy class (small-class fallback)."""
    import itertools

    rep = _canonical_of_type(n, ctype)
    seen = set()
    for s in itertools.permutations(range(n)):
        p = rep.conjugate_by(Permutation(s))
        if p.images0 not in seen:
            seen.add(p.images0)
            yield p


def _commutator_pair(c: Permutation, rng) -> Tuple[Permutation, Permutation]:
    """Uniform (A, B) with [A, B] = c, among all M(c) such pairs.

    Write c = u v with u, v in a common class K (S_n classes are closed
    under inversion): pairs with A in K number N_K(c) |Z_K|. Pick K by those
    exact weights, draw u uniform in K by rejection on u^-1 c landing back
    in K, then B runs over the coset b0 Z(u^-1) of solutions of
    B u^-1 B^-1 = u^-1 c.
    """
    n = c.n
    st = _sampler_tables(n)
    weights = _pair_class_weights(n, c.cycle_type())
    k_idx = _weighted_choice(weights, rng)
    ktype = st.types[k_idx]
    u = None
    for _ in range(_REJECT_CAP):
        cand = _uniform_in_class(n, ktype, rng)
        if (cand.inverse() * c).cycle_type() == ktype:
            u = cand
            break
    if u is None:
        # expected tries are on the order of the class count, so reaching
        # here is freak weather; enumerate the class if that is feasible
        if st.sizes[k_idx] > 2_000_000:
            raise RuntimeError("commutator realization did not converge")
        pool = [
            p
            for p in _class_elements(n, ktype)
            if (p.inverse() * c).cycle_type() == ktype
        ]
        u = pool[rng.randrange(len(pool))]
    v = u.inverse() * c
    b0 = _matching_conjugator(u.inverse(), v)
    B = b0 * _uniform_centralizer(u.inverse(), rng)
    if not commutator(u, B) == c:
        raise RuntimeError("commutator realization does not hit its target")
    return u, B


# ------------------------------------------------------------------- tuples


@dataclass(frozen=True)
class HomTuple:
    n: int
    genus: int
    gens: Tuple[Permutation, ...]  # (A1, B1, ..., Ag, Bg)
    relation_ok: bool
    transitive: bool


def _relation_holds(gens) -> bool:
    n = gens[0].n
    prod = Permutation.identity(n)
    for i in range(0, len(gens), 2):
        prod = prod * commutator(gens[i], gens[i + 1])
    return prod.is_identity()


def _orbits_cover_all(n: int, gens) -> bool:
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for p in gens:
        for i, j in enumerate(p.images0):
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[ri] = rj
    return len({find(i) for i in range(n)}) == 1


def make_hom_tuple(n, genus, gens) -> HomTuple:
    gens = tuple(gens)
    if len(gens) != 2 * genus:
        raise ValueError("need 2*genus generator images")
    return HomTuple(
        n=n,
        genus=genus,
        gens=gens,
        relation_ok=_relation_holds(gens),
        transitive=_orbits_cover_all(n, gens),
    )


def sample_uniform_hom(n: int, g: int = 2, seed=None) -> HomTuple:
    """Exactly uniform draw from Hom(genus-g surface group, S_n).

    Peels commutators from the last one: with k still open and the prefix
    product required to reach `target`, the class pair (C, E) of
    (x_k, target x_k^-1) is drawn with exact weight M(C) T(E,C;target)
    f_{k-1}(E), x_k uniform in its qualifying slice by rejection, the pair
    (A_k, B_k) realized uniformly over [A_k,B_k] = x_k, and the recursion
    continues toward target x_k^-1. Every weight is an exact integer, so
    the output law is exactly uniform (each tuple has probability
    1/|Hom|, the product of its per-step factors).
    """
    if g < 1:
        raise ValueError("genus must be at least 1")
    if not 1 <= n <= MAX_N:
        raise ValueError(f"n must be in [1, {MAX_N}]")
    rng = random.Random(seed)
    st = _sampler_tables(n)
    ncls = len(st.types)
    pairs: List[Tuple[Permutation, Permutation]] = []  # (A_g,B_g) first
    target = Permutation.identity(n)
    for k in range(g, 1, -1):
        if target.is_identity():
            # E is forced to C (classes are self-paired) and the triple
            # count degenerates to |C|
            ci = _weighted_choice(_identity_target_weights(n, k), rng)
            x = _uniform_in_class(n, st.types[ci], rng)
        else:
            z_idx = st.index[target.cycle_type()]
            cand, weights = [], []
            for ci in range(ncls):
                mc = _f_k(n, ci, 1)
                if mc == 0:
                    continue
                for ei in range(ncls):
                    fe = _f_k(n, ei, k - 1)
                    if fe == 0:
                        continue
                    tc = st.triple_count(ei, ci, z_idx)
                    if tc:
                        cand.append((ci, ei))
                        weights.append(mc * tc * fe)
            ci, ei = cand[_weighted_choice(weights, rng)]
            etype = st.types[ei]
            for _ in range(_REJECT_CAP):
                x = _uniform_in_class(n, st.types[ci], rng)
                if (target * x.inverse()).cycle_type() == etype:
                    break
            else:
                raise RuntimeError("class-pair rejection did not converge")
        pairs.append(_commutator_pair(x, rng))
        target = target * x.inverse()
    pairs.append(_commutator_pair(target, rng))
    flat = tuple(p for ab in reversed(pairs) for p in ab)
    out = make_hom_tuple(n, g, flat)
    if not out.relation_ok:
        raise RuntimeError("sampled tuple violates the surface relation")
    return out


def evaluate_word(t: HomTuple, word) -> Permutation:
    """Word in letters +-1..+-2g through the tuple, left-to-right."""
    p = Permutation.identity(t.n)
    for letter in word:
        gp = t.gens[abs(letter) - 1]
        if letter < 0:
            gp = gp.inverse()
        p = p * gp
    return p
