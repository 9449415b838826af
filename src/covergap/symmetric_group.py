"""Symmetric-group machinery: permutations, characters, and exact uniform
sampling of surface-relation tuples.

The sampler draws (A_1, B_1, ..., A_g, B_g) with prod [A_i, B_i] = e exactly
uniformly, by resolving conjugacy classes one commutator at a time with
exact integer class weights, then realizing each commutator pair through
a class-rejection step and a uniform centralizer coset element. Every
1/d_lambda in the character sums is replaced by the integer codimension
n!/d_lambda, and the Frobenius-Mednykh count of Hom is
n! sum_lambda codim^{2g-2}. One CharacterTable per n holds the characters
as a read-only int64 array (its last column the degrees), the class sizes
and the codimensions; every weight reads it. The table comes from the
Murnaghan-Nakayama rule applied a whole table at a time, as signed
border-strip-removal matrices times smaller tables, and is verified against
orthogonality, with every degree dividing n!, when it is built. The class
weights of one target are one matrix-vector product over all classes, run
exactly in float64 on base-2^b digits (_exact_tdot) and rebuilt as Python
integers. Permutations are read-only image tuples, and each rejection loop
is capped by its exact acceptance odds (_tries).
"""

import math
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Tuple

import numpy as np

# -------------------------------------------------------------- permutations


def _compose(p: tuple, q: tuple) -> tuple:
    """p after q on image tuples: (p q)(i) = p(q(i))."""
    return tuple([p[j] for j in q])


def _inverse(p: tuple) -> tuple:
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def _cycles(p: tuple) -> List[Tuple[int, ...]]:
    """Zero-based cycle decomposition of an image tuple, fixed points
    included, each cycle from its smallest point, in order of that point."""
    seen = [False] * len(p)
    out = []
    for start in range(len(p)):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        j = p[start]
        while j != start:
            cyc.append(j)
            seen[j] = True
            j = p[j]
        out.append(tuple(cyc))
    return out


def _cycle_type(p: tuple) -> Tuple[int, ...]:
    seen = [False] * len(p)
    lengths = []
    for start in range(len(p)):
        if not seen[start]:
            j, k = start, 0
            while not seen[j]:
                seen[j] = True
                j = p[j]
                k += 1
            lengths.append(k)
    lengths.sort(reverse=True)
    return tuple(lengths)


class Permutation(tuple):
    """A bijection of {0..n-1} in one-line notation, as the read-only tuple
    of its images: p[i] is the image of i.

    Composition is (p * q)(i) = p(q(i)). Equality, hashing, pickling and len
    are tuple's, so a Permutation equals the plain tuple of its images.
    """

    __slots__ = ()

    def __new__(cls, images0):
        t = tuple(images0)
        if sorted(t) != list(range(len(t))):
            raise ValueError("not a permutation of 0..n-1")
        return super().__new__(cls, t)

    @classmethod
    def _of(cls, images0: tuple) -> "Permutation":
        """Wrap an image tuple already known to be a permutation, without
        validating it again."""
        return tuple.__new__(cls, images0)

    @property
    def images0(self) -> tuple:
        return tuple(self)

    @property
    def n(self) -> int:
        return len(self)

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation._of(tuple(range(n)))

    def __mul__(self, other: "Permutation") -> "Permutation":
        if len(self) != len(other):
            raise ValueError("size mismatch")
        return Permutation._of(_compose(self, other))

    def inverse(self) -> "Permutation":
        return Permutation._of(_inverse(self))

    def is_identity(self) -> bool:
        return self == tuple(range(len(self)))

    def cycle_type(self) -> Tuple[int, ...]:
        return _cycle_type(self)

    def __repr__(self):
        return f"Permutation({list(self)})"


def commutator(A: Permutation, B: Permutation) -> Permutation:
    """A B A^-1 B^-1."""
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
def _beta_masks(k: int) -> np.ndarray:
    """The beta-set mask with k beads of every partition of k, in
    partitions(k) order, as int64 (below 2^(2k))."""
    return np.array([_beta_mask(lam, k) for lam in partitions(k)], dtype=np.int64)


def _strip_matrix(k: int, r: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The signed border-strip-removal matrix R_{k,r} as its entries (rows,
    cols, signs), intp indices and int64 signs, sorted by row: rows are the
    partitions lam of k, columns the partitions nu of k - r, and the entry
    is (-1)^height when removing one border strip of length r takes lam to
    nu.

    On the beta-set mask of lam, a strip is a bead at b with b - r free, and
    its height is the number of beads strictly between; every mask and
    every bead position b < 2k is tested at once. nu has at most k - r
    parts, so its r lowest beads sit at 0..r-1 and shifting them out leaves
    its mask with k - r beads."""
    masks = _beta_masks(k)[:, None]
    low = np.arange(2 * k - r)  # b - r for every bead position b in [r, 2k)
    rows, low = np.nonzero((masks >> (low + r)) & ~(masks >> low) & 1)
    mask = masks[rows, 0]
    nu = (mask ^ (1 << (low + r)) ^ (1 << low)) >> r
    height = np.bitwise_count((mask >> (low + 1)) & ((1 << (r - 1)) - 1))
    sub = _beta_masks(k - r)
    order = np.argsort(sub)
    cols = order[np.searchsorted(sub, nu, sorter=order)]
    return rows, cols, np.where(height & 1, -1, 1).astype(np.int64)


@lru_cache(maxsize=None)
def _table_array(k: int) -> np.ndarray:
    """The character table of S_k as a read-only int64 array, rows lambda
    and columns mu in partitions(k) order.

    The columns mu with largest part r are one contiguous block, and their
    remainders nu = mu[1:] are, in the same order, the partitions of k - r
    with largest part at most r: a suffix of partitions(k - r). By
    Murnaghan-Nakayama the block is R_{k,r} @ T_{k-r}[:, suffix], each row
    of it the sum of its strips' signed rows of T_{k-r} (np.add.reduceat
    over R_{k,r}'s entries, sorted by row). int64 is exact: every entry
    satisfies |chi| <= sqrt(k!) (column orthogonality), and each output is
    a signed sum of at most k entries (one per bead), which stays below
    2^63 for every k <= 31."""
    parts = partitions(k)
    # k = 0 keeps the ones, the table [[1]] of S_0; for k > 0 the blocks
    # overwrite every column
    out = np.ones((len(parts), len(parts)), dtype=np.int64)
    start = 0
    for r in range(k, 0, -1):
        rest = partitions(k - r)
        first = next(j for j, nu in enumerate(rest) if not nu or nu[0] <= r)
        stop = start + len(rest) - first
        rows, cols, signs = _strip_matrix(k, r)
        lams, heads = np.unique(rows, return_index=True)
        terms = _table_array(k - r)[cols, first:]
        np.negative(terms, out=terms, where=(signs < 0)[:, None])
        block = np.zeros((len(parts), stop - start), dtype=np.int64)
        block[lams] = np.add.reduceat(terms, heads, axis=0)
        out[:, start:stop] = block
        start = stop
    out.flags.writeable = False
    return out


def _square_limbs(X: np.ndarray) -> List[np.ndarray]:
    """X * X entrywise as base-2^32 limbs, float64 arrays with entries in
    [0, 2^32), lowest first, trailing all-zero limbs dropped. Exact for
    every int64 X with |X| < 2^63: |X| = hi 2^32 + lo splits each square
    into lo^2 + 2 hi lo 2^32 + hi^2 2^64, and the carries run in uint64,
    where lo^2 < 2^64, 2 hi lo + (lo^2 >> 32) < 2^64 and
    hi^2 + carry < 2^63."""
    x = np.abs(X).astype(np.uint64)
    lo, hi = x & 0xFFFFFFFF, x >> 32
    t = lo * lo
    limbs = [t & 0xFFFFFFFF]
    t = 2 * hi * lo + (t >> 32)
    limbs.append(t & 0xFFFFFFFF)
    t = hi * hi + (t >> 32)
    limbs += [t & 0xFFFFFFFF, t >> 32]
    while len(limbs) > 1 and not limbs[-1].any():
        limbs.pop()
    return [L.astype(np.float64) for L in limbs]


def _exact_tdot(limbs: List[np.ndarray], shift: int, v) -> List[int]:
    """sum_lam A[lam, K] v_lam for every column K of A = sum_i limbs[i]
    2^(shift i), exactly, as Python ints; the limbs are float64 arrays of
    integers and v is a sequence of Python ints, one per row.

    v is split into base-2^b digits, all but the top one in [0, 2^b) and
    the top one signed with |digit| < 2^b, and each limb meets all digits
    in one float64 BLAS product. With p < 2^P rows and |limb entry| <
    2^alpha, b = 53 - P - alpha makes every partial sum of every product an
    integer of size below p 2^alpha 2^b <= 2^53, so no addition rounds in
    any order. Each column's result is rebuilt from the products' int64
    values, shifted, in Python ints."""
    alpha = int(max(max(L.max(), -L.min()) for L in limbs)).bit_length()
    b = 53 - len(v).bit_length() - alpha
    if b < 1:
        raise ArithmeticError("limbs too wide for an exact float64 product")
    top = max(abs(x) for x in v).bit_length() + 1  # |v| < 2^(top - 1)
    count = -(-top // b)
    V = np.array(v, dtype=object)
    digits = [(V >> (b * j)) & ((1 << b) - 1) for j in range(count - 1)]
    D = np.stack(digits + [V >> (b * (count - 1))], axis=1).astype(np.float64)
    out = 0
    for i, L in enumerate(limbs):
        scale = np.array([1 << (shift * i + b * j) for j in range(count)], dtype=object)
        out = out + ((L.T @ D).astype(np.int64).astype(object) * scale).sum(axis=1)
    return out.tolist()


@dataclass(frozen=True, eq=False)
class CharacterTable:
    """The character table of S_n with the class data the sampler reads.

    chi[lam, mu] is chi_lam at the class of cycle type mu, both in
    partitions(n) order, as the read-only int64 array _table_array(n). The
    last class is (1^n), so its column is the degrees d_lam. Products of
    character values and codimensions leave int64; every weight computes
    them exactly (_exact_tdot, triple_count) and returns Python ints.

    index is the position of each partition (cycle type) in partitions,
    order is n!, codims are n!/d_lam (each 1/d_lam becomes codim/n! in
    integers; exact, since character_table checks that every degree
    divides n!) and square_limbs is chi * chi entrywise as base-2^32
    float64 limbs (_square_limbs). character_table builds them all.
    """

    n: int
    partitions: Tuple[Tuple[int, ...], ...]
    class_sizes: Tuple[int, ...]
    chi: np.ndarray
    index: dict
    order: int
    codims: Tuple[int, ...]
    square_limbs: List[np.ndarray]

    def class_count(self, e_idx: int, c_idx: int, s: int) -> int:
        """|E||C| s / (n!)^2, checked to be a natural number: the class
        triple count for s = sum_lam chi_E chi_C chi_Z codim."""
        val, rem = divmod(self.class_sizes[e_idx] * self.class_sizes[c_idx] * s,
                          self.order**2)
        if rem or val < 0:
            raise ArithmeticError(
                f"class triple count {val} + {rem}/{self.order**2} "
                "is not a natural number"
            )
        return val

    def triple_count(self, e_idx: int, c_idx: int, z_idx: int) -> int:
        """#{(y, x) in E x C : y x = z} for one fixed z in class Z:
        |E||C| sum chi_E chi_C chi_Z codim / (n!)^2."""
        cols = self.chi[:, [e_idx, c_idx, z_idx]].tolist()
        s = sum(a * b * c * w for (a, b, c), w in zip(cols, self.codims))
        return self.class_count(e_idx, c_idx, s)


MAX_N = 24


@lru_cache(maxsize=None)
def character_table(n: int) -> CharacterTable:
    """Full integer character table of S_n, orthogonality-verified, with
    every degree checked to divide n!."""
    if not 1 <= n <= MAX_N:
        raise ValueError(f"n must be in [1, {MAX_N}]")
    X = _table_array(n)
    _verify_table(n, X)
    parts = partitions(n)
    order, degrees = math.factorial(n), tuple(X[:, -1].tolist())
    if any(order % d for d in degrees):
        raise ArithmeticError(f"a character degree does not divide {n}!")
    return CharacterTable(
        n=n, partitions=parts,
        class_sizes=tuple(class_size(n, mu) for mu in parts), chi=X,
        index={lam: i for i, lam in enumerate(parts)}, order=order,
        codims=tuple(order // d for d in degrees), square_limbs=_square_limbs(X),
    )


def _gram(X: np.ndarray) -> Tuple[int, List[np.ndarray]]:
    """X^T X of an int64 table exactly, as (h, G): int64 arrays with
    X^T X = sum_s G[s] 2^(h s), every G[s] but the last in [0, 2^h) and the
    last signed, so that the digits of an integer matrix are unique.

    X is split into m signed base-2^h digits D_i, m the fewest with
    p 2^(2h) <= 2^53 for p rows, and each D_i^T D_j is one float64 BLAS
    product: every |digit| <= 2^h, so every partial sum is an integer of
    size at most 2^53 and no addition rounds in any order. The products of
    each weight 2^(h (i + j)) are added in int64 and the carries
    propagated."""
    p = len(X)
    alpha = int(np.abs(X).max()).bit_length()
    m = 1
    while p << (2 * -(-alpha // m)) > 1 << 53:
        m += 1
    h = max(-(-alpha // m), 1)
    D = [(X >> (h * i)) & ((1 << h) - 1) for i in range(m - 1)] + [X >> (h * (m - 1))]
    D = [d.astype(np.float64) for d in D]
    G = [0] * (2 * m - 1)
    for i in range(m):
        for j in range(i, m):
            prod = (D[i].T @ D[j]).astype(np.int64)
            G[i + j] = G[i + j] + (prod if i == j else prod + prod.T)
    for s in range(2 * m - 2):
        G[s + 1] = G[s + 1] + (G[s] >> h)
        G[s] = G[s] & ((1 << h) - 1)
    return h, G


def _verify_table(n: int, X: np.ndarray) -> None:
    """Check the int64 character table X of S_n (rows lambda, columns mu in
    partitions(n) order): the trivial row, the squared degrees, the size of
    every value and column orthogonality,
    sum_lam chi_lam(mu) chi_lam(nu) = z_mu delta_mu,nu, exactly: the
    Gram matrix X^T X comes as base-2^h digits (_gram), compared with the
    digits of diag(z_mu).
    """
    fact = math.factorial(n)
    if (X[0] != 1).any():
        raise AssertionError("trivial character row is not all ones")
    # the degrees are the last column, the class (1^n); squared as Python ints
    if sum(d * d for d in X[:, -1].tolist()) != fact:
        raise AssertionError("sum of squared dimensions != n!")
    if np.abs(X).max() > math.isqrt(fact):
        raise AssertionError("character value exceeds sqrt(n!)")
    h, G = _gram(X)
    z = [centralizer_order(mu) for mu in partitions(n)]
    bad = np.zeros(G[0].shape, dtype=bool)
    for s, digits in enumerate(G):
        want = [c >> (h * s) for c in z]
        if s < len(G) - 1:
            want = [w & ((1 << h) - 1) for w in want]
        bad |= digits != np.diag(np.array(want, dtype=np.int64))
    bad = np.argwhere(np.triu(bad))
    if len(bad):
        mu, nu = bad[0]
        raise AssertionError(f"column orthogonality fails at {mu},{nu}")


def count_homs(n: int, g: int) -> int:
    """|Hom| for the genus-g surface group:
    (n!)^{2g-1} sum_lam d^{2-2g} = n! sum_lam codim^{2g-2}."""
    if g < 1:
        raise ValueError("genus must be at least 1")
    tab = character_table(n)
    return tab.order * sum(w ** (2 * g - 2) for w in tab.codims)


# ------------------------------------------------------------ class weights


@lru_cache(maxsize=None)
def _f_k(n: int, k: int) -> Tuple[int, ...]:
    """Per class, the number of 2k-tuples whose commutator product equals
    one fixed representative of the class: (n!)^{2k-1} sum chi(c) / d^{2k-1}
    = sum chi(c) codim^{2k-1}, for all classes as one exact product
    chi^T codim^{2k-1} (_exact_tdot)."""
    tab = character_table(n)
    powers = [w ** (2 * k - 1) for w in tab.codims]
    return tuple(_exact_tdot([tab.chi.astype(np.float64)], 0, powers))


@lru_cache(maxsize=None)
def _identity_target_weights(n: int, k: int) -> Tuple[int, ...]:
    """Class weights |C| M(C) f_{k-1}(C) for the last of k commutators when
    the remaining product must close to the identity; their total recovers
    the Frobenius-Mednykh count, which is asserted."""
    ws = tuple(
        size * m * f
        for size, m, f in zip(character_table(n).class_sizes, _f_k(n, 1), _f_k(n, k - 1))
    )
    if not sum(ws) == count_homs(n, k):
        raise ArithmeticError(f"class weights miss the count of Hom at n={n}, k={k}")
    return ws


@lru_cache(maxsize=None)
def _pair_class_weights(n: int, c_type: Tuple[int, ...]) -> Tuple[int, ...]:
    """For [A,B] = c: weights N_K(c) * |Z_K| over the class K of A, with
    N_K(c) the class triple count |K|^2 S_K / (n!)^2 and
    S_K = sum_lam chi_lam(K)^2 chi_lam(c) codim_lam; every S_K comes from
    one exact product (chi * chi)^T v, v = chi(c) codim (_exact_tdot). The
    total must equal M(c), which is asserted."""
    tab = character_table(n)
    c_idx = tab.index[c_type]
    v = [x * w for x, w in zip(tab.chi[:, c_idx].tolist(), tab.codims)]
    sums = _exact_tdot(tab.square_limbs, 32, v)
    ws = tuple(
        tab.class_count(k, k, s) * (tab.order // size)
        for k, (s, size) in enumerate(zip(sums, tab.class_sizes))
    )
    if not sum(ws) == _f_k(n, 1)[c_idx]:
        raise ArithmeticError(f"pair class weights miss M(c) at n={n}, c={c_type}")
    return ws


# ------------------------------------------------------------- realizations
#
# The rejection loops and realizations below run on plain image tuples and
# wrap only their results as Permutation.


@lru_cache(maxsize=None)
def _canonical_of_type(n: int, ctype: Tuple[int, ...]) -> tuple:
    """Cycles laid out consecutively: (0 1 .. k1-1)(k1 ..)..."""
    img = [0] * n
    pos = 0
    for length in ctype:
        for j in range(length):
            img[pos + j] = pos + (j + 1) % length
        pos += length
    return tuple(img)


def _uniform_in_class(n: int, ctype: Tuple[int, ...], rng) -> tuple:
    """s r s^-1 for the canonical r of the class and a uniform shuffle s:
    it maps s(i) to s(r(i))."""
    rep = _canonical_of_type(n, ctype)
    s = list(range(n))
    rng.shuffle(s)
    img = [0] * n
    for i, j in enumerate(rep):
        img[s[i]] = s[j]
    return tuple(img)


def _cycles_by_length(p: tuple) -> dict:
    """p's _cycles grouped by length, in order of first occurrence."""
    by_len = {}
    for c in _cycles(p):
        by_len.setdefault(len(c), []).append(c)
    return by_len


def _matching_conjugator(p: tuple, q: tuple) -> tuple:
    """Some b with b p b^-1 = q (p, q of equal cycle type)."""
    by_len_q = _cycles_by_length(q)
    img = [0] * len(p)
    for length, cps in _cycles_by_length(p).items():
        for cp, cq in zip(cps, by_len_q[length]):
            for a, b in zip(cp, cq):
                img[a] = b
    return tuple(img)


def _uniform_centralizer(p: tuple, rng) -> tuple:
    """Uniform element of Z(p): permute equal-length cycles and rotate each."""
    img = [0] * len(p)
    for length, cycs in _cycles_by_length(p).items():
        order = list(range(len(cycs)))
        rng.shuffle(order)
        for i, c in enumerate(cycs):
            target = cycs[order[i]]
            off = rng.randrange(length)
            for j in range(length):
                img[c[j]] = target[(j + off) % length]
    return tuple(img)


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


def _tries(accepted: int, total: int) -> int:
    """Tries for a rejection loop that accepts with odds accepted / total:
    more than 64 / odds, so a valid draw runs out with probability below
    (1 - odds)^(64 / odds) < e^-64."""
    return 64 * total // accepted + 1


def _commutator_pair(c: Permutation, rng) -> Tuple[Permutation, Permutation]:
    """Uniform (A, B) with [A, B] = c, among all M(c) such pairs.

    Write c = u v with u, v in a common class K (S_n classes are closed
    under inversion): pairs with A in K number N_K(c) |Z_K|. Pick K by those
    exact weights, draw u uniform in K by rejection on u^-1 c landing back
    in K, then B runs over the coset b0 Z(u^-1) of solutions of
    B u^-1 B^-1 = u^-1 c. N_K(c) of the |K| = n!/|Z_K| draws of u land, so
    the rejection accepts with odds N_K(c) |Z_K| / n!, K's weight over n!.
    """
    n = len(c)
    weights = _pair_class_weights(n, c.cycle_type())
    k = _weighted_choice(weights, rng)
    ktype = partitions(n)[k]
    for _ in range(_tries(weights[k], math.factorial(n))):
        u = _uniform_in_class(n, ktype, rng)
        u_inv = _inverse(u)
        v = _compose(u_inv, c)
        if _cycle_type(v) == ktype:
            break
    else:
        raise RuntimeError("commutator realization did not converge")
    b0 = _matching_conjugator(u_inv, v)
    A = Permutation._of(u)
    B = Permutation._of(_compose(b0, _uniform_centralizer(u_inv, rng)))
    if not commutator(A, B) == c:
        raise RuntimeError("commutator realization does not hit its target")
    return A, B


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
        for i, j in enumerate(p):
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


def sample_uniform_hom(n: int, g: int, seed) -> HomTuple:
    """Exactly uniform draw from Hom(genus-g surface group, S_n).

    Peels commutators from the last one: with k still open and the prefix
    product required to reach `target`, the class pair (C, E) of
    (x_k, target x_k^-1) is drawn with exact weight M(C) T(E,C;target)
    f_{k-1}(E), x_k uniform in its qualifying slice by rejection, the pair
    (A_k, B_k) realized uniformly over [A_k,B_k] = x_k, and the recursion
    continues toward target x_k^-1. Every weight is an exact integer, so
    the output law is exactly uniform (each tuple has probability
    1/|Hom|, the product of its per-step factors). x_k lands in its slice
    with odds T(E,C;target) / |C|, which caps its rejection loop (_tries).
    """
    if g < 1:
        raise ValueError("genus must be at least 1")
    rng = random.Random(seed)
    tab = character_table(n)
    types = tab.partitions
    pairs: List[Tuple[Permutation, Permutation]] = []  # (A_g,B_g) first
    identity = tuple(range(n))
    target = identity  # image tuples, as in the realizations
    for k in range(g, 1, -1):
        if target == identity:
            # E is forced to C (classes are self-paired) and the triple
            # count degenerates to |C|
            ci = _weighted_choice(_identity_target_weights(n, k), rng)
            x = _uniform_in_class(n, types[ci], rng)
        else:
            z_idx = tab.index[_cycle_type(target)]
            fes = _f_k(n, k - 1)
            cand, weights = [], []
            for ci, mc in enumerate(_f_k(n, 1)):
                if mc == 0:
                    continue
                for ei, fe in enumerate(fes):
                    if fe == 0:
                        continue
                    tc = tab.triple_count(ei, ci, z_idx)
                    if tc:
                        cand.append((ci, ei, tc))
                        weights.append(mc * tc * fe)
            ci, ei, tc = cand[_weighted_choice(weights, rng)]
            etype = types[ei]
            for _ in range(_tries(tc, tab.class_sizes[ci])):
                x = _uniform_in_class(n, types[ci], rng)
                if _cycle_type(_compose(target, _inverse(x))) == etype:
                    break
            else:
                raise RuntimeError("class-pair rejection did not converge")
        pairs.append(_commutator_pair(Permutation._of(x), rng))
        target = _compose(target, _inverse(x))
    pairs.append(_commutator_pair(Permutation._of(target), rng))
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
