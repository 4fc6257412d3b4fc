"""Fine-degree strands: the ranks of the diagonal of a bigraded complex
whose differential entries are single monomial pairs.

Along an entry (r, c) with monomial pair u, fine degrees in
Z^n × Z^m satisfy f(c) = f(r) + exp(u); one walk over the generator
graph fixes f up to a constant per connected component.  In diagonal
degree j the basis element (c, mA, mB) has fine degree
κ = f(c) + (mA, mB), which the differential keeps, so the expanded
matrix splits into one block per κ.  The block at κ has one column
per generator c with f(c) ≤ κ, and every entry of that column lands
on a row r with f(r) ≤ f(c) ≤ κ: its rank is the rank of the scalar
columns D_t[c] over those c.  The generators with f_A ≤ κ_A and those
with f_B ≤ κ_B are two bitmasks, and κ ranges over a product of an A
set and a B set, so the rank in degree j is
Σ count_A · count_B · rank(D_t on mask_A & mask_B).

The fine degrees also certify d∘d = 0 once per complex: a path
c → r → s carries the monomial of f(c) − f(s) whatever r is, so each
entry of d∘d is that monomial times an entry of the integer product
D_(t+1)·D_t of the scalar columns.  That product is zero exactly when
the bigraded complex, hence its diagonal in every degree and over every
field, has d∘d = 0.

`Strands.table` only counts the fine degrees κ of each factor per
generator mask (`mask_counts`), so it packs each κ into one int and
never builds it: a product f·m is the sum of two packed exponent
vectors (Monagan and Pearce, CASC 2007).  The counts depend only on the
ring, the level and the groups, so `table_counts` memoises them by
value for the whole process: complexes rebuilt from the same pieces
(the six shifts of one Koszul diagonal, say) count each input once.
`kappa_masks`, the same map with the κ themselves as keys, splits the
cover steps of `resolution` into fine-degree blocks.  `scalar_rows`
and `dual_column` write a δ-block of the dual of a resolution over the
scalar forms of the target (`resolution._Dual`), and `weight_classes`,
`orbit_rep` and `assert_invariant` give the group G that permutes the
equal-weight variables of each factor, by which `resolution.ext_dims`
counts δ-blocks over Q.

This code is kept out of `complexes` and `resolution` to keep those
files small: where no bytecode is cached (PYTHONDONTWRITEBYTECODE), every
run compiles the package from source, and the compiler's peak memory,
which stays in the process's peak for the whole run, grows with the
largest file.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache

from .. import linalg
from ..hilbert import WeightedRingSpec
from .poly import mono_mul, monomial_codes, monomials


class Strands:
    """Fine degrees of one bigraded complex, built by `of`, and the block
    ranks of its diagonal, each computed once per (position, column
    mask, field).  `bi` is that complex and `shift` its diagonal, so the
    operations of `complexes.DegreewiseComplex` (twist, splice, image
    term) build their strands from it."""

    def __init__(self, bi, shift, cols, parts):
        self.bi = bi
        self.specs = (bi.ringA, bi.ringB)
        self.shift = shift
        self.cols = cols  # cols[t][c] = {r: coefficient}, the columns of D_t
        # parts[t]: per component, its twist constants (a - wA·f_A, b - wB·f_B)
        # and the generator bitmasks grouped by fine degree on each side
        self.parts = parts
        self._ranks = {}  # (t, column mask, char) -> rank of the block

    @classmethod
    def of(cls, bi, shift: int) -> Strands:
        """The strands of `diagonal(bi, shift, ·)` for a `BiFreeComplex`
        bi.  Raises ValueError when an entry is not a single monomial pair
        or two paths give one generator two fine degrees (bi has no
        strands), and AssertionError when a product D_(t+1)·D_t of the
        scalar columns is not zero, or when an entry's degree is not the
        difference of its twists."""
        n = len(bi.ringA.variables)
        cols = [[dict() for _ in term] for term in bi.terms]
        edges = {}  # generator -> [(neighbour, its fine degree minus ours)]
        for t, entries in enumerate(bi.diffs):
            for (r, c), poly in entries.items():
                terms = [(u, v) for u, v in poly.items() if v]
                if not terms:
                    continue
                if len(terms) > 1:
                    raise ValueError("no strands: an entry is not a single monomial pair")
                ((ua, ub), v), = terms
                cols[t][c][r] = v
                step = ua + ub
                edges.setdefault((t, c), []).append(((t + 1, r), tuple(-e for e in step)))
                edges.setdefault((t + 1, r), []).append(((t, c), step))
        fine, comp = {}, {}
        for t, term in enumerate(bi.terms):
            for c in range(len(term)):
                if (t, c) in fine:
                    continue
                fine[(t, c)], comp[(t, c)] = (0,) * (n + len(bi.ringB.variables)), (t, c)
                stack = [(t, c)]
                while stack:
                    node = stack.pop()
                    for other, step in edges.get(node, ()):
                        f = tuple(x + y for x, y in zip(fine[node], step))
                        if other not in fine:
                            fine[other], comp[other] = f, comp[node]
                            stack.append(other)
                        elif fine[other] != f:
                            raise ValueError("no strands: a generator has two fine degrees")
        for t in range(len(cols) - 1):
            if any(linalg.compose(cols[t + 1], cols[t])):
                raise AssertionError(f"d∘d != 0 at position {t} (scalar strand matrices)")
        wA = bi.ringA.weights
        wB = bi.ringB.weights
        consts = {}
        parts = []
        for t, term in enumerate(bi.terms):
            groups = {}
            for c, (a, b) in enumerate(term):
                f, k = fine[(t, c)], comp[(t, c)]
                fa, fb = f[:n], f[n:]
                da = sum(w * x for w, x in zip(wA, fa))
                db = sum(w * x for w, x in zip(wB, fb))
                if consts.setdefault(k, (a - da, b - db)) != (a - da, b - db):
                    raise AssertionError("fine degrees disagree with the twists")
                side_a, side_b = groups.setdefault(k, ({}, {}))
                side_a[(fa, da)] = side_a.get((fa, da), 0) | 1 << c
                side_b[(fb, db)] = side_b.get((fb, db), 0) | 1 << c
            parts.append([(consts[k], sa, sb) for k, (sa, sb) in groups.items()])
        return cls(bi, shift, cols, parts)

    def table(self, t: int, j: int) -> Counter:
        """{column mask: number of fine degrees κ} at position t, degree j:
        κ = (κ_A, κ_B) has mask mask_A(κ_A) & mask_B(κ_B), so each
        component adds count_A · count_B at every pair of a mask of
        `mask_counts` on side A and one on side B."""
        specA, specB = self.specs
        out = Counter()
        for (ca, cb), side_a, side_b in self.parts[t]:
            counts_b = table_counts(specB, j - cb, frozenset(side_b.items()))
            for ma, ka in table_counts(specA, self.shift + j - ca, frozenset(side_a.items())):
                for mb, kb in counts_b:
                    out[ma & mb] += ka * kb
        return out

    def rank(self, t: int, j: int, char: int, dim: int) -> int:
        """Rank of the expanded matrix at position t, degree j, whose
        dim columns the masks must cover, counted with multiplicity."""
        table = self.table(t, j)
        if sum(k * mask.bit_count() for mask, k in table.items()) != dim:
            raise AssertionError(f"strands miss the basis at position {t}, degree {j}")
        total = 0
        for mask, k in table.items():
            if not mask:
                continue
            key = (t, mask, char)
            r = self._ranks.get(key)
            if r is None:
                block = [self.cols[t][c] for c in range(mask.bit_length()) if mask >> c & 1]
                r = self._ranks[key] = linalg.rank_of(block, char)
            total += k * r
        return total


def kappa_masks(spec: WeightedRingSpec, level: int, groups: dict) -> dict:
    """{κ: mask} over the fine degrees κ of one factor at weighted degree
    `level` that lie above some group: `groups` maps (fine degree f,
    degree d) to the bitmask of the generators with fine degree f, and
    the mask of κ holds every generator with f ≤ κ, that is with κ = f·m
    for a monomial m of degree level - d.  The generators are those of a
    cover step (`resolution._cover_degree`); `mask_counts` counts the
    same κ per mask."""
    out = {}
    for (f, d), bits in groups.items():
        for m in monomials(spec, level - d):
            kappa = mono_mul(f, m)
            out[kappa] = out.get(kappa, 0) | bits
    return out


@lru_cache(maxsize=None)
def table_counts(spec: WeightedRingSpec, level: int, items: frozenset) -> tuple:
    """The items of `mask_counts(spec, level, dict(items))`, memoised by
    value: the key is the ring, the level and the groups' items, never an
    object's identity, so equal groups built apart share one entry.  The
    counts are a pure function of the key, so an entry cannot go stale."""
    return tuple(mask_counts(spec, level, dict(items)).items())


def mask_counts(spec: WeightedRingSpec, level: int, groups: dict) -> Counter:
    """{mask: number of κ} over the masks of `kappa_masks(spec, level,
    groups)`, without building a κ.

    Each κ = f·m is packed into one int, exponent i in digit i of base
    B, offset by lo_i, the least f_i over the groups that reach `level`
    (fine degrees can be negative: `Strands.of` roots each component at
    0).  A weight is at least 1, so m_i <= deg m = level - d, and digit i
    of κ is f_i - lo_i + m_i, between 0 and
    max_i (f_i - lo_i) + level - d.  With B = 1 + the largest such bound
    over the groups, every digit of every κ lies in [0, B), so the code
    of f·m is code(f - lo) + code(m) with no carry, and distinct κ get
    distinct codes: each κ is counted once, under the same mask as in
    `kappa_masks`."""
    live = [(f, level - d, bits) for (f, d), bits in groups.items() if level >= d]
    if not live:
        return Counter()
    lo = [min(col) for col in zip(*(f for f, _, _ in live))]
    base = 1 + max(max(x - l for x, l in zip(f, lo)) + e for f, e, _ in live)
    masks = {}
    for f, e, bits in live:
        fc = sum((x - l) * base**i for i, (x, l) in enumerate(zip(f, lo)))
        for mc in monomial_codes(spec, e, base):
            masks[fc + mc] = masks.get(fc + mc, 0) | bits
    return Counter(masks.values())


def dual_column(row: dict, scalar: dict, width: int) -> dict:
    """The image of the column (g, n), for `row` = {h: c} the entries of g
    and `scalar` the form of n over `width` generators e (one for a
    diagonal N, N's own or its ambient ones): {h·width + e: c·s_e}."""
    return {h * width + e: c * v for h, c in row.items() for e, v in scalar.items()}


def scalar_rows(entries: dict, n: int) -> list[dict]:
    """The rows of a differential, one per generator g of its target
    F_i: {h: c} for its entries (g, h) = c times one monomial pair
    (ValueError on an entry of two pairs)."""
    rows = [{} for _ in range(n)]
    for (g, h), poly in entries.items():
        [(_, c)] = poly.items()
        rows[g][h] = c
    return rows


@lru_cache(maxsize=None)
def weight_classes(spec) -> tuple:
    """The positions of the variables of one weight, for each weight that
    two or more variables share: G permutes the variables within each
    class, a graded automorphism of the factor."""
    at = {}
    for k, w in enumerate(spec.weights):
        at.setdefault(w, []).append(k)
    return tuple(tuple(c) for c in at.values() if len(c) > 1)


def orbit_rep(classes, e) -> tuple:
    """The representative of the exponent vector e under G: its entries
    sorted within each class."""
    e = list(e)
    for c in classes:
        for k, v in zip(c, sorted(e[k] for k in c)):
            e[k] = v
    return tuple(e)


def assert_invariant(fine, orbit, k: int):
    """AssertionError unless the multiset of the fine degrees of the
    generators of F_k is G-invariant: fixed by each swap of two neighbours
    in a class, which generate G."""
    count = Counter(fine)
    for x, classes in enumerate(orbit):
        for c in classes:
            for a, b in zip(c, c[1:]):
                moved = Counter()
                for f, n in count.items():
                    e = list(f[x])
                    e[a], e[b] = e[b], e[a]
                    moved[(tuple(e), f[1]) if x == 0 else (f[0], tuple(e))] = n
                if moved != count:
                    raise AssertionError(
                        f"the fine degrees of the generators of F_{k} are not G-invariant"
                    )
