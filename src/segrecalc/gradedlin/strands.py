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

`kappa_masks`, the generator bitmask below each fine degree of one
factor, also splits the cover steps of `resolution` into fine-degree
blocks.  `scalar_rows` and `dual_column` write a δ-block of the dual of
a resolution over the scalar forms of the target (`resolution._Dual`).

This code is kept out of `complexes` and `resolution` to keep those
files small: where no bytecode is cached (PYTHONDONTWRITEBYTECODE), every
run compiles the package from source, and the compiler's peak memory,
which stays in the process's peak for the whole run, grows with the
largest file.
"""

from __future__ import annotations

from collections import Counter

from .. import linalg
from ..hilbert import WeightedRingSpec
from .poly import mono_mul, monomials


class Strands:
    """Fine degrees of one bigraded complex, built by `of`, and the block
    ranks of its diagonal, each computed once per (position, column
    mask, field)."""

    def __init__(self, specs, shift, cols, parts):
        self.specs = specs
        self.shift = shift
        self.cols = cols  # cols[t][c] = {r: coefficient}, the columns of D_t
        # parts[t]: per component, its twist constants (a - wA·f_A, b - wB·f_B)
        # and the generator bitmasks grouped by fine degree on each side
        self.parts = parts
        self._ranks = {}  # (t, column mask, char) -> rank of the block

    @classmethod
    def of(cls, bi, shift: int) -> Strands | None:
        """The strands of `diagonal(bi, shift, ·)` for a `BiFreeComplex`
        bi; None when an entry is not a single monomial pair or the fine
        degrees disagree.  Raises AssertionError when a product
        D_(t+1)·D_t of the scalar columns is not zero, or when an entry's
        degree is not the difference of its twists."""
        n = len(bi.ringA.variables)
        cols = [[dict() for _ in term] for term in bi.terms]
        edges = {}  # generator -> [(neighbour, its fine degree minus ours)]
        for t, entries in enumerate(bi.diffs):
            for (r, c), poly in entries.items():
                terms = [(u, v) for u, v in poly.items() if v]
                if not terms:
                    continue
                if len(terms) > 1:
                    return None
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
                            return None
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
        return cls((bi.ringA, bi.ringB), shift, cols, parts)

    def table(self, t: int, j: int) -> Counter:
        """{column mask: number of fine degrees κ} at position t, degree j."""
        specA, specB = self.specs
        out = Counter()
        for (ca, cb), side_a, side_b in self.parts[t]:
            masks_a = kappa_masks(specA, self.shift + j - ca, side_a)
            count_masks(masks_a, kappa_masks(specB, j - cb, side_b), out)
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
    complex's strands (`Strands.table`) or of a cover step
    (`resolution._cover_degree`)."""
    out = {}
    for (f, d), bits in groups.items():
        for m in monomials(spec, level - d):
            kappa = mono_mul(f, m)
            out[kappa] = out.get(kappa, 0) | bits
    return out


def count_masks(masks_a: dict, masks_b: dict, out: Counter):
    """Add to `out` one count at mask_A & mask_B for every pair of a κ_A
    of `masks_a` and a κ_B of `masks_b` ({κ: mask} each, as
    `kappa_masks` gives them), as `Strands.table` counts them."""
    counts_b = Counter(masks_b.values()).items()
    for ma, ka in Counter(masks_a.values()).items():
        for mb, kb in counts_b:
            out[ma & mb] += ka * kb


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
