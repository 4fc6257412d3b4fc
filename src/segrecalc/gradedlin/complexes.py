"""Graded complexes: Koszul complexes, truncation splits, tensor
products with Koszul signs, diagonal extraction over Segre products, and
two explicit families of finite-dimensional contraction complexes.

Complexes come in three layers.  `FreeComplex` is a symbolic complex of
free modules over one weighted ring (polynomial differential entries).
`BiFreeComplex` is the bigraded analogue over a pair of rings.
`DegreewiseComplex` is the degreewise object: per internal degree,
dimensions and explicit scalar matrices; homology is computed by exact
rank calculations, and d∘d = 0 is asserted when one is built.

When every differential entry of a bigraded complex is a single
monomial pair, its diagonal is graded by the full exponent lattice
Z^n × Z^m, and `diagonal` attaches the fine degrees (`strands.Strands`):
the rank of a differential in a degree is then a sum over fine-degree
blocks, each distinct block ranked once per complex, and d∘d = 0 is
checked once, on the scalar differentials.  Such a complex expands its
scalar matrices only when something reads `mats` (twists, splices, the
image term of a sink sequence).  Every other complex is built with its
matrices and ranked and checked as one matrix per differential and
degree.

Scalar matrices are expanded through multiplication tables built once
per call (`_mul_rows`): for an entry monomial u and a source and target
degree, one tuple holds the target index of u·m for every source
monomial m.  The diagonal of a bigraded complex uses one table per
factor, since the row of (ua·mA)⊗(ub·mB) splits into an A part and a B
part.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Callable

from .. import linalg
from ..hilbert import WeightedRingSpec
from .poly import Mono, monomials, monomial_index, variable
from .strands import Strands


# ---------------------------------------------------------------------------
# symbolic complexes over one ring


@dataclass
class FreeComplex:
    """Bounded complex of free graded modules over one weighted ring.

    `terms[t]` lists the generator degrees at position t (written left to
    right, differentials increase the position), and `diffs[t]` maps
    position t to position t+1 with polynomial entries indexed by
    (row, col).
    """

    ring: WeightedRingSpec
    terms: list[tuple[int, ...]]
    diffs: list[dict]

    def __post_init__(self):
        assert len(self.diffs) == max(len(self.terms) - 1, 0)

    def twist(self, l: int) -> "FreeComplex":
        terms = [tuple(g - l for g in t) for t in self.terms]
        return FreeComplex(self.ring, terms, self.diffs)

    def matrix_at(self, t: int, j: int) -> list[dict]:
        """Scalar columns of diffs[t] in internal degree j."""
        src, dst = self.terms[t], self.terms[t + 1]
        src_off = _offsets(self.ring, src, j)
        dst_off = _offsets(self.ring, dst, j)
        rows = _mul_rows(self.ring, "entry degree mismatch")
        cols = [dict() for _ in range(src_off[-1])]
        for (r, c), poly in self.diffs[t].items():
            terms = [
                (rows(u, j - src[c], j - dst[r]), coeff) for u, coeff in poly.items()
            ]
            base, off = src_off[c], dst_off[r]
            for k in range(src_off[c + 1] - base):
                col = cols[base + k]
                for targets, coeff in terms:
                    key = off + targets[k]
                    col[key] = col.get(key, 0) + coeff
        return [{k: v for k, v in c.items() if v} for c in cols]


def _offsets(spec: WeightedRingSpec, gens: tuple[int, ...], j: int) -> list[int]:
    out = [0]
    for g in gens:
        out.append(out[-1] + len(monomials(spec, j - g)))
    return out


def _mul_rows(spec: WeightedRingSpec, mismatch: str):
    """Multiplication tables of one ring, each built once and kept for
    as long as the caller keeps `rows`.

    `rows(u, d, e)[k]` is the index of u·m_k in the degree-e monomial
    basis, m_k the k-th monomial of degree d.  A product outside that
    basis (deg u + d != e) raises AssertionError(mismatch); an empty
    degree-d basis gives an empty table and raises nothing.
    """
    memo = {}

    def rows(u: Mono, d: int, e: int) -> tuple[int, ...]:
        key = (u, d, e)
        out = memo.get(key)
        if out is None:
            index = monomial_index(spec, e)
            try:
                out = tuple(
                    index[tuple(x + y for x, y in zip(u, m))]
                    for m in monomials(spec, d)
                )
            except KeyError:
                raise AssertionError(mismatch) from None
            memo[key] = out
        return out

    return rows


def koszul(spec: WeightedRingSpec) -> FreeComplex:
    """Koszul complex on the variables, deepest exterior power first.

    Exact except at the right end, where the cokernel is the base field
    in degree zero (checked on windows by `DegreewiseComplex.homology`).
    """
    n = len(spec.variables)
    weights = spec.weights
    terms = []
    index = []
    for size in range(n, -1, -1):
        subs = list(itertools.combinations(range(n), size))
        index.append({s: i for i, s in enumerate(subs)})
        terms.append(tuple(sum(weights[v] for v in s) for s in subs))
    diffs = []
    for t in range(n):
        entries = {}
        for s, c in index[t].items():
            for p, v in enumerate(s):
                rest = s[:p] + s[p + 1 :]
                r = index[t + 1][rest]
                sign = -1 if p % 2 else 1
                poly = entries.setdefault((r, c), {})
                mono = variable(spec, v)
                poly[mono] = poly.get(mono, 0) + sign
        diffs.append(entries)
    return FreeComplex(spec, terms, diffs)


# ---------------------------------------------------------------------------
# truncation splits


@dataclass
class SplitComplex:
    """A complex with its generators partitioned into a high class (X)
    and a low class (Y) such that no differential entry maps the low
    class back into the high class."""

    complex: FreeComplex
    classes: list[tuple[bool, ...]]  # True = X side

    def __post_init__(self):
        for t, entries in enumerate(self.complex.diffs):
            for (r, c), poly in entries.items():
                if poly and not self.classes[t][c] and self.classes[t + 1][r]:
                    raise ValueError("split is not compatible with the differential")

    def side(self, want: bool) -> FreeComplex:
        terms = []
        maps = []
        for t, gens in enumerate(self.complex.terms):
            keep = [i for i, f in enumerate(self.classes[t]) if f == want]
            maps.append({old: new for new, old in enumerate(keep)})
            terms.append(tuple(gens[i] for i in keep))
        diffs = []
        for t, entries in enumerate(self.complex.diffs):
            out = {}
            for (r, c), poly in entries.items():
                if c in maps[t] and r in maps[t + 1]:
                    out[(maps[t + 1][r], maps[t][c])] = poly
            diffs.append(out)
        lead = [t for t, g in enumerate(terms) if g]
        if lead and lead != list(range(lead[0], lead[-1] + 1)):
            raise ValueError("split produces a non-contiguous side")
        return FreeComplex(self.complex.ring, terms, diffs)

    def x(self) -> FreeComplex:
        return self.side(True)

    def y(self) -> FreeComplex:
        return self.side(False)


def truncate_split(c: FreeComplex, pred) -> SplitComplex:
    """Partition generators by a predicate on the generation degree."""
    classes = [tuple(bool(pred(g)) for g in gens) for gens in c.terms]
    return SplitComplex(c, classes)


# ---------------------------------------------------------------------------
# bigraded complexes


@dataclass
class BiFreeComplex:
    """Bounded complex of bigraded free modules over a ring pair.

    Generators carry twist pairs (a, b) for S(-a, -b); differential
    entries are dicts over monomial pairs.
    """

    ringA: WeightedRingSpec
    ringB: WeightedRingSpec
    terms: list[tuple[tuple[int, int], ...]]
    diffs: list[dict]

    def rank_sequence(self) -> list[int]:
        return [len(t) for t in self.terms]


def tensor(cA: FreeComplex, cB: FreeComplex) -> BiFreeComplex:
    """Total tensor complex with Koszul signs: the glued complex of two
    splits that put every generator on the X side, at every position
    from 0 to the last, empty ones included."""
    terms, diffs = _glue(
        cA, [(True,) * len(t) for t in cA.terms], cB, [(True,) * len(t) for t in cB.terms]
    )
    return BiFreeComplex(cA.ring, cB.ring, terms[1:], diffs[1:])


def glue_split_tensor(sA: SplitComplex, sB: SplitComplex) -> BiFreeComplex:
    """Splice X'⊗X'' onto Y'⊗Y'' along the product of the class-crossing
    differential components.

    With XX at its tensor positions and YY shifted down by one, the
    differential is d_XX on the first block, the negated d_YY on the
    second, and the glue F(x'⊗x'') = (-1)^p f'(x')⊗f''(x'') where f', f''
    collect the X-to-Y entries of the two complexes.  The result is the
    complex the two split complexes cone together to, from its first
    nonempty position to its last.
    """
    terms, diffs = _glue(sA.complex, sA.classes, sB.complex, sB.classes)
    filled = [n for n, t in enumerate(terms) if t]
    if not filled:
        raise ValueError("empty glued complex")
    first, last = filled[0], filled[-1]
    if len(filled) != last - first + 1:
        raise ValueError("glued tensor has a positional gap; adjust the splits")
    return BiFreeComplex(
        sA.complex.ring, sB.complex.ring, terms[first : last + 1], diffs[first:last]
    )


def _glue(cA: FreeComplex, classesA, cB: FreeComplex, classesB):
    """Terms and differentials of the complex `glue_split_tensor` glues
    from two splits, given by their complexes and classes, at every
    position from -1, where a YY generator at tensor position 0 lands,
    to the top XX position, empty ones included: list index n holds
    position n - 1.  Entries keep the coefficients the factors give,
    zeros included."""
    unitA = (0,) * len(cA.ring.variables)
    unitB = (0,) * len(cB.ring.variables)
    gens = {}  # (block, p, q, i, j) -> (list index, twist pair)
    for p, term in enumerate(cA.terms):
        for q, termB in enumerate(cB.terms):
            for i, a in enumerate(term):
                for j, b in enumerate(termB):
                    fa, fb = classesA[p][i], classesB[q][j]
                    if fa and fb:
                        gens[("X", p, q, i, j)] = (p + q + 1, (a, b))
                    elif not fa and not fb:
                        gens[("Y", p, q, i, j)] = (p + q, (a, b))
    terms = [[] for _ in range(len(cA.terms) + len(cB.terms))]
    index = {}
    for key in sorted(gens, key=lambda k: (gens[k][0], k)):
        n, tw = gens[key]
        index[key] = (n, len(terms[n]))
        terms[n].append(tw)
    diffs = [dict() for _ in range(len(terms) - 1)]

    def emit(src_key, dst_key, poly_pair, sign):
        (n, col), (n2, row) = index[src_key], index[dst_key]
        if n2 != n + 1:
            raise AssertionError("misaligned glue component")
        entry = diffs[n].setdefault((row, col), {})
        for u, coeff in poly_pair.items():
            entry[u] = sign * coeff

    for key in index:
        block, p, q, i, j = key
        outer = 1 if block == "X" else -1  # YY differential is negated
        if p + 1 < len(cA.terms):
            for (r, c), poly in cA.diffs[p].items():
                if c != i:
                    continue
                same_class = classesA[p + 1][r] == (block == "X")
                if same_class:
                    emit(
                        key,
                        (block, p + 1, q, r, j),
                        {(u, unitB): v for u, v in poly.items()},
                        outer,
                    )
        if q + 1 < len(cB.terms):
            sign = -1 if p % 2 else 1
            for (r, c), poly in cB.diffs[q].items():
                if c != j:
                    continue
                same_class = classesB[q + 1][r] == (block == "X")
                if same_class:
                    emit(
                        key,
                        (block, p, q + 1, i, r),
                        {(unitA, u): v for u, v in poly.items()},
                        outer * sign,
                    )
        if block == "X" and p + 1 < len(cA.terms) and q + 1 < len(cB.terms):
            sign = -1 if p % 2 else 1
            for (r, c), polyA in cA.diffs[p].items():
                if c != i or classesA[p + 1][r]:
                    continue
                for (r2, c2), polyB in cB.diffs[q].items():
                    if c2 != j or classesB[q + 1][r2]:
                        continue
                    pair = {}
                    for u, cu in polyA.items():
                        for w, cw in polyB.items():
                            pair[(u, w)] = pair.get((u, w), 0) + cu * cw
                    emit(key, ("Y", p + 1, q + 1, r, r2), pair, sign)
    return [tuple(t) for t in terms], diffs


def bify(c: FreeComplex, other: WeightedRingSpec, side: str) -> BiFreeComplex:
    """View a one-sided complex as a bigraded complex over the pair."""
    unit_other = (0,) * len(other.variables)
    if side == "A":
        terms = [tuple((a, 0) for a in t) for t in c.terms]
        diffs = [
            {rc: {(u, unit_other): v for u, v in poly.items()} for rc, poly in d.items()}
            for d in c.diffs
        ]
        return BiFreeComplex(c.ring, other, terms, diffs)
    terms = [tuple((0, b) for b in t) for t in c.terms]
    diffs = [
        {rc: {(unit_other, u): v for u, v in poly.items()} for rc, poly in d.items()}
        for d in c.diffs
    ]
    return BiFreeComplex(other, c.ring, terms, diffs)


# ---------------------------------------------------------------------------
# fully expanded complexes


@dataclass
class DegreewiseComplex:
    """Complex of graded pieces: per position a degree->dim table and a
    human-readable label, per adjacent pair and internal degree a scalar
    matrix (stored column-wise).  d∘d = 0 is asserted at construction:
    in every degree by `Strands.of` when the complex has strands, else
    by `assert_dd` degree by degree on the window.

    `diagonal` fills the last three fields: `summands` lists
    (shift index m, twist, multiplicity) per position, `strands` holds
    the fine degrees of a monomial bigraded complex, through which
    `rank_at` ranks, and `expand` builds the matrices.  It passes
    `mats` as None, and `expand` builds them on first read, so a complex
    with strands whose matrices nothing reads never expands them.  Every
    other complex leaves all three None."""

    labels: list[str]
    dims: list[dict]
    mats: list[dict] | None
    window: tuple[int, int]
    summands: list | None = field(default=None, compare=False, repr=False)
    strands: Strands | None = field(default=None, compare=False, repr=False)
    expand: Callable[[], list[dict]] | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.mats is None:
            del self.mats  # `__getattr__` builds it
        if self.strands is None:
            self.assert_dd()

    def __getattr__(self, name):
        # reached only while `mats` is unbuilt
        if name != "mats" or self.expand is None:
            raise AttributeError(name)
        self.mats = self.expand()
        return self.mats

    def dim(self, t: int, j: int) -> int:
        return self.dims[t].get(j, 0)

    def assert_dd(self):
        lo, hi = self.window
        for t in range(len(self.mats) - 1):
            for j in range(lo, hi + 1):
                a = self.mats[t].get(j)
                b = self.mats[t + 1].get(j)
                if not a or not b:
                    continue
                for col in linalg.compose(b, a):
                    if col:
                        raise AssertionError(
                            f"d∘d != 0 at position {t}, degree {j}"
                        )

    def rank_at(self, t: int, j: int, char: int = 0) -> int:
        if t < 0 or t >= len(self.dims) - 1:
            return 0
        if self.strands is not None:
            # dims[t][j] counts the columns; without any there is no block
            dim = self.dims[t].get(j)
            return self.strands.rank(t, j, char, dim) if dim else 0
        cols = self.mats[t].get(j)
        return linalg.rank_of(cols, char) if cols else 0

    def homology(self, char: int = 0) -> dict:
        """Exact homology dimensions per (position, degree) on the window."""
        lo, hi = self.window
        out = {}
        into = dict.fromkeys(range(lo, hi + 1), 0)  # rank of the map into t
        for t in range(len(self.dims)):
            for j in range(lo, hi + 1):
                r = self.rank_at(t, j, char)
                h = self.dim(t, j) - r - into[j]
                into[j] = r
                if h < 0:
                    raise AssertionError("negative homology dimension")
                if h:
                    out[(t, j)] = h
        return out

    def twisted(self, s: int) -> "DegreewiseComplex":
        """Degree shift: the twisted complex has piece at j equal to the
        original piece at j + s."""
        lo, hi = self.window
        dims = [{j - s: v for j, v in d.items()} for d in self.dims]
        mats = [{j - s: m for j, m in mm.items()} for mm in self.mats]
        return DegreewiseComplex(
            [f"{l}({s})" if s else l for l in self.labels], dims, mats, (lo - s, hi - s)
        )

    def spliced(self, other: "DegreewiseComplex") -> "DegreewiseComplex":
        """Splice through a shared term: the last term of self must agree
        with the first term of other, and the junction map becomes the
        composite through it."""
        (lo_a, hi_a), (lo_b, hi_b) = self.window, other.window
        lo, hi = max(lo_a, lo_b), min(hi_a, hi_b)
        for j in range(lo, hi + 1):
            if self.dim(len(self.dims) - 1, j) != other.dim(0, j):
                raise ValueError("splice terms differ")
        junction = {}
        for j in range(lo, hi + 1):
            a = self.mats[-1].get(j, [])
            b = other.mats[0].get(j, [])
            if a:
                junction[j] = linalg.compose(b, a) if b else [dict() for _ in a]
        labels = self.labels[:-1] + other.labels[1:]
        dims = self.dims[:-1] + other.dims[1:]
        mats = self.mats[:-1] + [junction] + other.mats[1:]
        return DegreewiseComplex(labels, dims, mats, (lo, hi))

    def image_truncated(self) -> "DegreewiseComplex":
        """Replace the final term by the image of the final map: in each
        degree, the accepted columns of one tracked elimination are its
        basis, and every column's coordinates over them give the map."""
        lo, hi = self.window
        dims = dict()
        mats = {}
        for j in range(lo, hi + 1):
            cols = self.mats[-1].get(j, [])
            ech = linalg.Echelon(track=True)
            for c in cols:
                # the tag is the column's position in the basis if accepted
                ech.add(c, tag=ech.rank)
            if ech.rank:
                dims[j] = ech.rank
                mats[j] = [dict(sorted(ech.coordinates(c).items())) for c in cols]
        labels = self.labels[:-1] + [f"im({self.labels[-1]})"]
        return DegreewiseComplex(
            labels, self.dims[:-1] + [dims], self.mats[:-1] + [mats], self.window
        )


def diagonal(
    bi: BiFreeComplex, shift: int, window: tuple[int, int]
) -> DegreewiseComplex:
    """Degree {(shift + j, j)}-part of a bigraded complex.

    A bigraded free summand S(-a, -b) restricts to the diagonal module
    M_(shift + b - a) twisted by -b; labels record that identification.

    The scalar matrices are expanded by `_diagonal_mats` when `mats` is
    first read.  A complex without strands reads them at once, in
    `assert_dd`; one with strands ranks and checks d∘d without them, and
    its degree certificate is `Strands.of`: the twists agree with the fine
    degrees exactly when every nonzero entry u from S(-a, -b) to
    S(-a', -b') has degree (a - a', b - b').
    """
    lo, hi = window
    dims = []
    labels = []
    structured = []
    for term in bi.terms:
        table = {}
        for j in range(lo, hi + 1):
            offs, _ = _diag_basis(bi, shift, term, j)
            if offs[-1]:
                table[j] = offs[-1]
        dims.append(table)
        labels.append(_diag_label(term, shift))
        summ = {}
        for (a, b) in term:
            key = (shift + b - a, -b)
            summ[key] = summ.get(key, 0) + 1
        structured.append(sorted((m, tw, k) for (m, tw), k in summ.items()))
    return DegreewiseComplex(
        labels,
        dims,
        None,
        window,
        summands=structured,
        strands=Strands.of(bi, shift),
        expand=partial(_diagonal_mats, bi, shift, window),
    )


def _diag_basis(bi: BiFreeComplex, shift: int, term, j: int):
    offs = [0]
    blocks = []
    for (a, b) in term:
        ma = monomials(bi.ringA, shift + j - a)
        mb = monomials(bi.ringB, j - b)
        blocks.append((ma, mb))
        offs.append(offs[-1] + len(ma) * len(mb))
    return offs, blocks


def _diagonal_mats(bi: BiFreeComplex, shift: int, window: tuple[int, int]) -> list[dict]:
    """The scalar matrices of `diagonal(bi, shift, window)`, column-wise."""
    lo, hi = window
    rowsA = _mul_rows(bi.ringA, "diagonal degree mismatch")
    rowsB = _mul_rows(bi.ringB, "diagonal degree mismatch")
    mats = []
    for t, entries in enumerate(bi.diffs):
        src, dst = bi.terms[t], bi.terms[t + 1]
        table = {}
        for j in range(lo, hi + 1):
            soffs, sblocks = _diag_basis(bi, shift, src, j)
            doffs, dblocks = _diag_basis(bi, shift, dst, j)
            if soffs[-1] == 0:
                continue
            cols = [dict() for _ in range(soffs[-1])]
            for (r, c), poly in entries.items():
                ma, mb = sblocks[c]
                if not ma or not mb:
                    continue
                # the row of (ua·mA) ⊗ (ub·mB) is doffs[r] + ra·len(tb) + rb,
                # ra from the A table of ua and rb from the B table of ub;
                # a zero term adds nothing and has no degree to check
                (a, b), (a2, b2) = src[c], dst[r]
                tib = len(dblocks[r][1])
                terms = []
                for (ua, ub), coeff in poly.items():
                    if not coeff:
                        continue
                    ras = rowsA(ua, shift + j - a, shift + j - a2)
                    rbs = rowsB(ub, j - b, j - b2)
                    terms.append(([doffs[r] + ra * tib for ra in ras], rbs, coeff))
                base, nb = soffs[c], len(mb)
                for ia in range(len(ma)):
                    at_ia = [(keys[ia], rbs, coeff) for keys, rbs, coeff in terms]
                    for ib in range(nb):
                        col = cols[base + ia * nb + ib]
                        for ka, rbs, coeff in at_ia:
                            key = ka + rbs[ib]
                            val = col.get(key, 0) + coeff
                            if val:
                                col[key] = val
                            elif key in col:
                                del col[key]
            table[j] = cols
        mats.append(table)
    return mats


def _diag_label(term, shift: int) -> str:
    parts = {}
    for (a, b) in term:
        m = shift + b - a
        name = "R" if m == 0 else f"M{m}"
        key = f"{name}({-b})" if b else name
        parts[key] = parts.get(key, 0) + 1
    if not parts:
        return "0"
    return "+".join(k if v == 1 else f"{k}^{v}" for k, v in sorted(parts.items()))


# ---------------------------------------------------------------------------
# contraction complexes


def _sym_monomials(n: int, d: int):
    spec = _std_spec(n)
    return monomials(spec, d)


@lru_cache(maxsize=None)
def _std_spec(n: int) -> WeightedRingSpec:
    from ..hilbert import ring

    return ring(tuple(f"e{i}" for i in range(n)), (1,) * n)


def alpha_complex(n: int, m: int, window=None) -> DegreewiseComplex:
    """The contraction complex on wedge powers against dual symmetric
    powers; exact for m != -n, with a one-dimensional defect at the left
    end (in internal degree n) when m = -n."""
    if n < 1:
        raise ValueError("need at least one variable")
    deg = -m
    labels = []
    dims = []
    bases = []
    for l in range(n, -1, -1):
        subs = list(itertools.combinations(range(n), l))
        duals = _sym_monomials(n, m + l)
        bases.append((subs, duals))
        labels.append(f"wedge^{l}(V)xD(Sym^{m + l})")
        dim = len(subs) * len(duals)
        dims.append({deg: dim} if dim else {})
    mats = []
    for t in range(n):
        subs, duals = bases[t]
        tsubs, tduals = bases[t + 1]
        sub_idx = {s: i for i, s in enumerate(tsubs)}
        dual_idx = {d: i for i, d in enumerate(tduals)}
        cols = []
        for s in subs:
            for mu in duals:
                col = {}
                for p, v in enumerate(s):
                    if mu[v] == 0:
                        continue
                    rest = s[:p] + s[p + 1 :]
                    mu2 = tuple(e - 1 if i == v else e for i, e in enumerate(mu))
                    key = sub_idx[rest] * len(tduals) + dual_idx[mu2]
                    sign = -1 if p % 2 else 1
                    col[key] = col.get(key, 0) + sign
                cols.append({k: v for k, v in col.items() if v})
        mats.append({deg: cols} if cols else {})
    return DegreewiseComplex(labels, dims, mats, (deg, deg))


def diff_complex(spec: WeightedRingSpec, window: tuple[int, int]) -> DegreewiseComplex:
    """The spliced kernel complex on a standard-graded polynomial ring.

    Terms are S⊗wedge^n(V), then ker(koszul)_i tensored with dual
    symmetric powers, then S; homology is the base field at the right
    end only.
    """
    if any(w != 1 for w in spec.weights):
        raise ValueError("diff_complex needs the standard grading")
    n = len(spec.variables)
    lo, hi = window
    kos = koszul(spec)
    if n == 1:
        dims = [
            {j: len(monomials(spec, j - 1)) for j in range(lo, hi + 1) if j >= 1},
            {j: len(monomials(spec, j)) for j in range(lo, hi + 1) if j >= 0},
        ]
        mats = [
            {j: kos.matrix_at(0, j) for j in range(max(lo, 1), hi + 1)}
        ]
        return DegreewiseComplex(["Sxwedge^1", "S"], dims, mats, window)

    @lru_cache(maxsize=None)
    def kernel_basis(i: int, s: int):
        # kernel of d_i : S⊗wedge^i -> S⊗wedge^(i-1) in S-degree s,
        # positions n-i -> n-i+1 in the koszul complex
        t = n - i
        cols = kos.matrix_at(t, s)
        return linalg.kernel_of(cols)

    @lru_cache(maxsize=None)
    def kernel_solver(i: int, s: int):
        basis = kernel_basis(i, s)
        return linalg.CoordSolver(basis) if basis else None

    labels = ["Sxwedge^n"]
    dims = [dict()]
    for j in range(lo, hi + 1):
        d = len(monomials(spec, j - n))
        if d:
            dims[0][j] = d
    for i in range(n - 1, 0, -1):
        labels.append(f"Diff^{i}xD(Sym^{i})")
        table = {}
        for j in range(lo, hi + 1):
            d = len(kernel_basis(i, j + i)) * len(_sym_monomials(n, i))
            if d:
                table[j] = d
        dims.append(table)
    labels.append("S")
    dims.append({j: len(monomials(spec, j)) for j in range(lo, hi + 1) if j >= 0})

    mats = []
    # first map: s⊗top ↦ Σ_i d_n(s·m_i ⊗ top) ⊗ μ_i
    first = {}
    sym_top = _sym_monomials(n, n - 1)
    rows = _mul_rows(spec, "top map degree mismatch")
    for j in range(lo, hi + 1):
        src = monomials(spec, j - n)
        if not src:
            continue
        solver = kernel_solver(n - 1, j + n - 1)
        nduals = len(sym_top)
        # the deepest koszul differential on (s·m_i) ⊗ top, s·m_i of degree j - 1
        images = kos.matrix_at(0, j + n - 1)
        prods = [rows(mi, j - n, j - 1) for mi in sym_top]
        cols = []
        for k_s in range(len(src)):
            col = {}
            for mi_idx, targets in enumerate(prods):
                vec = images[targets[k_s]]
                coords = solver.solve(vec)
                if coords is None:
                    raise AssertionError("top map misses the kernel")
                for k, v in enumerate(coords):
                    if v:
                        key = k * nduals + mi_idx
                        col[key] = col.get(key, 0) + v
            cols.append(col)
        first[j] = cols
    mats.append(first)

    for i in range(n - 1, 1, -1):
        step = {}
        duals = _sym_monomials(n, i)
        tduals = _sym_monomials(n, i - 1)
        tdual_idx = {d: k for k, d in enumerate(tduals)}
        subs = list(itertools.combinations(range(n), i))
        tsubs = list(itertools.combinations(range(n), i - 1))
        tsub_idx = {s: k for k, s in enumerate(tsubs)}
        for j in range(lo, hi + 1):
            basis = kernel_basis(i, j + i)
            if not basis:
                continue
            nmono = len(monomials(spec, j))  # wedge coordinates carry S-degree j
            tsolver = kernel_solver(i - 1, j + i - 1)
            tcols = []
            for w in basis:
                for mu in duals:
                    per_mu2 = {}
                    for flat, cval in w.items():
                        sub_i, mono_i = divmod(flat, nmono)
                        sub = subs[sub_i]
                        for p, v in enumerate(sub):
                            if mu[v] == 0:
                                continue
                            mu2 = tuple(
                                e - 1 if idx == v else e for idx, e in enumerate(mu)
                            )
                            rest = sub[:p] + sub[p + 1 :]
                            sign = -1 if p % 2 else 1
                            vec = per_mu2.setdefault(mu2, {})
                            key = tsub_idx[rest] * nmono + mono_i
                            val = vec.get(key, 0) + sign * cval
                            if val:
                                vec[key] = val
                            elif key in vec:
                                del vec[key]
                    col = {}
                    for mu2, vec in per_mu2.items():
                        if not vec:
                            continue
                        coords = tsolver.solve(vec)
                        if coords is None:
                            raise AssertionError("contraction leaves the kernel")
                        for k, v in enumerate(coords):
                            if v:
                                key = k * len(tduals) + tdual_idx[mu2]
                                col[key] = col.get(key, 0) + v
                    tcols.append(col)
            step[j] = tcols
        mats.append(step)

    last = {}
    duals1 = _sym_monomials(n, 1)
    for j in range(lo, hi + 1):
        basis = kernel_basis(1, j + 1)
        if not basis:
            continue
        nmono = len(monomials(spec, j))
        out_idx = monomial_index(spec, j)
        cols = []
        for w in basis:
            for mu in duals1:
                v_mu = mu.index(1)
                col = {}
                for flat, cval in w.items():
                    sub_i, mono_i = divmod(flat, nmono)
                    if sub_i != v_mu:
                        continue
                    s_mono = monomials(spec, j)[mono_i]
                    key = out_idx[s_mono]
                    val = col.get(key, 0) + cval
                    if val:
                        col[key] = val
                    elif key in col:
                        del col[key]
                cols.append(col)
        last[j] = cols
    mats.append(last)
    return DegreewiseComplex(labels, dims, mats, window)


def extend_diagonal(
    c: DegreewiseComplex, specA: WeightedRingSpec, shift: int = 0
) -> DegreewiseComplex:
    """Tensor a one-sided degreewise complex with the other polynomial
    factor and take the (shift + j, j) diagonal: the piece in degree j
    becomes A_(shift+j) ⊗ (original piece in degree j)."""
    lo, hi = c.window
    dims = []
    for table in c.dims:
        out = {}
        for j, d in table.items():
            da = len(monomials(specA, shift + j))
            if da * d:
                out[j] = da * d
        dims.append(out)
    mats = []
    for t, table in enumerate(c.mats):
        out = {}
        for j, cols in table.items():
            da = len(monomials(specA, shift + j))
            if not da or not cols:
                continue
            nrows_orig = c.dim(t + 1, j)
            newcols = []
            for ia in range(da):
                for col in cols:
                    newcols.append({ia * nrows_orig + r: v for r, v in col.items()})
            out[j] = newcols
        mats.append(out)
    labels = [f"A#({l})" for l in c.labels]
    return DegreewiseComplex(labels, dims, mats, c.window)
