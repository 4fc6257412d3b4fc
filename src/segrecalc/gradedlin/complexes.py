"""Graded complexes: Koszul complexes, truncation splits, tensor
products with Koszul signs, diagonal extraction over Segre products, and
two explicit families of finite-dimensional contraction complexes.

Complexes come in three layers.  `FreeComplex` is a symbolic complex of
free modules over one weighted ring (polynomial differential entries).
`BiFreeComplex` is the bigraded analogue over a pair of rings.
`DegreewiseComplex` is the degreewise object: per internal degree,
dimensions and a way to rank each differential; homology is computed by
exact rank calculations, and d∘d = 0 is certified when one is built.

A degreewise complex is flat or stranded from construction.  A flat one
carries its scalar matrices and is ranked one matrix per differential
and degree; only `alpha_complex` (and tests) build them.  A stranded one
has `mats` None and ranks through its `strands`:

- `diagonal` takes a bigraded complex whose differential entries are
  single monomial pairs.  Its diagonal is graded by the full exponent
  lattice Z^n × Z^m (`strands.Strands`): the rank of a differential in a
  degree is a sum over fine-degree blocks, each distinct block ranked
  once per complex, and d∘d = 0 is checked once, on the scalar
  differentials.  Any other bigraded complex raises ValueError.
- `twisted`, `spliced` and `image_truncated` act on the bigraded complex
  that a `Strands` keeps, so the sink sequences of `catalog`, spliced
  from two Koszul diagonals at a term of one generator, are stranded
  too.  The image term keeps the strands and takes the rational ranks
  of the map into it as its dims, so over F_p its homology is
  rank_Q − rank_p of that map.
- `diff_complex` is graded by Z^n in the same way and is ranked by
  multidegree pattern (`DiffStrands`): each pattern's block is built,
  checked and ranked once per field, and counted with the number of
  multidegrees it stands for.  `extend_diagonal` ranks its complex
  through the ranks of the one it extends (`ExtendedStrands`).

Both contraction complexes take their contractions from one rule,
`_contract`.  In `diff_complex`, d_0 = 0 makes S = Diff^0, so the map
into S is one more contraction, in identity coordinates on S.  Every
other target is a kernel of a Koszul differential, and
`linalg.kernel_coordinates` reads an image's coordinates in its basis
off the basis's free columns, one lookup per key of the image, after
certifying that the differential sends the image to zero; the pattern
blocks read every kernel this way.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from math import comb
from .. import linalg
from ..hilbert import WeightedRingSpec, ring
from .poly import Mono, mono_mul, monomials, variable
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
# degreewise complexes


@dataclass
class DegreewiseComplex:
    """Complex of graded pieces: per position a degree->dim table and a
    human-readable label, and a way to rank each differential in each
    internal degree.  A complex is flat or stranded from construction.

    A flat complex has `mats`, per adjacent pair and internal degree a
    scalar matrix (stored column-wise); it is ranked one matrix at a
    time, and `assert_dd` checks d∘d = 0 on it, degree by degree on the
    window, when it is built.  Only `alpha_complex` and the tests build
    flat complexes.

    A stranded complex has `mats` None and `strands`, which ranks the
    differentials through `rank(t, j, char, dim)` and raises
    AssertionError unless its blocks cover the dim columns: the fine
    degrees of a monomial bigraded complex (`Strands`, from `diagonal`
    and the three operations below), the multidegree patterns of
    `diff_complex` (`DiffStrands`) or an extension's ranks
    (`ExtendedStrands`).  Whatever builds the strands checks d∘d = 0 (an
    extension's holds by its inner complex's).  `twisted`, `spliced` and
    `image_truncated` work on the bigraded complex of a `Strands`, and
    raise ValueError naming themselves on any other complex.  `diagonal`
    also lists, in `summands`, (shift index m, twist, multiplicity) per
    position; every other complex leaves it None.
    ValueError("empty window") when the window has lo > hi, and
    ValueError when the complex has both or neither of `mats` and
    `strands`."""

    labels: list[str]
    dims: list[dict]
    mats: list[dict] | None
    window: tuple[int, int]
    summands: list | None = field(default=None, compare=False, repr=False)
    strands: Strands | DiffStrands | ExtendedStrands | None = field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self):
        lo, hi = self.window
        if lo > hi:
            raise ValueError("empty window")
        if (self.mats is None) == (self.strands is None):
            raise ValueError("a complex is flat (mats) or stranded (strands), not both or neither")
        if self.strands is None:
            self.assert_dd()

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

    def _source(self, op: str) -> Strands:
        if not isinstance(self.strands, Strands):
            raise ValueError(f"{op} needs a complex stranded from a bigraded complex")
        return self.strands

    def twisted(self, s: int) -> "DegreewiseComplex":
        """Degree shift: the twisted complex has piece at j equal to the
        original piece at j + s.  It is the diagonal of the bigraded
        complex with every twist pair (a, b) replaced by (a - s, b - s)."""
        src = self._source("twisted")
        bi = src.bi
        terms = [tuple((a - s, b - s) for a, b in term) for term in bi.terms]
        lo, hi = self.window
        return DegreewiseComplex(
            [f"{l}({s})" if s else l for l in self.labels],
            [{j - s: v for j, v in d.items()} for d in self.dims],
            None,
            (lo - s, hi - s),
            strands=Strands.of(BiFreeComplex(bi.ringA, bi.ringB, terms, bi.diffs), src.shift),
        )

    def spliced(self, other: "DegreewiseComplex") -> "DegreewiseComplex":
        """Splice through a shared term: the last term of self must agree
        with the first term of other, and the junction map becomes the
        composite through it.

        Both are diagonals of bigraded complexes.  Adding
        self.shift - other.shift to the A twist of every generator of
        other writes other as a diagonal at self's shift, piece for piece;
        the two terms being joined must then be equal, else
        ValueError("splice terms differ").  The composite is taken entry
        by entry on the bigraded maps, and the result is the diagonal of
        the spliced bigraded complex on the intersection of the windows."""
        a, b = self._source("spliced"), other._source("spliced")
        n = len(self.dims) - 1
        da = a.shift - b.shift
        rest = [tuple((x + da, y) for x, y in term) for term in b.bi.terms]
        if a.specs != b.specs or a.bi.terms[n] != rest[0]:
            raise ValueError("splice terms differ")
        bi = BiFreeComplex(
            *a.specs,
            a.bi.terms[:n] + rest[1:],
            a.bi.diffs[: n - 1] + [_composite(a.bi.diffs[n - 1], b.bi.diffs[0])] + b.bi.diffs[1:],
        )
        (lo_a, hi_a), (lo_b, hi_b) = self.window, other.window
        return DegreewiseComplex(
            self.labels[:-1] + other.labels[1:],
            self.dims[:-1] + other.dims[1:],
            None,
            (max(lo_a, lo_b), min(hi_a, hi_b)),
            strands=Strands.of(bi, a.shift),
        )

    def image_truncated(self) -> "DegreewiseComplex":
        """Replace the final term by the image of the final map: its dims
        are the rational ranks of that map, and the strands stay.  Over
        F_p the homology at the image term is therefore rank_Q - rank_p
        of the final map, which is zero exactly when the map keeps its
        rational rank mod p."""
        self._source("image_truncated")
        lo, hi = self.window
        t = len(self.dims) - 2
        dims = {}
        for j in range(lo, hi + 1):
            r = self.rank_at(t, j)
            if r:
                dims[j] = r
        return DegreewiseComplex(
            self.labels[:-1] + [f"im({self.labels[-1]})"],
            self.dims[:-1] + [dims],
            None,
            self.window,
            strands=self.strands,
        )


def _composite(first: dict, second: dict) -> dict:
    """The entries of second∘first for two bigraded maps given by their
    entries: (r, c) is the sum over k of second[r, k]·first[k, c], each
    product a product of monomial pairs."""
    into = {}  # k -> [(c, first[k, c])]
    for (k, c), poly in first.items():
        into.setdefault(k, []).append((c, poly))
    out = {}
    for (r, k), outer in second.items():
        for c, inner in into.get(k, ()):
            entry = out.setdefault((r, c), {})
            for (ua, ub), x in inner.items():
                for (va, vb), y in outer.items():
                    u = (mono_mul(ua, va), mono_mul(ub, vb))
                    entry[u] = entry.get(u, 0) + x * y
    return out


def diagonal(
    bi: BiFreeComplex, shift: int, window: tuple[int, int]
) -> DegreewiseComplex:
    """Degree {(shift + j, j)}-part of a bigraded complex.

    A bigraded free summand S(-a, -b) restricts to the diagonal module
    M_(shift + b - a) twisted by -b; labels record that identification.

    The diagonal is stranded (`Strands.of`): it is ranked by fine-degree
    blocks and checked for d∘d = 0 once, and no scalar matrix of it is
    ever built.  A bigraded complex whose nonzero entries are not single
    monomial pairs with consistent fine degrees has no strands, and
    `Strands.of` raises ValueError for it.  Its degree certificate is
    that the twists agree with the fine degrees, which holds exactly when
    every nonzero entry u from S(-a, -b) to S(-a', -b') has degree
    (a - a', b - b').
    """
    lo, hi = window
    dims = []
    labels = []
    structured = []
    for term in bi.terms:
        table = {}
        for j in range(lo, hi + 1):
            d = sum(
                len(monomials(bi.ringA, shift + j - a)) * len(monomials(bi.ringB, j - b))
                for (a, b) in term
            )
            if d:
                table[j] = d
        dims.append(table)
        labels.append(_diag_label(term, shift))
        summ = {}
        for (a, b) in term:
            key = (shift + b - a, -b)
            summ[key] = summ.get(key, 0) + 1
        structured.append(sorted((m, tw, k) for (m, tw), k in summ.items()))
    return DegreewiseComplex(
        labels, dims, None, window, summands=structured, strands=Strands.of(bi, shift)
    )


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


@lru_cache(maxsize=None)
def _std_spec(n: int) -> WeightedRingSpec:
    return ring(tuple(f"e{i}" for i in range(n)), (1,) * n)


def _contract(sub: tuple[int, ...], mu: Mono):
    """The contraction rule of both complexes: e_sub ⊗ μ goes to the sum
    over the positions p of sub, v = sub[p] with μ_v > 0, of
    (-1)^p e_(sub without v) ⊗ (μ lowered at v).  Yields
    (sign, sub without v, μ lowered at v)."""
    for p, v in enumerate(sub):
        if mu[v]:
            lowered = mu[:v] + (mu[v] - 1,) + mu[v + 1 :]
            yield (-1 if p % 2 else 1), sub[:p] + sub[p + 1 :], lowered


def alpha_complex(n: int, m: int) -> DegreewiseComplex:
    """The contraction complex on wedge powers against dual symmetric
    powers; exact for m != -n, with a one-dimensional defect at the left
    end (in internal degree n) when m = -n."""
    if n < 1:
        raise ValueError("need at least one variable")
    spec = _std_spec(n)
    deg = -m
    labels = []
    dims = []
    bases = []
    for l in range(n, -1, -1):
        subs = list(itertools.combinations(range(n), l))
        duals = monomials(spec, m + l)
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
                for sign, rest, mu2 in _contract(s, mu):
                    key = sub_idx[rest] * len(tduals) + dual_idx[mu2]
                    col[key] = col.get(key, 0) + sign
                cols.append({k: v for k, v in col.items() if v})
        mats.append({deg: cols} if cols else {})
    return DegreewiseComplex(labels, dims, mats, (deg, deg))


def diff_complex(spec: WeightedRingSpec, window: tuple[int, int]) -> DegreewiseComplex:
    """The spliced kernel complex on a standard-graded polynomial ring.

    Terms are S⊗wedge^n(V), then Diff^i⊗D(Sym^i) for i = n-1, ..., 0,
    where Diff^i is the kernel of the Koszul differential
    d_i : S⊗wedge^i -> S⊗wedge^(i-1).  As d_0 = 0, S is Diff^0 and the
    last term is S.  The first map sends s⊗top to Σ_μ d_n(s·μ⊗top)⊗μ over
    the monomials μ of degree n-1; every later map is the one contraction
    rule `_contract` on the wedge factor and the dual symmetric power,
    written in the kernel bases.  A kernel basis comes with its reader
    `linalg.kernel_coordinates`: an image's coordinates are read off the
    basis's free columns, and an image that d_i does not send to zero
    raises AssertionError ("map leaves the kernel of d_i").  Homology is
    the base field at the right end only.

    The complex is ranked, and its dims counted, by multidegree pattern
    (`DiffStrands`), which builds every map once per pattern and so
    raises at construction.  It is stranded: `mats` is None.
    """
    if any(w != 1 for w in spec.weights):
        raise ValueError("diff_complex needs the standard grading")
    n = len(spec.variables)
    strands = DiffStrands(spec, window)
    labels = ["Sxwedge^1" if n == 1 else "Sxwedge^n"]
    labels += [f"Diff^{i}xD(Sym^{i})" if i else "S" for i in range(n - 1, -1, -1)]
    return DegreewiseComplex(
        labels,
        strands.dims(),
        None,
        window,
        strands=strands,
    )


def _add(vec: dict, key, value) -> None:
    """vec[key] += value, keeping no zero entry."""
    value += vec.get(key, 0)
    if value:
        vec[key] = value
    else:
        vec.pop(key, None)


def _compositions(m: int, parts: int) -> int:
    """The number of ways to write m as an ordered sum of `parts`
    positive integers."""
    if not parts:
        return int(m == 0)
    return comb(m - 1, parts - 1) if m >= parts else 0


class DiffStrands:
    """The ranks and dims of `diff_complex` by multidegree pattern.

    The basis vector x^a e_sub ⊗ μ* of every term has the multidegree
    β = a + 1_sub - μ in Z^n (x^a ⊗ top in term 0 has β = a + 1 and maps
    to Σ_μ d_n(x^(a+μ) ⊗ top) ⊗ μ*, of the same β), and every map keeps
    it: a Koszul kernel vector of `kernel_of` lies in one
    multidegree, since a dependent column's unique dependency on the
    accepted columns before it uses only columns of its own block, and
    the contraction keeps a + 1_sub - μ.  In multidegree α the Koszul
    complex is the simplex complex on supp α (Miller and Sturmfels,
    Combinatorial Commutative Algebra, GTM 227, ch. 1), so the block at
    β reads the kernel of d_i at the support of β + μ for each μ with
    β + μ >= 0, with the same vectors, in the order of its subsets, as
    the flat Koszul kernel of `kernel_of` in total degree |α| has at
    every α of that support.  The block therefore depends only on β
    clipped to [1 - n, 1] in each coordinate: β_v >= 1 puts v in every
    support, and β_v < 1 - n does not occur, because μ has degree at
    most n - 1.

    For n >= 2 a pattern with an entry p_v = 1 - n has every term
    empty, so only [2 - n, 1]^n is walked.  Term 0 needs every β_v >= 1.
    In term n - i, a_v >= 0 and μ of degree i <= n - 1 make
    β_v = 1 - n force i = n - 1 and μ = (n - 1)e_v, so α = β + μ has
    α_v = 0 and its support is at most the other n - 1 variables.  The
    simplex complex on that support has no (n - 1)-face but the whole
    support, and the top Koszul differential of a nonempty simplex is
    injective (e_supp has a nonzero image on each facet), so
    ker d_(n-1) = 0.  For n = 1 the entry 0 = 1 - n stays, since
    Diff^0 = S is no such kernel; the walk is over [min(0, 2 - n), 1]^n.

    A pattern p stands for the β with β_v = p_v where p_v <= 0 and
    β_v >= 1 where p_v = 1; in total degree j there are
    `_compositions(j - Σ_(p_v <= 0) p_v, #{p_v = 1})` of them.  Each
    pattern that occurs in the window is built once: its basis per term,
    its maps (the kernel readers certify that every image lies in its
    kernel) and d∘d = 0 on its blocks.  The rank in degree j is
    Σ count · rank(block), each block ranked once per field; the blocks
    are the flat blocks up to the order of rows and columns, so the rank
    is that of the flat matrix over every field."""

    def __init__(self, spec: WeightedRingSpec, window: tuple[int, int]):
        self.spec = spec
        n = len(spec.variables)
        lo, hi = window
        self._kernels = {}  # (support, i) -> (subsets, their index, basis, reader)
        self.blocks = []  # per pattern: (basis size per term, columns per position)
        self.live = {j: [] for j in range(lo, hi + 1)}  # j -> [(block, count)]
        self._ranks = {}  # (block, position, char) -> rank
        for p in itertools.product(range(min(0, 2 - n), 2), repeat=n):
            rest = sum(x for x in p if x < 1)
            counts = [(j, _compositions(j - rest, p.count(1))) for j in self.live]
            counts = [(j, k) for j, k in counts if k]
            if not counts:
                continue
            sizes, maps = self._block(p)
            if not any(sizes):
                continue
            for j, k in counts:
                self.live[j].append((len(self.blocks), k))
            self.blocks.append((sizes, maps))

    def _kernel(self, supp: tuple[int, ...], i: int):
        """ker d_i in a multidegree of support supp: the i-subsets of
        supp in order, their index, the kernel basis over them and its
        coordinate reader (`linalg.kernel_coordinates`)."""
        key = (supp, i)
        if key not in self._kernels:
            subs = list(itertools.combinations(supp, i))
            index = {s: k for k, s in enumerate(subs)}
            if i == 0:  # S = Diff^0: e_∅ is its own kernel
                basis, read = [{0: 1}], dict.items
            else:
                faces = {s: k for k, s in enumerate(itertools.combinations(supp, i - 1))}
                cols = [_koszul_column(s, faces) for s in subs]
                basis, read = linalg.kernel_coordinates(cols)
            self._kernels[key] = subs, index, basis, read
        return self._kernels[key]

    def _block(self, p: tuple[int, ...]):
        """The basis sizes per term and the columns per position of the
        block at pattern p; raises AssertionError when a map leaves a
        kernel or d∘d != 0."""
        n = len(p)

        def support(mu):
            return tuple(v for v in range(n) if p[v] + mu[v] >= 1)

        # term 0 has one vector, x^(β - 1) ⊗ top, when every β_v >= 1;
        # term n - i has (μ, k) for kernel vector k at the support of β + μ
        bases = [[()] if min(p) == 1 else []]
        for i in range(n - 1, -1, -1):
            basis = {}
            for mu in monomials(self.spec, i):
                if min(x + m for x, m in zip(p, mu)) >= 0:
                    _, _, kernel, _ = self._kernel(support(mu), i)
                    for k in range(len(kernel)):
                        basis[mu, k] = len(basis)
            bases.append(basis)

        def column(images, i):
            # images: {μ: vector over the i-subsets of supp(β + μ)}
            col = {}
            for mu, vec in images.items():
                if vec:
                    found = self._kernel(support(mu), i)[3](vec)
                    if found is None:
                        raise AssertionError(f"map leaves the kernel of d_{i}")
                    for k, v in found:
                        col[bases[n - i][mu, k]] = v
            return col

        maps = [[]]
        if bases[0]:
            full = tuple(range(n))
            _, faces, _, _ = self._kernel(full, n - 1)
            top = _koszul_column(full, faces)
            maps[0].append(column(dict.fromkeys(monomials(self.spec, n - 1), top), n - 1))
        for i in range(n - 1, 0, -1):
            cols = []
            for mu, k in bases[n - i]:
                subs, _, kernel, _ = self._kernel(support(mu), i)
                images = {}
                for f, cval in kernel[k].items():
                    for sign, rest, low in _contract(subs[f], mu):
                        _, faces, _, _ = self._kernel(support(low), i - 1)
                        _add(images.setdefault(low, {}), faces[rest], sign * cval)
                cols.append(column(images, i - 1))
            maps.append(cols)
        for t in range(n - 1):
            if any(linalg.compose(maps[t + 1], maps[t])):
                raise AssertionError(f"d∘d != 0 at position {t}, pattern {p}")
        return [len(b) for b in bases], maps

    def dims(self) -> list[dict]:
        """{degree: dimension} per term, from the pattern counts."""
        out = []
        for t in range(len(self.spec.variables) + 1):
            table = {}
            for j, live in self.live.items():
                d = sum(k * self.blocks[b][0][t] for b, k in live)
                if d:
                    table[j] = d
            out.append(table)
        return out

    def rank(self, t: int, j: int, char: int, dim: int) -> int:
        """Rank of the flat matrix at position t, degree j, whose dim
        columns the patterns must cover, counted with multiplicity."""
        live = self.live.get(j, ())
        if sum(k * self.blocks[b][0][t] for b, k in live) != dim:
            raise AssertionError(f"patterns miss the basis at position {t}, degree {j}")
        total = 0
        for b, k in live:
            key = (b, t, char)
            r = self._ranks.get(key)
            if r is None:
                cols = self.blocks[b][1][t]
                r = self._ranks[key] = linalg.rank_of(cols, char) if cols else 0
            total += k * r
        return total


def _koszul_column(sub: tuple[int, ...], faces: dict) -> dict:
    """The column of e_sub in the Koszul differential of a simplex: the
    face without sub[q], by its index in `faces`, gets (-1)^q."""
    return {faces[sub[:q] + sub[q + 1 :]]: -1 if q % 2 else 1 for q in range(len(sub))}


@dataclass
class ExtendedStrands:
    """The ranks of `extend_diagonal(inner, spec)`: the piece in degree j
    is A_j ⊗ (inner's piece), so each rank is dim A_j times inner's."""

    inner: DegreewiseComplex
    spec: WeightedRingSpec

    def rank(self, t: int, j: int, char: int, dim: int) -> int:
        da = len(monomials(self.spec, j))
        if da * self.inner.dim(t, j) != dim:
            raise AssertionError(f"extension misses the basis at position {t}, degree {j}")
        return da * self.inner.rank_at(t, j, char)


def extend_diagonal(c: DegreewiseComplex, specA: WeightedRingSpec) -> DegreewiseComplex:
    """Tensor a one-sided degreewise complex with the other polynomial
    factor and take the (j, j) diagonal: the piece in degree j becomes
    A_j ⊗ (original piece in degree j).  It is ranked through c's ranks
    (`ExtendedStrands`) and is stranded: `mats` is None."""
    dims = []
    for table in c.dims:
        out = {}
        for j, d in table.items():
            da = len(monomials(specA, j))
            if da * d:
                out[j] = da * d
        dims.append(out)
    labels = [f"A#({l})" for l in c.labels]
    return DegreewiseComplex(
        labels,
        dims,
        None,
        c.window,
        strands=ExtendedStrands(c, specA),
    )
