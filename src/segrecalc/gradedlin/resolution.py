"""Minimal graded free resolutions over Segre products, and the Hom/Ext
calculus built on them.

Everything is computed degree by degree inside a window [lo, hi].  A
kernel or generator count in degree j reads only degrees <= j, so a
resolution is exact degree by degree up to hi, and reading a module
above the window raises CertificationError.  That does not certify
every number derived from it.  Ext^i_d reads every generator of
F_(i-1), F_i and F_(i+1), and a syzygy's generators above hi are never
found: a syzygy has no generation bound, so no guard fires, and such an
Ext dimension can still change with hi.  Over k3_w12, dim
Ext^2(M_-1, M_-1)_-3 reads 9 at hi = 4, 296 at hi = 6 and 0 at hi = 8
and at hi = 10.

`HomCalculator` is the one entry point to Hom and Ext: it holds the
resolutions of one ring pair and window, and the field that every rank,
kernel and stable quotient is taken over.  Resolutions themselves are
always computed over Q with integer entries; over F_p the Hom/Ext ranks
of the rational resolution are a fast pre-check.  The module-level
`ext_dims` and `hom_space` take a Resolution and never resolve.

Minimal generators in degree j are the basis vectors of M_j outside
R_+ M.  Once the generators of degree < j are known they generate M
below j, so (R_+ M)_j is the sum of R_(j - deg g) * g over them: exactly
the span of their cover columns in degree j.  Eliminating those columns
therefore finds the new generators and the kernel of the cover together
(the degree-by-degree strategy of La Scala-Stillman, 1998).

R is an affine semigroup ring, so the diagonal modules and their minimal
resolutions are graded finely, by Z^n × Z^m (Miller-Sturmfels,
*Combinatorial Commutative Algebra*, GTM 227, 2005): every basis vector
of a diagonal, free or syzygy module, hence every generator g, has a
fine degree f(g) (`fine_basis`).  The cover column u * g sits at fine
degree f(g) * u, and over the generators of the ambient free module it
has the same coefficients as g, whatever u is.  So degree j splits into
one block per fine degree κ of M_j: its columns are the scalar forms of
the generators with f(g) <= κ, in generator order, and its tests are the
basis vectors of M_j at κ.  A column at κ only meets pivots at κ, so the
blocks eliminated one by one perform exactly the operations of one
elimination of the whole degree, in the same order.  Blocks equal after
an order-preserving relabelling of their rows are eliminated once per
`free_resolution` call.  The generators with f(g) <= κ are those in both
the A mask of κ_A and the B mask of κ_B, so fine degrees come in
rectangles S_A × S_B whose κ carry the same tests and meet one block: a
diagonal degree is one rectangle, and a syzygy degree not yet assembled
is the previous step's rectangles whose block has a kernel.
Each degree splits its rectangles by mask on either side and takes one
block per (mask, tests); only a block with new generators is read at
single κ.  A kernel vector of a block stays in fine form, (κ, scalar
form over the generators), and the vectors of a degree come in the order
one elimination of the whole degree gives.  A cover step keeps each
degree's blocks (`_KernelBases.covers`), and assembles a syzygy's basis
of a degree from them the first time it is read: by the next cover step
only where it finds a generator, so the last syzygy of a resolution,
which only its own cover would read, is never assembled.

The dual of a resolution splits the same way.  Every entry of a
differential is one monomial pair f(h) / f(g) times an integer, so the
column (g, n) of Hom(F_i, N)_d, n the n-th basis vector of N_(d + deg g)
at the fine degree κ, and all its images sit at δ = κ - f(g), which the
dual differential keeps; neither `hom_space` nor `ext_dims` builds an
action matrix, and both find the δ-blocks with one enumerator (`_Dual`).
N_(d + deg g) is rectangles r of fine degrees whose κ carry the same
tests (`_rectangles`): one for a diagonal target, and for a syzygy the
cover step's rectangles, read without assembling the degree.  The
δ-block holds the bits (g, r) with δ·f(g) in r, which is mask_A & mask_B
for the bit (g, r) set at κ_A / f_A(g) over κ_A in S_A and at
κ_B / f_B(g) over κ_B in S_B (`_delta_blocks`); its columns are those of
g and each test of r, written in the scalar forms of N.  A block seen
again under the same bits and mask is solved once per call: ranked
(`ext_dims`) or its kernel taken (`hom_space`).  `ext_dims` counts the
δ of each block and never lists them; `hom_space` lists the δ of a
block only when it has a kernel.

Over Q, `ext_dims` between G-invariant modules, G the permutations of
equal-weight variables within each factor, ranks one block per pair of
orbits of δ and counts it by their sizes (`_orbit`; proof in `ext_dims`).

A map M -> N stays in this fine form: (δ, {(g, q): c}, {(g, e): c}),
with c its coefficient on the q-th test of the rectangle that holds
κ = δ·f(g) in N_(d + deg g), in its value on the generator g of F_0,
and then that value over the ambient generators e of N, a scalar form.
The key needs no basis index, so no degree of N is assembled for it, and
a map carries its form from `hom_space`, which writes it from the tests
of the block it solved.  Multiplying by a monomial keeps a scalar form.
So ψ∘φ takes φ(g) over the generators s of the middle module from
the section of its cover at (κ, q), and sums their ψ(s): it lands at
δ1·δ2 with no action matrix (`compose_hom`, the product of φ's half,
`cover_coordinates`, and ψ's, `generator_split`).  A map through a free module
is φ: M -> R times the scalar form of a generator of N
(`through_free_vectors`).  Maps are ranked in ambient coordinates, one
echelon per δ: the forms at one κ are the tests' span, so the rank is
that over the tests while they stay independent, which over F_p is
checked at every degree a map into a syzygy lands in.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cache, lru_cache
from itertools import product
from operator import add, itemgetter, sub

from .. import linalg
from ..linalg import CertificationError
from .modules import _UNIT, DiagonalModule, FreeModule, SyzygyModule, r_basis, r_index
from .poly import monomial_index, monomials
from .strands import assert_invariant, dual_column, kappa_masks, orbit_rep, scalar_rows, weight_classes


def rings_of(module):
    if isinstance(module, SyzygyModule):
        return module.ambient.ringA, module.ambient.ringB
    return module.ringA, module.ringB


@lru_cache(maxsize=None)
def _act_matrix_frozen(module, pair, p: int, j: int):
    return module.act(pair, p, j)


def _pair_sub(kappa, f):
    """The monomial pair kappa / f of two fine degrees."""
    return tuple(map(sub, kappa[0], f[0])), tuple(map(sub, kappa[1], f[1]))


def _pair_add(delta, f):
    """The fine degree delta·f."""
    return tuple(map(add, delta[0], f[0])), tuple(map(add, delta[1], f[1]))


class _Block:
    """One fine-degree block, eliminated once: its columns in order, then
    its tests, each entering as a column when outside the span so far.

    `new` lists the positions of the tests that are new generators;
    `kernel` the (dependent column, its tracked dependency) pairs in
    elimination order; `coords` each test's coordinates, sorted by
    position, over the columns and then the new generators (the r-th at
    position len(columns) + r).  The accepted columns are independent,
    so a test's coordinates are the same before and after later tests
    enter."""

    def __init__(self, cols, tests):
        ech = linalg.Echelon(track=True)
        deps = [q for q, col in enumerate(cols) if not ech.add(col)]
        self.kernel = list(zip(deps, ech.kernel_basis()))
        self.new, self.coords = [], []
        for q, w in enumerate(tests):
            coords = ech.coordinates(w)
            if coords is None:
                self.new.append(q)
                ech.add(w)
                coords = {len(cols) + len(self.new) - 1: 1}
            self.coords.append(dict(sorted(coords.items())))


def _block(memo: dict, cols, tests) -> _Block:
    """The block of these columns and tests, taken from `memo` when one
    equal to it after an order-preserving relabelling of the rows, dict
    order included, was eliminated before."""
    rows = sorted({r for v in cols for r in v}.union(*tests))
    index = {r: k for k, r in enumerate(rows)}
    key = (
        tuple(tuple((index[r], c) for r, c in v.items()) for v in cols),
        tuple(tuple((index[r], c) for r, c in v.items()) for v in tests),
    )
    block = memo.get(key)
    if block is None:
        block = memo[key] = _Block([dict(v) for v in key[0]], [dict(v) for v in key[1]])
    return block


def _by_kappa(basis) -> dict:
    """κ -> the indices of the basis vectors at κ, in basis order."""
    at = {}
    for i, (kappa, _) in enumerate(basis):
        at.setdefault(kappa, []).append(i)
    return at


def _rectangles(module, j: int):
    """Degree j of a module as rectangles (S_A, S_B, tests): every fine
    degree κ of S_A × S_B carries the scalar forms `tests`, in basis
    order.  Also returns index_of(κ, q), the basis index of the q-th of
    them at κ, which only a cover step reads, for its new generators:
    maps are keyed by q itself.

    A diagonal module is one rectangle, its pairs in the product order of
    `_diag_basis`.  A degree of a syzygy from a cover step is that step's
    rectangles that have a kernel (`_KernelBases.rectangles`), and
    index_of assembles it.  Any other module or degree gives one
    rectangle per κ of `fine_basis`."""
    if type(module).fine_basis is DiagonalModule.fine_basis:
        da, db = module.shift + j - module.twist, j - module.twist
        side_b = monomials(module.ringB, db)
        at_a, at_b = monomial_index(module.ringA, da), monomial_index(module.ringB, db)
        width = len(side_b)
        rects = [(monomials(module.ringA, da), side_b, [_UNIT])]
        return rects, lambda kappa, q: at_a[kappa[0]] * width + at_b[kappa[1]]
    bases = getattr(module, "bases", None)
    rects = bases.rectangles(j) if isinstance(bases, _KernelBases) else None
    if rects is not None:
        at = cache(lambda: _by_kappa(module.fine_basis(j)))
        return rects, lambda kappa, q: at()[kappa][q]
    basis = module.fine_basis(j)
    at = _by_kappa(basis)
    rects = [((k[0],), (k[1],), [basis[i][1] for i in idx]) for k, idx in at.items()]
    return rects, lambda kappa, q: at[kappa][q]


def _split(side, masks: dict) -> list:
    """The fine degrees of one side of a rectangle grouped by their
    generator mask: [(mask, [κ])]."""
    groups = {}
    for kappa in side:
        groups.setdefault(masks.get(kappa, 0), []).append(kappa)
    return list(groups.items())


def _cover_degree(module, j: int, gens, memo: dict, seen: dict):
    """Degree j of the cover of M by its generators `gens` of degree < j,
    one fine-degree block per rectangle of fine degrees.

    Generator s, the basis vector {i: 1} of M_dg, has the fine degree
    f(s) and scalar form of that vector.  The block at a fine degree κ of
    M_j has the scalar forms of the generators with f(s) <= κ as columns,
    in generator order (the column of s is u * s for u = κ / f(s)), and
    the scalar forms of the basis vectors of M_j at κ as tests, in basis
    order.  The generators below κ are masks_A[κ_A] & masks_B[κ_B], so
    each rectangle of `_rectangles` splits by mask on either side into
    sub-rectangles whose fine degrees all meet one block.  A block is
    fixed by its column mask and its tests while the generators are, so
    `seen`, (mask, tests) -> (columns, block), spares `_block` relabelling
    each repeat within one cover step; blocks come from `memo`
    (`_block`), and only a block with new generators is read at single
    fine degrees.  Returns the new generators (j, {i: 1}) in
    basis order, (dg, f(s), scalar form) per generator, per
    sub-rectangle the tuple (S_A, S_B, column generators, tests, block),
    and index_of(κ, q), the basis index of the q-th test at κ.
    AssertionError unless the blocks hold every cover column once."""
    specA, specB = rings_of(module)
    rects, index_of = _rectangles(module, j)
    pieces, gen_data, side_a, side_b = {}, [], {}, {}
    for s, (dg, (i,)) in enumerate(gens):
        if dg not in pieces:
            pieces[dg] = module.fine_basis(dg)
        f, scalar = pieces[dg][i]
        gen_data.append((dg, f, scalar))
        side_a[(f[0], dg)] = side_a.get((f[0], dg), 0) | 1 << s
        side_b[(f[1], dg)] = side_b.get((f[1], dg), 0) | 1 << s
    masks_a = kappa_masks(specA, j, side_a)
    masks_b = kappa_masks(specB, j, side_b)
    parts, new, covered = [], [], 0
    for sa, sb, tests in rects:
        tkey = tuple(tuple(t.items()) for t in tests)
        split_b = _split(sb, masks_b)
        for ma, part_a in _split(sa, masks_a):
            for mb, part_b in split_b:
                mask = ma & mb
                hit = seen.get((mask, tkey))
                if hit is None:
                    cols = [s for s in range(mask.bit_length()) if mask >> s & 1]
                    block = _block(memo, [gen_data[s][2] for s in cols], tests)
                    hit = seen[(mask, tkey)] = cols, block
                cols, block = hit
                covered += len(cols) * len(part_a) * len(part_b)
                parts.append((part_a, part_b, cols, tests, block))
                if block.new:
                    new += [index_of(kappa, q) for kappa in product(part_a, part_b) for q in block.new]
    if covered != sum(len(r_basis(specA, specB, j - dg)) for dg, _, _ in gen_data):
        raise AssertionError(f"fine-degree blocks miss cover columns in degree {j}")
    return [(j, {i: 1}) for i in sorted(new)], gen_data, parts, index_of


def _cover_step(module, lo: int, hi: int, memo: dict):
    """Minimal generators and cover kernel on [lo, hi].

    One `_cover_degree` per degree j finds the generators of degree j.
    `_KernelBases` keeps each degree's result and assembles the kernel
    basis of the degree from it the first time it is read.
    `minimal_generators` therefore builds no kernel vector, and the next
    step assembles a degree of this syzygy only where it finds a
    generator there.

    The generators are complete when the module has a certified
    generation bound inside the window (CertificationError otherwise);
    without a bound they are exact degree by degree up to hi.
    """
    bound = getattr(module, "generation_bound", lambda: None)()
    if bound is not None and bound > hi:
        raise CertificationError(
            f"window top {hi} below the generation bound {bound} of the module"
        )
    if module.min_degree < lo <= hi:
        raise CertificationError(
            "window does not reach the bottom degree of the module"
        )
    gens, covers, seen = [], {}, {}
    for j in range(lo, hi + 1):
        covers[j] = _cover_degree(module, j, gens, memo, seen)
        gens += covers[j][0]
    return gens, _KernelBases(rings_of(module), covers)


class _KernelBases(Mapping):
    """The kernel bases of one cover step, degree -> [(κ, {generator:
    coefficient})], each degree assembled on its first read.

    The blocks' tracked dependencies are the kernel basis in degree j.
    They are sorted by their dependent cover column u * s, by s and then
    by the position of u = κ / f(s) in R_(j - deg s), which is the order
    one tracked elimination of all the degree's columns lists them in;
    within one κ that is the block's elimination order.  A
    sub-rectangle's vectors share their scalar forms across its fine
    degrees; they are never mutated, like `_UNIT`.  `covers` keeps what
    `_cover_degree` returned for each degree, for the basis, the
    rectangles and `HomCalculator.section`.  The rectangles share their
    vectors with the basis: the next cover step, `dim` and Ext into this
    syzygy read them, assembled or not.  `nonempty_degrees`, the degrees
    with a block that has a kernel, is known without assembling any."""

    def __init__(self, rings, covers: dict):
        self._rings = rings
        self.covers = covers  # degree -> the `_cover_degree` result
        self._rects = {}  # degree -> rectangles, from its first read on
        self._built = dict.fromkeys(covers)  # degree -> basis, None until assembled
        self.nonempty_degrees = [
            j for j, (_, _, parts, _) in covers.items() if any(block.kernel for *_, block in parts)
        ]

    def __getitem__(self, j):
        basis = self._built[j]
        if basis is None:
            basis = self._built[j] = self._assemble(j)
        return basis

    def rectangles(self, j: int):
        """Degree j as rectangles (S_A, S_B, tests), the tests being a
        block's kernel vectors in basis order; None outside the step."""
        rects = self._rects.get(j)
        if rects is None and j in self.covers:
            rects = self._rects[j] = [
                (sa, sb, _relabel([v for _, v in block.kernel], cols))
                for sa, sb, cols, _, block in self.covers[j][2]
                if block.kernel
            ]
        return rects

    def dim(self, j: int) -> int:
        """dim of degree j (0 outside the step), counted on its rectangles
        without assembling it."""
        basis = self._built.get(j)
        if basis is not None:
            return len(basis)
        return sum(len(sa) * len(sb) * len(tests) for sa, sb, tests in self.rectangles(j) or ())

    def _assemble(self, j: int) -> list:
        specA, specB = self._rings
        _, gen_data, parts, _ = self.covers[j]
        kernel = []
        with_kernel = [(cols, block) for _, _, cols, _, block in parts if block.kernel]
        for (sa, sb, tests), (cols, block) in zip(self.rectangles(j), with_kernel):
            deps = [cols[dep] for dep, _ in block.kernel]
            for kappa in product(sa, sb):
                for s, scalar in zip(deps, tests):
                    dg, f, _ = gen_data[s]
                    pos = r_index(specA, specB, j - dg)[_pair_sub(kappa, f)]
                    kernel.append(((s, pos), (kappa, scalar)))
        kernel.sort(key=itemgetter(0))
        return [vec for _, vec in kernel]

    def __iter__(self):
        return iter(self._built)

    def __len__(self):
        return len(self._built)


def minimal_generators(module, lo: int, hi: int) -> list[tuple[int, dict]]:
    """Degrees and representative vectors of a minimal generating set.

    The basis vector w_i of M_j is a generator when it lies outside
    (R_+ M)_j and the span of w_0 .. w_(i-1); its representative is
    {i: 1}.  See `_cover_step` for completeness and certification.
    """
    return _cover_step(module, lo, hi, {})[0]


def generation_degrees(module, lo: int, hi: int) -> dict:
    """Multiset of minimal generator degrees on the window, degree -> count."""
    return dict(Counter(j for j, _ in minimal_generators(module, lo, hi)))


@dataclass
class Resolution:
    """Minimal free resolution data to a fixed homological depth.

    `generators[k]` lists the minimal generators of the module resolved
    at step k (the module itself for k = 0, its k-th syzygy after), as
    `minimal_generators` returns them: (degree, {i: 1}) for the i-th
    basis vector of that degree.  F_k has one generator for each, in
    the same order.  `syzygies[k].bases` keeps the cover step of the
    module resolved at step k, degree by degree (`_KernelBases.covers`),
    and `HomCalculator.section` reads the section of the cover off it.
    Each syzygy assembles its basis of a degree on the first read, so
    `syzygies[-1]`, which no step covers, stays unassembled unless a
    caller reads it.

    `diffs[k]` maps (generator g of F_k, generator h of F_(k+1)) to one
    monomial pair f(h) / f(g) with its nonzero integer coefficient, the
    only term of the entry: h is a kernel vector at the fine degree
    f(h), so its coordinate on g sits at f(h) / f(g).  Distinct entries
    therefore fill disjoint blocks of the dual differential, and
    `scalar_rows` rejects an entry of more than one pair."""

    module: object
    lo: int
    hi: int
    frees: list[FreeModule]
    diffs: list[dict]  # diffs[k]: F_(k+1) -> F_k, (row gen, col gen) -> pair poly
    syzygies: list[SyzygyModule]
    generators: list[list[tuple[int, dict]]] = field(default_factory=list)

    def syzygy(self, k: int) -> SyzygyModule:
        """The k-th syzygy module (k >= 1)."""
        return self.syzygies[k - 1]

    def tail(self, k: int) -> "Resolution":
        """The resolution of the k-th syzygy, read off from step k on.

        `free_resolution` computes step k from exactly this syzygy, so
        the tail equals resolving it afresh to depth (depth - k)."""
        return Resolution(
            self.syzygy(k),
            self.lo,
            self.hi,
            self.frees[k:],
            self.diffs[k:],
            self.syzygies[k:],
            self.generators[k:],
        )

    def betti_table(self) -> list[list[int]]:
        return [sorted(F.gens) for F in self.frees]

    def check_minimality(self):
        for entries in self.diffs:
            for (_, _), poly in entries.items():
                for (ma, mb), coeff in poly.items():
                    if coeff and not any(ma) and not any(mb):
                        raise AssertionError("non-minimal resolution entry")

    def to_json_dict(self) -> dict:
        return {
            "module": getattr(self.module, "label", "module"),
            "window": [self.lo, self.hi],
            "betti": self.betti_table(),
            "differentials": [
                [
                    [r, c, sorted([list(ma), list(mb), v] for (ma, mb), v in poly.items())]
                    for (r, c), poly in sorted(entries.items())
                ]
                for entries in self.diffs
            ],
        }


def free_resolution(module, depth: int, lo: int, hi: int) -> Resolution:
    """Resolve to homological depth `depth`, exactly on [lo, hi].

    Kernels are computed block by block (`_cover_step`), each distinct
    block once over the steps; the k-th syzygy is stored with its basis
    vectors in fine form and the fine degrees of its ambient generators,
    and remains usable as a module afterwards.  Each syzygy is marked
    G-invariant exactly when the module is (`SyzygyModule.invariant`).
    """
    ringA, ringB = rings_of(module)
    cur = module
    invariant = getattr(module, "invariant", False)
    res = Resolution(module, lo, hi, [], [], [])
    blocks = {}
    for step in range(depth + 1):
        gens, bases = _cover_step(cur, lo, hi, blocks)
        free = FreeModule(ringA, ringB, tuple(g for g, _ in gens))
        res.frees.append(free)
        res.generators.append(gens)
        fine, entries = [], {}
        for col, (dg, (i,)) in enumerate(gens):
            kappa, scalar = cur.fine_basis(dg)[i]
            fine.append(kappa)
            if step:
                # a kernel vector inside the previous free module at the
                # fine degree kappa: one monomial pair per entry
                for g_idx, coeff in scalar.items():
                    entries[(g_idx, col)] = {_pair_sub(kappa, cur.fine[g_idx]): coeff}
        if step:
            res.diffs.append(entries)
        cur = SyzygyModule(free, bases, f"syz^{step + 1}", tuple(fine), invariant)
        res.syzygies.append(cur)
    res.check_minimality()
    return res


# ---------------------------------------------------------------------------
# Hom and Ext via the dualized resolution


def _act_cached(N, pair, p: int, j: int):
    if isinstance(N, SyzygyModule):
        key = (pair, p, j)
        cache = N._act_cache
        if key not in cache:
            cache[key] = N.act(pair, p, j)
        return cache[key]
    return _act_matrix_frozen(N, pair, p, j)


def _orbit(res: Resolution, N, char: int):
    """The classes of G on each side where `ext_dims` counts δ by orbits:
    over Q, when the module `res` resolves and N are both G-invariant by
    construction (`invariant`); None elsewhere, or when G is trivial."""
    if char or not (getattr(res.module, "invariant", False) and getattr(N, "invariant", False)):
        return None
    orbit = tuple(map(weight_classes, rings_of(res.module)))
    return orbit if any(orbit) else None


def _delta_blocks(bits, fine, orbit=None) -> list:
    """The δ-blocks of a dual map, found by masks.  The b-th bit (g, r,
    (S_A, S_B, ...)) pairs a generator g, of fine degree fine[g], with
    the rectangle of fine degrees named r: it is set in the A mask of
    κ_A / f_A(g) for κ_A in S_A and in the B mask of κ_B / f_B(g) for
    κ_B in S_B, so the bits of mask_A & mask_B at δ are those whose
    rectangle holds δ·f(g).  Bits of one rectangle and one f_A (f_B) set
    the same A (B) masks, so each such group is walked once.  Returns
    [(mask, [δ_A], [δ_B])], one per pair of an A group and a B group of
    equal masks (`_split`) whose masks meet.

    With `orbit`, the classes of G on each side (`weight_classes`), a δ
    is grouped by the mask of its representative under G instead of its
    own (`ext_dims` proves the blocks' ranks equal), so each list holds
    the members of the orbits whose representatives share that mask.
    AssertionError when a representative is not a δ of its side."""
    split = []
    for x in (0, 1):  # the A side, then the B side
        groups = {}
        for b, (g, r, rect) in enumerate(bits):
            groups.setdefault((fine[g][x], r), [rect[x], 0])[1] |= 1 << b
        side = {}
        for (f, _), (kappas, mask) in groups.items():
            for kappa in kappas:
                key = tuple(map(sub, kappa, f))
                side[key] = side.get(key, 0) | mask
        masks = side
        if orbit and orbit[x]:
            masks = {}
            for key in side:
                rep = orbit_rep(orbit[x], key)
                if rep not in side:
                    raise AssertionError(f"the orbit representative {rep} is not a δ of its side")
                masks[key] = side[rep]
        split.append(_split(side, masks))
    split_a, split_b = split
    return [
        (ma & mb, part_a, part_b)
        for ma, part_a in split_a
        for mb, part_b in split_b
        if ma & mb
    ]


class _Dual:
    """The dual maps Hom(F_i, N)_d -> Hom(F_(i+1), N)_d of one resolution
    into one target N, by δ-blocks, for one call of `ext_dims` or
    `hom_space`, which `solve` each block's columns (a rank or a kernel).

    N_(d + deg g) is read once per call as rectangles r (`_rectangles`),
    so the δ-block is the bits (g, r) with δ·f(g) in r (`_delta_blocks`)
    and its columns are the `dual_column`s of g and each test of r: g
    first, then basis order at κ, the order of listing the columns (g, n)
    one by one.  `solve` runs once per mask of the bits of one (i, d),
    which are interned, so a mask seen again under the same bits is found
    by ints before any column is built.  With `orbit` (`_orbit`), δ are
    grouped by their orbits under G (`_delta_blocks`), after checking
    that the fine degrees of F_i and F_(i+1) are G-invariant.
    """

    def __init__(self, res: Resolution, N, char: int, solve, orbit=None):
        if isinstance(N, SyzygyModule):
            self.width = len(N.ambient.gens)
        else:
            self.width = len(N.gens) if isinstance(N, FreeModule) else 1
        self.res, self.N, self.char, self.solve, self.orbit = res, N, char, solve, orbit
        self.gens = [F.gens for F in res.frees]
        self.rows, self.read, self.checked = {}, set(), set()
        self._degrees = {}  # j -> [(S_A, S_B, tests, tests id)]
        self._tests = {}  # tests -> id
        self._bits = {}  # (i, bit contents) -> id
        self._by_mask = {}  # (bits id, mask) -> (block bits, solution)

    def guard(self, i: int, d: int):
        """Read N.dim at d + deg over F_i and then F_(i+1), once per
        degree (CertificationError above the window), then with `orbit`
        the fine degrees of F_i and F_(i+1) (AssertionError unless
        G-invariant), then the entries of the i-th differential
        (ValueError on an entry of two pairs)."""
        for dg in dict.fromkeys(self.gens[i] + self.gens[i + 1]):
            if d + dg not in self.read:
                self.N.dim(d + dg)
                self.read.add(d + dg)
        if i not in self.rows:
            if self.orbit:
                for k in (i, i + 1):
                    assert_invariant(self.res.syzygies[k].fine, self.orbit, k)
            self.rows[i] = scalar_rows(self.res.diffs[i], len(self.gens[i]))

    def degree(self, j: int):
        """N_j as [(S_A, S_B, tests, tests id)]."""
        hit = self._degrees.get(j)
        if hit is None:
            ids = self._tests
            hit = self._degrees[j] = [
                (sa, sb, tests, ids.setdefault(tuple(tuple(t.items()) for t in tests), len(ids)))
                for sa, sb, tests in _rectangles(self.N, j)[0]
            ]
        return hit

    def blocks(self, i: int, d: int):
        """[(block bits [(g, r, rectangle)], [δ_A], [δ_B], solution)] of the
        i-th dual map in degree d; for a syzygy N over F_p after checking
        the degrees of F_(i+1) (`_check_independent_mod_p`)."""
        if self.char and isinstance(self.N, SyzygyModule):
            _check_independent_mod_p(self.N, [d + dh for dh in self.gens[i + 1]], self.char, self.checked)
        bits = [
            (g, (d + dg, r), rect)
            for g, dg in enumerate(self.gens[i])
            for r, rect in enumerate(self.degree(d + dg))
        ]
        sig = (i, tuple((g, rect[3]) for g, _, rect in bits))
        sid = self._bits.setdefault(sig, len(self._bits))
        out = []
        for mask, part_a, part_b in _delta_blocks(bits, self.res.syzygies[i].fine, self.orbit):
            hit = self._by_mask.get((sid, mask))
            if hit is None:
                block = [bits[b] for b in range(mask.bit_length()) if mask >> b & 1]
                rows, width = self.rows[i], self.width
                # a diagonal target's column is the row itself
                cols = [
                    rows[g] if width == 1 and t is _UNIT else dual_column(rows[g], t, width)
                    for g, _, (_, _, tests, _) in block
                    for t in tests
                ]
                hit = self._by_mask[(sid, mask)] = block, self.solve(cols)
            out.append((hit[0], part_a, part_b, hit[1]))
        return out


def ext_dims(res: Resolution, N, i_values, d_values, char: int) -> dict:
    """Graded Ext dimensions over F_char (Q for 0): (i, d) -> dim
    Ext^i(M, N)_d, M the module `res` resolves, exact per degree.

    Ranks each δ-block of the dual map Hom(F_i, N)_d -> Hom(F_(i+1),
    N)_d (`_Dual`), never the flat map, and counts it once per δ of its
    mask groups, |δ_A|·|δ_B| times.  N_κ sits inside the scalars of N,
    so the rank is that of the flat map; for a syzygy N over F_p while
    its scalar forms at each fine degree stay independent mod p, checked
    at every degree the blocks land in, once per distinct tests.  For
    each d and each i < depth in turn, N.dim is read over F_i and then
    F_(i+1) (CertificationError above the window), then the entries of
    the i-th differential (ValueError on an entry of two pairs), then for
    a syzygy N over F_p the mod-p independence (CertificationError);
    `hom_space` raises in this order too.  No i gives {}.

    Over Q, when the module M that `res` resolves and N are both
    G-invariant by construction (`_orbit`), a δ takes the block of its
    orbit's representative, so one block is ranked per pair of orbits.
    The ranks are equal.  σ in G is a graded automorphism of R with
    σ*M ≅ M and σ*N ≅ N, each sending the fine degree κ to σκ.  So σ*F
    is a minimal resolution of M, and the comparison map σ*F -> F is an
    isomorphism of complexes (Eisenbud, *Commutative Algebra*, Thm 20.2;
    Miller-Sturmfels, GTM 227) that sends the generators at f to those
    at σf.  It keeps total degree, so it restricts to the part of F
    generated in degrees <= hi, which is what `res` holds, and to N's
    degrees inside the window.  Hom(−, N) of it, with σ*N ≅ N, maps
    Hom(F_i, N)_δ onto Hom(F_i, N)_σδ and commutes with the dual maps,
    so each dual map has the same rank and the same columns at δ and at
    σδ.  That is a relabelling of rows and columns, not an
    order-preserving one, so the masks of δ and σδ differ in general and
    the mask grouping ranks both.  Over F_p the same argument needs
    F ⊗ F_p to be a minimal resolution of M ⊗ F_p, which nothing
    certifies yet, so the orbit count runs at char 0 only.  Two guards
    turn a broken precondition into an AssertionError, never a wrong
    number: the fine degrees of the generators of each F_i read form a
    G-invariant multiset (`assert_invariant`), and each representative
    is a δ of its side (`_delta_blocks`)."""
    i_values = sorted(set(i_values))
    if not i_values:
        return {}
    depth = i_values[-1] + 1
    if len(res.frees) < depth + 1:
        raise CertificationError("resolution not deep enough for the Ext range")
    dual = _Dual(
        res, N, char, lambda cols: (len(cols), linalg.rank_of(cols, char)), _orbit(res, N, char)
    )
    out = {}
    for d in d_values:
        dims, rank_at = {}, {-1: 0}
        for i in range(depth):
            dual.guard(i, d)
            if i in i_values or i + 1 in i_values:
                dims[i] = rank_at[i] = 0
                for _, part_a, part_b, (ncols, rank) in dual.blocks(i, d):
                    k = len(part_a) * len(part_b)
                    dims[i] += k * ncols
                    rank_at[i] += k * rank
        for i in i_values:
            out[(i, d)] = dims[i] - rank_at[i] - rank_at[i - 1]
            if out[(i, d)] < 0:
                raise AssertionError("negative Ext dimension")
    return out


def _check_independent_mod_p(N: SyzygyModule, degrees, char: int, checked: set):
    """CertificationError unless the scalar forms of N_j at each fine
    degree stay independent over F_char, for j in `degrees` in turn.
    Every κ of a rectangle (`_rectangles`) carries its tests, so each
    degree and each distinct tests are ranked once per `checked`: per
    rectangle of a syzygy's cover step, per κ for a syzygy given as a
    dict.  A degree enters `checked` only once all its tests pass, so a
    `checked` that outlives a raise never skips a dependent degree."""
    for j in degrees:
        if j in checked:
            continue
        for sa, sb, tests in _rectangles(N, j)[0]:
            key = tuple(tuple(t.items()) for t in tests)
            if key in checked:
                continue
            if linalg.rank_of(tests, char) < len(tests):
                raise CertificationError(
                    f"syzygy basis vectors at the fine degree {(sa[0], sb[0])} of degree {j}"
                    f" are dependent mod {char}"
                )
            checked.add(key)
        checked.add(j)


def hom_space(res: Resolution, N, d: int, char: int) -> list[tuple]:
    """Basis over F_char of the degree-d maps M -> N, M the module `res`
    resolves: the kernels of the δ-blocks of Hom(F_0, N)_d -> Hom(F_1,
    N)_d (`_Dual`), each kernel taken once per block.  A map is
    (δ, {(g, q): c}, form), c its coefficient on the q-th test of the
    rectangle that holds δ·f(g) in N_(d + deg g), in the value on the
    generator g of F_0, and form that value over the ambient generators e
    of N, {(g, e): Σ_q c·test_q[e]}: a map carries its form from
    `hom_space`.  The key and the tests are the block's own, the same at
    every δ of the block, so the maps of one kernel vector share their
    two dicts (never mutated, like `_UNIT`), and no degree of N is
    indexed or assembled.  Every test of a diagonal N is {0: 1}, so there
    the form is the coefficient dict itself.  Raises as `ext_dims` does,
    and in its order, after a CertificationError when `res` has no F_1;
    for a syzygy N over F_p the mod-p independence is checked at the
    degrees of F_0, where the values land, and then of F_1."""
    if len(res.frees) < 2:
        raise CertificationError("resolution not deep enough for the Hom space")
    dual = _Dual(res, N, char, lambda cols: linalg.kernel_of(cols, char))
    dual.guard(0, d)
    if char and isinstance(N, SyzygyModule):
        _check_independent_mod_p(N, [d + dg for dg in dual.gens[0]], char, dual.checked)
    out = []
    for block, part_a, part_b, kernel in dual.blocks(0, d):
        if not kernel:
            continue
        keys = [(g, q) for g, _, rect in block for q in range(len(rect[2]))]
        tests = [t for _, _, rect in block for t in rect[2]]
        # column (g, q) over the ambient generators e of N is its test at
        # g; a diagonal N's tests are all {0: 1}, so its forms are the
        # coefficient dicts themselves
        forms = None
        if any(t is not _UNIT for t in tests):
            forms = [{(g, e): v for e, v in t.items()} for (g, _), t in zip(keys, tests)]
        maps = []
        for vec in kernel:
            coeffs = {keys[p]: c for p, c in vec.items()}
            maps.append((coeffs, linalg.apply_columns(forms, vec) if forms else coeffs))
        out += [((da, db), *m) for da in part_a for db in part_b for m in maps]
    return out


# ---------------------------------------------------------------------------
# maps in fine form: scalar forms, compositions, and stable quotients


class HomCalculator:
    """The one owner of resolutions, hom bases, sections and Ext values
    for a ring pair and a window; the caller creates it and passes it to
    every computation on that pair and window.  A section of the cover
    is read off the cover step its resolution kept.

    Its dicts are keyed by the modules themselves: the frozen
    DiagonalModule and FreeModule by value, so equal modules built
    separately share every entry, and SyzygyModule by identity.  A key
    keeps its module alive, so an entry cannot be hit by another module.
    Resolving M to depth D also registers, for k < D, the tail from step
    k on as the resolution of the k-th syzygy, so syzygies of a resolved
    module are never resolved again.

    A map stays in the fine form `hom_space` gives it, (δ, {(g, q): c},
    form): a map carries its form from `hom_space`, written over the
    ambient generators of its target, and `compose_hom`,
    `through_free_vectors`, `stable_hom_dims` and the quivers rank such
    forms one δ at a time.  `element_matrix` is the flat path by action
    matrices, which none of them reads.

    `char` is the field of every rank, kernel and stable quotient taken
    here: 0 for Q, a prime p for F_p.  Resolutions stay over Q."""

    def __init__(self, ringA, ringB, lo: int, hi: int, char: int = 0):
        self.ringA = ringA
        self.ringB = ringB
        self.lo = lo
        self.hi = hi
        self.char = char
        # R is the diagonal module of shift 0, the quivers' vertex R, so
        # hom bases into it share their cache entries with that vertex
        self.free_rank_one = DiagonalModule(ringA, ringB, 0)
        self._res = {}
        self._hom = {}
        self._section = {}
        self._checked = {}  # syzygy -> degrees and tests found independent mod char
        self._elem_cache = {}
        self._ext = {}  # (M, N, i, d) -> dim Ext^i(M, N)_d

    def resolution(self, M, depth: int = 1) -> Resolution:
        res = self._res.get(M)
        if res is None or len(res.frees) < depth + 1:
            res = free_resolution(M, depth, self.lo, self.hi)
            self._res[M] = res
            # a tail of depth 0 would serve no request (every one asks
            # for depth >= 1), so only tails of positive depth are kept
            for k in range(1, depth):
                self._res[res.syzygy(k)] = res.tail(k)
        return res

    def ext_dims(self, M, N, i_values, d_values) -> dict:
        """Graded Ext dimensions (i, d) -> dim Ext^i(M, N)_d on the
        window, over the resolution of M held here; {} for no i, and
        then nothing is resolved.

        Each value is kept by (M, N, i, d).  Only the degrees d with some
        requested i not kept yet are computed, in the requested order and
        for every requested i, and they are kept only once that
        computation returns, so a call that raises keeps nothing and
        raises again when repeated.  A kept (i, d) passed every check
        that a call asking for it computes, the guards at d for F_0 up to
        F_(i+1) and the blocks of the maps i - 1 and i, so a request met
        from kept values would not have raised."""
        i_values, d_values = sorted(set(i_values)), list(d_values)
        if not i_values:
            return {}
        kept = self._ext
        missing = [
            d for d in dict.fromkeys(d_values) if any((M, N, i, d) not in kept for i in i_values)
        ]
        if missing:
            res = self.resolution(M, i_values[-1] + 1)
            new = ext_dims(res, N, i_values, missing, self.char)
            kept.update(((M, N, i, d), v) for (i, d), v in new.items())
        return {(i, d): kept[(M, N, i, d)] for d in d_values for i in i_values}

    def hom_basis(self, M, N, d: int) -> list[tuple]:
        key = (M, N, d)
        if key not in self._hom:
            self._hom[key] = hom_space(self.resolution(M), N, d, self.char)
        return self._hom[key]

    def section(self, M, t: int) -> dict:
        """A section of the cover F0 -> M in degree t: κ -> for each test
        q at κ of M_t (`_rectangles`), in order, its coordinates {s: λ}
        over the generators s of F0 with f(s) <= κ, the element
        Σ λ_s (κ / f(s)) * s.

        Read off degree t of the cover step of M, which the resolution
        kept (`_KernelBases.covers`): its blocks' pivots are the
        independent cover columns, reduced in order.  A block's
        coordinates over its columns, relabelled to their generators,
        are shared by the fine degrees of its sub-rectangle; only a block
        with new generators, whose index depends on κ, is relabelled at
        each κ."""
        key = (M, t)
        sec = self._section.get(key)
        if sec is None:
            if not self.lo <= t <= self.hi:
                raise CertificationError(f"degree {t} outside the window")
            new, gen_data, parts, index_of = self.resolution(M).syzygies[0].bases.covers[t]
            index = {i: len(gen_data) + r for r, (_, (i,)) in enumerate(new)}
            sec = self._section[key] = {}
            for sa, sb, cols, _, block in parts:
                shared = None if block.new else _relabel(block.coords, cols)
                for kappa in product(sa, sb):
                    sec[kappa] = shared or _relabel(
                        block.coords, cols + [index[index_of(kappa, q)] for q in block.new]
                    )
        return sec

    def land(self, N, j: int):
        """Read N.dim(j), where values of maps into N land
        (CertificationError above the window); over F_p for a syzygy N,
        then check that its tests there stay independent mod p
        (`_check_independent_mod_p`), which ranking forms in ambient
        coordinates needs."""
        N.dim(j)
        if self.char and isinstance(N, SyzygyModule):
            _check_independent_mod_p(N, [j], self.char, self._checked.setdefault(N, set()))

    def element_matrix(self, M, N, d: int, phi, t: int) -> list[dict]:
        """Columns of the degree-d map phi (as `hom_basis` gives it) on the
        degree-t piece of M, in the bases of M_t and N_(t + d), through
        action matrices.  It is the flat path that `compose_hom`
        replaced, kept for the references; no computation here reads
        it."""
        delta, vec, _ = phi
        key = (M, N, d, t, delta, tuple(sorted(vec.items())))
        cached = self._elem_cache
        if key in cached:
            return cached[key]
        res = self.resolution(M)
        gens, fine = res.frees[0].gens, res.syzygies[0].fine
        at, gen_values = {}, {}
        for (g, q), v in vec.items():
            j = d + gens[g]
            if j not in at:
                at[j] = _by_kappa(N.fine_basis(j))
            gen_values.setdefault(g, {})[at[j][_pair_add(delta, fine[g])][q]] = v
        sec, seen, cols = self.section(M, t), Counter(), []
        for kappa, _ in M.fine_basis(t):
            out = {}
            for s, coeff in sec[kappa][seen[kappa]].items():
                base = gen_values.get(s)
                if not base:
                    continue
                g = gens[s]
                img = (
                    dict(base)
                    if g == t
                    else linalg.apply_columns(_act_cached(N, _pair_sub(kappa, fine[s]), t - g, d + g), base)
                )
                for k, v in img.items():
                    z = out.get(k, 0) + coeff * v
                    if z:
                        out[k] = z
                    elif k in out:
                        del out[k]
            seen[kappa] += 1
            cols.append(out)
        cached[key] = cols
        return cols


def _relabel(coords, labels) -> list[dict]:
    """A block's coordinates over its positions, relabelled."""
    return [{labels[p]: c for p, c in row.items()} for row in coords]


def _by_generator(vec: dict) -> defaultdict:
    """A map keyed by (g, k) as its values on each generator, g -> {k: v},
    {} for a generator without one."""
    out = defaultdict(dict)
    for (g, k), v in vec.items():
        out[g][k] = v
    return out


def compose_hom(calc: HomCalculator, a, b, c, e: int, f: int, phi, psi) -> tuple:
    """psi∘phi for phi: a -> b of degree e and psi: b -> c of degree f,
    (δ1, ·, ·) and (δ2, ·, ·) as `hom_basis` gives them: (δ1·δ2, {(g, k):
    x}), its value on each generator g of F_0(a) as a scalar form over the
    ambient generators k of c, as a map carries its form from
    `hom_space`.

    phi(g) is the element of b at κ = δ1·f(g) with the coefficient
    phi[(g, q)] on the q-th test there; the section of the cover of b
    (`HomCalculator.section`) writes it as Σ λ_s (κ / f(s))·s over the
    generators s of b.  psi(s) has the scalar form σ_s at δ2·f(s), read
    from psi's form, and multiplying by the monomial κ / f(s) keeps it,
    so psi(phi(g)) is Σ λ_s σ_s at δ1·δ2·f(g): no action matrix is read.

    The product of two halves (`compose_halves`): phi's half, the
    coordinates λ of each phi(g) (`cover_coordinates`), and psi's, its
    form split by generator (`generator_split`).  A caller composing
    many pairs of one split builds each half once."""
    coords = cover_coordinates(calc, a, b, c, e, e + f, phi)
    return _pair_add(phi[0], psi[0]), compose_halves(coords, generator_split(psi))


def cover_coordinates(calc: HomCalculator, a, b, c, e: int, d: int, phi) -> dict:
    """phi's half of a composition a -> b -> c of degree d, phi: a -> b
    of degree e: g -> the coordinates {s: λ} of phi(g) over the
    generators s of b, from the section of b's cover in degree
    deg g + e, for each generator g of F_0(a) that phi has a value on.
    For each generator of a in turn, c is read at its degree once per
    degree (`HomCalculator.land`), and then the section of b if phi has
    a value on it."""
    delta, vec, _ = phi
    res = calc.resolution(a)
    values = _by_generator(vec)
    out, read = {}, set()
    for g, (dg, fg) in enumerate(zip(res.frees[0].gens, res.syzygies[0].fine)):
        if dg not in read:
            read.add(dg)
            calc.land(c, dg + d)
        val = values.get(g)
        if val:  # in b at degree dg + e
            out[g] = linalg.apply_columns(calc.section(b, dg + e)[_pair_add(delta, fg)], val)
    return out


def generator_split(psi) -> defaultdict:
    """psi's half of a composition: its form split by generator s of its
    source, s -> the scalar form σ_s of psi(s)."""
    return _by_generator(psi[2])


def compose_halves(coords: dict, images) -> dict:
    """The composite's {(g, k): x} from phi's `cover_coordinates` and
    psi's `generator_split`: on g, Σ λ_s σ_s."""
    out = {}
    for g, row in coords.items():
        for k, v in linalg.apply_columns(images, row).items():
            out[(g, k)] = v
    return out


def through_free_vectors(calc: HomCalculator, a, b, d: int) -> list[tuple]:
    """Maps a -> b of degree d spanning those that factor through a free
    module, each (δ, {(g, e): c}) over the ambient generators e of b, as
    `compose_hom` gives maps.

    A map a -> F -> b with F free lifts through the cover F0(b) -> b,
    because F is projective, so it factors through F0(b): it is a sum of
    phi * s over the minimal generators s of b, with phi: a -> R of
    degree d - deg s.  phi = (δ', {(g, 0): c}) sends g to c·x^(δ'·f(g)),
    so phi * s sends it to c·x^(δ'·f(g)) * s: the map sits at δ'·f(s),
    and its value on g is c times the scalar form of s.  One vector per
    such phi and s therefore spans the whole space.  The generators of b
    are found over Q; they generate b over F_p as well when they are
    monomials, as for diagonal and free targets, and only then is the
    span complete over F_p.  b is read at the degree of every generator
    of a, once per degree, when the first phi is found
    (`HomCalculator.land`)."""
    R = calc.free_rank_one
    gens = calc.resolution(a).frees[0].gens
    out, unread = [], dict.fromkeys(gens)
    for j, (i,) in calc.resolution(b).generators[0]:
        phis = calc.hom_basis(a, R, d - j)
        if not phis:
            continue
        for dg in unread:
            calc.land(b, d + dg)
        unread = ()
        fs, scalar = b.fine_basis(j)[i]
        for delta, vec, _ in phis:
            form = {(g, e): c * v for (g, _), c in vec.items() for e, v in scalar.items()}
            out.append((_pair_add(delta, fs), form))
    return out


def stable_hom_dims(calc: HomCalculator, a, b, d_values) -> dict:
    """dim Hom_d and dim of the stable quotient (mod maps through frees),
    ranked in one echelon per δ: maps of different δ have disjoint
    values."""
    out = {}
    for d in d_values:
        basis = calc.hom_basis(a, b, d)
        echs = defaultdict(lambda: linalg.Echelon(calc.char))
        for delta, v in through_free_vectors(calc, a, b, d):
            echs[delta].add(v)
        p_dim = sum(ech.rank for ech in echs.values())
        for delta, _, form in basis:
            echs[delta].add(form)
        out[d] = (len(basis), sum(ech.rank for ech in echs.values()) - p_dim)
    return out
