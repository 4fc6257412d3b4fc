"""Minimal graded free resolutions over Segre products, and the Hom/Ext
calculus built on them.

Everything is computed degree by degree inside a window; a computation
that would need data above the window raises CertificationError instead
of silently truncating.  Within the window all numbers are exact: each
kernel, generator count, and Ext dimension at internal degree j only
consumes data in degrees <= j, so the window certifies itself.

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
fine degree f(g) (`fine_basis`).  The cover column u * g sits at fine degree
f(g) * u, and over the generators of the ambient free module it has the
same coefficients as g, whatever u is.  So degree j splits into one
block per fine degree κ of M_j: its columns are the scalar forms of the
generators with f(g) <= κ, in generator order, and its tests are the
basis vectors of M_j at κ.  A column at κ only meets pivots at κ, so the
blocks eliminated one by one perform exactly the operations of one
elimination of the whole degree, in the same order.  Blocks equal after
an order-preserving relabelling of their rows are eliminated once per
resolution (`Resolution.blocks`).  A kernel vector of a block stays in
fine form, (κ, scalar form over the generators), and the vectors of a
degree come in the order one elimination of the whole degree gives.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from operator import itemgetter, sub

from .. import linalg
from ..linalg import CertificationError
from .modules import FreeModule, SyzygyModule, r_basis, r_index
from .strands import kappa_masks


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


def _cover_degree(module, j: int, gens, memo: dict):
    """Degree j of the cover of M by its generators `gens` of degree < j,
    one fine-degree block at a time.

    Generator s, the basis vector {i: 1} of M_dg, has the fine degree
    f(s) and scalar form of that vector.  The block at a fine degree κ of
    M_j has the scalar forms of the generators with f(s) <= κ as columns,
    in generator order (the column of s is u * s for u = κ / f(s)), and
    the basis vectors of M_j at κ as tests, in basis order.  Blocks come
    from `memo` (`_block`).  Returns the new generators (j, {i: 1}) in
    basis order, (dg, f(s), scalar form) per generator, and per κ the
    tuple (κ, column generators, test basis indices, block).
    AssertionError unless the blocks hold every cover column once."""
    specA, specB = rings_of(module)
    basis = module.fine_basis(j)
    tests = {}
    for i, (kappa, _) in enumerate(basis):
        tests.setdefault(kappa, []).append(i)
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
    # within this degree a block is fixed by its column mask and its
    # tests, so `seen` spares relabelling each repeat for `_block`
    seen, parts, new, covered = {}, [], [], 0
    for kappa, idx in tests.items():
        mask = masks_a.get(kappa[0], 0) & masks_b.get(kappa[1], 0)
        key = (mask, tuple(tuple(basis[i][1].items()) for i in idx))
        hit = seen.get(key)
        if hit is None:
            cols = [s for s in range(mask.bit_length()) if mask >> s & 1]
            block = _block(memo, [gen_data[s][2] for s in cols], [basis[i][1] for i in idx])
            hit = seen[key] = cols, block
        cols, block = hit
        covered += len(cols)
        parts.append((kappa, cols, idx, block))
        new += [idx[q] for q in block.new]
    if covered != sum(len(r_basis(specA, specB, j - dg)) for dg, _, _ in gen_data):
        raise AssertionError(f"fine-degree blocks miss cover columns in degree {j}")
    return [(j, {i: 1}) for i in sorted(new)], gen_data, parts


def _cover_step(module, lo: int, hi: int, memo: dict):
    """Minimal generators and cover kernel on [lo, hi].

    One `_cover_degree` per degree j finds the generators of degree j;
    the blocks' tracked dependencies are the kernel basis in degree j,
    each as (κ, {generator: coefficient}).  They are sorted by their
    dependent cover column u * s, by s and then by the position of u =
    κ / f(s) in R_(j - deg s), which is the order one tracked elimination
    of all the degree's columns lists them in.  The cover columns are not
    kept: `HomCalculator.section` re-runs the one degree it needs.

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
    specA, specB = rings_of(module)
    gens, bases = [], {}
    for j in range(lo, hi + 1):
        new, gen_data, parts = _cover_degree(module, j, gens, memo)
        kernel = []
        for kappa, cols, _, block in parts:
            for dep, vec in block.kernel:
                s = cols[dep]
                dg, f, _ = gen_data[s]
                pos = r_index(specA, specB, j - dg)[_pair_sub(kappa, f)]
                kernel.append(((s, pos), (kappa, {cols[q]: c for q, c in vec.items()})))
        kernel.sort(key=itemgetter(0))
        bases[j] = [vec for _, vec in kernel]
        gens += new
    return gens, bases


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
    the same order.  The cover columns are not kept; a section of the
    cover re-runs one degree of it (`HomCalculator.section`) on the
    eliminated fine-degree blocks in `blocks`, which the tails share."""

    module: object
    lo: int
    hi: int
    frees: list[FreeModule]
    betti: list[tuple[int, ...]]
    diffs: list[dict]  # diffs[k]: F_(k+1) -> F_k, (row gen, col gen) -> pair poly
    syzygies: list[SyzygyModule]
    generators: list[list[tuple[int, dict]]] = field(default_factory=list)
    blocks: dict = field(default_factory=dict, compare=False, repr=False)

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
            self.betti[k:],
            self.diffs[k:],
            self.syzygies[k:],
            self.generators[k:],
            self.blocks,
        )

    def betti_table(self) -> list[list[int]]:
        return [sorted(b) for b in self.betti]

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
            "betti": [sorted(b) for b in self.betti],
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

    Kernels are computed block by block (`_cover_step`); the k-th
    syzygy is stored with its basis vectors in fine form and the fine
    degrees of its ambient generators, and remains usable as a module
    afterwards.
    """
    ringA, ringB = rings_of(module)
    cur = module
    res = Resolution(module, lo, hi, [], [], [], [])
    for step in range(depth + 1):
        gens, bases = _cover_step(cur, lo, hi, res.blocks)
        free = FreeModule(ringA, ringB, tuple(g for g, _ in gens))
        res.frees.append(free)
        res.betti.append(free.gens)
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
        cur = SyzygyModule(free, bases, f"syz^{step + 1}", tuple(fine))
        res.syzygies.append(cur)
    res.check_minimality()
    return res


# ---------------------------------------------------------------------------
# Hom and Ext via the dualized resolution


def _hom_block_matrix(res: Resolution, i: int, N, d: int):
    """Matrix of Hom(F_i, N)_d -> Hom(F_(i+1), N)_d, columns stored."""
    Fi, Fj = res.frees[i], res.frees[i + 1]
    entries = res.diffs[i]
    src_off = [0]
    for g in Fi.gens:
        src_off.append(src_off[-1] + N.dim(d + g))
    dst_off = [0]
    for g in Fj.gens:
        dst_off.append(dst_off[-1] + N.dim(d + g))
    cols = [dict() for _ in range(src_off[-1])]
    for (g_idx, col_idx), poly in entries.items():
        dg, dcol = Fi.gens[g_idx], Fj.gens[col_idx]
        p = dcol - dg
        src_dim = N.dim(d + dg)
        if src_dim == 0:
            continue
        block = None
        for pair, coeff in poly.items():
            act = _act_cached(N, pair, p, d + dg)
            if block is None:
                block = [
                    {k: coeff * v for k, v in c.items()} for c in act
                ]
            else:
                for b, c in zip(block, act):
                    for k, v in c.items():
                        z = b.get(k, 0) + coeff * v
                        if z:
                            b[k] = z
                        elif k in b:
                            del b[k]
        if block is None:
            continue
        base = dst_off[col_idx]
        for s in range(src_dim):
            col = cols[src_off[g_idx] + s]
            for k, v in block[s].items():
                key = base + k
                z = col.get(key, 0) + v
                if z:
                    col[key] = z
                elif key in col:
                    del col[key]
    return cols, src_off[-1], dst_off[-1]


def _act_cached(N, pair, p: int, j: int):
    if isinstance(N, SyzygyModule):
        key = (pair, p, j)
        cache = N._act_cache
        if key not in cache:
            cache[key] = N.act(pair, p, j)
        return cache[key]
    return _act_matrix_frozen(N, pair, p, j)


def ext_dims(res: Resolution, N, i_values, d_values, char: int) -> dict:
    """Graded Ext dimensions over F_char (Q for 0): (i, d) -> dim
    Ext^i(M, N)_d, M the module `res` resolves, exact per degree."""
    i_values = sorted(set(i_values))
    depth = max(i_values) + 1
    if len(res.frees) < depth + 1:
        raise CertificationError("resolution not deep enough for the Ext range")
    out = {}
    for d in d_values:
        mats = {}
        for i in range(0, depth):
            mats[i] = _hom_block_matrix(res, i, N, d)
        for i in i_values:
            cols, src_dim, _ = mats[i]
            rank_i = linalg.rank_of(cols, char)
            if i == 0:
                rank_prev = 0
            else:
                rank_prev = linalg.rank_of(mats[i - 1][0], char)
            out[(i, d)] = src_dim - rank_i - rank_prev
            if out[(i, d)] < 0:
                raise AssertionError("negative Ext dimension")
    return out


def hom_space(res: Resolution, N, d: int, char: int) -> list[dict]:
    """Basis over F_char of the degree-d maps M -> N, M the module `res`
    resolves, as generator-value vectors: the kernel of the dual of the
    first differential."""
    cols, _, _ = _hom_block_matrix(res, 0, N, d)
    return linalg.kernel_of(cols, char) if cols else []


# ---------------------------------------------------------------------------
# maps as degreewise matrices, compositions, and stable quotients


class HomCalculator:
    """The one owner of resolutions, hom bases, sections and element
    matrices for a ring pair and a window; the caller creates it and
    passes it to every computation on that pair and window.  A section
    of the cover re-runs one degree of it on the stored generators.

    Its dicts are keyed by the modules themselves: the frozen
    DiagonalModule and FreeModule by value, so equal modules built
    separately share every entry, and SyzygyModule by identity.  A key
    keeps its module alive, so an entry cannot be hit by another module.
    Resolving M to depth D also registers, for k < D, the tail from step
    k on as the resolution of the k-th syzygy, so syzygies of a resolved
    module are never resolved again.

    `char` is the field of every rank, kernel and stable quotient taken
    here: 0 for Q, a prime p for F_p.  Resolutions stay over Q."""

    def __init__(self, ringA, ringB, lo: int, hi: int, char: int = 0):
        self.ringA = ringA
        self.ringB = ringB
        self.lo = lo
        self.hi = hi
        self.char = char
        self.free_rank_one = FreeModule(ringA, ringB, (0,))
        self._res = {}
        self._hom = {}
        self._section = {}
        self._elem_cache = {}

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
        window, over the resolution of M held here."""
        res = self.resolution(M, max(i_values) + 1)
        return ext_dims(res, N, i_values, d_values, self.char)

    def hom_basis(self, M, N, d: int) -> list[dict]:
        key = (M, N, d)
        if key not in self._hom:
            self._hom[key] = hom_space(self.resolution(M), N, d, self.char)
        return self._hom[key]

    def section(self, M, t: int) -> list[dict]:
        """A section of the cover F0 -> M in degree t: for each basis
        vector of M_t, its coordinates over F0 in flat order (the order
        `element_matrix` sums them), keyed by (generator index, pair).

        Re-runs `_cover_degree` on the stored generators of degree < t,
        whose blocks the resolution has eliminated; their pivots are the
        independent cover columns, reduced in order."""
        key = (M, t)
        if key not in self._section:
            if not self.lo <= t <= self.hi:
                raise CertificationError(f"degree {t} outside the window")
            res = self.resolution(M)
            before = [g for g in res.generators[0] if g[0] < t]
            new, gen_data, parts = _cover_degree(M, t, before, res.blocks)
            if new != [g for g in res.generators[0] if g[0] == t]:
                raise AssertionError(f"degree-{t} generators differ from the resolution's")
            index = {i: len(before) + r for r, (_, (i,)) in enumerate(new)}
            sections = [None] * M.dim(t)
            for kappa, cols, tests, block in parts:
                keys = [(s, _pair_sub(kappa, gen_data[s][1])) for s in cols]
                keys += [(index[tests[q]], _pair_sub(kappa, kappa)) for q in block.new]
                for q, coords in enumerate(block.coords):
                    sections[tests[q]] = {keys[p]: c for p, c in coords.items()}
            self._section[key] = sections
        return self._section[key]

    def element_matrix(self, M, N, d: int, vec: dict, t: int) -> list[dict]:
        """Columns of the degree-d map on the degree-t piece of M."""
        key = (M, N, d, t, tuple(sorted(vec.items())))
        cached = self._elem_cache
        if key in cached:
            return cached[key]
        F0 = self.resolution(M).frees[0]
        gen_values = _split_gen_values(F0, N, d, vec)
        cols = []
        for coords in self.section(M, t):
            out = {}
            for (g_idx, pair), coeff in coords.items():
                base = gen_values[g_idx]
                if not base:
                    continue
                g = F0.gens[g_idx]
                img = (
                    dict(base)
                    if g == t
                    else linalg.apply_columns(_act_cached(N, pair, t - g, d + g), base)
                )
                for k, v in img.items():
                    z = out.get(k, 0) + coeff * v
                    if z:
                        out[k] = z
                    elif k in out:
                        del out[k]
            cols.append(out)
        cached[key] = cols
        return cols


def _split_gen_values(F0: FreeModule, N, d: int, vec: dict) -> list[dict]:
    out = []
    off = 0
    for g in F0.gens:
        dim = N.dim(d + g)
        out.append({k - off: v for k, v in vec.items() if off <= k < off + dim})
        off += dim
    return out


def compose_hom(calc: HomCalculator, a, b, c, e: int, f: int, phi: dict, psi: dict) -> dict:
    """Generator values of psi∘phi for phi: a->b degree e, psi: b->c degree f."""
    res_a = calc.resolution(a)
    F0 = res_a.frees[0]
    out = {}
    off = 0
    phi_vals = _split_gen_values(F0, b, e, phi)
    for g_idx, g in enumerate(F0.gens):
        val = phi_vals[g_idx]  # in b at degree g + e
        t = g + e
        dim_c = c.dim(g + e + f)
        if val:
            mat = calc.element_matrix(b, c, f, psi, t)
            img = linalg.apply_columns(mat, val)
        else:
            img = {}
        for k, v in img.items():
            out[off + k] = out.get(off + k, 0) + v
        off += dim_c
    return {k: v for k, v in out.items() if v}


def through_free_vectors(calc: HomCalculator, a, b, d: int) -> list[dict]:
    """Generator-value vectors spanning the maps a -> b of degree d that
    factor through a free module.

    A map a -> F -> b with F free lifts through the cover F0(b) -> b,
    because F is projective, so it factors through F0(b): it is a sum of
    phi * g over the minimal generators g of b, with phi: a -> R of
    degree d - deg g.  One vector per such phi and g therefore spans the
    whole space.  The generators of b are found over Q; they generate b
    over F_p as well when they are monomials, as for diagonal and free
    targets, and only then is the span complete over F_p."""
    R = calc.free_rank_one
    F0 = calc.resolution(a).frees[0]
    out = []
    for j, gen in calc.resolution(b).generators[0]:
        u = d - j
        for phi in calc.hom_basis(a, R, u):
            vec, off = {}, 0
            for g, val in zip(F0.gens, _split_gen_values(F0, R, u, phi)):
                # val is phi(g), an element of R_(g+u) in pair coordinates
                pairs = r_basis(calc.ringA, calc.ringB, g + u)
                for flat, coeff in val.items():
                    img = (
                        gen
                        if g + u == 0
                        else linalg.apply_columns(_act_cached(b, pairs[flat], g + u, j), gen)
                    )
                    for k, w in img.items():
                        key = off + k
                        z = vec.get(key, 0) + coeff * w
                        if z:
                            vec[key] = z
                        elif key in vec:
                            del vec[key]
                off += b.dim(d + g)
            if vec:
                out.append(vec)
    return out


def stable_hom_dims(calc: HomCalculator, a, b, d_values) -> dict:
    """dim Hom_d and dim of the stable quotient (mod maps through frees)."""
    out = {}
    for d in d_values:
        basis = calc.hom_basis(a, b, d)
        frees = through_free_vectors(calc, a, b, d)
        ech = linalg.Echelon(calc.char)
        for v in frees:
            ech.add(v)
        p_dim = ech.rank
        for v in basis:
            ech.add(v)
        out[d] = (len(basis), ech.rank - p_dim)
    return out
