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
the span of their cover columns in degree j.  One elimination per degree
therefore finds the new generators and the kernel of the cover together
(the degree-by-degree strategy of La Scala-Stillman, 1998).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache

from .. import linalg
from ..linalg import CertificationError
from .modules import FreeModule, SyzygyModule, r_basis


def rings_of(module):
    if isinstance(module, SyzygyModule):
        return module.ambient.ringA, module.ambient.ringB
    return module.ringA, module.ringB


def _work_vectors(module, j: int) -> list[dict]:
    """Basis of the degree-j piece, embedded in multiplication-friendly
    coordinates (own coordinates for explicit modules, ambient free
    coordinates for syzygies)."""
    if isinstance(module, SyzygyModule):
        return module.bases.get(j, [])
    return [{i: 1} for i in range(module.dim(j))]


@lru_cache(maxsize=None)
def _act_matrix_frozen(module, pair, p: int, j: int):
    return module.act(pair, p, j)


def _act_vector(module, pair, p: int, j: int, vec: dict) -> dict:
    """Multiply an embedded vector by a monomial pair of degree p."""
    if isinstance(module, SyzygyModule):
        module = module.ambient
    return linalg.apply_columns(_act_matrix_frozen(module, pair, p, j), vec)


def _cover_degree(module, j: int, gens):
    """Degree j of the cover of M by its generators `gens` of degree < j.

    One tracked echelon takes g times each pair of R_(j - deg g), for g
    in order, which span (R_+ M)_j; each column is tagged by its
    position, its flat coordinate in F0.  The basis vector w_i of M_j
    is a new generator (j, {i: 1}) when it lies outside that span and
    the generators of degree j before it; it then enters as its own
    column.  Returns the echelon and the new generators.
    """
    ringA, ringB = rings_of(module)
    ech = linalg.Echelon(track=True)
    for dg, unit in gens:
        w = _expand_in_work(module, dg, unit)
        for pair in r_basis(ringA, ringB, j - dg):
            ech.add(_act_vector(module, pair, j - dg, dg, w))
    new = []
    for i, w in enumerate(_work_vectors(module, j)):
        if not ech.contains(w):
            new.append((j, {i: 1}))
            ech.add(w)
    return ech, new


def _cover_step(module, lo: int, hi: int):
    """Minimal generators and cover kernel on [lo, hi].

    One `_cover_degree` per degree j finds the generators of degree j;
    its tracked dependencies are the kernel basis in degree j.  The
    cover columns are not kept: `HomCalculator.section` re-runs the one
    degree it needs.

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
    gens, bases = [], {}
    for j in range(lo, hi + 1):
        ech, new = _cover_degree(module, j, gens)
        gens += new
        bases[j] = ech.kernel_basis()
    return gens, bases


def minimal_generators(module, lo: int, hi: int) -> list[tuple[int, dict]]:
    """Degrees and representative vectors of a minimal generating set.

    The basis vector w_i of M_j is a generator when it lies outside
    (R_+ M)_j and the span of w_0 .. w_(i-1); its representative is
    {i: 1}.  See `_cover_step` for completeness and certification.
    """
    return _cover_step(module, lo, hi)[0]


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
    cover re-runs one degree of it (`HomCalculator.section`)."""

    module: object
    lo: int
    hi: int
    frees: list[FreeModule]
    betti: list[tuple[int, ...]]
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
            self.betti[k:],
            self.diffs[k:],
            self.syzygies[k:],
            self.generators[k:],
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

    Kernels are computed in the coordinates of the ambient free module,
    so every step is plain sparse elimination; the k-th syzygy is stored
    with explicit bases and remains usable as a module afterwards.
    """
    ringA, ringB = rings_of(module)
    cur = module
    frees, betti, diffs, syzygies = [], [], [], []
    res = Resolution(module, lo, hi, frees, betti, diffs, syzygies)
    for step in range(depth + 1):
        gens, bases = _cover_step(cur, lo, hi)
        free = FreeModule(ringA, ringB, tuple(g for g, _ in gens))
        frees.append(free)
        betti.append(tuple(g for g, _ in gens))
        res.generators.append(gens)
        if step >= 1:
            # generator representatives are kernel vectors inside the
            # previous free module: read the flat coordinates back as
            # polynomial entries
            prev = frees[step - 1]
            entries = {}
            for col, (dg, unitvec) in enumerate(gens):
                vec = _expand_in_work(cur, dg, unitvec)
                for flat, coeff in vec.items():
                    g_idx, pair = _split_flat(prev, dg, flat)
                    poly = entries.setdefault((g_idx, col), {})
                    poly[pair] = poly.get(pair, 0) + coeff
            diffs.append(entries)
        syz = SyzygyModule(free, bases, label=f"syz^{step + 1}")
        syzygies.append(syz)
        cur = syz
    res.check_minimality()
    return res


def _expand_in_work(module, j: int, unitvec: dict) -> dict:
    """Expand a vector over the degree-j piece into embedded coordinates."""
    vecs = _work_vectors(module, j)
    out = {}
    for i, c in unitvec.items():
        for k, v in vecs[i].items():
            z = out.get(k, 0) + c * v
            if z:
                out[k] = z
            elif k in out:
                del out[k]
    return out


def _split_flat(free: FreeModule, j: int, flat: int):
    offs = free.offsets(j)
    for gi in range(len(free.gens)):
        if flat < offs[gi + 1]:
            pair = r_basis(free.ringA, free.ringB, j - free.gens[gi])[flat - offs[gi]]
            return gi, pair
    raise IndexError("flat coordinate out of range")


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

        Re-runs `_cover_degree` on the stored generators of degree < t;
        its pivots are the independent cover columns, reduced in order."""
        key = (M, t)
        if key not in self._section:
            if not self.lo <= t <= self.hi:
                raise CertificationError(f"degree {t} outside the window")
            gens = self.resolution(M).generators[0]
            ech, new = _cover_degree(M, t, [g for g in gens if g[0] < t])
            if new != [g for g in gens if g[0] == t]:
                raise AssertionError(f"degree-{t} generators differ from the resolution's")
            flat_keys = [
                (g_idx, pair)
                for g_idx, (j, _) in enumerate(gens)
                if j <= t
                for pair in r_basis(self.ringA, self.ringB, t - j)
            ]
            sections = []
            for w in _work_vectors(M, t):
                coords = ech.coordinates(w)
                if coords is None:
                    raise AssertionError("cover is not surjective on the window")
                sections.append({flat_keys[f]: coords[f] for f in sorted(coords)})
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
