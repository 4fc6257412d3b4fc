"""Quivers with arrow multiplicities, endomorphism quivers of graded
module collections, p-Segre quiver algebras of monomial data, and the
two folding constructions (doubling for d=3, tripling for d=4)."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial

from .hilbert import WeightedRingSpec


@dataclass
class Quiver:
    """Finite quiver stored as vertex labels and arrow multiplicities."""

    vertices: tuple[str, ...]
    arrows: dict

    def __post_init__(self):
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("vertex labels must be unique")
        for (a, b), m in self.arrows.items():
            if a not in self.vertices or b not in self.vertices:
                raise ValueError(f"arrow {a}->{b} uses unknown vertex")
            if m < 0:
                raise ValueError("arrow multiplicities must be >= 0")
        self.arrows = {k: v for k, v in self.arrows.items() if v}

    def arrow_count(self) -> int:
        return sum(self.arrows.values())

    def arrow_multiset(self) -> list[int]:
        return sorted(self.arrows.values())

    def to_json_dict(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "arrows": [
                [a, b, m] for (a, b), m in sorted(self.arrows.items())
            ],
        }

    def to_dot(self, name: str = "Q") -> str:
        lines = [f"digraph {name} {{"]
        for v in self.vertices:
            lines.append(f'  "{v}";')
        for (a, b), m in sorted(self.arrows.items()):
            for _ in range(m):
                lines.append(f'  "{a}" -> "{b}" [count={m}];')
        lines.append("}")
        return "\n".join(lines)


def fold_d3(q: Quiver, n: dict) -> Quiver:
    """Double a quiver and add n[i, j] arrows from copy 1 of i to copy 2 of j.

    The multiplicity table must be symmetric.
    """
    for (i, j), m in n.items():
        if n.get((j, i), 0) != m:
            raise ValueError("fold multiplicities must be symmetric")
    verts = tuple(f"{v}.1" for v in q.vertices) + tuple(f"{v}.2" for v in q.vertices)
    arrows = {}
    for (a, b), m in q.arrows.items():
        arrows[(f"{a}.1", f"{b}.1")] = m
        arrows[(f"{a}.2", f"{b}.2")] = m
    for (i, j), m in n.items():
        if m:
            key = (f"{i}.1", f"{j}.2")
            arrows[key] = arrows.get(key, 0) + m
    return Quiver(verts, arrows)


def fold_d4(vertices, m: dict) -> Quiver:
    """Triple the vertex set; m[i, j] arrows (i,1)->(j,2), (i,2)->(j,3), (j,1)->(i,3)."""
    vertices = tuple(vertices)
    verts = tuple(f"{v}.{a}" for a in (1, 2, 3) for v in vertices)
    arrows = {}

    def bump(a, b, k):
        if k:
            arrows[(a, b)] = arrows.get((a, b), 0) + k

    for (i, j), k in m.items():
        bump(f"{i}.1", f"{j}.2", k)
        bump(f"{i}.2", f"{j}.3", k)
        bump(f"{j}.1", f"{i}.3", k)
    return Quiver(verts, arrows)


# ---------------------------------------------------------------------------
# endomorphism quivers of graded module collections


class EndoQuiver:
    """Gabriel quiver of End(⊕ summands) with rad/rad^2 multiplicities.

    Arrow multiplicities from a to b are dim(rad/rad^2) summed over the
    internal degrees up to `degree_top`; each vertex must have scalar
    degree-zero endomorphisms.  `quiver` is computed on first access, so
    a caller that needs only the stable part never builds it.
    `stable_reduce` recomputes the radical in the quotient by maps
    factoring through free modules and drops the named free vertices,
    once per set of them.
    Every resolution and hom basis comes from
    `calc`, the HomCalculator of the summands' ring pair and window, and
    every rank is taken over its field.

    Maps stay in fine form: each lies in one fine degree δ, and a
    composition of maps at δ1 and δ2 lies at δ1·δ2.  Hom(a, b)_d is the
    sum of its pieces Hom_δ, so rad, rad², the maps through frees and
    their ranks split by δ, and each δ is ranked in its own echelon up to
    dim Hom_δ, on the ambient forms: a map carries its form from
    `hom_space` (`resolution.quotient_dim`).

    Over Q, when every summand is G-invariant by construction (`_orbit`),
    G the permutations of equal-weight variables within each factor, F +
    rad² + rad is ranked at one δ per orbit, whose new arrows count once
    per δ of the orbit; products still come from the full hom bases.  The
    count is G-invariant.  σ in G is a graded automorphism of R with σ*M
    ≅ M for every summand: diagonal and free modules, and the syzygies
    `free_resolution` makes of them.  Conjugating by these is an
    automorphism of End(⊕ M) that sends Hom_δ onto Hom_σδ and keeps rad,
    rad², the maps through R and total degree, hence the window's cuts
    (`_d_top`, skipped splits).  An arrow count is a number read off
    ranks and returns no basis, so it may count by orbits; sections
    return bases and keep the full path.  Over F_p the argument needs F ⊗
    F_p to be a minimal resolution, which nothing certifies yet, so F_p
    and summands built by hand rank every δ.  Guards raise AssertionError,
    never a wrong count, unless each representative is a δ of rad with
    the dim Hom_δ of every δ of its orbit (`strands.orbit_weights`).
    """

    def __init__(self, calc, summands, degree_top: int = 3):
        from .gradedlin.resolution import _orbit

        self.summands = list(summands)
        labels = [l for l, _ in self.summands]
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate summand labels")
        self.calc = calc
        self.degree_top = degree_top
        self._orbit = _orbit(calc.char, *(m for _, m in self.summands))
        self._stable = {}  # frozenset of dropped labels -> stable quiver
        self._gen_tops, self._d_tops = {}, {}  # module -> its top, read once
        for label, mod in self.summands:
            if len(self.calc.hom_basis(mod, mod, 0)) != 1:
                raise ValueError(f"vertex {label} does not have scalar End_0")
            frees = self.calc.resolution(mod).frees
            self._gen_tops[mod] = max(frees[0].gens, default=0)
            # largest hom degree whose presentation data fits in the window
            self._d_tops[mod] = calc.hi - max(frees[0].gens + frees[1].gens, default=0)

    @cached_property
    def quiver(self) -> Quiver:
        return self._arrows(drop_free=None)

    def _d_floor(self, a, b) -> int:
        return b.min_degree - self._gen_tops[a]

    def _d_top(self, a) -> int:
        return self._d_tops[a]

    def _rad_basis(self, a, b, d: int):
        if a is b and d <= 0:
            return []
        return self.calc.hom_basis(a, b, d)

    def _rad_square(self, a, b, d: int, mods, echs, target) -> None:
        """Insert the nonzero compositions a -> c -> b of degree d, both
        factors radical, into the echelon of their fine degree δ in
        `echs` while its rank is below target[δ] = dim Hom(a, b)_δ, and
        stop once every δ is full.  A product's δ is δ1·δ2, known before
        composing, so a product at a full δ, or at a δ outside `target`,
        is never composed.

        A split (e, d - e) whose hom data lies above the window (`_d_top`)
        is skipped.  When some δ stays below its target, a skipped split
        is harmless only if it has an in-window side without radical
        maps: CertificationError otherwise.

        A product is `compose_hom` taken in its two halves.  Within a
        split (c, e), each φ's coordinates over c's cover
        (`cover_coordinates`, which also reads b where the product lands)
        are built once, at its first product that a non-full δ needs, and
        each ψ's form split by generator (`generator_split`) once, at its
        first such product; a pair then costs one `compose_halves`."""
        from .gradedlin.resolution import (
            _pair_add,
            compose_halves,
            cover_coordinates,
            generator_split,
        )
        from .linalg import CertificationError

        open_ = sum(echs[delta].rank < n for delta, n in target.items())
        top_a, skipped = self._d_top(a), []
        for c in mods:
            e_lo = self._d_floor(a, c) if c is not a else max(self._d_floor(a, c), 1)
            f_lo = self._d_floor(c, b) if c is not b else max(self._d_floor(c, b), 1)
            top_c = self._d_top(c)
            for e in range(e_lo, d - f_lo + 1):
                if e > top_a or d - e > top_c:
                    skipped.append((c, e, top_c))
                    continue
                phis = self._rad_basis(a, c, e)
                if not phis:
                    continue
                psis = self._rad_basis(c, b, d - e)
                if not psis:
                    continue
                splits = [None] * len(psis)
                for phi in phis:
                    coords = None
                    for i, psi in enumerate(psis):
                        delta = _pair_add(phi[0], psi[0])
                        ech = echs.get(delta)
                        if ech is None or ech.rank >= target[delta]:
                            continue
                        if coords is None:
                            coords = cover_coordinates(self.calc, a, c, b, e, d, phi)
                        if splits[i] is None:
                            splits[i] = generator_split(psi)
                        vec = compose_halves(coords, splits[i])
                        if vec and ech.add(vec) and ech.rank >= target[delta]:
                            open_ -= 1
                            if not open_:
                                return
        for c, e, top_c in skipped:
            if e <= top_a:
                side = self._rad_basis(a, c, e)
            elif d - e <= top_c:
                side = self._rad_basis(c, b, d - e)
            else:
                side = True  # neither factor fits in the window
            if side:
                raise CertificationError(
                    f"rad^2 in degree {d} needs the split ({e}, {d - e}) above "
                    f"the window top {self.calc.hi}"
                )

    def _arrows(self, drop_free) -> Quiver:
        from .gradedlin.resolution import quotient_dim

        keep = [
            (l, m) for l, m in self.summands if not drop_free or l not in drop_free
        ]
        mods = [m for _, m in keep]
        arrows = {}
        for la, a in keep:
            for lb, b in keep:
                total = 0
                for d in range(self._d_floor(a, b), self.degree_top + 1):
                    rad = self._rad_basis(a, b, d)
                    if not rad:
                        continue
                    # rad is all of Hom(a, b)_d (only a is b in degree <= 0
                    # is skipped), so every map through frees and every
                    # composition of fine degree δ lies in the span of
                    # rad's maps at δ: once F + rad^2 spans dim Hom_δ at
                    # every δ no further product can matter
                    fill = partial(self._rad_square, a, b, d, mods)
                    total += quotient_dim(self.calc, a, b, d, rad, self._orbit, bool(drop_free), fill)
                if total:
                    arrows[(la, lb)] = total
        return Quiver(tuple(l for l, _ in keep), arrows)

    def free_vertices(self, free_labels) -> set:
        """`free_labels` as a set, one or more of the vertex labels
        (ValueError otherwise); nothing is computed."""
        drop = set(free_labels)
        if not drop or not drop <= {l for l, _ in self.summands}:
            raise ValueError(f"the free vertices to drop must be vertices, not {sorted(drop)}")
        return drop

    def stable_reduce(self, free_labels) -> Quiver:
        """The stable quiver without the free vertices `free_labels`
        (`free_vertices`), built once per set of dropped labels and then
        returned again, as `quiver` is."""
        drop = frozenset(self.free_vertices(free_labels))
        if drop not in self._stable:
            self._stable[drop] = self._arrows(drop_free=drop)
        return self._stable[drop]


def middle_multiplicities(seq) -> dict:
    """Counts of non-free summands in the distinguished middle term of a
    higher almost-split sequence.

    For a five-term sequence (d = 3) this is the central inner term; for
    a six-term sequence (d = 4) the third inner term.  Free summands
    (shift index 0) are dropped.  Requires structured summand data, as
    produced by `gradedlin.diagonal`.
    """
    complex = getattr(seq, "complex", seq)
    summands = getattr(complex, "summands", None)
    if summands is None:
        raise ValueError("sequence carries no structured summand data")
    d = len(summands) - 2
    if d == 3:
        middle = summands[2]
    elif d == 4:
        middle = summands[3]
    else:
        raise ValueError("expected a five- or six-term sequence")
    out = {}
    for (m, _tw, mult) in middle:
        if m == 0:
            continue
        out[f"M{m}"] = out.get(f"M{m}", 0) + mult
    return out


# ---------------------------------------------------------------------------
# p-Segre quiver algebras of monomial (Veronese) data


@dataclass(frozen=True)
class VeroneseSideData:
    """Graded endomorphism data of a Veronese decomposition of a
    weighted polynomial ring: vertices are residues r of degrees mod q,
    and the component from r to s in internal degree n is spanned by the
    monomials of degree q*n + s - r.  A None ring is the base field."""

    ring: WeightedRingSpec | None
    order: int = 1
    residues: tuple[int, ...] = (0,)

    def component_degree(self, r: int, s: int, n: int) -> int:
        return self.order * n + s - r


def _monomial_codes(spec: WeightedRingSpec | None, d: int, base: int):
    if spec is None:
        return (0,) if d == 0 else ()
    from .gradedlin.poly import monomial_codes

    return monomial_codes(spec, d, base)


def p_segre_quiver(
    sideA: VeroneseSideData,
    sideB: VeroneseSideData,
    p: int,
    degree_top: int = 6,
    drop_free=None,
) -> Quiver:
    """Quiver of the p-Segre product of two monomial endomorphism algebras.

    Vertices are (twist l, residue pair); the component from (l, i, i')
    to (l', j, j') in internal degree n is the span of monomial pairs of
    degrees (qA*(n + l' - l) + j - i, qB*n + j' - i').  Arrows count
    rad/rad^2, which for monomial data is a set computation.  With
    `drop_free` a list of vertex labels, arrows are computed in the
    stable quotient killing maps that factor through those vertices.

    A monomial pair (mA, mB) is packed into one int, the exponents of mA
    and then those of mB as the digits in base B.  The call reads
    components with n <= degree_top and l' - l <= p - 1, so on each side
    a component degree is at most q*(degree_top + p - 1) + the largest
    residue, and B is 1 + the larger of the two.  A weight is at
    least 1, so no exponent exceeds its degree: every digit of a pair
    the call reads, and of a product of two, lies in [0, B).  So
    distinct pairs get distinct codes, and the code of a product is the
    sum of the codes.  AssertionError when a component degree exceeds
    the bound (a negative residue can make it).
    """
    if p <= 0:
        raise ValueError("p must be positive")
    verts = [
        (l, ra, rb)
        for l in range(p)
        for ra in sideA.residues
        for rb in sideB.residues
    ]

    def label(v):
        l, ra, rb = v
        if len(verts) == p:
            return "R" if l == 0 else f"M{l}"
        return f"({l};{ra},{rb})"

    base = 1 + max(
        side.order * (degree_top + p - 1) + max(side.residues) for side in (sideA, sideB)
    )
    shift_b = base ** (len(sideA.ring.variables) if sideA.ring else 0)
    comps = {}  # (v, w, n) -> codes of the component; every split asks again

    def comp(v, w, n):
        key = (v, w, n)
        if key not in comps:
            (l, ra, rb), (l2, ra2, rb2) = v, w
            da = sideA.component_degree(ra, ra2, n + l2 - l)
            db = sideB.component_degree(rb, rb2, n)
            codes_a = _monomial_codes(sideA.ring, da, base)
            codes_b = _monomial_codes(sideB.ring, db, base)
            comps[key] = frozenset(x + shift_b * y for x in codes_a for y in codes_b)
        return comps[key]

    drop = set(drop_free or ())
    keep = [v for v in verts if label(v) not in drop]

    # add the radical compositions from v to w in degree n to `covered`,
    # stopping once they cover `hom`: every product lies in hom, and only
    # len(hom - covered) is read.  Paths through dropped vertices use
    # every internal degree split, which models maps factoring through
    # arbitrary twists of those summands
    def rad_square(v, w, n, through, hom, covered):
        for c in through:
            for e1 in range(0, n + 1):
                e2 = n - e1
                if c == v and e1 == 0:
                    continue
                if c == w and e2 == 0:
                    continue
                first = comp(v, c, e1)
                if not first:
                    continue
                second = comp(c, w, e2)
                if not second:
                    continue
                covered.update(x + y for x in first for y in second)
                if hom <= covered:
                    return

    dropped = [u for u in verts if label(u) in drop]
    arrows = {}
    for v in keep:
        for w in keep:
            total = 0
            for n in range(0, degree_top + 1):
                hom = comp(v, w, n)
                if not hom:
                    continue
                if v == w and n == 0:
                    continue  # scalars are not radical
                covered = set()
                rad_square(v, w, n, keep, hom, covered)
                if dropped and not hom <= covered:
                    rad_square(v, w, n, dropped, hom, covered)
                total += len(hom - covered)
            if total:
                arrows[(label(v), label(w))] = total
    return Quiver(tuple(label(v) for v in keep), arrows)
