"""Degree lattices, Hilbert series of weighted polynomial rings, and the
local cohomology calculus for Segre products.

Series are windowed integer coefficient tables over a lattice Z^r; the
window is the region on which the table is exact.  Optional certified
global support bounds ride along so that vanishing statements following
from disjoint supports can be certified rather than merely observed on
the window.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

Degree = tuple  # lattice degree vector, entries int


def delta(d: Degree) -> int:
    """Total degree: the sum of the components."""
    return sum(d)


def vec_add(a: Degree, b: Degree) -> Degree:
    return tuple(x + y for x, y in zip(a, b))


def vec_sub(a: Degree, b: Degree) -> Degree:
    return tuple(x - y for x, y in zip(a, b))


def vec_neg(a: Degree) -> Degree:
    return tuple(-x for x in a)


def vec_scale(c: int, a: Degree) -> Degree:
    return tuple(c * x for x in a)


def as_degree(d, rank: int) -> Degree:
    if isinstance(d, int):
        if rank != 1:
            raise ValueError("integer degree only valid for rank 1")
        return (d,)
    d = tuple(d)
    if len(d) != rank:
        raise ValueError(f"degree {d} does not have rank {rank}")
    return d


@dataclass(frozen=True)
class WeightedRingSpec:
    """A weighted polynomial ring: named variables with lattice weights."""

    variables: tuple[tuple[str, Degree], ...]

    def __post_init__(self):
        names = [n for n, _ in self.variables]
        if len(set(names)) != len(names):
            raise ValueError("variable names must be distinct")
        if not self.variables:
            raise ValueError("ring needs at least one variable")
        r = len(self.variables[0][1])
        for _, w in self.variables:
            if len(w) != r:
                raise ValueError("all weights must have the same rank")
            if any(x < 0 for x in w) or all(x == 0 for x in w):
                raise ValueError("weights must be >= 0 and nonzero")
        # every memo and calculator dict hashes ring specs, mostly nested in
        # module keys; the variables are frozen, so the hash is computed
        # once.  The field is not part of a spec: it is set on the
        # HomCalculator or per computation.  String hashes differ between
        # processes: a spec must not be pickled into another process,
        # where this value would be stale.
        object.__setattr__(self, "_hash", hash(self.variables))

    def __hash__(self) -> int:
        return self._hash

    @property
    def rank(self) -> int:
        return len(self.variables[0][1])

    @property
    def weights(self) -> tuple[Degree, ...]:
        return tuple(w for _, w in self.variables)

    @property
    def weight_sum(self) -> Degree:
        total = (0,) * self.rank
        for w in self.weights:
            total = vec_add(total, w)
        return total

    def describe(self) -> str:
        parts = []
        for n, w in self.variables:
            wtxt = str(w[0]) if self.rank == 1 else str(w)
            parts.append(f"{n}:{wtxt}")
        return "k[" + ",".join(parts) + "]"


def ring(names, weights) -> WeightedRingSpec:
    """Convenience constructor; weights may be ints (rank 1) or tuples."""
    names = tuple(names)
    ws = []
    for w in weights:
        ws.append((w,) if isinstance(w, int) else tuple(w))
    if len(names) != len(ws):
        raise ValueError("need one weight per variable")
    return WeightedRingSpec(tuple(zip(names, ws)))


@lru_cache(maxsize=None)
def dim_at(spec: WeightedRingSpec, d: Degree) -> int:
    """Number of monomials of the given weighted degree (exact, global)."""
    weights = spec.weights

    @lru_cache(maxsize=None)
    def count(i: int, rest: Degree) -> int:
        if any(x < 0 for x in rest):
            return 0
        if i == len(weights):
            return 1 if all(x == 0 for x in rest) else 0
        w = weights[i]
        total = 0
        r = rest
        while all(x >= 0 for x in r):
            total += count(i + 1, r)
            r = vec_sub(r, w)
        return total

    return count(0, d)


@dataclass(frozen=True)
class Window:
    """A box of lattice degrees, inclusive bounds per coordinate."""

    lower: Degree
    upper: Degree

    def __post_init__(self):
        if len(self.lower) != len(self.upper):
            raise ValueError("window bound ranks differ")
        if any(l > u for l, u in zip(self.lower, self.upper)):
            raise ValueError("empty window")

    @property
    def rank(self) -> int:
        return len(self.lower)

    def contains(self, d: Degree) -> bool:
        return all(l <= x <= u for l, x, u in zip(self.lower, d, self.upper))

    def degrees(self):
        ranges = [range(l, u + 1) for l, u in zip(self.lower, self.upper)]
        return itertools.product(*ranges)

    def intersect(self, other: "Window") -> "Window":
        lo = tuple(max(a, b) for a, b in zip(self.lower, other.lower))
        hi = tuple(min(a, b) for a, b in zip(self.upper, other.upper))
        return Window(lo, hi)

    def negate(self) -> "Window":
        return Window(vec_neg(self.upper), vec_neg(self.lower))


def window(lo, hi, rank: int = 1) -> Window:
    if isinstance(lo, int):
        lo = (lo,) * rank
    if isinstance(hi, int):
        hi = (hi,) * rank
    return Window(tuple(lo), tuple(hi))


@dataclass(frozen=True)
class ExactForm:
    """Rational form numerator / prod (1 - t^w), numerator a Laurent polynomial."""

    numerator: tuple[tuple[Degree, int], ...]
    denominator: tuple[Degree, ...]


@dataclass(frozen=True)
class HilbertSeries:
    """Windowed coefficient table of a graded dimension function.

    `coeffs` holds the nonzero values inside `window` as a sorted tuple
    of (degree, value) pairs.  `support_lower`/`support_upper` are
    certified global bounds: all coefficients outside them vanish, in
    every degree, not only on the window.  `zero_certified` marks series
    known to vanish identically.
    """

    rank: int
    window: Window
    coeffs: tuple[tuple[Degree, int], ...]
    support_lower: Degree | None = None
    support_upper: Degree | None = None
    zero_certified: bool = False
    exact_form: ExactForm | None = None

    _allow_negative = False

    def __post_init__(self):
        if self.window.rank != self.rank:
            raise ValueError("window rank mismatch")
        for d, v in self.coeffs:
            if not self.window.contains(d):
                raise ValueError(f"coefficient at {d} outside window")
            if v == 0:
                raise ValueError("zero coefficients must be omitted")
            if v < 0 and not self._allow_negative:
                raise ValueError("module series coefficients must be >= 0")
        if self.zero_certified and self.coeffs:
            raise ValueError("certified-zero series has nonzero coefficients")

    def as_dict(self) -> dict:
        return dict(self.coeffs)

    def coeff(self, d) -> int:
        d = as_degree(d, self.rank)
        if not self.window.contains(d):
            if self.zero_certified:
                return 0
            if self.support_lower is not None and any(
                x < l for x, l in zip(d, self.support_lower)
            ):
                return 0
            if self.support_upper is not None and any(
                x > u for x, u in zip(d, self.support_upper)
            ):
                return 0
            raise KeyError(f"degree {d} outside certified window")
        return self.as_dict().get(d, 0)

    def values(self, degrees) -> list[int]:
        return [self.coeff(d) for d in degrees]

    def is_zero_on_window(self) -> bool:
        return not self.coeffs

    def status(self) -> str:
        if self.zero_certified:
            return "zero-certified"
        if not self.coeffs:
            return "zero-on-window"
        return "nonzero"

    def to_json_dict(self) -> dict:
        out = {
            "rank": self.rank,
            "window": {"lower": list(self.window.lower), "upper": list(self.window.upper)},
            "coeffs": [[list(d), v] for d, v in self.coeffs],
            "status": self.status(),
        }
        if self.support_lower is not None:
            out["support_lower"] = list(self.support_lower)
        if self.support_upper is not None:
            out["support_upper"] = list(self.support_upper)
        if self.exact_form is not None:
            out["exact_form"] = rational_form_str(self)
        return out


class SignedSeries(HilbertSeries):
    """Same contract as HilbertSeries but without the positivity invariant."""

    _allow_negative = True


def make_series(
    rank: int,
    win: Window,
    table: dict,
    support_lower=None,
    support_upper=None,
    zero_certified: bool = False,
    exact_form: ExactForm | None = None,
    signed: bool = False,
) -> HilbertSeries:
    coeffs = tuple(sorted((tuple(d), v) for d, v in table.items() if v))
    cls = SignedSeries if signed else HilbertSeries
    return cls(
        rank=rank,
        window=win,
        coeffs=coeffs,
        support_lower=tuple(support_lower) if support_lower is not None else None,
        support_upper=tuple(support_upper) if support_upper is not None else None,
        zero_certified=zero_certified,
        exact_form=exact_form,
    )


def zero_series(rank: int, win: Window, certified: bool = False) -> HilbertSeries:
    return make_series(rank, win, {}, zero_certified=certified)


def ring_series(spec: WeightedRingSpec, win: Window) -> HilbertSeries:
    """Hilbert series of a weighted polynomial ring on the window.

    Coefficients count monomials of each degree; degrees with a negative
    coordinate get coefficient zero (the ring is positively graded).
    """
    if win.rank != spec.rank:
        raise ValueError("window rank does not match ring rank")
    table = {d: dim_at(spec, d) for d in win.degrees() if all(x >= 0 for x in d)}
    form = ExactForm((((0,) * spec.rank, 1),), spec.weights)
    return make_series(
        spec.rank, win, table, support_lower=(0,) * spec.rank, exact_form=form
    )


def twist(a: HilbertSeries, t) -> HilbertSeries:
    """Degree shift: twist(a, t)[d] = a[d + t] (the module M(t))."""
    t = as_degree(t, a.rank)
    win = Window(vec_sub(a.window.lower, t), vec_sub(a.window.upper, t))
    table = {vec_sub(d, t): v for d, v in a.coeffs}
    lo = vec_sub(a.support_lower, t) if a.support_lower is not None else None
    hi = vec_sub(a.support_upper, t) if a.support_upper is not None else None
    return make_series(
        a.rank, win, table, lo, hi, a.zero_certified, signed=isinstance(a, SignedSeries)
    )


def hadamard(a: HilbertSeries, b: HilbertSeries) -> HilbertSeries:
    """Coefficientwise product on the intersected window.

    This is the Hilbert series of a Segre product of modules.  When the
    certified supports of the factors are disjoint in some coordinate the
    result is certified zero globally.
    """
    if a.rank != b.rank:
        raise ValueError("rank mismatch in coefficientwise product")
    win = a.window.intersect(b.window)
    ad, bd = a.as_dict(), b.as_dict()
    table = {}
    for d in win.degrees():
        v = ad.get(d, 0) * bd.get(d, 0)
        if v:
            table[d] = v
    lo = _combine_bound(a.support_lower, b.support_lower, max)
    hi = _combine_bound(a.support_upper, b.support_upper, min)
    certified = a.zero_certified or b.zero_certified or _supports_disjoint(a, b)
    if certified and table:
        raise AssertionError("support certification contradicts window data")
    return make_series(a.rank, win, table, lo, hi, certified)


def _combine_bound(x, y, pick):
    if x is None:
        return y
    if y is None:
        return x
    return tuple(pick(p, q) for p, q in zip(x, y))


def _supports_disjoint(a: HilbertSeries, b: HilbertSeries) -> bool:
    for i in range(a.rank):
        if (
            a.support_upper is not None
            and b.support_lower is not None
            and a.support_upper[i] < b.support_lower[i]
        ):
            return True
        if (
            b.support_upper is not None
            and a.support_lower is not None
            and b.support_upper[i] < a.support_lower[i]
        ):
            return True
    return False


def add_series(parts: list[HilbertSeries]) -> HilbertSeries:
    """Coefficientwise sum on the intersected window."""
    if not parts:
        raise ValueError("empty sum")
    rank = parts[0].rank
    win = parts[0].window
    for p in parts[1:]:
        if p.rank != rank:
            raise ValueError("rank mismatch in sum")
        win = win.intersect(p.window)
    table = {}
    for p in parts:
        for d, v in p.coeffs:
            if win.contains(d):
                table[d] = table.get(d, 0) + v
    live = [p for p in parts if not p.zero_certified]
    lo = None
    hi = None
    if live:
        los = [p.support_lower for p in live]
        his = [p.support_upper for p in live]
        if all(x is not None for x in los):
            lo = tuple(min(xs) for xs in zip(*los))
        if all(x is not None for x in his):
            hi = tuple(max(xs) for xs in zip(*his))
    return make_series(
        rank,
        win,
        table,
        lo,
        hi,
        zero_certified=not live,
        signed=any(isinstance(p, SignedSeries) for p in parts),
    )


def graded_dual(a: HilbertSeries) -> HilbertSeries:
    """Reflection d -> -d; an involution on symmetric windows."""
    win = a.window.negate()
    table = {vec_neg(d): v for d, v in a.coeffs}
    lo = vec_neg(a.support_upper) if a.support_upper is not None else None
    hi = vec_neg(a.support_lower) if a.support_lower is not None else None
    return make_series(
        a.rank, win, table, lo, hi, a.zero_certified, signed=isinstance(a, SignedSeries)
    )


def veronese(a: HilbertSeries, sublattice, shift=None) -> HilbertSeries:
    """Restrict to shift + (integer span of the sublattice), reindexed.

    The sublattice generators must be linearly independent; the output is
    indexed by their integer coordinates.  The output window is the
    largest coordinate box whose image stays inside the input window
    (shrunk from the bounding box of the solvable points when needed).
    """
    gens = [as_degree(g, a.rank) for g in sublattice]
    k = len(gens)
    shift = as_degree(shift, a.rank) if shift is not None else (0,) * a.rank
    if _rational_rank(gens) != k:
        raise ValueError("sublattice generators are dependent")
    from . import linalg

    solver = linalg.CoordSolver(
        [{i: x for i, x in enumerate(g) if x} for g in gens]
    )
    points = {}
    for d in a.window.degrees():
        j = _lattice_coords(solver, vec_sub(d, shift))
        if j is not None:
            points[j] = a.as_dict().get(d, 0)
    if not points:
        return zero_series(k, window(0, 0, k), certified=a.zero_certified)
    los = tuple(min(j[i] for j in points) for i in range(k))
    his = tuple(max(j[i] for j in points) for i in range(k))
    while True:
        ok = True
        for corner in itertools.product(*[(l, h) for l, h in zip(los, his)]):
            img = shift
            for c, g in zip(corner, gens):
                img = vec_add(img, vec_scale(c, g))
            if not a.window.contains(img):
                ok = False
                break
        if ok:
            break
        # shrink the widest axis; terminates since the box strictly shrinks
        axis = max(range(k), key=lambda i: his[i] - los[i])
        if his[axis] == los[axis]:
            raise ValueError("cannot certify a veronese window")
        his = tuple(h - (1 if i == axis else 0) for i, h in enumerate(his))
        los = tuple(l + (1 if i == axis else 0) for i, l in enumerate(los))
    win = Window(los, his)
    table = {j: v for j, v in points.items() if v and win.contains(j)}
    return make_series(k, win, table, signed=isinstance(a, SignedSeries))


def _rational_rank(vectors) -> int:
    from . import linalg

    cols = [{i: x for i, x in enumerate(v) if x} for v in vectors]
    return linalg.rank_of(cols)


def _lattice_coords(solver, target) -> Degree | None:
    """Integer coordinates of target in the span of the solver's basis."""
    sol = solver.solve({i: x for i, x in enumerate(target) if x})
    if sol is None or any(isinstance(c, Fraction) for c in sol):
        return None
    return tuple(sol)


def verify_exact_form(a: HilbertSeries) -> bool:
    """Expand the attached rational form and compare on the whole window."""
    if a.exact_form is None:
        raise ValueError("series has no exact form")
    table = _expand_form(a.exact_form, a.window)
    return table == {d: v for d, v in a.coeffs}


def _expand_form(form: ExactForm, win: Window) -> dict:
    rank = win.rank
    num_lo = tuple(min(d[i] for d, _ in form.numerator) for i in range(rank))
    aux = Window(
        tuple(0 for _ in range(rank)),
        tuple(max(0, u - l) for u, l in zip(win.upper, num_lo)),
    )
    denom = {(0,) * rank: 1}
    for w in form.denominator:
        new = dict(denom)
        for d in sorted(aux.degrees()):
            prev = new.get(vec_sub(d, w))
            if prev:
                new[d] = new.get(d, 0) + prev
        denom = {d: v for d, v in new.items() if v}
    table = {}
    for nd, nv in form.numerator:
        for d, v in denom.items():
            tot = vec_add(nd, d)
            if win.contains(tot):
                table[tot] = table.get(tot, 0) + nv * v
    return {d: v for d, v in table.items() if v}


def rational_form_str(a: HilbertSeries) -> str:
    if a.exact_form is None:
        raise ValueError("series has no exact form")
    names = ["t"] if a.rank == 1 else [f"t{i}" for i in range(1, a.rank + 1)]

    def mono(d):
        parts = []
        for n, e in zip(names, d):
            if e == 0:
                continue
            parts.append(n if e == 1 else f"{n}^{e}")
        return "*".join(parts) if parts else "1"

    terms = []
    for d, v in form_sorted(a.exact_form.numerator):
        m = mono(d)
        if m == "1":
            terms.append(str(v))
        elif v == 1:
            terms.append(m)
        else:
            terms.append(f"{v}*{m}")
    num = " + ".join(terms).replace("+ -", "- ")
    denoms = {}
    for w in a.exact_form.denominator:
        denoms[w] = denoms.get(w, 0) + 1
    parts = []
    for w in sorted(denoms):
        base = f"(1-{mono(w)})"
        e = denoms[w]
        parts.append(base if e == 1 else f"{base}^{e}")
    return f"{num}/({''.join(parts)})" if parts else num


def form_sorted(numerator):
    return sorted(numerator)


# ---------------------------------------------------------------------------
# local cohomology of weighted polynomial rings and their Segre products


@dataclass
class LocalCohomologyProfile:
    """Graded local cohomology, one windowed series per cohomological degree.

    For a Cohen-Macaulay module every series below the depth is zero; the
    top degree of the series in position `ring_dim` is the a-invariant.
    """

    ring_dim: int
    per_degree: dict[int, HilbertSeries]

    def series(self, p: int, rank: int, win: Window) -> HilbertSeries:
        if p in self.per_degree:
            return self.per_degree[p]
        return zero_series(rank, win, certified=True)

    def depth_on_window(self) -> int:
        for p in range(0, self.ring_dim + 1):
            s = self.per_degree.get(p)
            if s is not None and s.coeffs:
                return p
        return self.ring_dim

    def statuses(self) -> dict[int, str]:
        out = {}
        for p in range(0, self.ring_dim + 1):
            s = self.per_degree.get(p)
            out[p] = "zero-certified" if s is None else s.status()
        return out


def module_series(spec: WeightedRingSpec, win: Window, shift=0) -> HilbertSeries:
    """Series of the shifted free module S(shift) on the window."""
    shift = as_degree(shift, spec.rank)
    big = Window(
        tuple(min(l + s, 0) for l, s in zip(win.lower, shift)),
        tuple(u + max(s, 0) for u, s in zip(win.upper, shift)),
    )
    return twist(ring_series(spec, big), shift)


def local_cohomology_poly(
    spec: WeightedRingSpec, win: Window, shift=0
) -> LocalCohomologyProfile:
    """Local cohomology of S(shift) at the graded maximal ideal.

    Everything below dim S vanishes, and the top is the graded dual of
    the ring twisted by the weight sum, so the coefficient in degree j is
    dim S in degree -j - (sum of weights) - shift.
    """
    shift = as_degree(shift, spec.rank)
    d = len(spec.variables)
    wsum = spec.weight_sum
    table = {}
    for j in win.degrees():
        v = dim_at(spec, vec_neg(vec_add(vec_add(j, wsum), shift)))
        if v:
            table[j] = v
    top = make_series(
        spec.rank,
        win,
        table,
        support_upper=vec_neg(vec_add(wsum, shift)),
    )
    per = {p: zero_series(spec.rank, win, certified=True) for p in range(d)}
    per[d] = top
    return LocalCohomologyProfile(ring_dim=d, per_degree=per)


def gw_segre_cohomology(
    m_series: HilbertSeries,
    m_profile: LocalCohomologyProfile,
    n_series: HilbertSeries,
    n_profile: LocalCohomologyProfile,
) -> LocalCohomologyProfile:
    """Local cohomology of a Segre product of modules, series by series.

    H^p of the product decomposes as H^p(M) # N plus M # H^p(N) plus the
    convolution sum of H^i(M) # H^(p+1-i)(N) over 0 < i <= p.  The first
    argument must have certified-zero H^0 and H^1.
    """
    rank = m_series.rank
    win = m_series.window.intersect(n_series.window)
    for p in (0, 1):
        s = m_profile.per_degree.get(p)
        if s is not None and not s.zero_certified:
            raise ValueError(
                "hypothesis violation: H^0 and H^1 of the first factor must vanish"
            )
    dim = m_profile.ring_dim + n_profile.ring_dim - 1
    out = {}
    for p in range(0, dim + 1):
        parts = [
            hadamard(m_profile.series(p, rank, win), n_series),
            hadamard(m_series, n_profile.series(p, rank, win)),
        ]
        for i in range(1, p + 1):
            parts.append(
                hadamard(
                    m_profile.series(i, rank, win),
                    n_profile.series(p + 1 - i, rank, win),
                )
            )
        out[p] = add_series(parts)
    return LocalCohomologyProfile(ring_dim=dim, per_degree=out)


def segre_dimension(specA: WeightedRingSpec, specB: WeightedRingSpec) -> int:
    return len(specA.variables) + len(specB.variables) - 1


def segre_a_invariant(specA: WeightedRingSpec, specB: WeightedRingSpec) -> int:
    """Top degree of the top local cohomology of the Segre product.

    Searches down from min(a_A, a_B) for the first degree where both
    factor dimensions are positive; exact because single-degree monomial
    counts are global.
    """
    aA = -delta(specA.weight_sum)
    aB = -delta(specB.weight_sum)
    j = min(aA, aB)
    for _ in range(10000):
        if dim_at(specA, (aA - j,)) > 0 and dim_at(specB, (aB - j,)) > 0:
            return j
        j -= 1
    raise ValueError("no nonzero top cohomology degree found in search range")


@dataclass
class SegreReport:
    """Cohen-Macaulay / Gorenstein report for a Segre product of rings."""

    specA: WeightedRingSpec
    specB: WeightedRingSpec
    dimension: int
    a_invariant: int
    gorenstein: bool
    gorenstein_series_test: bool
    gorenstein_criterion_test: bool
    canonical: HilbertSeries
    ring: HilbertSeries
    top_cohomology: HilbertSeries
    shifts: dict

    def to_json_dict(self) -> dict:
        return {
            "ring_a": self.specA.describe(),
            "ring_b": self.specB.describe(),
            "dimension": self.dimension,
            "a_invariant": self.a_invariant,
            "gorenstein": self.gorenstein,
            "gorenstein_tests": {
                "canonical_matches_ring_shift": self.gorenstein_series_test,
                "equal_negative_a_invariants": self.gorenstein_criterion_test,
            },
            "ring_series": self.ring.to_json_dict(),
            "canonical_series": self.canonical.to_json_dict(),
            "top_cohomology": self.top_cohomology.to_json_dict(),
            "shifts": {
                str(k): v for k, v in sorted(self.shifts.items())
            },
        }


def segre_report(
    specA: WeightedRingSpec,
    specB: WeightedRingSpec,
    shifts=(0,),
    radius: int = 8,
) -> SegreReport:
    """Dimension, depth/CM flags per shift, a-invariant and Gorenstein tests.

    Both rings must be rank 1 with negative a-invariant, the first of
    dimension >= 2.  The Gorenstein flag comes from two independent
    tests, a series comparison and the equal-a-invariant criterion, which
    are required to agree.
    """
    if specA.rank != 1 or specB.rank != 1:
        raise ValueError("segre_report expects rank-1 graded rings")
    if len(specA.variables) < 2 or len(specB.variables) < 1:
        raise ValueError("need dim A >= 2 and dim B >= 1")
    aA, aB = -delta(specA.weight_sum), -delta(specB.weight_sum)
    if aA >= 0 or aB >= 0:
        raise ValueError("both a-invariants must be negative")
    win = window(-radius, radius)
    dim = segre_dimension(specA, specB)
    a_inv = segre_a_invariant(specA, specB)

    seriesA = module_series(specA, win)
    seriesB = module_series(specB, win)
    ring_s = hadamard(seriesA, seriesB)
    canonical = hadamard(twist(seriesA, aA), twist(seriesB, aB))

    # the equal-a-invariant criterion is sufficient for the series test;
    # the converse fails on degenerate products (a one-variable factor
    # leaves the ring unchanged), so only the implication is asserted
    crit_test = aA == aB
    series_test = _matches_some_shift(canonical, ring_s, radius)
    if crit_test and not series_test:
        raise AssertionError(
            "equal negative a-invariants must force a Gorenstein series"
        )

    profB = local_cohomology_poly(specB, win)
    shift_reports = {}
    top = None
    for s in shifts:
        profA = local_cohomology_poly(specA, win, shift=(s,))
        msA = module_series(specA, win, shift=(s,))
        prof = gw_segre_cohomology(msA, profA, seriesB, profB)
        statuses = prof.statuses()
        cm = all(statuses[p].startswith("zero") for p in range(dim))
        certified = all(statuses[p] == "zero-certified" for p in range(dim)) if cm else False
        shift_reports[s] = {
            "cm": cm,
            "certified": certified,
            "depth_at_least": prof.depth_on_window(),
            "statuses": {str(p): v for p, v in statuses.items()},
            "top": prof.series(dim, 1, win).to_json_dict(),
        }
        if s == 0:
            top = prof.series(dim, 1, win)
    if top is None:
        profA = local_cohomology_poly(specA, win)
        top = gw_segre_cohomology(seriesA, profA, seriesB, profB).series(dim, 1, win)
    return SegreReport(
        specA=specA,
        specB=specB,
        dimension=dim,
        a_invariant=a_inv,
        gorenstein=series_test,
        gorenstein_series_test=series_test,
        gorenstein_criterion_test=crit_test,
        canonical=canonical,
        ring=ring_s,
        top_cohomology=top,
        shifts=shift_reports,
    )


def _matches_some_shift(candidate: HilbertSeries, base: HilbertSeries, radius: int) -> bool:
    """Does candidate equal base twisted by some degree shift on the window?"""
    for s in range(-2 * radius, 2 * radius + 1):
        shifted = twist(base, (s,))
        lo = max(candidate.window.lower[0], shifted.window.lower[0])
        hi = min(candidate.window.upper[0], shifted.window.upper[0])
        if hi - lo < radius:
            continue
        win = Window((lo,), (hi,))
        if all(
            candidate.coeff(d) == shifted.as_dict().get(d, 0) for d in win.degrees()
        ):
            return True
    return False
