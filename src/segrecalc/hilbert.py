"""Hilbert series of weighted polynomial rings, and the local cohomology
calculus for Segre products.

Every ring, module and series is graded by Z: a Segre product is the
diagonal of a Z x Z grading.  Series are windowed integer coefficient
tables; the window is a plain (lo, hi) pair, the inclusive interval of
degrees on which the table is exact, as in the resolution layer.
Optional certified global support bounds ride along so that vanishing
statements following from disjoint supports can be certified rather
than merely observed on the window.  A local-cohomology profile is a
plain dict {p: HilbertSeries} over the cohomological degrees p.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .linalg import CertificationError


@dataclass(frozen=True)
class WeightedRingSpec:
    """A weighted polynomial ring: named variables with positive int weights."""

    variables: tuple[tuple[str, int], ...]

    def __post_init__(self):
        names = [n for n, _ in self.variables]
        if len(set(names)) != len(names):
            raise ValueError("variable names must be distinct")
        if not self.variables:
            raise ValueError("ring needs at least one variable")
        if any(type(w) is not int or w < 1 for w in self.weights):
            weights = " ".join(map(str, self.weights))
            raise ValueError(f"weights must be positive integers, not {weights}")
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
    def weights(self) -> tuple[int, ...]:
        return tuple(w for _, w in self.variables)

    @property
    def weight_sum(self) -> int:
        return sum(self.weights)

    def describe(self) -> str:
        return "k[" + ",".join(f"{n}:{w}" for n, w in self.variables) + "]"


def ring(names, weights) -> WeightedRingSpec:
    """Convenience constructor: one positive int weight per variable."""
    names, weights = tuple(names), tuple(weights)
    if len(names) != len(weights):
        raise ValueError("need one weight per variable")
    return WeightedRingSpec(tuple(zip(names, weights)))


@lru_cache(maxsize=None)
def dim_at(spec: WeightedRingSpec, d: int) -> int:
    """Number of monomials of weighted degree d (exact, global)."""
    weights = spec.weights

    @lru_cache(maxsize=None)
    def count(i: int, rest: int) -> int:
        if i == len(weights):
            return 1 if rest == 0 else 0
        # rest < 0 leaves the range empty
        return sum(count(i + 1, r) for r in range(rest, -1, -weights[i]))

    return count(0, d)


@dataclass(frozen=True)
class HilbertSeries:
    """Windowed coefficient table of a graded dimension function.

    `window` is the (lo, hi) interval of degrees, bounds included, on
    which the table is exact; lo > hi is rejected.  `coeffs` holds the
    nonzero values inside it as a sorted tuple of (degree, value) pairs.
    `support_lower`/`support_upper` are certified global bounds: all
    coefficients outside them vanish, in every degree, not only on the
    window.  `zero_certified` marks series known to vanish identically.
    A coefficient outside the window that none of these certifies raises
    CertificationError.
    """

    window: tuple[int, int]
    coeffs: tuple[tuple[int, int], ...]
    support_lower: int | None = None
    support_upper: int | None = None
    zero_certified: bool = False

    def __post_init__(self):
        lo, hi = self.window
        if lo > hi:
            raise ValueError("empty window")
        for d, v in self.coeffs:
            if not lo <= d <= hi:
                raise ValueError(f"coefficient at {d} outside window")
            if v == 0:
                raise ValueError("zero coefficients must be omitted")
            if v < 0:
                raise ValueError("module series coefficients must be >= 0")
        if self.zero_certified and self.coeffs:
            raise ValueError("certified-zero series has nonzero coefficients")

    def as_dict(self) -> dict:
        return dict(self.coeffs)

    def coeff(self, d: int) -> int:
        lo, hi = self.window
        if not lo <= d <= hi:
            if self.zero_certified:
                return 0
            if self.support_lower is not None and d < self.support_lower:
                return 0
            if self.support_upper is not None and d > self.support_upper:
                return 0
            raise CertificationError(f"degree {d} outside the window [{lo}, {hi}]")
        return self.as_dict().get(d, 0)

    def status(self) -> str:
        if self.zero_certified:
            return "zero-certified"
        if not self.coeffs:
            return "zero-on-window"
        return "nonzero"

    def to_json_dict(self) -> dict:
        # the pinned artifact digests fix this format: "rank": 1 and
        # one-element degree lists
        out = {
            "rank": 1,
            "window": {"lower": [self.window[0]], "upper": [self.window[1]]},
            "coeffs": [[[d], v] for d, v in self.coeffs],
            "status": self.status(),
        }
        if self.support_lower is not None:
            out["support_lower"] = [self.support_lower]
        if self.support_upper is not None:
            out["support_upper"] = [self.support_upper]
        return out


def make_series(
    win: tuple[int, int],
    table: dict,
    support_lower: int | None = None,
    support_upper: int | None = None,
    zero_certified: bool = False,
) -> HilbertSeries:
    coeffs = tuple(sorted((d, v) for d, v in table.items() if v))
    return HilbertSeries(win, coeffs, support_lower, support_upper, zero_certified)


def zero_series(win: tuple[int, int], certified: bool = False) -> HilbertSeries:
    return make_series(win, {}, zero_certified=certified)


def ring_series(spec: WeightedRingSpec, win: tuple[int, int]) -> HilbertSeries:
    """Hilbert series of a weighted polynomial ring on the window.

    Coefficients count monomials of each degree; negative degrees get
    coefficient zero (the ring is positively graded).
    """
    table = {d: dim_at(spec, d) for d in range(max(win[0], 0), win[1] + 1)}
    return make_series(win, table, support_lower=0)


def twist(a: HilbertSeries, t: int) -> HilbertSeries:
    """Degree shift: twist(a, t)[d] = a[d + t] (the module M(t))."""
    win = (a.window[0] - t, a.window[1] - t)
    table = {d - t: v for d, v in a.coeffs}
    lo = a.support_lower - t if a.support_lower is not None else None
    hi = a.support_upper - t if a.support_upper is not None else None
    return make_series(win, table, lo, hi, a.zero_certified)


def hadamard(a: HilbertSeries, b: HilbertSeries) -> HilbertSeries:
    """Coefficientwise product on the intersected window.

    This is the Hilbert series of a Segre product of modules.  When the
    certified supports of the factors are disjoint the result is
    certified zero globally.
    """
    win = _intersect(a.window, b.window)
    ad, bd = a.as_dict(), b.as_dict()
    table = {}
    for d in range(win[0], win[1] + 1):
        v = ad.get(d, 0) * bd.get(d, 0)
        if v:
            table[d] = v
    lo = _combine_bound(a.support_lower, b.support_lower, max)
    hi = _combine_bound(a.support_upper, b.support_upper, min)
    certified = a.zero_certified or b.zero_certified or _supports_disjoint(a, b)
    if certified and table:
        raise AssertionError("support certification contradicts window data")
    return make_series(win, table, lo, hi, certified)


def _intersect(u: tuple[int, int], v: tuple[int, int]) -> tuple[int, int]:
    """The common degrees of two windows; a series on it rejects it if
    the windows are disjoint."""
    return max(u[0], v[0]), min(u[1], v[1])


def _combine_bound(x, y, pick):
    if x is None:
        return y
    if y is None:
        return x
    return pick(x, y)


def _supports_disjoint(a: HilbertSeries, b: HilbertSeries) -> bool:
    for x, y in ((a, b), (b, a)):
        if (
            x.support_upper is not None
            and y.support_lower is not None
            and x.support_upper < y.support_lower
        ):
            return True
    return False


def add_series(parts: list[HilbertSeries]) -> HilbertSeries:
    """Coefficientwise sum on the intersected window."""
    if not parts:
        raise ValueError("empty sum")
    win = parts[0].window
    for p in parts[1:]:
        win = _intersect(win, p.window)
    table = {}
    for p in parts:
        for d, v in p.coeffs:
            if win[0] <= d <= win[1]:
                table[d] = table.get(d, 0) + v
    live = [p for p in parts if not p.zero_certified]
    lo = None
    hi = None
    if live:
        los = [p.support_lower for p in live]
        his = [p.support_upper for p in live]
        if all(x is not None for x in los):
            lo = min(los)
        if all(x is not None for x in his):
            hi = max(his)
    return make_series(win, table, lo, hi, zero_certified=not live)


# ---------------------------------------------------------------------------
# local cohomology of weighted polynomial rings and their Segre products


def module_series(
    spec: WeightedRingSpec, win: tuple[int, int], shift: int = 0
) -> HilbertSeries:
    """Series of the shifted free module S(shift) on the window."""
    big = (min(win[0] + shift, 0), win[1] + max(shift, 0))
    return twist(ring_series(spec, big), shift)


def local_cohomology_poly(
    spec: WeightedRingSpec, win: tuple[int, int], shift: int = 0
) -> dict[int, HilbertSeries]:
    """Local cohomology of S(shift) at the graded maximal ideal, as
    {p: series of H^p} for p = 0..dim S.

    Everything below dim S vanishes (certified zero), and the top is the
    graded dual of the ring twisted by the weight sum, so the coefficient
    in degree j is dim S in degree -j - (sum of weights) - shift; its top
    degree is the a-invariant of S(shift).
    """
    d = len(spec.variables)
    wsum = spec.weight_sum
    table = {}
    for j in range(win[0], win[1] + 1):
        v = dim_at(spec, -j - wsum - shift)
        if v:
            table[j] = v
    out = {p: zero_series(win, certified=True) for p in range(d)}
    out[d] = make_series(win, table, support_upper=-wsum - shift)
    return out


def gw_segre_cohomology(
    m_series: HilbertSeries,
    m_profile: dict[int, HilbertSeries],
    n_series: HilbertSeries,
    n_profile: dict[int, HilbertSeries],
) -> dict[int, HilbertSeries]:
    """Local cohomology of a Segre product of modules, series by series,
    as {p: series of H^p} for p = 0..dim M + dim N - 1.

    Each profile maps p to the series of H^p of its factor.  The factor's
    dimension is read as the profile's largest key, and a p missing from
    a profile is certified zero.  H^p of the product decomposes as
    H^p(M) # N plus M # H^p(N) plus the convolution sum of
    H^i(M) # H^(p+1-i)(N) over 0 < i <= p.  The first argument must have
    certified-zero H^0 and H^1 (ValueError otherwise).
    """
    zero = zero_series(_intersect(m_series.window, n_series.window), certified=True)
    for p in (0, 1):
        s = m_profile.get(p)
        if s is not None and not s.zero_certified:
            raise ValueError(
                "hypothesis violation: H^0 and H^1 of the first factor must vanish"
            )
    dim = max(m_profile) + max(n_profile) - 1
    out = {}
    for p in range(0, dim + 1):
        parts = [
            hadamard(m_profile.get(p, zero), n_series),
            hadamard(m_series, n_profile.get(p, zero)),
        ]
        for i in range(1, p + 1):
            parts.append(hadamard(m_profile.get(i, zero), n_profile.get(p + 1 - i, zero)))
        out[p] = add_series(parts)
    return out


def segre_dimension(specA: WeightedRingSpec, specB: WeightedRingSpec) -> int:
    return len(specA.variables) + len(specB.variables) - 1


def segre_a_invariant(specA: WeightedRingSpec, specB: WeightedRingSpec) -> int:
    """Top degree of the top local cohomology of the Segre product.

    Searches down from min(a_A, a_B) for the first degree where both
    factor dimensions are positive; exact because single-degree monomial
    counts are global.
    """
    aA = -specA.weight_sum
    aB = -specB.weight_sum
    j = min(aA, aB)
    for _ in range(10000):
        if dim_at(specA, aA - j) > 0 and dim_at(specB, aB - j) > 0:
            return j
        j -= 1
    raise ValueError("no nonzero top cohomology degree found in search range")


_RADIUS = 8


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
) -> SegreReport:
    """Dimension, depth/CM flags per shift, a-invariant and Gorenstein tests,
    on the degree window [-8, 8].

    The first ring must have dimension >= 2; positive weights make both
    a-invariants negative.  The Gorenstein flag comes from two
    independent tests, a series comparison and the equal-a-invariant
    criterion, which are required to agree.
    """
    if len(specA.variables) < 2 or len(specB.variables) < 1:
        raise ValueError("need dim A >= 2 and dim B >= 1")
    aA, aB = -specA.weight_sum, -specB.weight_sum
    win = (-_RADIUS, _RADIUS)
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
    series_test = _matches_some_shift(canonical, ring_s)
    if crit_test and not series_test:
        raise AssertionError(
            "equal negative a-invariants must force a Gorenstein series"
        )

    profB = local_cohomology_poly(specB, win)
    shift_reports = {}
    top = None
    for s in shifts:
        profA = local_cohomology_poly(specA, win, shift=s)
        msA = module_series(specA, win, shift=s)
        prof = gw_segre_cohomology(msA, profA, seriesB, profB)
        statuses = {p: prof[p].status() for p in range(dim + 1)}
        cm = all(statuses[p].startswith("zero") for p in range(dim))
        certified = all(statuses[p] == "zero-certified" for p in range(dim)) if cm else False
        shift_reports[s] = {
            "cm": cm,
            "certified": certified,
            "depth_at_least": next((p for p in range(dim) if prof[p].coeffs), dim),
            "statuses": {str(p): v for p, v in statuses.items()},
            "top": prof[dim].to_json_dict(),
        }
        if s == 0:
            top = prof[dim]
    if top is None:
        profA = local_cohomology_poly(specA, win)
        top = gw_segre_cohomology(seriesA, profA, seriesB, profB)[dim]
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


def _matches_some_shift(candidate: HilbertSeries, base: HilbertSeries) -> bool:
    """Does candidate equal base twisted by some degree shift on the window?"""
    for s in range(-2 * _RADIUS, 2 * _RADIUS + 1):
        shifted = twist(base, s)
        lo, hi = _intersect(candidate.window, shifted.window)
        if hi - lo < _RADIUS:
            continue
        if all(
            candidate.coeff(d) == shifted.as_dict().get(d, 0) for d in range(lo, hi + 1)
        ):
            return True
    return False
