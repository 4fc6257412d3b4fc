"""The bundled worked examples: three Segre-product rings, their
diagonal-module families, the Koszul-diagonal exact sequences, the six
higher almost-split sequences, the sink sequences over the
non-Gorenstein ring, and the Ext/rigidity table.

Every builder returns explicit degreewise complexes or integer tables;
the reproduction manifest in the CLI and the acceptance suite both feed
from here.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hilbert import WeightedRingSpec, ring
from .complexes import (
    DegreewiseComplex,
    bify,
    diagonal,
    diff_complex,
    extend_diagonal,
    glue_split_tensor,
    koszul,
    truncate_split,
)
from .modules import DiagonalModule
from .resolution import HomCalculator, stable_hom_dims


RINGS: dict[str, tuple[WeightedRingSpec, WeightedRingSpec]] = {
    # 4-dimensional non-Gorenstein Segre product
    "k2_k3": (ring(("x0", "x1"), (1, 1)), ring(("y0", "y1", "y2"), (1, 1, 1))),
    # 4-dimensional Gorenstein Segre product with a weighted factor
    "k3_w12": (ring(("x", "y", "z"), (1, 1, 1)), ring(("u", "v"), (1, 2))),
    # 5-dimensional Gorenstein Segre product
    "k3_k3": (ring(("x", "y", "z"), (1, 1, 1)), ring(("u", "v", "w"), (1, 1, 1))),
}


def ring_pair(key: str):
    try:
        return RINGS[key]
    except KeyError:
        raise KeyError(f"unknown ring pair {key!r}; choose from {sorted(RINGS)}")


def diagonal_module(key: str, shift: int) -> DiagonalModule:
    a, b = ring_pair(key)
    return DiagonalModule(a, b, shift)


def koszul_diagonal(key: str, variant: int, shift: int, window) -> DegreewiseComplex:
    """Diagonal of the Koszul complex on one tensor factor.

    Variant 1 Koszul-resolves the first factor (cokernel supported on
    the second), variant 2 the second factor.  The right-end homology is
    the expected cokernel:  B in degree -shift for variant 1 (zero when
    shift > 0), A in degree 0 with dimension dim A_shift for variant 2.
    """
    a, b = ring_pair(key)
    if variant == 1:
        bi = bify(koszul(a), b, "A")
    elif variant == 2:
        bi = bify(koszul(b), a, "B")
    else:
        raise ValueError("variant must be 1 or 2")
    return diagonal(bi, shift, window)


@dataclass
class NamedSequence:
    name: str
    complex: DegreewiseComplex
    cokernel: tuple[int, int] | None  # (degree, dim) homology at the right end

    def verify(self, char: int = 0) -> dict:
        h = self.complex.homology(char)
        last = len(self.complex.dims) - 1
        expected = {}
        if self.cokernel is not None:
            expected[(last, self.cokernel[0])] = self.cokernel[1]
        return {
            "name": self.name,
            "terms": self.complex.labels,
            "window": list(self.complex.window),
            "homology": {f"{t},{j}": v for (t, j), v in sorted(h.items())},
            "exact": h == expected,
        }


# split thresholds (twist_a, thr_a, twist_b, thr_b, diagonal shift) for the
# higher almost-split sequences; the fundamental sequence at R keeps its
# base-field cokernel in degree 0
AR_RECIPES = {
    "k3_w12": {
        "at-R": (0, 2, 0, 2, 0, (0, 1)),
        "at-M1": (1, 2, 0, 1, 0, None),
        "at-M-1": (-1, 2, 0, 3, 0, None),
    },
    "k3_k3": {
        "at-R": (0, 2, 0, 2, 0, (0, 1)),
        "at-M1": (0, 3, 1, 0, 2, None),
        "at-M-1": (1, 0, 0, 3, -2, None),
    },
}


def almost_split_sequence(key: str, at: str, window) -> NamedSequence:
    """One of the six higher almost-split / fundamental sequences."""
    a, b = ring_pair(key)
    try:
        ta, thr_a, tb, thr_b, shift, cok = AR_RECIPES[key][at]
    except KeyError:
        raise KeyError(f"no almost-split recipe for {key}/{at}")
    sA = truncate_split(koszul(a).twist(ta), lambda g: g >= thr_a)
    sB = truncate_split(koszul(b).twist(tb), lambda g: g >= thr_b)
    glued = glue_split_tensor(sA, sB)
    dc = diagonal(glued, shift, window)
    d = len(dc.dims) - 2
    return NamedSequence(f"{d}-almost-split {at} over {key}", dc, cok)


def almost_split_suite(key: str, window) -> list[NamedSequence]:
    return [almost_split_sequence(key, at, window) for at in AR_RECIPES[key]]


# ---------------------------------------------------------------------------
# sink sequences and the Ext table over the non-Gorenstein ring


def sink_sequence_at_omega(window) -> NamedSequence:
    """Resolved sink sequence at the canonical module over k2_k3.

    The splice of the second-factor Koszul diagonal at shift -1 with the
    first-factor Koszul diagonal at shift 1 is exact; its co-image part
    is the sink sequence ending in the canonical module, with the second
    syzygy as the left end.  The two join at M_-1, a term of one
    generator, so the splice is taken on the bigraded complexes and the
    sequence is ranked by fine-degree strands like the diagonals.
    """
    left = koszul_diagonal("k2_k3", 2, -1, window)
    right = koszul_diagonal("k2_k3", 1, 1, window)
    return NamedSequence("sink sequence at the canonical module", left.spliced(right), None)


def sink_sequence_at_syzygy2(window) -> NamedSequence:
    """Resolved sink sequence at the second syzygy of the canonical module.

    Built by splicing the first-factor Koszul diagonal at shift 2
    (twisted down by 3) into the second-factor Koszul diagonal at shift
    -1, then cutting at the image term.  Twist and splice are taken on
    the bigraded complexes, and the cut keeps the strands of the splice:
    the image term's dims are the rational ranks of the map into it, so
    over F_p its homology is rank_Q - rank_p of that map.
    """
    lo, hi = window
    left = koszul_diagonal("k2_k3", 1, 2, (lo - 3, hi - 3)).twisted(-3)
    right = koszul_diagonal("k2_k3", 2, -1, window)
    s = left.spliced(right)
    cut = DegreewiseComplex(s.labels[:4], s.dims[:4], None, s.window, strands=s.strands)
    cut = cut.image_truncated()
    return NamedSequence("sink sequence at the second syzygy", cut, None)


def claim3_core_sequence(window) -> NamedSequence:
    """The five-term core sequence over k2_k3 obtained from the kernel
    complex of the second factor, extended over the first factor and
    restricted to the diagonal; exact with base-field cokernel."""
    a, b = ring_pair("k2_k3")
    dc = diff_complex(b, window)
    return NamedSequence(
        "kernel-complex diagonal core sequence", extend_diagonal(dc, a), (0, 1)
    )


def _ext1(calc: HomCalculator, M, N, d_range) -> dict:
    """Nonzero graded dimensions of Ext^1(M, N) on the degree range."""
    t = calc.ext_dims(M, N, [1], d_range)
    return {d: v for (i, d), v in t.items() if v}


def syz3_self_extension(calc: HomCalculator) -> dict:
    """Ext^1 of the third syzygy of omega with itself on [-2, 1]; `calc`
    is a calculator over k2_k3."""
    omega = DiagonalModule(calc.ringA, calc.ringB, 1)
    om3 = calc.resolution(omega, 5).syzygy(3)
    return _ext1(calc, om3, om3, range(-2, 2))


def stable_end_omega(calc: HomCalculator) -> dict:
    """Stable End of omega in degrees 0..3; `calc` is over k2_k3."""
    omega = DiagonalModule(calc.ringA, calc.ringB, 1)
    stable = stable_hom_dims(calc, omega, omega, range(0, 4))
    return {str(d): v[1] for d, v in stable.items()}


def rigidity_ext_table(calc: HomCalculator, d_range=range(-4, 3)) -> dict:
    """Ext^1 table for the maximal rigid modules over k2_k3.

    `calc` is a calculator over k2_k3.  Returns per-pair graded
    dimensions of Ext^1 on the degree range, plus the self-extension
    witness for the third syzygy and the stable endomorphism dimensions
    of the canonical module.
    """
    a, b = calc.ringA, calc.ringB
    omega = DiagonalModule(a, b, 1)
    R = DiagonalModule(a, b, 0)
    M2 = DiagonalModule(a, b, 2)
    M3 = DiagonalModule(a, b, 3)
    res = calc.resolution(omega, 5)
    om1, om2 = res.syzygy(1), res.syzygy(2)

    def table(M, N):
        return _ext1(calc, M, N, d_range)

    ext1 = {
        "omega,omega": table(omega, omega),
        "omega,R": table(omega, R),
        "omega,syz2": table(omega, om2),
        "syz2,R": table(om2, R),
        "syz2,omega": table(om2, omega),
        "syz2,syz2": table(om2, om2),
        "syz2,M2": table(om2, M2),
        "syz2,M3": table(om2, M3),
        "syz1,R": table(om1, R),
        "syz1,syz1": table(om1, om1),
        "omega,M2": table(omega, M2),
    }
    ext1["M2_as_target_of_omega"] = ext1["omega,M2"]
    return {
        "window": [min(d_range), max(d_range)],
        "ext1": ext1,
        "syz3_self_extension": syz3_self_extension(calc),
        "stable_end_omega": stable_end_omega(calc),
        "betti_omega": res.betti_table(),
    }


def rigid_triples_check(calc: HomCalculator, d_range=range(-4, 3)) -> dict:
    """Windowed rigidity of the three maximal rigid modules.

    R ⊕ omega ⊕ syz^2(omega), R ⊕ syz(omega), and omega ⊕ M_2: every
    Ext^1 between summands (sources non-free) vanishes on the range.
    `calc` is a calculator over k2_k3.
    """
    a, b = calc.ringA, calc.ringB
    omega = DiagonalModule(a, b, 1)
    R = DiagonalModule(a, b, 0)
    M2 = DiagonalModule(a, b, 2)
    res = calc.resolution(omega, 5)
    om1, om2 = res.syzygy(1), res.syzygy(2)

    def flat(M, N):
        return sum(calc.ext_dims(M, N, [1], d_range).values())

    omega_omega = flat(omega, omega)
    triples = {
        "R+omega+syz2": omega_omega
        + flat(omega, R)
        + flat(omega, om2)
        + flat(om2, R)
        + flat(om2, omega)
        + flat(om2, om2),
        "R+syz1": flat(om1, R) + flat(om1, om1),
        "omega+M2": omega_omega + flat(omega, M2) + flat(M2, omega) + flat(M2, M2),
    }
    return {"window": [min(d_range), max(d_range)], "totals": triples}
