import itertools

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from segrecalc.gradedlin.poly import monomials
from segrecalc.hilbert import (
    HilbertSeries,
    add_series,
    dim_at,
    gw_segre_cohomology,
    hadamard,
    local_cohomology_poly,
    make_series,
    module_series,
    ring,
    ring_series,
    segre_report,
    twist,
    zero_series,
)
from segrecalc.linalg import CertificationError

A2 = ring(("x0", "x1"), (1, 1))
B3 = ring(("y0", "y1", "y2"), (1, 1, 1))
UV = ring(("u", "v"), (1, 2))
XYZ = ring(("x", "y", "z"), (1, 1, 1))


def count_monomials(weights, d):
    """Enumeration oracle: exponent tuples with the given weighted degree."""
    total = 0
    ranges = [range(0, d // w + 1) for w in weights]
    for expo in itertools.product(*ranges):
        if sum(e * w for e, w in zip(expo, weights)) == d:
            total += 1
    return total


def test_ring_series_standard():
    s = ring_series(A2, (0, 4))
    assert [s.coeff(d) for d in range(5)] == [1, 2, 3, 4, 5]


def test_ring_series_weighted_oracle():
    s = ring_series(UV, (0, 5))
    assert [s.coeff(d) for d in range(6)] == [
        count_monomials((1, 2), d) for d in range(6)
    ]
    assert [s.coeff(d) for d in range(6)] == [1, 1, 2, 2, 3, 3]


def test_ring_series_binomial():
    assert ring_series(B3, (0, 3)).coeff(3) == 10


def test_ring_series_negative_window():
    s = ring_series(A2, (-3, 2))
    assert s.coeff(-2) == 0 and s.coeff(1) == 2


def test_coeff_outside_window_needs_a_certified_bound():
    s = ring_series(A2, (0, 4))
    with pytest.raises(CertificationError, match=r"degree 9 outside the window \[0, 4\]"):
        s.coeff(9)
    # below the certified support, and anywhere on a certified-zero series
    assert s.coeff(-3) == 0
    assert zero_series((0, 4), certified=True).coeff(9) == 0
    top = local_cohomology_poly(A2, (-4, 4))[2]
    assert top.coeff(-1) == 0 and top.coeff(12) == 0
    with pytest.raises(CertificationError):
        top.coeff(-5)
    with pytest.raises(CertificationError):
        twist(s, 2).coeff(3)


small_rings = st.builds(
    lambda ws: ring(tuple(f"v{i}" for i in range(len(ws))), tuple(ws)),
    st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=3),
)


@settings(max_examples=40, deadline=None)
@given(small_rings, st.integers(min_value=-3, max_value=12))
def test_dim_at_counts_enumerated_monomials(spec, d):
    # the counter behind DiagonalModule.dim against the enumerator behind
    # fine_basis, negative degrees included
    assert dim_at(spec, d) == len(monomials(spec, d))


@settings(max_examples=40, deadline=None)
@given(small_rings, small_rings)
def test_hadamard_counts_monomial_pairs(a_spec, b_spec):
    win = (0, 5)
    prod = hadamard(ring_series(a_spec, win), ring_series(b_spec, win))
    for d in range(6):
        pairs = count_monomials(a_spec.weights, d) * count_monomials(b_spec.weights, d)
        assert prod.coeff(d) == pairs


def test_hadamard_examples():
    got = hadamard(ring_series(A2, (0, 3)), ring_series(B3, (0, 3)))
    assert [got.coeff(j) for j in range(4)] == [1, 6, 18, 40]


def test_hadamard_zero_and_disjoint_support():
    win = (-5, 5)
    z = zero_series(win, certified=True)
    assert hadamard(ring_series(A2, win), z).zero_certified
    upper = make_series(win, {-3: 1, -5: 2}, support_upper=-3)
    lower = ring_series(A2, win)
    assert hadamard(upper, lower).zero_certified


def test_local_cohomology_against_socle_oracle():
    win = (-8, 8)
    for spec in (A2, B3, UV):
        prof = local_cohomology_poly(spec, win)
        d = len(spec.variables)
        top = prof[d]
        for j in range(-8, 1):
            weights = spec.weights
            # monomials with all exponents >= 1 in degree -j
            total = 0
            for expo in itertools.product(*[range(1, 9) for _ in weights]):
                if sum(e * w for e, w in zip(expo, weights)) == -j:
                    total += 1
            assert top.coeff(j) == total
        for p in range(d):
            assert prof[p].zero_certified


def test_local_cohomology_examples():
    win = (-8, 8)
    prof = local_cohomology_poly(A2, win)
    assert prof[2].coeff(-2) == 1 and prof[2].coeff(-3) == 2
    puv = local_cohomology_poly(UV, win)
    assert max(d for d, _ in puv[2].coeffs) == -3
    single = local_cohomology_poly(ring(("x",), (1,)), win)
    assert all(single[1].coeff(j) == 1 for j in range(-8, 0))
    assert local_cohomology_poly(B3, win)[3].coeff(-4) == 3


def test_gw_segre_cohomology():
    win = (-8, 8)
    profA = local_cohomology_poly(A2, win)
    profB = local_cohomology_poly(B3, win)
    sa, sb = module_series(A2, win), module_series(B3, win)
    gw = gw_segre_cohomology(sa, profA, sb, profB)
    assert max(gw) == 4
    assert all(gw[p].zero_certified for p in range(4))
    assert [gw[4].coeff(j) for j in (-3, -4, -5)] == [2, 9, 24]
    # shifted module: M_3 has nonzero H^3 in degree -3
    prof3 = local_cohomology_poly(A2, win, shift=3)
    s3 = module_series(A2, win, shift=3)
    gw3 = gw_segre_cohomology(s3, prof3, sb, profB)
    assert gw3[3].coeff(-3) == 1
    # CM shifts -1..2
    for s in (-1, 0, 1, 2):
        profS = local_cohomology_poly(A2, win, shift=s)
        gws = gw_segre_cohomology(module_series(A2, win, shift=s), profS, sb, profB)
        assert all(gws[p].zero_certified for p in range(4))


def test_gw_reads_missing_degrees_as_certified_zero():
    # each factor's dimension is its profile's largest key
    win = (-8, 8)
    sa, sb = module_series(A2, win), module_series(B3, win)
    profA, profB = local_cohomology_poly(A2, win), local_cohomology_poly(B3, win)
    full = gw_segre_cohomology(sa, profA, sb, profB)
    assert list(full) == [0, 1, 2, 3, 4]
    assert gw_segre_cohomology(sa, {2: profA[2]}, sb, {3: profB[3]}) == full


def test_gw_hypothesis_rejected():
    win = (-6, 6)
    bad = local_cohomology_poly(ring(("x",), (1,)), win)
    sa = module_series(ring(("x",), (1,)), win)
    with pytest.raises(ValueError):
        gw_segre_cohomology(sa, bad, sa, bad)


def test_segre_reports():
    rep = segre_report(XYZ, UV, shifts=(0,))
    assert rep.gorenstein and rep.a_invariant == -3 and rep.dimension == 4
    rep5 = segre_report(XYZ, XYZ, shifts=(0,))
    assert rep5.gorenstein and rep5.a_invariant == -3 and rep5.dimension == 5
    rep4 = segre_report(A2, B3, shifts=(0, 3))
    assert not rep4.gorenstein and rep4.a_invariant == -3 and rep4.dimension == 4
    assert rep4.shifts[0]["cm"] and not rep4.shifts[3]["cm"]


@pytest.mark.parametrize("a, b", [(XYZ, UV), (A2, B3)])
def test_top_cohomology_without_shift_zero(a, b):
    # without shift 0 among the shifts, segre_report computes the top
    # cohomology of the ring on its own
    alone = segre_report(a, b, shifts=(1,))
    with_zero = segre_report(a, b, shifts=(0, 1))
    assert alone.top_cohomology == with_zero.top_cohomology
    assert alone.top_cohomology.coeffs
    got, want = alone.to_json_dict(), with_zero.to_json_dict()
    assert got["top_cohomology"] == want["top_cohomology"]
    assert got["shifts"]["1"] == want["shifts"]["1"]


def test_segre_report_rejects_small_first_factor():
    with pytest.raises(ValueError):
        segre_report(ring(("x",), (1,)), UV, shifts=(0,))


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=2), min_size=2, max_size=3),
    st.lists(st.integers(min_value=1, max_value=2), min_size=1, max_size=3),
)
def test_gorenstein_criterion_implies_series_test(wa, wb):
    a = ring(tuple(f"a{i}" for i in range(len(wa))), tuple(wa))
    b = ring(tuple(f"b{i}" for i in range(len(wb))), tuple(wb))
    rep = segre_report(a, b, shifts=(0,))
    if rep.gorenstein_criterion_test:
        assert rep.gorenstein_series_test


def test_series_reject_invalid_tables():
    win = (0, 2)
    for table in ({1: -2}, {3: 1}):
        with pytest.raises(ValueError):
            make_series(win, table)
    with pytest.raises(ValueError):
        make_series(win, {1: 1}, zero_certified=True)
    # make_series omits zero coefficients; the series itself rejects them
    assert make_series(win, {1: 0, 2: 3}).coeffs == ((2, 3),)
    with pytest.raises(ValueError):
        HilbertSeries(win, ((1, 0),))


def test_series_reject_empty_windows():
    for build in (
        lambda: HilbertSeries((3, 2), ()),
        lambda: make_series((1, 0), {}),
        lambda: ring_series(A2, (5, 4)),
        lambda: hadamard(ring_series(A2, (0, 2)), ring_series(B3, (3, 5))),
        lambda: add_series([ring_series(A2, (0, 2)), ring_series(B3, (3, 5))]),
        lambda: gw_segre_cohomology(
            module_series(A2, (0, 2)),
            local_cohomology_poly(A2, (0, 2)),
            module_series(B3, (3, 5)),
            local_cohomology_poly(B3, (3, 5)),
        ),
    ):
        with pytest.raises(ValueError, match="empty window"):
            build()
    assert ring_series(A2, (2, 2)).coeffs == ((2, 3),)
