import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from segrecalc.hilbert import ring
from segrecalc.gradedlin import catalog
from segrecalc.gradedlin.modules import DiagonalModule
from segrecalc.gradedlin.resolution import HomCalculator
from segrecalc.quivers import (
    EndoQuiver,
    Quiver,
    VeroneseSideData,
    TRIVIAL_SIDE,
    fold_d3,
    fold_d4,
    middle_multiplicities,
    p_segre_quiver,
)

A2 = ring(("x0", "x1"), (1, 1))
B3 = ring(("y0", "y1", "y2"), (1, 1, 1))
XYZ = ring(("x", "y", "z"), (1, 1, 1))
UV = ring(("u", "v"), (1, 2))


def test_quiver_basics():
    q = Quiver(("a", "b"), {("a", "b"): 2, ("b", "a"): 0})
    assert q.multiplicity("a", "b") == 2
    assert q.arrows == {("a", "b"): 2}
    assert "digraph" in q.to_dot()
    with pytest.raises(ValueError):
        Quiver(("a", "a"), {})


def test_fold_d3_counts():
    q = Quiver(("1", "2"), {("1", "2"): 1})
    n = {("1", "2"): 3, ("2", "1"): 3, ("1", "1"): 0, ("2", "2"): 0}
    folded = fold_d3(q, n)
    assert len(folded.vertices) == 2 * len(q.vertices)
    assert folded.arrow_count() == 2 * q.arrow_count() + sum(n.values())
    assert folded.arrow_multiset() == [1, 1, 3, 3]


def test_fold_d3_requires_symmetry():
    q = Quiver(("1", "2"), {("1", "2"): 1})
    with pytest.raises(ValueError):
        fold_d3(q, {("1", "2"): 3, ("2", "1"): 2})


def test_fold_d3_literal_rule():
    q = Quiver(("v",), {})
    folded = fold_d3(q, {("v", "v"): 4})
    assert len(folded.vertices) == 2 and folded.arrow_multiset() == [4]


def test_fold_d4_counts():
    m = {("1", "2"): 3, ("2", "1"): 3}
    folded = fold_d4(("1", "2"), m)
    assert len(folded.vertices) == 6
    assert folded.arrow_count() == 3 * sum(m.values())
    assert folded.arrow_multiset() == [3] * 6
    # one-vertex loop rule: a three-cycle
    tri = fold_d4(("v",), {("v", "v"): 1})
    assert set(tri.arrows) == {("v.1", "v.2"), ("v.2", "v.3"), ("v.1", "v.3")}


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=1, max_value=3),
    st.data(),
)
def test_fold_counts_general(nverts, data):
    verts = tuple(str(i) for i in range(nverts))
    arrows = {}
    for a in verts:
        for b in verts:
            arrows[(a, b)] = data.draw(st.integers(min_value=0, max_value=2))
    q = Quiver(verts, dict(arrows))
    n = {}
    for i, a in enumerate(verts):
        for b in verts[i:]:
            k = data.draw(st.integers(min_value=0, max_value=2))
            n[(a, b)] = k
            n[(b, a)] = k
    folded = fold_d3(q, n)
    assert len(folded.vertices) == 2 * nverts
    assert folded.arrow_count() == 2 * q.arrow_count() + sum(n.values())
    m = dict(n)
    folded4 = fold_d4(verts, m)
    assert len(folded4.vertices) == 3 * nverts
    assert folded4.arrow_count() == 3 * sum(m.values())


def nongor_quiver(hi=8):
    calc = HomCalculator(A2, B3, 0, hi)
    omega = DiagonalModule(A2, B3, 1)
    syz2 = calc.resolution(omega, 3).syzygy(2)
    return EndoQuiver(
        calc,
        [("R", DiagonalModule(A2, B3, 0)), ("om", omega), ("syz2", syz2)],
        degree_top=3,
    )


def test_nongor_endo_quiver():
    eq = nongor_quiver()
    assert eq.quiver.arrows == {("R", "om"): 2, ("om", "syz2"): 3, ("syz2", "R"): 3}


def test_single_free_vertex_sees_ring_generators():
    # with no other summands absorbing compositions, the loops count the
    # minimal algebra generators of the ring itself
    eq = EndoQuiver(HomCalculator(A2, B3, 0, 5), [("R", DiagonalModule(A2, B3, 0))], degree_top=2)
    assert eq.quiver.arrows == {("R", "R"): 6}


def test_gorenstein_quivers_and_stable():
    mods = [
        ("M-1", DiagonalModule(XYZ, UV, -1)),
        ("R", DiagonalModule(XYZ, UV, 0)),
        ("M1", DiagonalModule(XYZ, UV, 1)),
    ]
    eq = EndoQuiver(HomCalculator(XYZ, UV, 0, 8), mods, degree_top=3)
    assert eq.quiver.arrows == {
        ("M-1", "R"): 3,
        ("R", "M1"): 3,
        ("R", "M-1"): 1,
        ("M1", "R"): 1,
        ("M1", "M-1"): 1,
    }
    assert eq.stable_reduce(["R"]).arrows == {("M1", "M-1"): 1}


def test_gorenstein_quiver_over_prime_field_matches_rationals():
    mods = [(f"M{s}" if s else "R", DiagonalModule(XYZ, UV, s)) for s in (-1, 0, 1)]
    rational = EndoQuiver(HomCalculator(XYZ, UV, 0, 8), mods, degree_top=3)
    modular = EndoQuiver(HomCalculator(XYZ, UV, 0, 8, char=10007), mods, degree_top=3)
    assert modular.quiver.arrows == rational.quiver.arrows
    assert modular.stable_reduce(["R"]).arrows == rational.stable_reduce(["R"]).arrows


def test_middle_multiplicities():
    seq3 = catalog.almost_split_sequence("k3_w12", "at-M1", (0, 4))
    assert middle_multiplicities(seq3) == {"M-1": 3}
    seq3b = catalog.almost_split_sequence("k3_w12", "at-M-1", (0, 4))
    assert middle_multiplicities(seq3b) == {"M1": 3}
    seq4 = catalog.almost_split_sequence("k3_k3", "at-M1", (0, 4))
    assert middle_multiplicities(seq4) == {"M-1": 3}
    with pytest.raises(ValueError):
        middle_multiplicities(Quiver(("a",), {}))


def test_p_segre_loop_example():
    q = p_segre_quiver(VeroneseSideData(ring(("x", "y"), (1, 2))),
                       VeroneseSideData(ring(("u", "v"), (1, 2))), 3, degree_top=5)
    assert q.arrows == {
        ("R", "M1"): 1,
        ("R", "M2"): 1,
        ("M1", "M2"): 1,
        ("M1", "R"): 1,
        ("M1", "M1"): 1,
        ("M2", "M1"): 1,
        ("M2", "R"): 1,
    }


def test_p_segre_veronese_square():
    side_a = VeroneseSideData(ring(("x", "y"), (1, 1)), order=2, residues=(0, 1))
    side_b = VeroneseSideData(ring(("u", "v"), (1, 1)), order=2, residues=(0, 1))
    q = p_segre_quiver(side_a, side_b, 1, degree_top=4)
    assert q.arrows[("(0;1,1)", "(0;0,0)")] == 4
    assert q.arrows[("(0;0,0)", "(0;0,1)")] == 2
    st_q = p_segre_quiver(side_a, side_b, 1, degree_top=4, drop_free=["(0;0,0)"])
    assert st_q.arrows == {("(0;0,1)", "(0;1,1)"): 2, ("(0;1,0)", "(0;1,1)"): 2}


def test_p_segre_trivial_side_gives_first_factor():
    side_a = VeroneseSideData(ring(("x", "y"), (1, 1)), order=2, residues=(0, 1))
    q = p_segre_quiver(side_a, TRIVIAL_SIDE, 1, degree_top=4)
    assert q.arrows == {
        ("(0;0,0)", "(0;1,0)"): 2,
        ("(0;1,0)", "(0;0,0)"): 2,
    }


def test_p_segre_rejects_bad_p():
    with pytest.raises(ValueError):
        p_segre_quiver(TRIVIAL_SIDE, TRIVIAL_SIDE, 0)
