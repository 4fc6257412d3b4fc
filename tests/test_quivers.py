import itertools
from collections import Counter

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given, settings

from segrecalc import cli, linalg
from segrecalc.hilbert import ring
from segrecalc.gradedlin import catalog, resolution
from segrecalc.gradedlin.poly import monomials
from segrecalc.gradedlin.modules import DiagonalModule, FreeModule, SyzygyModule
from segrecalc.gradedlin.resolution import HomCalculator, through_free_vectors
from segrecalc.quivers import (
    EndoQuiver,
    Quiver,
    VeroneseSideData,
    fold_d3,
    fold_d4,
    middle_multiplicities,
    p_segre_quiver,
)
from test_resolution import flat_hom, flat_of, flat_of_form, flat_values, reference_compose_values

A2 = ring(("x0", "x1"), (1, 1))
B3 = ring(("y0", "y1", "y2"), (1, 1, 1))
XYZ = ring(("x", "y", "z"), (1, 1, 1))
UV = ring(("u", "v"), (1, 2))
# Segre products with a one-variable standard factor are the identity:
# k[t] has a one-dimensional piece in every degree
TRIVIAL_SIDE = VeroneseSideData(ring(("t",), (1,)))


def test_quiver_basics():
    q = Quiver(("a", "b"), {("a", "b"): 2, ("b", "a"): 0})
    assert q.arrows[("a", "b")] == 2
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


def test_stable_reduce_rejects_no_label_and_unknown_labels(monkeypatch):
    mods = [(f"M{s}" if s else "R", DiagonalModule(XYZ, UV, s)) for s in (-1, 0, 1)]
    eq = EndoQuiver(HomCalculator(XYZ, UV, 0, 8), mods, degree_top=3)
    # both used to return a quiver: the full one for [], and the stable
    # arrows over all three vertices for ["X"]
    monkeypatch.setattr(EndoQuiver, "_arrows", lambda *args: pytest.fail("quiver built"))
    for labels in ([], ["X"], ["R", "X"]):
        with pytest.raises(ValueError, match=r"free vertices to drop must be vertices, not \["):
            eq.stable_reduce(labels)


def test_gorenstein_quiver_over_prime_field_matches_rationals():
    mods = [(f"M{s}" if s else "R", DiagonalModule(XYZ, UV, s)) for s in (-1, 0, 1)]
    rational = EndoQuiver(HomCalculator(XYZ, UV, 0, 8), mods, degree_top=3)
    modular = EndoQuiver(HomCalculator(XYZ, UV, 0, 8, char=10007), mods, degree_top=3)
    assert modular.quiver.arrows == rational.quiver.arrows
    assert modular.stable_reduce(["R"]).arrows == rational.stable_reduce(["R"]).arrows


def test_endo_quiver_raises_when_rad_square_needs_splits_above_the_window():
    # over k3_w12 at hi = 3 the window clamp dropped the compositions that
    # span rad^2, and the quiver came out with 4, 4 and 6 arrows
    a, b = catalog.RINGS["k3_w12"]
    mods = [(f"M{s}" if s else "R", catalog.diagonal_module("k3_w12", s)) for s in (-1, 0, 1)]
    with pytest.raises(linalg.CertificationError, match="above the window top 3"):
        EndoQuiver(HomCalculator(a, b, 0, 3), mods, degree_top=3).quiver
    wide = EndoQuiver(HomCalculator(a, b, 0, 8), mods, degree_top=3).quiver
    assert wide.arrows[("M1", "R")] == 1 and ("M1", "M1") not in wide.arrows
    for hi in (4, 5, 6):
        assert EndoQuiver(HomCalculator(a, b, 0, hi), mods, degree_top=3).quiver == wide


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


def reference_rad_square(eq, a, b, d, mods):
    """Every nonzero composition a -> c -> b of degree d with both factors
    radical, in flat coordinates through element matrices
    (`reference_compose_values`): the all-pairs product that
    `EndoQuiver._rad_square` stops early, one δ at a time."""
    res = eq.calc.resolution(a)
    out = []
    for c in mods:
        e_lo = eq._d_floor(a, c) if c is not a else max(eq._d_floor(a, c), 1)
        f_lo = eq._d_floor(c, b) if c is not b else max(eq._d_floor(c, b), 1)
        e_lo = max(e_lo, d - eq._d_top(c))
        e_hi = min(d - f_lo, eq._d_top(a))
        for e in range(e_lo, e_hi + 1):
            phis = eq._rad_basis(a, c, e)
            psis = eq._rad_basis(c, b, d - e) if phis else []
            for values in [flat_values(res, c, e, phi) for phi in phis] if psis else ():
                for psi in psis:
                    vec = reference_compose_values(eq.calc, a, c, b, e, d - e, values, psi)
                    if vec:
                        out.append(vec)
    return out


def reference_arrows(eq, drop_free=None):
    """The quiver of `eq` (its stable part with `drop_free`) from every
    product of radical maps: arrows from a to b in degree d number
    rank(F + rad^2 + rad) - rank(F + rad^2), F the maps through frees,
    ranked in one echelon over the flat coordinates of Hom(a, b)_d."""
    keep = [(l, m) for l, m in eq.summands if not drop_free or l not in drop_free]
    mods = [m for _, m in keep]
    arrows = {}
    for la, a in keep:
        for lb, b in keep:
            total = 0
            for d in range(eq._d_floor(a, b), eq.degree_top + 1):
                rad = eq._rad_basis(a, b, d)
                if not rad:
                    continue
                res = eq.calc.resolution(a)
                gens = res.frees[0].gens
                ech = linalg.Echelon(eq.calc.char)
                for v in through_free_vectors(eq.calc, a, b, d) if drop_free else ():
                    ech.add(flat_hom(gens, b, d, flat_of_form(res, b, d, v)))
                for v in reference_rad_square(eq, a, b, d, mods):
                    ech.add(v)
                covered = ech.rank
                for v in rad:
                    ech.add(flat_hom(gens, b, d, flat_of(res, b, d, v)))
                total += ech.rank - covered
            if total:
                arrows[(la, lb)] = total
    return Quiver(tuple(l for l, _ in keep), arrows)


def _assert_matches_reference(eq, free_labels):
    assert eq.quiver == reference_arrows(eq)
    if free_labels:
        assert eq.stable_reduce(free_labels) == reference_arrows(eq, set(free_labels))


@pytest.mark.parametrize("char", [0, 10007])
@pytest.mark.parametrize("key,hi", [("k2_k3", 7), ("k3_w12", 8), ("k3_k3", 7)])
def test_early_stop_rad_square_matches_all_pairs_reference(key, hi, char):
    mods = [(f"M{s}" if s else "R", catalog.diagonal_module(key, s)) for s in (-1, 0, 1)]
    eq = EndoQuiver(HomCalculator(*catalog.RINGS[key], 0, hi, char=char), mods, degree_top=3)
    _assert_matches_reference(eq, ["R"])


@pytest.mark.parametrize("char", [0, 10007])
def test_early_stop_matches_reference_with_a_syzygy_vertex(char):
    calc = HomCalculator(A2, B3, 0, 8, char=char)
    omega = DiagonalModule(A2, B3, 1)
    syz2 = calc.resolution(omega, 3).syzygy(2)
    eq = EndoQuiver(
        calc, [("R", DiagonalModule(A2, B3, 0)), ("om", omega), ("syz2", syz2)], degree_top=3
    )
    _assert_matches_reference(eq, ["R"])


@pytest.mark.parametrize("char", [0, 10007])
@pytest.mark.parametrize("case", ["k3_w12", "k2_k3-syz2"])
def test_rad_square_builds_each_half_once_per_split(monkeypatch, case, char):
    """Within one `_rad_square` call, no φ's cover coordinates (keyed by
    its split (c, e)) and no ψ's generator split is built twice, each φ
    half lands where that call's products land, every product pairs the
    halves of a φ and a ψ of one split, and the quiver and its stable
    part keep their values (`test_quiver_path_reads_no_action_matrix`)."""
    real_rad_square = EndoQuiver._rad_square
    real = resolution.cover_coordinates, resolution.generator_split, resolution.compose_halves
    builds, totals, call = Counter(), Counter(), []
    made = {}  # id of a half built in this call -> (the half, its split or ψ)

    def rad_square(self, a, b, d, *args):
        builds.clear()
        made.clear()
        call[:] = [self.calc, a, b, d]
        real_rad_square(self, a, b, d, *args)
        assert max(builds.values(), default=0) <= 1, builds.most_common(1)
        totals.update(kind for kind, *_ in builds)

    def coords(calc, a, c, b, e, d, phi):
        assert [calc, a, b, d] == call
        builds[("phi", c, e, id(phi))] += 1
        out = real[0](calc, a, c, b, e, d, phi)
        made[id(out)] = (out, (c, e))
        return out

    def split(psi):
        builds[("psi", id(psi))] += 1
        out = real[1](psi)
        made[id(out)] = (out, psi)
        return out

    def halves(coords, images):
        calc, _, b, d = call
        (_, (c, e)), (_, psi) = made[id(coords)], made[id(images)]
        assert any(psi is other for other in calc.hom_basis(c, b, d - e))
        return real[2](coords, images)

    monkeypatch.setattr(EndoQuiver, "_rad_square", rad_square)
    monkeypatch.setattr(resolution, "cover_coordinates", coords)
    monkeypatch.setattr(resolution, "generator_split", split)
    monkeypatch.setattr(resolution, "compose_halves", halves)
    if case == "k3_w12":
        eq = cli._gorenstein_endo_quiver(case, 8, char)
        quiver, stable = cli._expected_endo_quivers()[case], {("M1", "M-1"): 1}
    else:
        calc = HomCalculator(A2, B3, 0, 8, char=char)
        omega = DiagonalModule(A2, B3, 1)
        syz2 = calc.resolution(omega, 3).syzygy(2)
        mods = [("R", DiagonalModule(A2, B3, 0)), ("om", omega), ("syz2", syz2)]
        eq = EndoQuiver(calc, mods, degree_top=3)
        quiver = {("R", "om"): 2, ("om", "syz2"): 3, ("syz2", "R"): 3}
        stable = {("om", "syz2"): 3}
    assert eq.quiver.arrows == quiver
    assert eq.stable_reduce(["R"]).arrows == stable
    assert totals["phi"] and totals["psi"]


@pytest.mark.parametrize("char", [0, 2])
def test_quiver_path_reads_no_action_matrix(monkeypatch, char):
    """The Gorenstein k3_w12 quiver and its stable part, the k2_k3 quiver
    with the syz² vertex and the stable End of ω, built with every action
    matrix and element matrix unavailable, equal their expected values."""

    def no_act(*args):
        raise AssertionError("an action matrix was read")

    for cls in (DiagonalModule, FreeModule, SyzygyModule):
        monkeypatch.setattr(cls, "act", no_act)
    monkeypatch.setattr(resolution, "_act_cached", no_act)
    monkeypatch.setattr(HomCalculator, "element_matrix", no_act)
    eq = cli._gorenstein_endo_quiver("k3_w12", 8, char)
    assert eq.quiver.arrows == cli._expected_endo_quivers()["k3_w12"]
    assert eq.stable_reduce(["R"]).arrows == {("M1", "M-1"): 1}
    a, b = catalog.ring_pair("k2_k3")
    calc = HomCalculator(a, b, 0, 8, char)
    omega = DiagonalModule(a, b, 1)
    syz2 = calc.resolution(omega, 3).syzygy(2)
    eq = EndoQuiver(
        calc, [("R", DiagonalModule(a, b, 0)), ("om", omega), ("syz2", syz2)], degree_top=3
    )
    assert eq.quiver.arrows == {("R", "om"): 2, ("om", "syz2"): 3, ("syz2", "R"): 3}
    assert catalog.stable_end_omega(calc) == {"0": 1, "1": 0, "2": 0, "3": 0}


small_weights = st.lists(st.integers(min_value=1, max_value=2), min_size=1, max_size=2)
shift_sets = st.lists(st.integers(min_value=-1, max_value=1), min_size=1, max_size=3, unique=True)


@settings(max_examples=40, deadline=None)
@given(
    small_weights,
    small_weights,
    shift_sets,
    st.integers(min_value=0, max_value=2),
    st.sampled_from([0, 10007]),
)
def test_early_stop_matches_reference_on_weighted_pairs(wa, wb, shifts, degree_top, char):
    specA = ring(tuple(f"x{i}" for i in range(len(wa))), tuple(wa))
    specB = ring(tuple(f"y{i}" for i in range(len(wb))), tuple(wb))
    mods = [(f"M{s}", DiagonalModule(specA, specB, s)) for s in sorted(shifts)]
    hi = max(m.generation_bound() for _, m in mods) + degree_top + 2
    try:
        eq = EndoQuiver(HomCalculator(specA, specB, 0, hi, char=char), mods, degree_top)
    except ValueError:
        assume(False)  # a vertex without scalar End_0
    # the free vertex M0 when there is one, else any vertex
    free = ["M0"] if 0 in shifts else [mods[0][0]]
    _assert_matches_reference(eq, free if len(mods) > 1 else [])


def _monomials(spec, d):
    """The monomials of degree d as exponent tuples; a None ring is the
    base field."""
    if spec is None:
        return ((),) if d == 0 else ()
    return monomials(spec, d) if d >= 0 else ()


def reference_p_segre_quiver(sideA, sideB, p, degree_top=6, drop_free=None):
    """`p_segre_quiver` from the full product set of every degree split,
    with no stop once hom is covered, on monomial pairs as exponent
    tuples."""
    verts = [(l, ra, rb) for l in range(p) for ra in sideA.residues for rb in sideB.residues]

    def label(v):
        l, ra, rb = v
        if len(verts) == p:
            return "R" if l == 0 else f"M{l}"
        return f"({l};{ra},{rb})"

    def comp(v, w, n):
        (l, ra, rb), (l2, ra2, rb2) = v, w
        da = sideA.component_degree(ra, ra2, n + l2 - l)
        db = sideB.component_degree(rb, rb2, n)
        if da < 0 or db < 0:
            return frozenset()
        return frozenset(
            itertools.product(_monomials(sideA.ring, da), _monomials(sideB.ring, db))
        )

    def rad_square(v, w, n, through):
        out = set()
        for c in through:
            for e1 in range(0, n + 1):
                e2 = n - e1
                if (c == v and e1 == 0) or (c == w and e2 == 0):
                    continue
                for x in comp(v, c, e1):
                    for y in comp(c, w, e2):
                        out.add((
                            tuple(i + j for i, j in zip(x[0], y[0])),
                            tuple(i + j for i, j in zip(x[1], y[1])),
                        ))
        return out

    drop = set(drop_free or ())
    keep = [v for v in verts if label(v) not in drop]
    arrows = {}
    for v in keep:
        for w in keep:
            total = 0
            for n in range(0, degree_top + 1):
                hom = comp(v, w, n)
                if not hom or (v == w and n == 0):
                    continue
                covered = rad_square(v, w, n, keep)
                covered |= rad_square(v, w, n, [u for u in verts if label(u) in drop])
                total += len(hom - covered)
            if total:
                arrows[(label(v), label(w))] = total
    return Quiver(tuple(label(v) for v in keep), arrows)


@st.composite
def veronese_sides(draw):
    if draw(st.booleans()):
        return TRIVIAL_SIDE if draw(st.booleans()) else VeroneseSideData(None)
    weights = draw(small_weights)
    order = draw(st.integers(min_value=1, max_value=2))
    residues = draw(
        st.lists(st.integers(min_value=0, max_value=order - 1), min_size=1, unique=True)
    )
    spec = ring(tuple(f"z{i}" for i in range(len(weights))), tuple(weights))
    return VeroneseSideData(spec, order, tuple(sorted(residues)))


@settings(max_examples=60, deadline=None)
@given(
    veronese_sides(),
    veronese_sides(),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=4),
    st.data(),
)
def test_p_segre_stop_matches_full_product_reference(side_a, side_b, p, degree_top, data):
    full = reference_p_segre_quiver(side_a, side_b, p, degree_top)
    assert p_segre_quiver(side_a, side_b, p, degree_top) == full
    drop = data.draw(st.lists(st.sampled_from(full.vertices), unique=True))
    assert p_segre_quiver(side_a, side_b, p, degree_top, drop_free=drop) == (
        reference_p_segre_quiver(side_a, side_b, p, degree_top, drop_free=drop)
    )


def test_p_segre_packing_reaches_the_last_digit():
    """One-variable sides of order 2 with residues (0, 1), p = 3 and
    degree_top = 6 read a component of degree 2 * (6 + 2) + 1 = 17 on
    side A, the largest that the packing base 18 holds: its monomial is
    digit 17.  Weights (1, 2) at degree_top = 2 read x^2 and y in degree
    2 = base - 1, where a base one smaller would give both the code 2."""
    one_t = VeroneseSideData(ring(("t",), (1,)), order=2, residues=(0, 1))
    one_s = VeroneseSideData(ring(("s",), (1,)), order=2, residues=(0, 1))
    cases = [(one_t, one_s, 3, 6), (VeroneseSideData(UV), TRIVIAL_SIDE, 1, 2)]
    for side_a, side_b, p, top in cases:
        full = p_segre_quiver(side_a, side_b, p, degree_top=top)
        assert full == reference_p_segre_quiver(side_a, side_b, p, degree_top=top)
        for drop in (full.vertices[:1], full.vertices[:1] + full.vertices[-1:]):
            assert p_segre_quiver(side_a, side_b, p, degree_top=top, drop_free=drop) == (
                reference_p_segre_quiver(side_a, side_b, p, degree_top=top, drop_free=drop)
            )
    assert p_segre_quiver(VeroneseSideData(UV), TRIVIAL_SIDE, 1, degree_top=2).arrows == {
        ("R", "R"): 2
    }


def test_p_segre_rejects_a_component_above_the_packing_base():
    # a negative residue makes a component degree order * n + 0 - (-1)
    # larger than the base allows for
    side = VeroneseSideData(ring(("t",), (1,)), order=1, residues=(-1, 0))
    with pytest.raises(AssertionError, match="do not fit base"):
        p_segre_quiver(side, TRIVIAL_SIDE, 1, degree_top=2)
