import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from segrecalc import linalg
from segrecalc.hilbert import ring
from segrecalc.gradedlin import catalog, resolution
from segrecalc.gradedlin.modules import (
    DiagonalModule,
    FreeModule,
    r_basis,
    semigroup_generators,
)
from segrecalc.gradedlin.resolution import (
    CertificationError,
    HomCalculator,
    ext_dims,
    free_resolution,
    generation_degrees,
    hom_segre_check,
    hom_space,
    minimal_generators,
    stable_hom_dims,
)

A2 = ring(("x0", "x1"), (1, 1))
B3 = ring(("y0", "y1", "y2"), (1, 1, 1))
XYZ = ring(("x", "y", "z"), (1, 1, 1))
UV = ring(("u", "v"), (1, 2))


def M(i, pair=(A2, B3)):
    return DiagonalModule(pair[0], pair[1], i)


def test_generation_degrees():
    assert generation_degrees(M(-1), 0, 4) == {1: 3}
    assert generation_degrees(M(0), 0, 4) == {0: 1}
    assert generation_degrees(M(2), 0, 4) == {0: 3}
    assert generation_degrees(M(-3), 0, 5) == {3: 10}
    # weighted second factor: extra generators appear above the bottom degree
    wm = DiagonalModule(XYZ, UV, -1)
    assert generation_degrees(wm, 0, 4) == {1: 1, 2: 3}


def test_generation_certification_error():
    with pytest.raises(CertificationError):
        generation_degrees(M(-3), 0, 2)  # bound above the window top


def test_generation_degrees_of_deep_syzygy():
    # the third syzygy of the canonical module has twelve generators in
    # degree 3; its twist by 3 is the degree-0-generated representative
    res = free_resolution(M(1), 3, 0, 6)
    assert generation_degrees(res.syzygy(3), 0, 6) == {3: 12}
    # the twisted summand M_2(-1) is concentrated in degrees >= 1 with a
    # three-dimensional bottom piece
    twisted = DiagonalModule(A2, B3, 2, twist=1)
    assert twisted.min_degree == 1 and twisted.dim(1) == 3
    assert generation_degrees(twisted, 0, 4) == {1: 3}


def test_free_resolution_betti():
    res = free_resolution(M(1), 4, 0, 7)
    assert res.betti_table() == [
        [0, 0],
        [1, 1, 1],
        [2] * 6,
        [3] * 12,
        [4] * 24,
    ]
    # first syzygy is the twisted diagonal module
    syz1 = res.syzygy(1)
    for j in range(0, 8):
        assert syz1.dim(j) == M(-1).dim(j)
    # second syzygy dims agree with the image in the second-factor
    # Koszul diagonal
    om2 = res.syzygy(2)
    assert [om2.dim(j) for j in range(0, 8)] == [0, 0, 6, 24, 60, 120, 210, 336]


def test_resolution_of_free_module():
    res = free_resolution(M(0), 2, 0, 5)
    assert res.betti_table()[0] == [0]
    assert res.betti_table()[1] == []


def test_ext_values():
    res = free_resolution(M(1), 5, 0, 8)
    om2, om3 = res.syzygy(2), res.syzygy(3)
    tab = ext_dims(om2, M(2), [1], range(-5, 3), 0, 8)
    assert {d: v for (i, d), v in tab.items() if v} == {-3: 1}
    tab = ext_dims(om2, M(3), [1], range(-5, 3), 0, 8)
    assert {d: v for (i, d), v in tab.items() if v} == {-3: 2}
    tab = ext_dims(M(1), M(0), [1, 2, 3], range(-4, 3), 0, 8, resolution=res)
    assert not any(tab.values())
    tab = ext_dims(om3, om3, [1], range(-2, 2), 0, 8)
    assert sum(tab.values()) > 0


def test_ext_depth_certification():
    res = free_resolution(M(1), 1, 0, 5)
    with pytest.raises(CertificationError):
        ext_dims(M(1), M(0), [2], [0], 0, 5, resolution=res)


def test_hom_identifications():
    # Hom(M_i, M_j) matches M_(j-i) degreewise for |i|, |j| <= 3
    for pair_key in ((A2, B3), (XYZ, UV)):
        for i in range(-3, 4):
            for j in range(-3, 4):
                Mi = DiagonalModule(pair_key[0], pair_key[1], i)
                Mj = DiagonalModule(pair_key[0], pair_key[1], j)
                assert hom_segre_check(Mi, Mj, range(0, 2), 0, 7), (pair_key, i, j)


def test_hom_space_free_source():
    hs = hom_space(M(0), M(1), 0, 0, 5)
    assert len(hs.basis) == M(1).dim(0)


def test_stable_end_omega():
    calc = HomCalculator(A2, B3, 0, 7)
    sh = stable_hom_dims(calc, M(1), M(1), range(0, 4))
    assert sh[0] == (1, 1)
    assert all(v[1] == 0 for d, v in sh.items() if d > 0)


def test_resolution_window_exactness():
    # cover maps are exact per degree: kernel dims match the alternating sums
    res = free_resolution(M(1), 2, 0, 6)
    om1 = res.syzygy(1)
    for j in range(0, 7):
        f0_dim = FreeModule(A2, B3, res.frees[0].gens).dim(j)
        assert f0_dim - om1.dim(j) == M(1).dim(j)


def test_syzygy_requires_window():
    res = free_resolution(M(1), 2, 0, 5)
    with pytest.raises(KeyError):
        res.syzygy(1).dim(9)


def all_pairs_image_echelon(module, ringA, ringB, j, lo):
    """Reference for resolution._image_echelon: the image of every
    monomial pair of every positive degree, not only the semigroup
    generators."""
    if lo > module.min_degree:
        raise CertificationError("window does not reach the bottom degree of the module")
    ech = linalg.Echelon()
    for p in range(1, j - module.min_degree + 1):
        vecs = resolution._work_vectors(module, j - p)
        for pair in r_basis(ringA, ringB, p):
            for w in vecs:
                ech.add(resolution._act_vector(module, pair, p, j - p, w))
    return ech


@pytest.mark.parametrize("key", sorted(catalog.RINGS))
def test_minimal_generators_match_all_pairs_reference(key, monkeypatch):
    hi = 5
    modules = [catalog.diagonal_module(key, i) for i in range(-3, 4)]
    # syzygies of M_1, the canonical module over k2_k3 (over the
    # Gorenstein pairs the canonical module is free)
    res = free_resolution(catalog.diagonal_module(key, 1), 3, 0, hi)
    modules += [res.syzygy(k) for k in (1, 2, 3)]
    fast = [minimal_generators(m, 0, hi) for m in modules]
    monkeypatch.setattr(resolution, "_image_echelon", all_pairs_image_echelon)
    assert fast == [minimal_generators(m, 0, hi) for m in modules]


def irreducible_pairs(specA, specB, top):
    """Reference enumeration of the irreducible monomial pairs of degree
    at most top, by divisibility against all lower irreducibles."""
    found = []
    for p in range(1, top + 1):
        for ma, mb in r_basis(specA, specB, p):
            if not any(
                all(x <= y for x, y in zip(ga, ma)) and all(x <= y for x, y in zip(gb, mb))
                for _, (ga, gb) in found
            ):
                found.append((p, (ma, mb)))
    return found


def test_semigroup_generators_of_bundled_pairs():
    counts = {key: len(semigroup_generators(*catalog.RINGS[key])) for key in catalog.RINGS}
    assert counts == {"k2_k3": 6, "k3_w12": 9, "k3_k3": 9}


weight_lists = st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=3)


@settings(max_examples=30, deadline=None)
@given(weight_lists, weight_lists)
def test_lambert_bound_leaves_no_generator_out(wa, wb):
    specA = ring(tuple(f"x{i}" for i in range(len(wa))), tuple(wa))
    specB = ring(tuple(f"y{i}" for i in range(len(wb))), tuple(wb))
    bound = max(wa) * max(wb)
    found = irreducible_pairs(specA, specB, 2 * bound + 2)
    assert max(p for p, _ in found) <= bound
    assert tuple(found) == semigroup_generators(specA, specB)


def test_ext_over_prime_field_with_syzygy_target():
    # the syzygy action has integral coordinates; over F_p it used to
    # reach Echelon._reduce as Fractions and crash
    res = free_resolution(catalog.diagonal_module("k2_k3", 1), 2, 0, 6)
    s2 = res.syzygy(2)
    assert ext_dims(s2, s2, [1], [0], 0, 6, char=101) == {(1, 0): 0}
    d_range = range(-3, 3)
    assert ext_dims(s2, s2, [1], d_range, 0, 6, char=101) == ext_dims(s2, s2, [1], d_range, 0, 6)


def test_hom_calculator_caches_repeat():
    calc = HomCalculator(A2, B3, 0, 6)
    omega = M(1)
    first = stable_hom_dims(calc, omega, omega, range(0, 3))
    entries = len(calc._hom)
    assert stable_hom_dims(calc, omega, omega, range(0, 3)) == first
    assert len(calc._hom) == entries
    # targets built and dropped one after another never share a key
    for i in range(-1, 4):
        assert len(calc.hom_basis(omega, M(i), 0)) == M(i - 1).dim(0)


def test_hom_calculator_keys_equal_modules_by_value():
    calc = HomCalculator(A2, B3, 0, 6)
    for _ in range(2):
        calc.hom_basis(M(1), M(1), 0)
    assert len(calc._res) == 1
    assert len(calc._hom) == 1


@pytest.mark.parametrize("key", sorted(catalog.RINGS))
def test_resolution_tails_match_fresh_resolutions(key):
    lo, hi = 0, 5
    calc = HomCalculator(*catalog.RINGS[key], lo, hi)
    res = calc.resolution(catalog.diagonal_module(key, 1), 5)
    for k in (1, 2, 3):
        syz = res.syzygy(k)
        tail = calc.resolution(syz, 2)
        assert tail.frees[0] is res.frees[k]  # served from the tail, not resolved
        fresh = free_resolution(syz, 2, lo, hi)
        assert tail.betti[:3] == fresh.betti
        assert tail.diffs[:2] == fresh.diffs
        assert {s: tail.cover_columns[s] for s in range(3)} == fresh.cover_columns
        assert [s.bases for s in tail.syzygies[:3]] == [s.bases for s in fresh.syzygies]
