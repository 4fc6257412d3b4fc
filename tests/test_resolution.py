import hashlib
import json
from collections import Counter
from functools import lru_cache
from itertools import product
from operator import itemgetter
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from segrecalc import cli, linalg
from segrecalc.hilbert import ring
from segrecalc.gradedlin import catalog, resolution, strands
from segrecalc.gradedlin.modules import DiagonalModule, FreeModule, SyzygyModule, r_basis, r_index
from segrecalc.gradedlin.poly import mono_mul
from segrecalc.gradedlin.resolution import (
    CertificationError,
    HomCalculator,
    Resolution,
    ext_dims,
    compose_hom,
    free_resolution,
    generation_degrees,
    hom_space,
    minimal_generators,
    stable_hom_dims,
)
from segrecalc.gradedlin.strands import kappa_masks

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
    # the bound of M_-3 is its bottom degree 3 plus wA * wB = 1
    with pytest.raises(CertificationError, match="window top 2 below the generation bound 4"):
        generation_degrees(M(-3), 0, 2)
    with pytest.raises(CertificationError, match="window does not reach the bottom degree"):
        minimal_generators(M(1), 1, 4)  # generated in degree 0, window from 1
    with pytest.raises(CertificationError, match="window does not reach the bottom degree"):
        free_resolution(M(1), 1, 1, 4)


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


# sha256 of json.dumps(to_json_dict(), sort_keys=True) of M_-1's resolution
# on (depth, lo, hi), each past the sizes the manifest resolves
SCALE_RESOLUTIONS = [
    ("k2_k3", 5, -4, 14, [3, 6, 12, 24, 48, 96],
     "a66655763199577889061af5a7020946de759bec1c49f9b13a4dde93b22f57b2"),
    ("k3_w12", 3, -4, 12, [4, 17, 81, 388],
     "824b152c4139e67018deafc6aa56ffeee713cd7d9d4fd34542e226b8b93f084b"),
]


@pytest.mark.parametrize(
    "pair, depth, lo, hi, betti, digest", SCALE_RESOLUTIONS, ids=[r[0] for r in SCALE_RESOLUTIONS]
)
def test_resolutions_past_the_manifest_keep_their_digests(pair, depth, lo, hi, betti, digest):
    """Byte identity of whole resolutions above the manifest's sizes: the
    generators, differentials and window of `to_json_dict`, with dict
    order fixed by sort_keys."""
    res = free_resolution(catalog.diagonal_module(pair, -1), depth, lo, hi)
    assert [len(F.gens) for F in res.frees] == betti
    text = json.dumps(res.to_json_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_resolution_of_free_module():
    res = free_resolution(M(0), 2, 0, 5)
    assert res.betti_table()[0] == [0]
    assert res.betti_table()[1] == []
    # a FreeModule resolves too, and is a hom source
    free = FreeModule(A2, B3, (0, 1, 1))
    res = free_resolution(free, 2, 0, 5)
    assert item_fields(res) == item_fields(reference_free_resolution(free, 2, 0, 5)[0])
    assert [F.gens for F in res.frees] == [(0, 1, 1), (), ()]
    calc = HomCalculator(A2, B3, 0, 5)
    basis = calc.hom_basis(free, M(1), 1)
    assert len(basis) == M(1).dim(1) + 2 * M(1).dim(2)
    _assert_hom_space_matches_reference(calc.resolution(free), M(1), 1, 0, basis)


def test_ext_values():
    calc = HomCalculator(A2, B3, 0, 8)
    res = calc.resolution(M(1), 5)
    om2, om3 = res.syzygy(2), res.syzygy(3)
    tab = calc.ext_dims(om2, M(2), [1], range(-5, 3))
    assert {d: v for (i, d), v in tab.items() if v} == {-3: 1}
    tab = calc.ext_dims(om2, M(3), [1], range(-5, 3))
    assert {d: v for (i, d), v in tab.items() if v} == {-3: 2}
    tab = calc.ext_dims(M(1), M(0), [1, 2, 3], range(-4, 3))
    assert not any(tab.values())
    tab = calc.ext_dims(om3, om3, [1], range(-2, 2))
    assert sum(tab.values()) > 0


def test_ext_depth_certification():
    calc = HomCalculator(A2, B3, 0, 5)
    res = calc.resolution(M(1), 1)
    with pytest.raises(CertificationError):
        ext_dims(res, M(0), [2], [0], calc.char)
    # hom_space reads F_1, which a depth-0 resolution does not have
    with pytest.raises(CertificationError, match="resolution not deep enough"):
        hom_space(free_resolution(M(1), 0, 0, 6), M(1), 0, 0)


def test_empty_ext_range_is_empty_and_resolves_nothing():
    calc = HomCalculator(A2, B3, 0, 5)
    assert calc.ext_dims(M(1), M(0), [], range(-2, 2)) == {}
    assert calc._res == {}
    assert ext_dims(free_resolution(M(1), 0, 0, 5), M(0), [], range(-2, 2), 0) == {}


def hom_segre_check(calc, Mi, Mj, d_values) -> bool:
    """Check dim Hom(M_i, M_j)_d == dim (M_(j-i))_d degreewise."""
    target = DiagonalModule(Mi.ringA, Mi.ringB, Mj.shift - Mi.shift)
    dims = calc.ext_dims(Mi, Mj, [0], d_values)
    return all(dims[(0, d)] == target.dim(d) for d in d_values)


def test_hom_identifications():
    # Hom(M_i, M_j) matches M_(j-i) degreewise for |i|, |j| <= 3
    for pair_key in ((A2, B3), (XYZ, UV)):
        calc = HomCalculator(pair_key[0], pair_key[1], 0, 7)
        for i in range(-3, 4):
            for j in range(-3, 4):
                Mi = DiagonalModule(pair_key[0], pair_key[1], i)
                Mj = DiagonalModule(pair_key[0], pair_key[1], j)
                assert hom_segre_check(calc, Mi, Mj, range(0, 2)), (pair_key, i, j)


def test_hom_space_free_source():
    calc = HomCalculator(A2, B3, 0, 5)
    assert len(calc.hom_basis(M(0), M(1), 0)) == M(1).dim(0)


def test_stable_end_omega():
    calc = HomCalculator(A2, B3, 0, 7)
    sh = stable_hom_dims(calc, M(1), M(1), range(0, 4))
    assert sh[0] == (1, 1)
    assert all(v[1] == 0 for d, v in sh.items() if d > 0)


def test_stable_end_omega_over_prime_field_matches_rationals():
    k2_k3 = catalog.ring_pair("k2_k3")
    rational = catalog.stable_end_omega(HomCalculator(*k2_k3, 0, 8))
    for p in (101, 32003):
        assert catalog.stable_end_omega(HomCalculator(*k2_k3, 0, 8, char=p)) == rational


def test_resolution_window_exactness():
    # cover maps are exact per degree: kernel dims match the alternating sums
    res = free_resolution(M(1), 2, 0, 6)
    om1 = res.syzygy(1)
    for j in range(0, 7):
        f0_dim = FreeModule(A2, B3, res.frees[0].gens).dim(j)
        assert f0_dim - om1.dim(j) == M(1).dim(j)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=2), min_size=2, max_size=3),
    st.lists(st.integers(min_value=1, max_value=2), min_size=2, max_size=3),
    st.sampled_from([-2, -1, 1, 2, 3]),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=3),
)
@example([1, 1], [1, 1, 1], -1, 3, 3)  # k2_k3
@example([1, 1, 1], [1, 2], 2, 3, 3)  # k3_w12
@example([1, 1, 1], [1, 1, 1], 3, 3, 3)  # k3_k3
def test_resolution_satisfies_the_euler_identity_in_low_degrees(wa, wb, shift, depth, extra):
    """Σ_i (-1)^i dim(F_i)_j = dim M_j for j <= t_0 + depth inside the
    window, t_0 the lowest generator degree: each differential raises
    the lowest generator degree by at least one, so no F_i beyond the
    depth reaches these degrees."""
    specA = ring(tuple(f"x{i}" for i in range(len(wa))), tuple(wa))
    specB = ring(tuple(f"y{i}" for i in range(len(wb))), tuple(wb))
    module = DiagonalModule(specA, specB, shift)
    hi = module.generation_bound() + extra
    res = free_resolution(module, depth, 0, hi)
    t0 = min(res.frees[0].gens, default=0)  # a module zero on the window has no generators
    for j in range(min(t0 + depth, hi) + 1):
        euler = sum((-1) ** i * F.dim(j) for i, F in enumerate(res.frees))
        assert euler == module.dim(j), (j, [F.dim(j) for F in res.frees])


def test_syzygy_requires_window():
    res = free_resolution(M(1), 2, 0, 5)
    with pytest.raises(CertificationError, match="not computed in degree 9"):
        res.syzygy(1).dim(9)


class FlatSyzygy:
    """A syzygy module as the references compute it: `bases[j]` lists
    vectors over the flat coordinates of the ambient free module."""

    def __init__(self, ambient: FreeModule, bases: dict):
        self.ambient = ambient
        self.ringA, self.ringB = ambient.ringA, ambient.ringB
        self.bases = bases
        degs = [j for j, b in bases.items() if b]
        self.min_degree = min(degs) if degs else 0


def flat_basis(syz, j):
    """The degree-j basis of a fine-form syzygy module in the flat
    coordinates of its ambient free module, entry order kept: (generator
    g, pair u) is the coordinate offsets(j)[g] + the index of u in
    R_(j - deg g), and the basis vector (κ, s) has the entry s[g] at
    (g, κ / f(g))."""
    amb = syz.ambient
    offs = amb.offsets(j)
    return [
        {
            offs[g]
            + r_index(amb.ringA, amb.ringB, j - amb.gens[g])[resolution._pair_sub(kappa, syz.fine[g])]: c
            for g, c in scalar.items()
        }
        for kappa, scalar in syz.fine_basis(j)
    ]


def flat_bases(syz):
    """Degree -> flat basis of a syzygy module of either kind."""
    if isinstance(syz, FlatSyzygy):
        return syz.bases
    return {j: flat_basis(syz, j) for j in syz.bases}


def work_vectors(module, j):
    """Basis of the degree-j piece in the coordinates the references
    eliminate in: its own for a diagonal module, the ambient free
    module's for a syzygy."""
    if isinstance(module, FlatSyzygy):
        return module.bases.get(j, [])
    if isinstance(module, SyzygyModule):
        return flat_basis(module, j)
    return [{i: 1} for i in range(module.dim(j))]


@lru_cache(maxsize=None)
def act_matrix(module, pair, p, j):
    return module.act(pair, p, j)


def act_vector(module, pair, p, j, vec):
    """A vector of work coordinates times a monomial pair of degree p."""
    if isinstance(module, (SyzygyModule, FlatSyzygy)):
        module = module.ambient
    return linalg.apply_columns(act_matrix(module, pair, p, j), vec)


def expand_in_work(module, j, unitvec):
    vecs = work_vectors(module, j)
    out = {}
    for i, c in unitvec.items():
        for k, v in vecs[i].items():
            z = out.get(k, 0) + c * v
            if z:
                out[k] = z
            elif k in out:
                del out[k]
    return out


def split_flat(free, j, flat):
    """(generator index, pair) of a flat coordinate of free in degree j."""
    offs = free.offsets(j)
    for gi in range(len(free.gens)):
        if flat < offs[gi + 1]:
            return gi, r_basis(free.ringA, free.ringB, j - free.gens[gi])[flat - offs[gi]]
    raise IndexError("flat coordinate out of range")


def all_pairs_image_echelon(module, ringA, ringB, j, lo):
    """The image of every monomial pair of every positive degree inside
    degree j."""
    if lo > module.min_degree:
        raise CertificationError("window does not reach the bottom degree of the module")
    ech = linalg.Echelon()
    for p in range(1, j - module.min_degree + 1):
        vecs = work_vectors(module, j - p)
        for pair in r_basis(ringA, ringB, p):
            for w in vecs:
                ech.add(act_vector(module, pair, p, j - p, w))
    return ech


def reference_minimal_generators(module, lo, hi):
    """Two-pass reference, first pass: a basis vector is a generator when
    it enlarges the all-pairs image echelon of its degree."""
    bound = getattr(module, "generation_bound", lambda: None)()
    if bound is not None and bound > hi:
        raise CertificationError(
            f"window top {hi} below the generation bound {bound} of the module"
        )
    ringA, ringB = resolution.rings_of(module)
    gens = []
    for j in range(max(lo, module.min_degree), hi + 1):
        ech = all_pairs_image_echelon(module, ringA, ringB, j, lo)
        for i, w in enumerate(work_vectors(module, j)):
            if ech.add(w):
                gens.append((j, {i: 1}))
    return gens


def reference_free_resolution(module, depth, lo, hi):
    """Two-pass reference resolution: the generators of each step from
    `reference_minimal_generators`, then the cover columns in flat order
    and their kernel by `linalg.kernel_of`, one global elimination per
    degree, with no fine degrees; its syzygies are `FlatSyzygy`s.
    Returns the resolution and the cover columns, step -> degree ->
    columns."""
    ringA, ringB = resolution.rings_of(module)
    cur = module
    res = Resolution(module, lo, hi, [], [], [])
    covers = {}
    for step in range(depth + 1):
        gens = reference_minimal_generators(cur, lo, hi)
        free = FreeModule(ringA, ringB, tuple(g for g, _ in gens))
        if step >= 1:
            entries = {}
            for col, (dg, unitvec) in enumerate(gens):
                vec = expand_in_work(cur, dg, unitvec)
                for flat, coeff in vec.items():
                    g_idx, pair = split_flat(res.frees[-1], dg, flat)
                    poly = entries.setdefault((g_idx, col), {})
                    poly[pair] = poly.get(pair, 0) + coeff
            res.diffs.append(entries)
        res.frees.append(free)
        res.generators.append(gens)
        bases, cover = {}, {}
        for j in range(lo, hi + 1):
            cols = []
            for dg, unitvec in gens:
                if j < dg:
                    continue
                base = expand_in_work(cur, dg, unitvec)
                for pair in r_basis(ringA, ringB, j - dg):
                    if j == dg:
                        cols.append(dict(base))
                    else:
                        cols.append(act_vector(cur, pair, j - dg, dg, base))
            cover[j] = cols
            bases[j] = linalg.kernel_of(cols) if cols else []
        covers[step] = cover
        cur = FlatSyzygy(free, bases)
        res.syzygies.append(cur)
    return res, covers


def resolution_fields(res):
    return (
        [F.gens for F in res.frees],
        res.diffs,
        res.generators,
        [flat_bases(s) for s in res.syzygies],
        [s.min_degree for s in res.syzygies],
    )


@pytest.mark.parametrize("key", sorted(catalog.RINGS))
def test_minimal_generators_match_all_pairs_reference(key):
    hi = 5
    modules = [catalog.diagonal_module(key, i) for i in range(-3, 4)]
    # syzygies of M_1, the canonical module over k2_k3 (over the
    # Gorenstein pairs the canonical module is free)
    res = free_resolution(catalog.diagonal_module(key, 1), 3, 0, hi)
    modules += [res.syzygy(k) for k in (1, 2, 3)]
    fast = [minimal_generators(m, 0, hi) for m in modules]
    assert fast == [reference_minimal_generators(m, 0, hi) for m in modules]


def _outcome(fn, *args):
    """The value of fn(*args), or the message of its CertificationError."""
    try:
        return fn(*args)
    except CertificationError as exc:
        return ("CertificationError", str(exc))


small_weights = st.lists(st.integers(min_value=1, max_value=2), min_size=1, max_size=2)


weight_lists = st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=3)


@settings(max_examples=50, deadline=None)
@given(
    weight_lists,
    weight_lists,
    st.integers(min_value=-2, max_value=2),
    st.integers(min_value=0, max_value=1),
    st.integers(min_value=-1, max_value=1),
)
def test_fused_cover_step_matches_two_pass_reference(wa, wb, shift, lo, extra):
    specA = ring(tuple(f"x{i}" for i in range(len(wa))), tuple(wa))
    specB = ring(tuple(f"y{i}" for i in range(len(wb))), tuple(wb))
    module = DiagonalModule(specA, specB, shift)
    # the window ends next to the generation bound: one below it must
    # raise, at or above it the module resolves unless lo misses its
    # bottom degree
    hi = module.generation_bound() + extra
    assert _outcome(minimal_generators, module, lo, hi) == _outcome(
        reference_minimal_generators, module, lo, hi
    )
    fused = _outcome(free_resolution, module, 2, lo, hi)
    ref = _outcome(lambda: reference_free_resolution(module, 2, lo, hi)[0])
    if isinstance(ref, Resolution):
        assert isinstance(fused, Resolution)
        assert resolution_fields(fused) == resolution_fields(ref)
        # the syzygies as modules in their own right
        for syz in fused.syzygies:
            assert _outcome(minimal_generators, syz, lo, hi) == _outcome(
                reference_minimal_generators, syz, lo, hi
            )
    else:
        assert fused == ref


def reference_cover_degree(module, j, gens):
    """`resolution._cover_degree` one fine degree at a time: the block at
    each κ of M_j, its columns the generators in masks_A[κ_A] &
    masks_B[κ_B] and its tests the basis vectors at κ.  Returns the new
    generators, (dg, f(s), scalar form) per generator, and per κ the
    tuple (κ, column generators, test basis indices, block)."""
    specA, specB = resolution.rings_of(module)
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
    seen, parts, new, covered = {}, [], [], 0
    for kappa, idx in tests.items():
        mask = masks_a.get(kappa[0], 0) & masks_b.get(kappa[1], 0)
        key = (mask, tuple(tuple(basis[i][1].items()) for i in idx))
        hit = seen.get(key)
        if hit is None:
            cols = [s for s in range(mask.bit_length()) if mask >> s & 1]
            block = resolution._Block([gen_data[s][2] for s in cols], [basis[i][1] for i in idx])
            hit = seen[key] = cols, block
        cols, block = hit
        covered += len(cols)
        parts.append((kappa, cols, idx, block))
        new += [idx[q] for q in block.new]
    if covered != sum(len(r_basis(specA, specB, j - dg)) for dg, _, _ in gen_data):
        raise AssertionError(f"fine-degree blocks miss cover columns in degree {j}")
    return [(j, {i: 1}) for i in sorted(new)], gen_data, parts


def reference_kernel_bases(module, lo, hi):
    """The kernel bases of `_cover_step` on [lo, hi], every degree
    assembled as soon as its blocks are eliminated: each tracked
    dependency as (κ, {generator: coefficient}), sorted by its dependent
    cover column u * s, by s and then by the position of u = κ / f(s) in
    R_(j - deg s)."""
    specA, specB = resolution.rings_of(module)
    gens, bases = [], {}
    for j in range(lo, hi + 1):
        new, gen_data, parts = reference_cover_degree(module, j, gens)
        kernel = []
        for kappa, cols, _, block in parts:
            for dep, vec in block.kernel:
                s = cols[dep]
                dg, f, _ = gen_data[s]
                pos = r_index(specA, specB, j - dg)[resolution._pair_sub(kappa, f)]
                kernel.append(((s, pos), (kappa, {cols[q]: c for q, c in vec.items()})))
        kernel.sort(key=itemgetter(0))
        bases[j] = [vec for _, vec in kernel]
        gens += new
    return bases


def unassembled(bases) -> set:
    """The degrees of a cover step's kernel bases not assembled yet; none
    for a syzygy given as a plain dict."""
    return {j for j, basis in getattr(bases, "_built", {}).items() if basis is None}


def basis_items(bases):
    """Degree -> basis as item lists, so that the order of the vectors
    and of each scalar form counts."""
    return [(j, [(kappa, list(s.items())) for kappa, s in b]) for j, b in bases.items()]


@settings(max_examples=25, deadline=None)
@given(
    weight_lists,
    weight_lists,
    st.integers(min_value=-2, max_value=2),
    st.integers(min_value=0, max_value=1),
    st.integers(min_value=-1, max_value=1),
)
# windows above the draws' range, so that the last syzygy is not empty
@example([1, 1], [1, 1, 1], 1, 0, 3)  # k2_k3's canonical module
@example([1, 2], [1, 3], 1, 0, 2)  # has blocks whose column order matters
@example([1, 1, 1], [1, 2], -1, 0, 2)  # k3_w12's M_-1
def test_lazy_kernel_bases_match_eager_assembly(wa, wb, shift, lo, extra):
    specA = ring(tuple(f"x{i}" for i in range(len(wa))), tuple(wa))
    specB = ring(tuple(f"y{i}" for i in range(len(wb))), tuple(wb))
    module = DiagonalModule(specA, specB, shift)
    hi = module.generation_bound() + extra
    built = Counter()
    assemble = resolution._KernelBases._assemble

    def spy(bases, j, *args):
        built[id(bases), j] += 1
        return assemble(bases, j, *args)

    with mock.patch.object(resolution._KernelBases, "_assemble", spy):
        res = _outcome(free_resolution, module, 2, lo, hi)
        if not isinstance(res, Resolution):
            return  # test_fused_cover_step_matches_two_pass_reference compares the errors
        # the last syzygy is not covered by the resolution, so nothing read it
        assert unassembled(res.syzygies[-1].bases) == set(res.syzygies[-1].bases)
        for prev, syz in zip([module] + res.syzygies, res.syzygies):
            ref = reference_kernel_bases(prev, lo, hi)
            bounds = syz.min_degree, syz.max_degree
            assert bounds == (min([j for j, b in ref.items() if b], default=0), max(ref))
            assert [syz.dim(j) for j in ref] == [len(b) for b in ref.values()]
            assert basis_items({j: syz.fine_basis(j) for j in ref}) == basis_items(ref)
            assert basis_items(syz.bases) == basis_items(ref)
            forced = SyzygyModule(syz.ambient, dict(syz.bases), syz.label, syz.fine)
            assert (forced.min_degree, forced.max_degree) == bounds
            assert [forced.dim(j) for j in ref] == [syz.dim(j) for j in ref]
            assert basis_items({j: forced.fine_basis(j) for j in ref}) == basis_items(ref)
    # every degree is built exactly once, though the references, fine_basis
    # and the forced copy read each of them again
    assert sorted(built) == sorted((id(syz.bases), j) for syz in res.syzygies for j in syz.bases)
    assert set(built.values()) == {1}


def test_unread_kernel_bases_are_never_assembled(monkeypatch):
    assembled = []
    assemble = resolution._KernelBases._assemble

    def spy(bases, j, *args):
        assembled.append((id(bases), j))
        return assemble(bases, j, *args)

    monkeypatch.setattr(resolution._KernelBases, "_assemble", spy)
    eq = cli._gorenstein_endo_quiver("k3_w12", 8)
    assert eq.quiver.arrows
    resolutions = list(eq.calc._res.values())
    # the first syzygies are read by the next cover step, each degree once
    assert resolutions and assembled and len(set(assembled)) == len(assembled)
    last = {id(res.syzygies[-1].bases) for res in resolutions}
    assert [j for bases, j in assembled if bases in last] == []
    assembled.clear()
    assert minimal_generators(catalog.diagonal_module("k3_w12", 1), 0, 8)
    assert assembled == []


def test_first_syzygies_are_assembled_only_where_they_gain_generators(monkeypatch):
    assembled = []
    assemble = resolution._KernelBases._assemble

    def spy(bases, j, *args):
        assembled.append((id(bases), j))
        return assemble(bases, j, *args)

    monkeypatch.setattr(resolution._KernelBases, "_assemble", spy)
    eq = cli._gorenstein_endo_quiver("k3_w12", 8)
    assert eq.quiver.arrows
    # the next cover step reads a pending degree as rectangles, and
    # assembles it only to index the generators it finds there
    firsts = {id(res.syzygies[0].bases): res for res in eq.calc._res.values()}
    assert any(res.generators[1] for res in firsts.values())
    for key, res in firsts.items():
        degrees = sorted(j for bases, j in assembled if bases == key)
        assert degrees == sorted({j for j, _ in res.generators[1]})


def test_cover_step_takes_one_block_per_distinct_mask_and_tests(monkeypatch):
    built = []

    class CountingBlock(resolution._Block):
        def __init__(self, cols, tests):
            built.append(self)
            super().__init__(cols, tests)

    monkeypatch.setattr(resolution, "_Block", CountingBlock)
    omega = catalog.diagonal_module("k2_k3", 1)
    res = free_resolution(omega, 2, 0, 8)
    for module in [omega] + res.syzygies[:-1]:
        built.clear()
        _, bases = resolution._cover_step(module, 0, 8)
        per_degree = [
            {(tuple(cols), tuple(tuple(t.items()) for t in tests)) for _, _, cols, tests, _ in parts}
            for _, _, parts, _ in bases.covers.values()
        ]
        # one elimination per distinct (mask, tests) of the step, and every
        # block the step keeps is one of them
        assert len(built) == len(set().union(*per_degree))
        kept = {id(block) for _, _, parts, _ in bases.covers.values() for *_, block in parts}
        assert kept == set(map(id, built))
        # blocks recur across degrees, so one memo per degree took more
        assert len(built) < sum(map(len, per_degree))


def item_fields(res):
    """`resolution_fields` with every dict as its item list, so that dict
    order counts too."""
    return (
        [F.gens for F in res.frees],
        [[(k, list(poly.items())) for k, poly in e.items()] for e in res.diffs],
        res.generators,
        [[(j, [list(v.items()) for v in b]) for j, b in flat_bases(s).items()] for s in res.syzygies],
        [s.min_degree for s in res.syzygies],
    )


@settings(max_examples=40, deadline=None)
@given(
    weight_lists,
    weight_lists,
    st.integers(min_value=-2, max_value=2),
    st.integers(min_value=-1, max_value=1),
)
@example([1, 2], [1, 3], 1, 0)  # has blocks whose column order matters
def test_block_resolution_matches_global_reference_at_depth_three(wa, wb, shift, extra):
    specA = ring(tuple(f"x{i}" for i in range(len(wa))), tuple(wa))
    specB = ring(tuple(f"y{i}" for i in range(len(wb))), tuple(wb))
    module = DiagonalModule(specA, specB, shift)
    hi = module.generation_bound() + extra
    fast = _outcome(free_resolution, module, 3, 0, hi)
    ref = _outcome(lambda: reference_free_resolution(module, 3, 0, hi)[0])
    if isinstance(ref, Resolution):
        assert item_fields(fast) == item_fields(ref)
        assert fast.frees == ref.frees
    else:
        assert fast == ref


def reference_block_resolution(module, depth, lo, hi):
    """`free_resolution` with every cover degree taken one fine degree at
    a time (`reference_cover_degree`) and every syzygy assembled at once
    (`reference_kernel_bases`), as a SyzygyModule over a plain dict."""
    ringA, ringB = resolution.rings_of(module)
    cur = module
    res = Resolution(module, lo, hi, [], [], [])
    for step in range(depth + 1):
        gens = []
        for j in range(lo, hi + 1):
            gens += reference_cover_degree(cur, j, gens)[0]
        free = FreeModule(ringA, ringB, tuple(g for g, _ in gens))
        res.frees.append(free)
        res.generators.append(gens)
        fine, entries = [], {}
        for col, (dg, (i,)) in enumerate(gens):
            kappa, scalar = cur.fine_basis(dg)[i]
            fine.append(kappa)
            for g, c in scalar.items() if step else ():
                entries[(g, col)] = {resolution._pair_sub(kappa, cur.fine[g]): c}
        if step:
            res.diffs.append(entries)
        cur = SyzygyModule(free, reference_kernel_bases(cur, lo, hi), f"syz^{step + 1}", tuple(fine))
        res.syzygies.append(cur)
    return res


def reference_block_section(module, gens, t):
    """`HomCalculator.section` of the cover by `gens` in degree t, read
    off `reference_cover_degree` one fine degree at a time."""
    before = [g for g in gens if g[0] < t]
    new, gen_data, parts = reference_cover_degree(module, t, before)
    index = {i: len(before) + r for r, (_, (i,)) in enumerate(new)}
    sections = [None] * module.dim(t)
    for kappa, cols, tests, block in parts:
        keys = [(s, resolution._pair_sub(kappa, gen_data[s][1])) for s in cols]
        keys += [(index[tests[q]], resolution._pair_sub(kappa, kappa)) for q in block.new]
        for q, coords in enumerate(block.coords):
            sections[tests[q]] = {keys[p]: c for p, c in coords.items()}
    return sections


resolving_weights = st.lists(st.integers(min_value=1, max_value=2), min_size=2, max_size=3)


@settings(max_examples=25, deadline=None)
@given(
    resolving_weights,
    resolving_weights,
    st.sampled_from([-2, -1, 1, 2]),
    st.integers(min_value=2, max_value=3),
)
def test_rectangle_cover_matches_per_kappa_reference(wa, wb, shift, extra):
    # windows two or three above the generation bound, so that every
    # draw resolves and its syzygies are rarely empty
    specA = ring(tuple(f"x{i}" for i in range(len(wa))), tuple(wa))
    specB = ring(tuple(f"y{i}" for i in range(len(wb))), tuple(wb))
    module = DiagonalModule(specA, specB, shift)
    hi = module.generation_bound() + extra
    calc = HomCalculator(specA, specB, 0, hi)
    res = calc.resolution(module, 2)
    syz1 = res.syzygy(1)
    # sections first, while the degrees of syz1 without generators are
    # still pending rectangles
    raw = [(N, t, calc.section(N, t)) for N in (module, syz1) for t in range(hi + 1)]
    ref = reference_block_resolution(module, 2, 0, hi)
    assert item_fields(res) == item_fields(ref)
    for prev, syz in zip([module] + res.syzygies, res.syzygies):
        assert basis_items(syz.bases) == basis_items(reference_kernel_bases(prev, 0, hi))
    sections = [typed(flat_section(calc, N, t, sec)) for N, t, sec in raw]
    assert sections == [
        typed(reference_block_section(N, gens, t))
        for N, gens in ((module, ref.generators[0]), (syz1, ref.generators[1]))
        for t in range(hi + 1)
    ]


def step_blocks(res) -> list[set]:
    """The fine-degree blocks of each cover step of res, found by
    comparing fine degrees directly: per step, the distinct (column
    generators, tests) over its degrees and fine degrees."""
    out = []
    for step, mod in enumerate([res.module] + res.syzygies[:-1]):
        keys = set()
        for j in range(res.lo, res.hi + 1):
            basis = mod.fine_basis(j)
            gens = [
                (s, mod.fine_basis(dg)[i][0])
                for s, (dg, (i,)) in enumerate(res.generators[step])
                if dg < j
            ]
            for kappa in dict.fromkeys(k for k, _ in basis):
                cols = tuple(
                    s for s, f in gens if all(x <= y for x, y in zip(f[0] + f[1], kappa[0] + kappa[1]))
                )
                keys.add((cols, tuple(tuple(sc.items()) for k, sc in basis if k == kappa)))
        out.append(keys)
    return out


def test_free_resolution_builds_one_echelon_per_step_and_degree(monkeypatch):
    # one Echelon per distinct fine-degree block of each cover step, fewer
    # than the fine degrees of a single degree at depth 3
    built = []

    class CountingEchelon(linalg.Echelon):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(linalg, "Echelon", CountingEchelon)
    res = free_resolution(catalog.diagonal_module("k2_k3", 1), 3, 0, 8)
    monkeypatch.undo()
    assert 0 < len(built) == sum(map(len, step_blocks(res)))
    largest_degree = max(
        len({k for k, _ in mod.fine_basis(j)})
        for mod in [res.module] + res.syzygies[:-1]
        for j in range(res.lo, res.hi + 1)
    )
    assert len(built) < largest_degree


def test_syzygy_action_without_a_target_fine_degree_raises():
    res = free_resolution(M(1), 1, 0, 4)
    syz = res.syzygy(1)
    j = syz.min_degree
    pair = r_basis(A2, B3, 1)[0]
    (ka, kb), _ = syz.fine_basis(j)[0]
    target = (mono_mul(ka, pair[0]), mono_mul(kb, pair[1]))
    assert syz.act(pair, 1, j)
    # drop the basis vectors at the fine degree the first one is mapped to
    bases = dict(syz.bases)
    bases[j + 1] = [v for v in bases[j + 1] if v[0] != target]
    assert len(bases[j + 1]) < syz.dim(j + 1)
    dropped = SyzygyModule(syz.ambient, bases, "dropped", syz.fine)
    with pytest.raises(AssertionError, match="action leaves the kernel subspace"):
        dropped.act(pair, 1, j)
    # a repeated basis vector makes the scalar forms at its fine degree dependent
    bases[j + 1] = syz.bases[j + 1] + [v for v in syz.bases[j + 1] if v[0] == target]
    repeated = SyzygyModule(syz.ambient, bases, "repeated", syz.fine)
    with pytest.raises(AssertionError, match="are dependent"):
        repeated.act(pair, 1, j)


def test_blocks_that_miss_a_cover_column_raise():
    class Dropping(DiagonalModule):
        def fine_basis(self, j):
            # hides the last basis vector of degree 2 from the blocks
            out = super().fine_basis(j)
            return out[:-1] if j == 2 else out

    with pytest.raises(AssertionError, match="miss cover columns in degree 2"):
        minimal_generators(Dropping(A2, B3, 1), 0, 4)


def test_rectangles_that_miss_a_cover_column_raise():
    syz = free_resolution(M(1), 0, 0, 4).syzygy(1)
    # drop one κ_B from a rectangle with a kernel in degree 3, which the
    # generators of degree 1 cover, in the stored cover step before the
    # degree is read
    parts = syz.bases.covers[3][2]
    k = next(k for k, (*_, block) in enumerate(parts) if block.kernel)
    sa, sb, *rest = parts[k]
    parts[k] = (sa, sb[:-1], *rest)
    with pytest.raises(AssertionError, match="miss cover columns in degree 3"):
        minimal_generators(syz, 0, 4)


def test_syzygy_action_above_the_window_is_uncertified():
    calc = HomCalculator(A2, B3, 0, 6)
    R = M(0)
    syz2 = calc.resolution(M(1), 3).syzygy(2)
    phi = calc.hom_basis(R, syz2, 2)[0]
    for t in (3, 4):
        assert calc.element_matrix(R, syz2, 2, phi, t)
    with pytest.raises(CertificationError, match="not computed in degree 7"):
        calc.element_matrix(R, syz2, 2, phi, 5)


def slow_act(syz, pair, p, j):
    """The action as the flat form gave it: multiply the flat basis
    vectors in the ambient module, then solve over the whole flat basis
    of the target degree."""
    src = flat_basis(syz, j)
    if not src:
        return []
    amb_cols = syz.ambient.act(pair, p, j)
    solver = linalg.CoordSolver(flat_basis(syz, j + p))
    cols = []
    for vec in src:
        sol = solver.solve(linalg.apply_columns(amb_cols, vec))
        assert sol is not None
        cols.append({i: v for i, v in enumerate(sol) if v})
    return cols


@settings(max_examples=25, deadline=None)
@given(
    weight_lists,
    small_weights,
    st.integers(min_value=-2, max_value=2),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=2),
)
@example([1, 1], [1, 1, 1], 1, 3, 3)  # k2_k3's canonical module: every action nonzero
def test_syzygy_action_matches_flat_reference(wa, wb, shift, depth, extra):
    specA = ring(tuple(f"x{i}" for i in range(len(wa))), tuple(wa))
    specB = ring(tuple(f"y{i}" for i in range(len(wb))), tuple(wb))
    module = DiagonalModule(specA, specB, shift)
    hi = module.generation_bound() + extra
    for syz in free_resolution(module, depth, 0, hi).syzygies:
        for j in range(syz.min_degree, hi + 1):
            for p in range(hi - j + 1):
                for pair in r_basis(specA, specB, p):
                    assert typed(syz.act(pair, p, j)) == typed(slow_act(syz, pair, p, j))


def test_ext_over_prime_field_with_syzygy_target():
    # the syzygy action has integral coordinates; over F_p it used to
    # reach Echelon._reduce as Fractions and crash
    calc = HomCalculator(*catalog.ring_pair("k2_k3"), 0, 6, char=101)
    rational = HomCalculator(*catalog.ring_pair("k2_k3"), 0, 6)
    s2 = calc.resolution(catalog.diagonal_module("k2_k3", 1), 2).syzygy(2)
    assert calc.ext_dims(s2, s2, [1], [0]) == {(1, 0): 0}
    d_range = range(-3, 3)
    assert calc.ext_dims(s2, s2, [1], d_range) == rational.ext_dims(s2, s2, [1], d_range)


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
    fresh_calc = HomCalculator(*catalog.RINGS[key], lo, hi)
    res = calc.resolution(catalog.diagonal_module(key, 1), 5)
    for k in (1, 2, 3):
        syz = res.syzygy(k)
        tail = calc.resolution(syz, 2)
        assert tail.frees[0] is res.frees[k]  # served from the tail, not resolved
        fresh = free_resolution(syz, 2, lo, hi)
        assert tail.frees[:3] == fresh.frees
        assert tail.diffs[:2] == fresh.diffs
        assert tail.generators[:3] == fresh.generators
        assert [s.bases for s in tail.syzygies[:3]] == [s.bases for s in fresh.syzygies]
        # sections are read off the cover steps the tail shares
        for t in range(lo, hi + 1):
            assert typed(calc.section(syz, t)) == typed(fresh_calc.section(syz, t))


def test_sections_are_read_off_the_stored_cover_step(monkeypatch):
    """After resolving, a section of a diagonal module or of a syzygy
    served as a tail runs no `_cover_degree`: it is read off the cover
    step that the resolution kept."""
    calc = HomCalculator(A2, B3, 0, 6)
    omega = M(1)
    res = calc.resolution(omega, 3)
    syz = res.syzygy(2)
    assert calc.resolution(syz).frees[0] is res.frees[2]  # the tail, not resolved
    calls = []
    cover_degree = resolution._cover_degree

    def spy(module, j, *args):
        calls.append((module, j))
        return cover_degree(module, j, *args)

    monkeypatch.setattr(resolution, "_cover_degree", spy)
    for N in (omega, syz):
        for t in range(calc.lo, calc.hi + 1):
            sec = calc.section(N, t)
            assert sorted(sec) == sorted({kappa for kappa, _ in N.fine_basis(t)})
            assert sum(map(len, sec.values())) == N.dim(t)
    assert calls == []


def reference_section(covers, F0, M, t):
    """The section of the cover in degree t as the stored cover columns
    gave it: an untracked Echelon picks the independent columns, a
    CoordSolver over them solves each basis vector of M_t, and each flat
    F0 coordinate is split into (generator index, pair)."""
    ech, independent, index = linalg.Echelon(), [], []
    for i, c in enumerate(covers[0][t]):
        if ech.add(c):
            independent.append(c)
            index.append(i)
    solver = linalg.CoordSolver(independent)
    out = []
    for w in work_vectors(M, t):
        sol = solver.solve(w)
        assert sol is not None, "cover is not surjective on the window"
        out.append(
            {split_flat(F0, t, index[k]): v for k, v in enumerate(sol) if v}
        )
    return out


def typed(sections):
    """Coordinates with their order and value types, so ints and
    Fractions that compare equal still differ; a section by fine degree
    (`HomCalculator.section`) with its κ too."""
    if isinstance(sections, dict):
        return [(kappa, typed(rows)) for kappa, rows in sections.items()]
    return [[(k, type(v), v) for k, v in s.items()] for s in sections]


def flat_section(calc, M, t, sec=None):
    """A section by fine degree (`HomCalculator.section`, or `sec`) in
    the flat form of the references: per basis vector of M_t, in basis
    order, its coordinates keyed (generator s, pair κ / f(s))."""
    sec = calc.section(M, t) if sec is None else sec
    fine = calc.resolution(M).syzygies[0].fine
    out, seen = [], Counter()
    for kappa, _ in M.fine_basis(t):
        row = sec[kappa][seen[kappa]]
        seen[kappa] += 1
        out.append({(s, resolution._pair_sub(kappa, fine[s])): c for s, c in row.items()})
    return out


def _assert_sections_match_reference(calc, M):
    ref, covers = reference_free_resolution(M, 0, calc.lo, calc.hi)
    for t in range(calc.lo, calc.hi + 1):
        assert typed(flat_section(calc, M, t)) == typed(reference_section(covers, ref.frees[0], M, t))
    for t in (calc.lo - 1, calc.hi + 1):
        with pytest.raises(CertificationError, match="outside the window"):
            calc.section(M, t)


@pytest.mark.parametrize("char", [0, 10007])
@pytest.mark.parametrize("key", sorted(catalog.RINGS))
def test_sections_match_cover_column_reference(key, char):
    calc = HomCalculator(*catalog.RINGS[key], 0, 6, char=char)
    modules = [catalog.diagonal_module(key, i) for i in (-1, 0, 1)]
    if key == "k2_k3":
        # omega is M_1 here; its second syzygy has no monomial basis
        modules.append(calc.resolution(modules[2], 3).syzygy(2))
    for M in modules:
        _assert_sections_match_reference(calc, M)


@settings(max_examples=25, deadline=None)
@given(small_weights, small_weights, st.integers(min_value=-2, max_value=2), st.integers(0, 1))
def test_sections_match_cover_column_reference_on_weighted_pairs(wa, wb, shift, extra):
    specA = ring(tuple(f"x{i}" for i in range(len(wa))), tuple(wa))
    specB = ring(tuple(f"y{i}" for i in range(len(wb))), tuple(wb))
    M = DiagonalModule(specA, specB, shift)
    _assert_sections_match_reference(HomCalculator(specA, specB, 0, M.generation_bound() + extra), M)


def flat_hom(gens, N, d, vec):
    """A map keyed by (g, n) in the flat coordinates of Hom(F, N)_d, F
    generated in the degrees `gens`: (g, n) is the coordinate n plus the
    sum of N.dim(d + deg g') over g' < g."""
    offs = [0]
    for dg in gens:
        offs.append(offs[-1] + N.dim(d + dg))
    return {offs[g] + n: v for (g, n), v in vec.items()}


def flat_of(res, N, d, phi):
    """A fine map (δ, {(g, q): c}) of degree d from the module `res`
    resolves, as `hom_space` gives it (its form, a third entry, unread),
    keyed by (g, n): n is the q-th basis vector of N_(d + deg g) at
    κ = δ·f(g), in basis order."""
    delta, vec = phi[:2]
    gens, fine = res.frees[0].gens, res.syzygies[0].fine
    return {
        (g, basis_positions(N, d + gens[g])[resolution._pair_add(delta, fine[g])][q]): c
        for (g, q), c in vec.items()
    }


@lru_cache(maxsize=256)
def basis_positions(N, j):
    """κ -> the indices of the basis vectors of N_j at κ, in basis order."""
    return resolution._by_kappa(N.fine_basis(j))


def flat_of_form(res, N, d, fmap):
    """A map (δ, {(g, e): c}) over the ambient generators e of N, as
    `compose_hom` and `through_free_vectors` give it, keyed by (g, n):
    the coordinates over Q of each value over the basis vectors of
    N_(d + deg g) at κ = δ·f(g), sorted."""
    delta, form = fmap
    gens, fine = res.frees[0].gens, res.syzygies[0].fine
    out = {}
    for g in sorted({g for g, _ in form}):
        kappa = resolution._pair_add(delta, fine[g])
        ech = linalg.Echelon(track=True)
        for n, (k, scalar) in enumerate(N.fine_basis(d + gens[g])):
            if k == kappa:
                ech.add(scalar, tag=n)
        coords = ech.coordinates({e: c for (h, e), c in form.items() if h == g})
        assert coords is not None, "a value outside the target"
        out.update(((g, n), c) for n, c in sorted(coords.items()) if c)
    return out


def split_gen_values(gens, N, d, flat):
    """A map in flat coordinates, {n: v} per generator."""
    out, off = [], 0
    for dg in gens:
        dim = N.dim(d + dg)
        out.append({k - off: v for k, v in flat.items() if off <= k < off + dim})
        off += dim
    return out


def reference_through_free_vectors(calc, a, b, d):
    """Maps a -> R(-v) -> b of degree d, one for every twist v, every map
    a -> R of degree u = d - v and every basis vector of b_v: the search
    that `through_free_vectors` replaces by the generators of b.  They
    are in flat coordinates (`flat_hom`)."""
    R = calc.free_rank_one
    F0 = calc.resolution(a).frees[0]
    gmax = max(F0.gens) if F0.gens else 0
    out = []
    for u in range(-gmax, d - b.min_degree + 1):
        v = d - u
        if v < b.min_degree:
            continue
        homs = calc.hom_basis(a, R, u)
        if not homs:
            continue
        dim_bv = b.dim(v)
        for phi in homs:
            flat = flat_hom(F0.gens, R, u, flat_of(calc.resolution(a), R, u, phi))
            phi_vals = split_gen_values(F0.gens, R, u, flat)
            for nb in range(dim_bv):
                vec = {}
                off = 0
                for g_idx, g in enumerate(F0.gens):
                    dim_b = b.dim(d + g)
                    val = phi_vals[g_idx]  # element of R_(g+u) in pair coords
                    for flat, coeff in val.items():
                        pair = r_basis(calc.ringA, calc.ringB, g + u)[flat]
                        img = resolution._act_cached(b, pair, g + u, v)[nb] if g + u > 0 else (
                            {nb: 1} if g + u == 0 else {}
                        )
                        for k, w in img.items():
                            key = off + k
                            z = vec.get(key, 0) + coeff * w
                            if z:
                                vec[key] = z
                            elif key in vec:
                                del vec[key]
                    off += dim_b
                if vec:
                    out.append(vec)
    return out


def _assert_same_span(calc, a, b, d):
    """The cover-generator vectors span what the twist search spans, over
    the calculator's field, and are never more numerous."""
    res = calc.resolution(a)
    gens = res.frees[0].gens
    fast = [
        flat_hom(gens, b, d, flat_of_form(res, b, d, v))
        for v in resolution.through_free_vectors(calc, a, b, d)
    ]
    ref = reference_through_free_vectors(calc, a, b, d)
    assert len(fast) <= len(ref)
    rank_fast = linalg.rank_of(fast, calc.char)
    rank_ref = linalg.rank_of(ref, calc.char)
    assert rank_fast == rank_ref == linalg.rank_of(fast + ref, calc.char), (a, b, d)


@pytest.mark.parametrize("char", [0, 10007])
@pytest.mark.parametrize("key", sorted(catalog.RINGS))
def test_through_free_vectors_match_twist_search(key, char):
    calc = HomCalculator(*catalog.RINGS[key], 0, 7, char=char)
    targets = [catalog.diagonal_module(key, i) for i in (-1, 0, 1)]
    sources = list(targets)
    if key == "k2_k3":
        # omega is M_1 here; its second syzygy is a source with no
        # monomial basis
        sources.append(calc.resolution(targets[2], 3).syzygy(2))
    for a in sources:
        for b in targets:
            for d in range(0, 4):
                _assert_same_span(calc, a, b, d)


@settings(max_examples=25, deadline=None)
@given(
    small_weights,
    small_weights,
    st.integers(min_value=-1, max_value=1),
    st.integers(min_value=-1, max_value=1),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=1),
    st.sampled_from([0, 10007]),
)
def test_through_free_vectors_match_twist_search_on_weighted_pairs(wa, wb, sa, sb, d, extra, char):
    specA = ring(tuple(f"x{i}" for i in range(len(wa))), tuple(wa))
    specB = ring(tuple(f"y{i}" for i in range(len(wb))), tuple(wb))
    a, b = DiagonalModule(specA, specB, sa), DiagonalModule(specA, specB, sb)
    hi = max(a.generation_bound(), b.generation_bound()) + 1 + extra
    _assert_same_span(HomCalculator(specA, specB, 0, hi, char=char), a, b, d)


# ---------------------------------------------------------------------------
# the Hom complex against the accumulating references it replaced


def reference_hom_block_matrix(res, i, N, d):
    """The dual differential Hom(F_i, N)_d -> Hom(F_(i+1), N)_d built for
    polynomial entries: each entry sums its pairs' actions into a block,
    and the blocks are summed into the columns, zeros dropped."""
    Fi, Fj = res.frees[i], res.frees[i + 1]
    src_off = [0]
    for g in Fi.gens:
        src_off.append(src_off[-1] + N.dim(d + g))
    dst_off = [0]
    for g in Fj.gens:
        dst_off.append(dst_off[-1] + N.dim(d + g))
    cols = [dict() for _ in range(src_off[-1])]
    for (g_idx, col_idx), poly in res.diffs[i].items():
        dg, dcol = Fi.gens[g_idx], Fj.gens[col_idx]
        src_dim = N.dim(d + dg)
        if src_dim == 0:
            continue
        block = None
        for pair, coeff in poly.items():
            act = resolution._act_cached(N, pair, dcol - dg, d + dg)
            if block is None:
                block = [{k: coeff * v for k, v in c.items()} for c in act]
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


def reference_ext_dims(res, N, i_values, d_values, char):
    """Ext dimensions with every dual map up to the top one built and each
    needed map ranked once per Ext index that reads it."""
    i_values = sorted(set(i_values))
    depth = max(i_values) + 1
    if len(res.frees) < depth + 1:
        raise CertificationError("resolution not deep enough for the Ext range")
    out = {}
    for d in d_values:
        mats = {i: reference_hom_block_matrix(res, i, N, d) for i in range(depth)}
        for i in i_values:
            cols, src_dim, _ = mats[i]
            rank_prev = linalg.rank_of(mats[i - 1][0], char) if i else 0
            out[(i, d)] = src_dim - linalg.rank_of(cols, char) - rank_prev
            assert out[(i, d)] >= 0, "negative Ext dimension"
    return out


def reference_compose_hom(calc, a, b, c, e, f, phi, psi):
    """psi∘phi in flat coordinates (`flat_hom`) through the element
    matrices of psi (`reference_compose_values`)."""
    values = flat_values(calc.resolution(a), b, e, phi)
    return reference_compose_values(calc, a, b, c, e, f, values, psi)


def flat_values(res, N, d, phi):
    """A fine map's values on the generators of F_0 (`flat_of`), g -> {n:
    c} over the basis of N_(d + deg g)."""
    out = {}
    for (g, n), c in flat_of(res, N, d, phi).items():
        out.setdefault(g, {})[n] = c
    return out


def reference_compose_values(calc, a, b, c, e, f, values, psi):
    """psi∘phi in flat coordinates, phi given by its values (`flat_values`),
    with every generator's image through the element matrices of psi
    summed into the output and zeros filtered at the end, sorted."""
    F0 = calc.resolution(a).frees[0]
    out = {}
    off = 0
    for g_idx, g in enumerate(F0.gens):
        val = values.get(g_idx)
        dim_c = c.dim(g + e + f)
        img = linalg.apply_columns(calc.element_matrix(b, c, f, psi, g + e), val) if val else {}
        for k, v in img.items():
            out[off + k] = out.get(off + k, 0) + v
        off += dim_c
    return {k: v for k, v in sorted(out.items()) if v}


def flat_compose_hom(calc, a, b, c, e, f, phi, psi):
    """`compose_hom` in flat coordinates, sorted."""
    res = calc.resolution(a)
    form = compose_hom(calc, a, b, c, e, f, phi, psi)
    return dict(sorted(flat_hom(res.frees[0].gens, c, e + f, flat_of_form(res, c, e + f, form)).items()))


def _assert_hom_space_matches_reference(res, N, d, char, basis):
    """`basis`, the outcome (`_outcome`) of `hom_space(res, N, d, char)`:
    its vectors, in flat coordinates, are independent, lie in the kernel
    of the reference dual map Hom(F_0, N)_d -> Hom(F_1, N)_d over
    F_char, are as many as its dimension and have the entry types of the
    reference kernel; or both raise the same CertificationError."""
    try:
        cols = reference_hom_block_matrix(res, 0, N, d)[0]
    except CertificationError as exc:
        assert basis == ("CertificationError", str(exc))
        return
    assert not isinstance(basis, tuple), basis
    ref = linalg.kernel_of(cols, char)
    fast = [flat_hom(res.frees[0].gens, N, d, flat_of(res, N, d, v)) for v in basis]
    for v in fast:
        image = linalg.apply_columns(cols, v)
        assert not (linalg.reduce_mod(image, char) if char else image), (N, d, v)
    assert len(fast) == len(ref) == linalg.rank_of(fast, char)
    assert {type(x) for v in fast for x in v.values()} == {type(x) for v in ref for x in v.values()}


def _dual_blocks(gens, fine, N, d: int) -> dict:
    """The columns of Hom(F, N)_d by fine degree, one at a time, F
    generated in the degrees `gens` at the fine degrees `fine`: δ ->
    [((g, n), scalar form of n)], n the n-th basis vector of
    N_(d + deg g), at κ = δ·f(g).  The entry (g, h) of a differential, c
    times f(h) / f(g), sends (g, n) to c·(h, (f(h) / f(g))·n), at δ·f(h)
    with the scalar form of n."""
    blocks = {}
    for g, (dg, f) in enumerate(zip(gens, fine)):
        for n, (kappa, scalar) in enumerate(N.fine_basis(d + dg)):
            blocks.setdefault(resolution._pair_sub(kappa, f), []).append(((g, n), scalar))
    return blocks


def reference_hom_space(res, N, d, char):
    """`hom_space` by every column (g, n): the kernel of each δ-block of
    `_dual_blocks`, taken once per block content (the pairs (g, scalar
    form of n)), read back on the block's own (g, n) and keyed (g, q), q
    the position of n among the basis vectors at its fine degree, as
    fine maps (δ, {(g, q): c}).  It reads N.fine_basis, so it assembles
    every degree it lists.  Over F_p a syzygy N is checked at the
    degrees of F_0 and then of F_1."""
    if len(res.frees) < 2:
        raise CertificationError("resolution not deep enough for the Hom space")
    gens, next_gens = res.frees[0].gens, res.frees[1].gens
    for dg in gens + next_gens:
        N.dim(d + dg)
    rows = strands.scalar_rows(res.diffs[0], len(gens))
    width = len(N.gens) if isinstance(N, FreeModule) else 1
    if isinstance(N, SyzygyModule):
        width = len(N.ambient.gens)
        if char:
            degrees = [d + dg for dg in gens + next_gens]
            resolution._check_independent(N, degrees, char, set())
    position = {}  # (g, n) -> q
    for g, dg in enumerate(gens):
        seen = Counter()
        for n, (kappa, _) in enumerate(N.fine_basis(d + dg)):
            position[(g, n)] = seen[kappa]
            seen[kappa] += 1
    out, kernels = [], {}
    for delta, block in _dual_blocks(gens, res.syzygies[0].fine, N, d).items():
        key = tuple((g, tuple(scalar.items())) for (g, _), scalar in block)
        kernel = kernels.get(key)
        if kernel is None:
            cols = [strands.dual_column(rows[g], scalar, width) for (g, _), scalar in block]
            kernel = kernels[key] = linalg.kernel_of(cols, char)
        for vec in kernel:
            out.append((delta, {(block[q][0][0], position[block[q][0]]): c for q, c in vec.items()}))
    return out


def _sorted_basis(outcome):
    """A hom basis of fine maps as a sorted list of (δ, sorted items of
    {(g, q): c}), or its error."""
    if isinstance(outcome, tuple):
        return outcome
    return sorted((phi[0], sorted(phi[1].items())) for phi in outcome)


def _typed_outcome(fn, *args):
    """`_outcome` with every dict of the value as its typed item list."""

    def typed_value(x):
        if isinstance(x, dict):
            return [(k, type(v), typed_value(v)) for k, v in x.items()]
        if isinstance(x, (list, tuple)):
            return [typed_value(v) for v in x]
        return x

    return typed_value(_outcome(fn, *args))


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=2), min_size=2, max_size=3),
    st.lists(st.integers(min_value=1, max_value=2), min_size=2, max_size=2),
    st.integers(min_value=-2, max_value=2),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=1),
    st.sampled_from([0, 10007]),
    st.sampled_from(["diagonal", "free", "syzygy"]),
    st.integers(min_value=-1, max_value=2),
)
@example([1, 1], [1, 1, 1], 1, 3, 1, 0, "syzygy", 1)  # k2_k3's canonical module and its syz2
@example([1, 1], [1, 1, 1], 1, 3, 1, 10007, "diagonal", 1)
@example([1, 1, 1], [1, 2], -1, 2, 0, 0, "free", 1)  # k3_w12
def test_hom_complex_matches_accumulating_reference(wa, wb, shift, depth, extra, char, kind, t):
    specA = ring(tuple(f"x{i}" for i in range(len(wa))), tuple(wa))
    specB = ring(tuple(f"y{i}" for i in range(len(wb))), tuple(wb))
    M = DiagonalModule(specA, specB, shift)
    calc = HomCalculator(specA, specB, 0, M.generation_bound() + extra, char=char)
    res = calc.resolution(M, depth)
    if kind == "diagonal":
        N = DiagonalModule(specA, specB, t)
    elif kind == "free":
        N = FreeModule(specA, specB, (0, abs(t)))
    else:
        N = res.syzygy(1 + abs(t) % depth)
    d_values = range(-3, 3)
    for d in d_values:
        _assert_hom_space_matches_reference(res, N, d, char, _outcome(hom_space, res, N, d, char))
    for i_values in (range(depth), [depth - 1]):
        assert _outcome(ext_dims, res, N, i_values, d_values, char) == _outcome(
            reference_ext_dims, res, N, i_values, d_values, char
        )
    # psi∘phi for M -> N -> c, with c diagonal
    c = DiagonalModule(specA, specB, shift + t)
    for e in (-1, 0, 1):
        phis = _outcome(calc.hom_basis, M, N, e)
        for f in (0, 1):
            psis = _outcome(calc.hom_basis, N, c, f)
            if isinstance(phis, tuple) or isinstance(psis, tuple):
                continue  # a CertificationError; the hom spaces above compare those
            for phi in phis[:2]:
                for psi in psis[:2]:
                    args = (calc, M, N, c, e, f, phi, psi)
                    assert _typed_outcome(flat_compose_hom, *args) == _typed_outcome(
                        reference_compose_hom, *args
                    )


def test_hom_space_takes_each_distinct_block_kernel_once(monkeypatch):
    M1 = catalog.diagonal_module("k3_w12", 1)
    res = free_resolution(M1, 1, 0, 8)
    calls = []
    kernel_of = linalg.kernel_of

    def counting(*args, **kwargs):
        calls.append(1)
        return kernel_of(*args, **kwargs)

    monkeypatch.setattr(linalg, "kernel_of", counting)
    repeats = 0
    for d in range(4):
        # the δ-blocks of Hom(F_0, M1)_d, each as its (g, scalar form of n)
        blocks = {}
        for g, (dg, f) in enumerate(zip(res.frees[0].gens, res.syzygies[0].fine)):
            for kappa, scalar in M1.fine_basis(d + dg):
                delta = resolution._pair_sub(kappa, f)
                blocks.setdefault(delta, []).append((g, tuple(scalar.items())))
        distinct = {tuple(block) for block in blocks.values()}
        repeats += len(blocks) - len(distinct)
        calls.clear()
        basis = _outcome(hom_space, res, M1, d, 0)
        assert len(calls) == len(distinct)
        _assert_hom_space_matches_reference(res, M1, d, 0, basis)
    assert repeats  # some block content repeats, so the memo is exercised


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=2), min_size=2, max_size=3),
    st.lists(st.integers(min_value=1, max_value=2), min_size=2, max_size=2),
    st.integers(min_value=-2, max_value=2),
    st.sampled_from(["diagonal", "tail", "free"]),
    st.sampled_from([0, 2, 3]),
    st.sampled_from(["diagonal", "free", "pending", "assembled", "dict"]),
    st.integers(min_value=-2, max_value=2),
    st.sampled_from([-1, 0, 1]),
    st.integers(min_value=1, max_value=2),
    st.integers(min_value=1, max_value=3),
)
@example([1, 1], [1, 1, 1], 1, "diagonal", 0, "pending", 1, 0, 2, 3)  # k2_k3's canonical module and its syz2
@example([1, 1], [1, 1, 1], 1, "tail", 3, "pending", 1, 0, 1, 3)  # End(syz1) of k2_k3's canonical module
# k2_k3's M_-2 into syzygies of M_-1, whose fine degrees carry several
# tests that its maps tell apart
@example([1, 1], [1, 1, 1], -2, "diagonal", 0, "pending", 2, 0, 1, 2)
@example([1, 1], [1, 1, 1], -2, "diagonal", 3, "dict", -1, 0, 2, 3)
@example([1, 2], [1, 1], -2, "tail", 2, "diagonal", 1, -1, 1, 1)  # merged bits in F_0
@example([1, 2], [1, 1], -2, "free", 3, "dict", -1, 0, 1, 2)  # merged bits; a syzygy over a plain dict
@example([1, 1], [1, 1], 1, "free", 0, "free", 0, 1, 1, 1)
# syzygy targets whose fine degrees carry several tests, with maps that
# tell the tests apart, from sources with a nonzero F_1: over Q, F_2 and
# F_3, pending, assembled and plain-dict, from a diagonal module and a tail
@example([2, 1, 1], [1, 2], -2, "tail", 3, "pending", -1, 1, 1, 2)
@example([2, 1, 2], [2, 1], 2, "diagonal", 2, "pending", -2, -1, 1, 2)
@example([1, 1, 2], [2, 2], -2, "tail", 0, "assembled", 2, 1, 2, 3)
@example([1, 2, 1], [1, 2], -2, "tail", 2, "dict", 2, -1, 2, 2)
@example([1, 1], [2, 1], -2, "tail", 0, "dict", -1, -1, 1, 2)
def test_hom_space_matches_per_column_reference(wa, wb, shift, source, char, kind, t, twist, k, extra):
    """`hom_space` by masks equals the per-column `reference_hom_space`
    vector for vector, or both raise the same CertificationError, on
    twisted diagonal, free and syzygy targets (pending, assembled and
    plain-dict) and sources with merged bits, over Q, F_2 and F_3.  A
    syzygy target resolves a shift next to the source's, so that maps
    into it exist inside the window; d runs to one past the last degree
    whose Hom reads N inside the window."""
    specA = ring(tuple(f"x{i}" for i in range(len(wa))), tuple(wa))
    specB = ring(tuple(f"y{i}" for i in range(len(wb))), tuple(wb))
    calc, res = _ext_source(specA, specB, shift, source, 1, char, extra)
    if kind in ("diagonal", "free"):
        N = _ext_target(specA, specB, res, kind, t, twist)
    else:
        N = _outcome(_syzygy_target, specA, specB, calc, shift + t % 3 - 1, k, kind)
        if isinstance(N, tuple):
            return  # CertificationError: the resolution properties compare those
    top = calc.hi - max(res.frees[0].gens + res.frees[1].gens, default=0)
    for d in range(min(top, 0) - 2, top + 2):
        # the mask path first, so that a pending target is still pending
        fast = _sorted_basis(_outcome(hom_space, res, N, d, char))
        assert fast == _sorted_basis(_outcome(reference_hom_space, res, N, d, char))


def test_hom_basis_into_a_pending_syzygy_assembles_nothing(monkeypatch):
    """Hom(R, syz²ω)_d over k2_k3 assembles no pending degree of the
    syzygy for any d, also where maps land: a map is keyed by the tests
    of the rectangles, so no degree is indexed."""
    a, b = catalog.ring_pair("k2_k3")
    calc = HomCalculator(a, b, 0, 8)
    R = DiagonalModule(a, b, 0)
    syz2 = calc.resolution(DiagonalModule(a, b, 1), 2).syzygy(2)
    # its cover step assembled degree 2, where it has generators
    pending = unassembled(syz2.bases)
    assert {0, 1, 3} <= pending and 2 not in pending
    assembled = []
    assemble = resolution._KernelBases._assemble

    def spy(bases, j, *args):
        assembled.append((bases, j))
        return assemble(bases, j, *args)

    monkeypatch.setattr(resolution._KernelBases, "_assemble", spy)
    bases = {d: calc.hom_basis(R, syz2, d) for d in range(6)}
    assert [j for owner, j in assembled if owner is syz2.bases] == []
    assert unassembled(syz2.bases) == pending
    for d, basis in bases.items():
        assert (basis == []) == (d < 2)
        _assert_hom_space_matches_reference(calc.resolution(R), syz2, d, 0, basis)


@settings(max_examples=25, deadline=None)
@given(
    small_weights,
    small_weights,
    st.integers(min_value=-2, max_value=2),
    st.sampled_from(["diagonal", "free", "syzygy"]),
    st.integers(min_value=-1, max_value=1),
    st.integers(min_value=1, max_value=2),
    st.integers(min_value=1, max_value=3),
    st.sampled_from([0, 10007]),
)
# R into k2_k3's syz²ω, 90 maps in degrees 2 to 4, whose rectangles carry
# two tests from degree 3 on
@example([1, 1], [1, 1, 1], 0, "syzygy", 1, 2, 3, 0)
@example([1, 1], [1, 1, 1], 0, "syzygy", 1, 2, 3, 10007)
def test_hom_space_maps_carry_their_ambient_forms(wa, wb, shift, kind, t, k, extra, char):
    """Every map (δ, coeffs, form) of `hom_space` has the value over the
    ambient generators of N that its coefficients give over the tests:
    both read in flat coordinates agree.  A diagonal N's form is its
    coefficient dict itself, and any other N's form is a dict of its own.
    The target is a diagonal module M_(s+t), a free module or the k-th
    syzygy of M_(s+t), on a window `extra` above both generation bounds."""
    specA = ring(tuple(f"x{i}" for i in range(len(wa))), tuple(wa))
    specB = ring(tuple(f"y{i}" for i in range(len(wb))), tuple(wb))
    M, T = DiagonalModule(specA, specB, shift), DiagonalModule(specA, specB, shift + t)
    hi = max(M.generation_bound(), T.generation_bound()) + extra
    calc = HomCalculator(specA, specB, 0, hi, char=char)
    res = calc.resolution(M)
    if kind == "diagonal":
        N = T
    elif kind == "free":
        N = FreeModule(specA, specB, (0, 1, 1))
    else:
        N = calc.resolution(T, 2).syzygy(k)
    for d in range(-2, calc.hi + 1):
        basis = _outcome(hom_space, res, N, d, char)
        if isinstance(basis, tuple):
            continue  # a CertificationError: the hom space properties compare those
        for delta, coeffs, form in basis:
            assert flat_of_form(res, N, d, (delta, form)) == flat_of(res, N, d, (delta, coeffs))
            assert (form is coeffs) == (kind == "diagonal")


def colon_deltas(Ms, Mt, d) -> set:
    """The fine degrees δ of the degree-d maps M_s -> M_t by the monomial
    colon (M_t :_K M_s): the Laurent monomials x^δ with x^δ·κ in M_t for
    every basis pair κ of M_s up to its generation bound.  A δ sends the
    first pair κ0, of the lowest degree j0 where M_s is nonzero, to a
    pair of M_t in degree j0 + d, and its degrees then match on every κ,
    so only the signs of the exponents of δ·κ decide."""
    by_degree = [(j, Ms.basis(j)) for j in range(Ms.min_degree, Ms.generation_bound() + 1)]
    pairs = [k for _, basis in by_degree for k in basis]
    if not pairs:
        return set()
    j0 = next(j for j, basis in by_degree if basis)
    candidates = {resolution._pair_sub(m, pairs[0]) for m in Mt.basis(j0 + d)}
    return {
        delta
        for delta in candidates
        if all(x >= 0 for k in pairs for side in resolution._pair_add(delta, k) for x in side)
    }


def _assert_hom_is_the_colon(calc, Ms, Mt, d):
    deltas = [delta for delta, *_ in calc.hom_basis(Ms, Mt, d)]
    assert len(set(deltas)) == len(deltas), (Ms, Mt, d)  # one map per δ
    assert set(deltas) == colon_deltas(Ms, Mt, d), (Ms, Mt, d)


@pytest.mark.parametrize("key,hi", [("k2_k3", 7), ("k3_w12", 8), ("k3_k3", 7)])
def test_diagonal_hom_is_the_monomial_colon(key, hi):
    calc = HomCalculator(*catalog.RINGS[key], 0, hi)
    mods = [catalog.diagonal_module(key, s) for s in (-1, 0, 1)]
    for Ms, Mt in product(mods, repeat=2):
        for d in range(-1, 4):
            _assert_hom_is_the_colon(calc, Ms, Mt, d)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=2), min_size=1, max_size=3),
    st.lists(st.integers(min_value=1, max_value=2), min_size=1, max_size=2),
    st.integers(min_value=-2, max_value=2),
    st.integers(min_value=-2, max_value=2),
    st.integers(min_value=-1, max_value=3),
)
def test_diagonal_hom_is_the_monomial_colon_on_weighted_pairs(wa, wb, s, t, d):
    """On a window twice the generation bound of M_s, which holds the
    relations among its generators, whose fine degrees are least common
    multiples of two generators."""
    specA = ring(tuple(f"x{i}" for i in range(len(wa))), tuple(wa))
    specB = ring(tuple(f"y{i}" for i in range(len(wb))), tuple(wb))
    Ms, Mt = DiagonalModule(specA, specB, s), DiagonalModule(specA, specB, t)
    calc = HomCalculator(specA, specB, 0, 2 * Ms.generation_bound())
    _assert_hom_is_the_colon(calc, Ms, Mt, d)


def test_hom_complex_rejects_an_entry_of_two_pairs():
    res = free_resolution(M(1), 1, 0, 4)
    key, poly = next(iter(res.diffs[0].items()))
    [(pair, c)] = poly.items()
    other = next(u for u in r_basis(A2, B3, 1) if u != pair)
    diffs = dict(res.diffs[0])
    diffs[key] = {pair: c, other: 1}
    bad = Resolution(
        res.module, res.lo, res.hi, res.frees, [diffs], res.syzygies, res.generators
    )
    # the accumulating reference sums the two pairs without a word
    assert reference_hom_block_matrix(bad, 0, M(1), 0)[0]
    with pytest.raises(ValueError, match="too many values to unpack"):
        hom_space(bad, M(1), 0, 0)
    with pytest.raises(ValueError, match="too many values to unpack"):
        ext_dims(bad, M(1), [0], [0], 0)


# ---------------------------------------------------------------------------
# Ext by fine-degree blocks against the flat reference


def _merged(res) -> bool:
    """Whether some F_i of res has two generators of one degree and one
    fine degree, whose bits share a group of the block masks."""
    return any(
        len(set(zip(F.gens, syz.fine))) < len(F.gens) for F, syz in zip(res.frees, res.syzygies)
    )


def _ext_source(specA, specB, shift, source, depth, char, extra=1):
    """A calculator, on a window `extra` above the diagonal module's
    generation bound, and the resolution of a drawn source: that module,
    the tail of its resolution at its first syzygy, or a free module
    with two generators of one degree."""
    M = DiagonalModule(specA, specB, shift)
    calc = HomCalculator(specA, specB, 0, M.generation_bound() + extra, char=char)
    if source == "free":
        return calc, calc.resolution(FreeModule(specA, specB, (0, 0, 1)), depth)
    full = calc.resolution(M, depth + 1)
    return calc, full.tail(1) if source == "tail" else full


def _ext_target(specA, specB, res, kind, t, twist):
    """A twisted diagonal, a free module with two generators of one
    degree, or a syzygy of res."""
    if kind == "diagonal":
        return DiagonalModule(specA, specB, t, twist)
    if kind == "free":
        return FreeModule(specA, specB, (0, abs(twist), abs(twist)))
    return res.syzygy(1 + abs(t) % 2)


def _assert_ext_matches_reference(res, N, depth, char):
    d_values = range(-3, 3)
    for i_values in (range(depth), [depth - 1]):
        assert _outcome(ext_dims, res, N, i_values, d_values, char) == _outcome(
            reference_ext_dims, res, N, i_values, d_values, char
        )


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=2), min_size=2, max_size=3),
    st.lists(st.integers(min_value=1, max_value=2), min_size=2, max_size=2),
    st.integers(min_value=-2, max_value=2),
    st.sampled_from(["diagonal", "tail", "free"]),
    st.integers(min_value=1, max_value=2),
    st.sampled_from([0, 2, 3]),
    st.sampled_from(["diagonal", "free", "syzygy"]),
    st.integers(min_value=-2, max_value=2),
    st.sampled_from([-2, -1, 1, 2]),
)
@example([1, 2], [1, 1], -2, "tail", 2, 2, "diagonal", 1, -1)  # merged bits in F_0
@example([1, 1], [1, 1], 1, "free", 1, 0, "free", 0, 2)
def test_ext_blocks_match_reference_on_twisted_targets_and_merged_sources(
    wa, wb, shift, source, depth, char, kind, t, twist
):
    specA = ring(tuple(f"x{i}" for i in range(len(wa))), tuple(wa))
    specB = ring(tuple(f"y{i}" for i in range(len(wb))), tuple(wb))
    calc, res = _ext_source(specA, specB, shift, source, depth, char)
    syzygies = calc.resolution(DiagonalModule(specA, specB, shift), 2)
    N = _ext_target(specA, specB, syzygies, kind, t, twist)
    _assert_ext_matches_reference(res, N, depth, char)


@pytest.mark.parametrize("char", [0, 2, 3])
def test_ext_blocks_merge_generators_of_one_fine_degree(char):
    specA = ring(("x0", "x1"), (1, 2))
    specB = ring(("y0", "y1"), (1, 1))
    for source in ("tail", "free"):
        calc, res = _ext_source(specA, specB, -2, source, 2, char)
        assert _merged(res)
        for twist in (-1, 1):
            for N in (DiagonalModule(specA, specB, 1, twist), FreeModule(specA, specB, (0, 1, 1))):
                _assert_ext_matches_reference(res, N, 2, char)


def test_ext_into_syzygy_forms_dependent_mod_p_raises():
    # R^2 with the basis e0 + e1, e0 - e1 at every fine degree: the two
    # forms are independent over Q and F_3 and equal mod 2
    amb = FreeModule(A2, B3, (0, 0))
    zero = ((0, 0), (0, 0, 0))
    forms = ({0: 1, 1: 1}, {0: 1, 1: -1})
    bases = {j: [(u, s) for u in r_basis(A2, B3, j) for s in forms] for j in range(9)}
    N = SyzygyModule(amb, bases, "R^2", (zero, zero))
    res = free_resolution(M(1), 2, 0, 4)
    args = ([0, 1], range(-1, 2))
    over_q = ext_dims(res, N, *args, 0)
    assert over_q == ext_dims(res, amb, *args, 0) == reference_ext_dims(res, N, *args, 0)
    assert ext_dims(res, N, *args, 3) == ext_dims(res, amb, *args, 3)
    with pytest.raises(CertificationError, match="dependent mod 2"):
        ext_dims(res, N, *args, 2)
    for d in args[1]:
        for char in (0, 3):
            basis = hom_space(res, N, d, char)
            _assert_hom_space_matches_reference(res, N, d, char, basis)
            assert len(basis) == len(hom_space(res, amb, d, char))
        with pytest.raises(CertificationError, match="dependent mod 2"):
            hom_space(res, N, d, 2)


def test_hom_into_syzygy_forms_dependent_mod_p_raises(monkeypatch):
    """The twin of test_ext_into_syzygy_forms_dependent_mod_p_raises for
    maps, which are ranked over the ambient generators of a syzygy: that
    is their rank over its tests only while the tests at each fine degree
    stay independent mod p.  First R^2 with the forms e0 + e1, e0 - e1,
    equal mod 2, as a target of R, whose F_1 is zero: hom_basis checks the
    degrees of F_0, where the values land.  Then k2_k3's syz²ω with the
    two tests t0, t1 of a rectangle replaced by t0 + t1 and t0 - t1,
    independent over Q and F_3 and equal mod 2: hom_basis, compose_hom and
    through_free_vectors into it check where their values land."""
    amb = FreeModule(A2, B3, (0, 0))
    zero = ((0, 0), (0, 0, 0))
    forms = ({0: 1, 1: 1}, {0: 1, 1: -1})
    bases = {j: [(u, s) for u in r_basis(A2, B3, j) for s in forms] for j in range(9)}
    N = SyzygyModule(amb, bases, "R^2", (zero, zero))
    R = M(0)
    for char in (0, 3):
        calc = HomCalculator(A2, B3, 0, 6, char=char)
        for d in range(3):
            basis = calc.hom_basis(R, N, d)
            _assert_hom_space_matches_reference(calc.resolution(R), N, d, char, basis)
            assert len(basis) == len(calc.hom_basis(R, amb, d))
    over_f2 = HomCalculator(A2, B3, 0, 6, char=2)
    for d in range(3):
        with pytest.raises(CertificationError, match="dependent mod 2"):
            over_f2.hom_basis(R, N, d)

    a, b = catalog.ring_pair("k2_k3")
    R, omega = DiagonalModule(a, b, 0), DiagonalModule(a, b, 1)
    rectangles = resolution._rectangles

    def mixed(module, j):
        rects, index_of = rectangles(module, j)
        if module is not syz2:
            return rects, index_of
        out = []
        for sa, sb, tests in rects:
            if len(tests) == 2:
                tests = [linalg.combine(*tests, 1, 1), linalg.combine(*tests, 1, -1)]
            out.append((sa, sb, tests))
        return out, index_of

    for char in (2, 3):
        calc = HomCalculator(a, b, 0, 8, char=char)
        syz2 = calc.resolution(omega, 3).syzygy(2)
        # from degree 3 on, a rectangle of syz2 carries two tests
        assert [len(t) for *_, t in rectangles(syz2, 3)[0]].count(2) == 1
        phi, psi = calc.hom_basis(R, R, 1)[0], calc.hom_basis(R, syz2, 2)[0]
        with monkeypatch.context() as patch:
            patch.setattr(resolution, "_rectangles", mixed)
            calls = [
                lambda: calc.hom_basis(R, syz2, 4),
                lambda: compose_hom(calc, R, R, syz2, 1, 2, phi, psi),
                lambda: resolution.through_free_vectors(calc, R, syz2, 3),
            ]
            for call in calls:
                if char == 2:
                    with pytest.raises(CertificationError, match="dependent mod 2"):
                        call()
                else:
                    assert call()


def test_rigidity_ext_table_needs_no_act(monkeypatch):
    """All eleven Ext^1 tables of `catalog.rigidity_ext_table`, and the
    hom bases of the same pairs, computed with every action matrix
    unavailable, match the flat reference."""

    def no_act(*args):
        raise AssertionError("an action matrix was read")

    a, b = catalog.ring_pair("k2_k3")
    omega, R, M2, M3 = (DiagonalModule(a, b, s) for s in (1, 0, 2, 3))
    d_range = range(-4, 3)
    for char in (0, 2):
        calc = HomCalculator(a, b, 0, 8, char=char)
        res = calc.resolution(omega, 5)
        om1, om2 = res.syzygy(1), res.syzygy(2)
        pairs = [
            (omega, omega), (omega, R), (omega, om2), (om2, R), (om2, omega), (om2, om2),
            (om2, M2), (om2, M3), (om1, R), (om1, om1), (omega, M2),
        ]
        with monkeypatch.context() as patch:
            for cls in (DiagonalModule, FreeModule, SyzygyModule):
                patch.setattr(cls, "act", no_act)
            patch.setattr(resolution, "_act_cached", no_act)
            fast = [calc.ext_dims(M, N, [1], d_range) for M, N in pairs]
            homs = [(M, N, d, _outcome(calc.hom_basis, M, N, d)) for M, N in pairs for d in d_range]
        assert fast == [
            reference_ext_dims(calc.resolution(M, 2), N, [1], d_range, char) for M, N in pairs
        ]
        for M, N, d, basis in homs:
            _assert_hom_space_matches_reference(calc.resolution(M), N, d, char, basis)


def reference_syzygy_counts(res, N, i, d, char, checked):
    """(dim, rank) of the dual map Hom(F_i, N)_d -> Hom(F_(i+1), N)_d for
    a syzygy N, by every column (g, n): each basis vector n of
    N_(d + deg g) listed with its scalar form and grouped by δ
    (`_dual_blocks`), each δ-block ranked on its `dual_column`s; over F_p
    after checking the scalar forms of N_j at each fine degree, per κ of
    the assembled basis, for j over the degrees of F_(i+1)."""
    gens = [F.gens for F in res.frees]
    for j in (d + dh for dh in gens[i + 1]):
        if not char or j in checked:
            continue
        checked.add(j)
        at = {}
        for kappa, scalar in N.fine_basis(j):
            at.setdefault(kappa, []).append(scalar)
        for kappa, forms in at.items():
            if linalg.rank_of(forms, char) < len(forms):
                raise CertificationError(
                    f"syzygy basis vectors at the fine degree {kappa} of degree {j}"
                    f" are dependent mod {char}"
                )
    rows = strands.scalar_rows(res.diffs[i], len(gens[i]))
    width = len(N.ambient.gens)
    dim = total = 0
    for block in _dual_blocks(gens[i], res.syzygies[i].fine, N, d).values():
        cols = [strands.dual_column(rows[g], scalar, width) for (g, _), scalar in block]
        dim += len(block)
        total += linalg.rank_of(cols, char)
    return dim, total


def reference_syzygy_ext_dims(res, N, i_values, d_values, char):
    """`ext_dims` into a syzygy N on `reference_syzygy_counts`, reading
    N.dim in the same order."""
    i_values = sorted(set(i_values))
    depth = i_values[-1] + 1
    if len(res.frees) < depth + 1:
        raise CertificationError("resolution not deep enough for the Ext range")
    gens = [F.gens for F in res.frees]
    out, checked = {}, set()
    for d in d_values:
        dims, rank_at = {}, {-1: 0}
        for i in range(depth):
            for dg in gens[i] + gens[i + 1]:
                N.dim(d + dg)
            if i in i_values or i + 1 in i_values:
                dims[i], rank_at[i] = reference_syzygy_counts(res, N, i, d, char, checked)
        for i in i_values:
            out[(i, d)] = dims[i] - rank_at[i] - rank_at[i - 1]
    return out


def _syzygy_target(specA, specB, calc, shift, k, form):
    """The k-th syzygy of the diagonal module of this shift, as the
    resolution leaves it ("pending": no degree assembled), with every
    degree assembled ("assembled"), or rebuilt over a plain dict
    ("dict")."""
    N = calc.resolution(DiagonalModule(specA, specB, shift), 2).syzygy(k)
    if form != "pending":
        bases = {j: N.fine_basis(j) for j in N.bases}
        if form == "dict":
            N = SyzygyModule(N.ambient, bases, N.label, N.fine)
    return N


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=2), min_size=2, max_size=3),
    st.lists(st.integers(min_value=1, max_value=2), min_size=2, max_size=2),
    st.integers(min_value=-2, max_value=2),
    st.sampled_from(["diagonal", "tail"]),
    st.integers(min_value=1, max_value=2),
    st.sampled_from([0, 2, 3]),
    st.integers(min_value=-2, max_value=2),
    st.integers(min_value=1, max_value=2),
    st.sampled_from(["pending", "assembled", "dict"]),
    st.integers(min_value=0, max_value=2),
)
@example([1, 1], [1, 1, 1], 1, "diagonal", 2, 0, 1, 2, "pending", 3)  # k2_k3's canonical module
@example([1, 1], [1, 1, 1], 1, "tail", 1, 3, 1, 1, "dict", 2)
def test_ext_into_syzygies_by_rectangle_masks_matches_per_column_reference(
    wa, wb, shift, source, depth, char, t, k, form, extra
):
    """Ext into a syzygy by rectangle masks equals the per-column blocks,
    value or CertificationError, and assembles no degree of a target
    that the resolution left pending."""
    specA = ring(tuple(f"x{i}" for i in range(len(wa))), tuple(wa))
    specB = ring(tuple(f"y{i}" for i in range(len(wb))), tuple(wb))
    M = DiagonalModule(specA, specB, shift)
    calc = HomCalculator(specA, specB, 0, M.generation_bound() + extra, char=char)
    res = _outcome(calc.resolution, M, depth + 1)
    N = _outcome(_syzygy_target, specA, specB, calc, t, k, form)
    if isinstance(res, tuple) or isinstance(N, tuple):
        return  # CertificationError: the resolution properties compare those
    if source == "tail":
        res = res.tail(1)
        depth = min(depth, len(res.frees) - 1)
    # the degrees up to the last whose Ext reads N inside the window, and
    # the next one apart
    top = calc.hi - max(max(F.gens, default=0) for F in res.frees[: depth + 1])
    inside = range(min(top, 0) - 2, top + 1)
    pending = unassembled(N.bases)
    cases = [(res, N, range(depth), inside, char), (res, N, [depth - 1], inside, char)]
    cases.append((res, N, [depth - 1], [top + 1], char))
    fast = [_outcome(ext_dims, *args) for args in cases]
    assert unassembled(N.bases) == pending
    assert fast == [_outcome(reference_syzygy_ext_dims, *args) for args in cases]


def _ext_module(specA, specB, calc, kind, shift):
    """The diagonal module of this shift, or its first syzygy as the
    calculator's resolution holds it."""
    D = DiagonalModule(specA, specB, shift)
    return D if kind == "diagonal" else calc.resolution(D, 2).syzygy(1)


def _fresh_ext_dims(calc, M, N, i_values, d_values):
    """`ext_dims` over a resolution of M made afresh on the window."""
    if not i_values:
        return {}
    res = free_resolution(M, max(i_values) + 1, calc.lo, calc.hi)
    return ext_dims(res, N, i_values, d_values, calc.char)


def _items(outcome):
    return list(outcome.items()) if isinstance(outcome, dict) else outcome


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=2), min_size=2, max_size=3),
    st.lists(st.integers(min_value=1, max_value=2), min_size=2, max_size=2),
    st.tuples(st.sampled_from(["diagonal", "syzygy"]), st.integers(min_value=-2, max_value=2)),
    st.tuples(st.sampled_from(["diagonal", "syzygy"]), st.integers(min_value=-2, max_value=2)),
    st.lists(
        st.tuples(
            st.sets(st.integers(min_value=0, max_value=2), max_size=2),
            st.lists(st.integers(min_value=-2, max_value=2), min_size=1, max_size=4),
        ),
        min_size=2,
        max_size=4,
    ),
    st.sampled_from([0, 10007]),
)
@example([1, 1], [1, 1, 1], ("syzygy", 1), ("syzygy", 1), [({1}, [0, 3]), ({1}, [0])], 0)
@example([1, 2], [1, 1], ("diagonal", 0), ("syzygy", -1), [({0, 1}, [1, -1]), ({1}, [-1, 1, 2])], 10007)
def test_kept_ext_values_equal_ext_over_a_fresh_resolution(wa, wb, source, target, requests, char):
    """`HomCalculator.ext_dims`, asked a drawn sequence of overlapping
    requests, answers each as `ext_dims` over a resolution made afresh,
    in the same order, or raises the same CertificationError; a request
    that raises keeps no value and raises again when repeated."""
    specA = ring(tuple(f"x{i}" for i in range(len(wa))), tuple(wa))
    specB = ring(tuple(f"y{i}" for i in range(len(wb))), tuple(wb))
    hi = DiagonalModule(specA, specB, max(source[1], target[1])).generation_bound() + 1
    calc = HomCalculator(specA, specB, 0, hi, char=char)
    M = _outcome(_ext_module, specA, specB, calc, *source)
    N = _outcome(_ext_module, specA, specB, calc, *target)
    if isinstance(M, tuple) or isinstance(N, tuple):
        return  # CertificationError: the resolution properties compare those
    for i_values, d_values in requests:
        kept = dict(calc._ext)
        got = _outcome(calc.ext_dims, M, N, i_values, d_values)
        assert _items(got) == _items(_outcome(_fresh_ext_dims, calc, M, N, i_values, d_values))
        if isinstance(got, tuple):
            assert calc._ext == kept
            assert _outcome(calc.ext_dims, M, N, i_values, d_values) == got
            assert calc._ext == kept


def test_ext_call_that_raises_keeps_nothing_and_raises_again():
    calc = HomCalculator(A2, B3, 0, 6)
    N = calc.resolution(M(1), 2).syzygy(1)
    # Ext^1 in degree 9 reads N above the window; degrees 0 and 1 do not
    with pytest.raises(CertificationError, match="not computed in degree 9"):
        calc.ext_dims(M(1), N, [1], [0, 1, 9])
    assert calc._ext == {}
    fresh = _fresh_ext_dims(calc, M(1), N, [1], [0, 1])
    assert calc.ext_dims(M(1), N, [1], [0, 1]) == fresh
    assert set(calc._ext) == {(M(1), N, 1, 0), (M(1), N, 1, 1)}
    with pytest.raises(CertificationError, match="not computed in degree 9"):
        calc.ext_dims(M(1), N, [1], [0, 1, 9])
    assert set(calc._ext) == {(M(1), N, 1, 0), (M(1), N, 1, 1)}


def test_syz3_self_extension_assembles_no_pending_target_degree(monkeypatch):
    a, b = catalog.ring_pair("k2_k3")
    calc = HomCalculator(a, b, 0, 8)
    om3 = calc.resolution(DiagonalModule(a, b, 1), 5).syzygy(3)
    pending = unassembled(om3.bases)
    assert pending
    assembled = []
    assemble = resolution._KernelBases._assemble

    def spy(bases, j, *args):
        assembled.append((bases, j))
        return assemble(bases, j, *args)

    monkeypatch.setattr(resolution._KernelBases, "_assemble", spy)
    assert catalog.syz3_self_extension(calc) == {-1: 6}
    assert [j for bases, j in assembled if bases is om3.bases and j in pending] == []
    assert unassembled(om3.bases) == pending


def test_window_guards_of_maps_read_each_dim_once(monkeypatch):
    """On a window too small for a syzygy target, compose_hom raises what
    the reference raises, and through_free_vectors raises at the first
    generator degree above the window; with sections and element
    matrices warm, each reads the target's dim once per degree it
    guards, though omega has two generators of degree 0."""
    a, b = catalog.ring_pair("k2_k3")
    hi = 3
    calc = HomCalculator(a, b, 0, hi)
    omega = DiagonalModule(a, b, 1)
    mods = [DiagonalModule(a, b, 0), omega, DiagonalModule(a, b, -1)]
    mods.append(calc.resolution(omega, 2).syzygy(1))
    reads = Counter()

    def counting(dim):
        return lambda self, j: reads.update([(self, j)]) or dim(self, j)

    raised = set()
    for A, B, C in product(mods, repeat=3):
        gens = calc.resolution(A).frees[0].gens
        for e, f in product(range(3), (1, 2)):
            phis, psis = _outcome(calc.hom_basis, A, B, e), _outcome(calc.hom_basis, B, C, f)
            if isinstance(phis, tuple) or isinstance(psis, tuple) or not phis or not psis:
                continue
            args = (calc, A, B, C, e, f, phis[-1], psis[-1])
            got = _typed_outcome(flat_compose_hom, *args)
            assert got == _typed_outcome(reference_compose_hom, *args)
            with monkeypatch.context() as patch:
                for cls in (DiagonalModule, SyzygyModule):
                    patch.setattr(cls, "dim", counting(cls.dim))
                reads.clear()
                again = _outcome(compose_hom, *args)
            if isinstance(again, tuple):
                raised.add("compose_hom")
                assert all(reads[(C, dg + e + f)] <= 1 for dg in gens)
            else:
                assert all(reads[(C, dg + e + f)] == 1 for dg in gens)
        for d in range(4):
            _outcome(resolution.through_free_vectors, calc, A, B, d)
            with monkeypatch.context() as patch:
                for cls in (DiagonalModule, SyzygyModule):
                    patch.setattr(cls, "dim", counting(cls.dim))
                reads.clear()
                got = _outcome(resolution.through_free_vectors, calc, A, B, d)
            assert all(reads[(B, d + dg)] <= 1 for dg in gens)
            if isinstance(got, tuple):
                above = next(d + dg for dg in gens if d + dg > hi)
                assert got == ("CertificationError", f"syzygy basis not computed in degree {above}")
                raised.add("through_free_vectors")
    assert raised == {"compose_hom", "through_free_vectors"}
