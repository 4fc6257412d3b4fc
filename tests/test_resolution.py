from functools import lru_cache

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from segrecalc import linalg
from segrecalc.hilbert import ring
from segrecalc.gradedlin import catalog, resolution
from segrecalc.gradedlin.modules import DiagonalModule, FreeModule, SyzygyModule, r_basis, r_index
from segrecalc.gradedlin.poly import mono_mul
from segrecalc.gradedlin.resolution import (
    CertificationError,
    HomCalculator,
    Resolution,
    ext_dims,
    free_resolution,
    generation_degrees,
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


def test_resolution_of_free_module():
    res = free_resolution(M(0), 2, 0, 5)
    assert res.betti_table()[0] == [0]
    assert res.betti_table()[1] == []
    # a FreeModule resolves too, and is a hom source
    free = FreeModule(A2, B3, (0, 1, 1))
    res = free_resolution(free, 2, 0, 5)
    assert item_fields(res) == item_fields(reference_free_resolution(free, 2, 0, 5)[0])
    assert res.betti == [(0, 1, 1), (), ()]
    calc = HomCalculator(A2, B3, 0, 5)
    assert len(calc.hom_basis(calc.free_rank_one, M(1), 1)) == M(1).dim(1)


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
    res = Resolution(module, lo, hi, [], [], [], [])
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
        res.betti.append(free.gens)
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
        res.betti,
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


def item_fields(res):
    """`resolution_fields` with every dict as its item list, so that dict
    order counts too."""
    return (
        res.betti,
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


def distinct_blocks(res) -> set:
    """The fine-degree blocks of every step and degree of res, found by
    comparing fine degrees directly, up to an order-preserving
    relabelling of their rows."""
    keys = set()
    for step, mod in enumerate([res.module] + res.syzygies[:-1]):
        for j in range(res.lo, res.hi + 1):
            basis = mod.fine_basis(j)
            gens = [mod.fine_basis(dg)[i] for dg, (i,) in res.generators[step] if dg < j]
            for kappa in dict.fromkeys(k for k, _ in basis):
                cols = [
                    sc
                    for f, sc in gens
                    if all(x <= y for x, y in zip(f[0] + f[1], kappa[0] + kappa[1]))
                ]
                tests = [sc for k, sc in basis if k == kappa]
                rows = {r: n for n, r in enumerate(sorted({r for v in cols + tests for r in v}))}
                keys.add(
                    tuple(
                        tuple(tuple((rows[r], c) for r, c in v.items()) for v in vecs)
                        for vecs in (cols, tests)
                    )
                )
    return keys


def test_free_resolution_builds_one_echelon_per_step_and_degree(monkeypatch):
    # one Echelon per distinct fine-degree block of the whole resolution,
    # fewer than the blocks of a single degree at depth 3
    built = []

    class CountingEchelon(linalg.Echelon):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(linalg, "Echelon", CountingEchelon)
    res = free_resolution(catalog.diagonal_module("k2_k3", 1), 3, 0, 8)
    monkeypatch.undo()
    blocks = distinct_blocks(res)
    assert 0 < len(built) <= len(blocks)
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
        assert tail.betti[:3] == fresh.betti
        assert tail.diffs[:2] == fresh.diffs
        assert tail.generators[:3] == fresh.generators
        assert [s.bases for s in tail.syzygies[:3]] == [s.bases for s in fresh.syzygies]
        # sections re-run one cover degree on the tail's generators
        for t in range(lo, hi + 1):
            assert typed(calc.section(syz, t)) == typed(fresh_calc.section(syz, t))


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
    Fractions that compare equal still differ."""
    return [[(k, type(v), v) for k, v in s.items()] for s in sections]


def _assert_sections_match_reference(calc, M):
    ref, covers = reference_free_resolution(M, 0, calc.lo, calc.hi)
    for t in range(calc.lo, calc.hi + 1):
        assert typed(calc.section(M, t)) == typed(reference_section(covers, ref.frees[0], M, t))
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


def test_section_rejects_generators_the_re_run_does_not_find():
    calc = HomCalculator(A2, B3, 0, 5)
    res = calc.resolution(M(-1))
    t = res.generators[0][-1][0]
    res.generators[0] = res.generators[0][:-1]
    with pytest.raises(AssertionError, match="generators differ"):
        calc.section(M(-1), t)


def reference_through_free_vectors(calc, a, b, d):
    """Maps a -> R(-v) -> b of degree d, one for every twist v, every map
    a -> R of degree u = d - v and every basis vector of b_v: the search
    that `through_free_vectors` replaces by the generators of b."""
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
            phi_vals = resolution._split_gen_values(F0, R, u, phi)
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
    fast = resolution.through_free_vectors(calc, a, b, d)
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
