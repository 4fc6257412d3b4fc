"""Symmetry of equal-weight variables and graded Serre duality: oracles
for the Ext counts.

G permutes the equal-weight variables within each factor of R = A # B.
Each σ in G is a graded automorphism of R that fixes every diagonal
module M_s, so every fine invariant of a minimal resolution of M_s is
constant on the G-orbits of fine degrees: its fine Betti numbers, the δ
of its hom bases and the ranks of its dual δ-blocks.  Over Q,
`ext_dims` between G-invariant modules ranks one δ-block per pair of
orbits and counts it by the orbits' sizes, and `stable_hom_dims` and the
endo-quivers rank maps at one δ per orbit; the properties here tie those
counts to the per-δ ones they replace, and check the invariance they
rest on with a test-side group that shares no code with the orbit path.
"""

from collections import Counter
from functools import lru_cache
from itertools import permutations, product
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from segrecalc import linalg
from segrecalc.gradedlin import catalog, resolution
from segrecalc.gradedlin.modules import DiagonalModule, FreeModule, SyzygyModule, r_basis
from segrecalc.gradedlin.poly import mono_mul
from segrecalc.gradedlin.resolution import (
    CertificationError,
    HomCalculator,
    ext_dims,
    free_resolution,
    hom_space,
    stable_hom_dims,
)
from segrecalc.gradedlin.strands import orbit_weights
from segrecalc.hilbert import ring
from segrecalc.quivers import EndoQuiver

A2 = ring(("x0", "x1"), (1, 1))
B3 = ring(("y0", "y1", "y2"), (1, 1, 1))
ZERO = ((0, 0), (0, 0, 0))

weights = st.lists(st.integers(min_value=1, max_value=2), min_size=2, max_size=3)


def rings(wa, wb):
    return (
        ring(tuple(f"x{i}" for i in range(len(wa))), tuple(wa)),
        ring(tuple(f"y{i}" for i in range(len(wb))), tuple(wb)),
    )


def side_perms(spec) -> list:
    """Every permutation of the variables of one factor that keeps each
    variable's weight, as a tuple of positions."""
    w = spec.weights
    return [p for p in permutations(range(len(w))) if all(w[k] == w[p[k]] for k in range(len(w)))]


def group(specA, specB) -> list:
    """Every element of G, as a map of fine degrees (exp_A, exp_B)."""
    return [
        lambda f, pa=pa, pb=pb: (tuple(f[0][k] for k in pa), tuple(f[1][k] for k in pb))
        for pa, pb in product(side_perms(specA), side_perms(specB))
    ]


def assert_invariant(counts: Counter, G, what):
    """The multiset (or map) `counts` of fine degrees is fixed by every σ
    in G."""
    for sigma in G:
        moved = Counter({sigma(f): n for f, n in counts.items()})
        assert moved == counts, f"{what}: not G-invariant"


def outcome(fn, *args):
    """The value of fn(*args), or the message of its CertificationError."""
    try:
        return fn(*args)
    except CertificationError as exc:
        return ("CertificationError", str(exc))


def counted(fn, *args):
    """(outcome of fn(*args), the number of `linalg.rank_of` calls)."""
    calls = []
    real = linalg.rank_of

    def spy(cols, char=0):
        calls.append(len(cols))
        return real(cols, char)

    with mock.patch.object(linalg, "rank_of", spy):
        return outcome(fn, *args), len(calls)


def mask_ext_dims(*args):
    """`ext_dims` with every δ grouped by its own mask: the path the orbit
    count replaces."""
    with mock.patch.object(resolution, "_orbit", lambda *_: None):
        return ext_dims(*args)


def module(specA, specB, calc, kind, shift):
    """The diagonal module of this shift, or its first or second syzygy as
    the calculator's resolution holds it."""
    D = DiagonalModule(specA, specB, shift)
    return D if kind == "diagonal" else calc.resolution(D, 2).syzygy(kind)


# ---------------------------------------------------------------------------
# the orbit count against the mask count


@settings(max_examples=25, deadline=None)
@given(
    weights,
    weights,
    st.tuples(st.sampled_from(["diagonal", 1, 2]), st.integers(min_value=-2, max_value=2)),
    st.tuples(st.sampled_from(["diagonal", 1, 2]), st.integers(min_value=-2, max_value=2)),
    st.integers(min_value=0, max_value=2),
    st.lists(st.integers(min_value=-3, max_value=2), min_size=1, max_size=3, unique=True),
)
@example([1, 2, 1], [1, 1], ("diagonal", -1), (1, 1), 1, [-1, 0])  # G only partly symmetric
@example([1, 2, 1], [2, 1], (1, 1), ("diagonal", 2), 2, [-2, 0])
@example([1, 1], [1, 1, 1], (2, 1), (2, 1), 1, [-2, -1, 0, 1])  # k2_k3's syz2 ω into itself
@example([1, 1, 1], [1, 2], ("diagonal", -1), ("diagonal", -1), 2, [-3, -2])  # k3_w12
def test_orbit_counted_ext_equals_mask_grouped_ext(wa, wb, source, target, i, d_values):
    """Over Q, between G-invariant diagonals and syzygies, `ext_dims`
    counting δ by G-orbits equals `ext_dims` grouping each δ by its own
    mask, value or CertificationError, with at most as many ranks."""
    specA, specB = rings(wa, wb)
    hi = DiagonalModule(specA, specB, max(source[1], target[1], 0)).generation_bound() + 1
    calc = HomCalculator(specA, specB, 0, hi)
    M = outcome(module, specA, specB, calc, *source)
    N = outcome(module, specA, specB, calc, *target)
    if isinstance(M, tuple) or isinstance(N, tuple):
        return  # CertificationError: the resolution properties compare those
    res = outcome(calc.resolution, M, i + 1)
    if isinstance(res, tuple):
        return
    args = (res, N, [i], d_values, 0)
    assert M.invariant and N.invariant
    orbit = resolution._orbit(0, res.module, N)
    assert (orbit is not None) == (len(group(specA, specB)) > 1)
    (fast, ranked), (slow, ranked_all) = counted(ext_dims, *args), counted(mask_ext_dims, *args)
    assert fast == slow
    assert ranked <= ranked_all


def test_orbit_count_ranks_fewer_blocks_on_the_rigidity_table():
    """k2_k3's Ext^1(syz3 ω, syz3 ω) on [-2, 1], the rigidity table's
    largest entry, equals the mask count with under a third of its
    ranks."""
    calc = HomCalculator(*catalog.RINGS["k2_k3"], 0, 9)
    om3 = calc.resolution(DiagonalModule(calc.ringA, calc.ringB, 1), 5).syzygy(3)
    args = (calc.resolution(om3, 2), om3, [1], range(-2, 2), 0)
    (fast, ranked), (slow, ranked_all) = counted(ext_dims, *args), counted(mask_ext_dims, *args)
    assert fast == slow
    assert {d: v for (_, d), v in fast.items() if v} == catalog.syz3_self_extension(calc) == {-1: 6}
    assert 3 * ranked < ranked_all


def spy_orbits(monkeypatch) -> list:
    """Records the `orbit` of every `_delta_blocks` call."""
    seen = []
    real = resolution._delta_blocks

    def spy(bits, fine, orbit=None):
        seen.append(orbit)
        return real(bits, fine, orbit)

    monkeypatch.setattr(resolution, "_delta_blocks", spy)
    return seen


def hand_built(syz, j):
    """Two syzygies built by hand from syz, neither marked G-invariant:
    `dropped` lacks the basis vectors of degree j + 1 at one fine degree,
    `repeated` has one of them twice."""
    (ka, kb), _ = syz.fine_basis(j)[0]
    ua, ub = r_basis(A2, B3, 1)[0]
    target = (mono_mul(ka, ua), mono_mul(kb, ub))
    bases = dict(syz.bases)
    bases[j + 1] = [v for v in syz.bases[j + 1] if v[0] != target]
    dropped = SyzygyModule(syz.ambient, dict(bases), "dropped", syz.fine)
    bases[j + 1] = syz.bases[j + 1] + [v for v in syz.bases[j + 1] if v[0] == target]
    repeated = SyzygyModule(syz.ambient, bases, "repeated", syz.fine)
    return dropped, repeated


def test_prime_fields_hand_built_syzygies_and_hom_space_take_the_mask_path(monkeypatch):
    seen = spy_orbits(monkeypatch)
    res = free_resolution(DiagonalModule(A2, B3, 1), 3, 0, 6)
    syz = res.syzygy(1)
    assert all(s.invariant for s in res.syzygies)
    args = ([0, 1], range(-1, 2))
    # over Q between invariant modules: the orbit path
    ext_dims(res, syz, *args, 0)
    assert seen and all(seen)
    for call in (
        lambda: ext_dims(res, syz, *args, 3),  # over a prime field
        lambda: hom_space(res, syz, 0, 0),  # a basis, not a number
        lambda: HomCalculator(A2, B3, 0, 6, char=2).ext_dims(DiagonalModule(A2, B3, 1), syz, *args),
    ):
        seen.clear()
        call()
        assert seen and not any(seen)
    # hand-built syzygies: as targets, and as resolved modules, whose
    # syzygies free_resolution leaves unmarked too.  Neither is a module,
    # and here neither gives a number: `dropped` is not closed under R, and
    # the forms of `repeated` at one fine degree are dependent, over Q as
    # over F_3, which raises before any block there is ranked
    dropped, repeated = hand_built(syz, syz.min_degree)
    for N, match in ((dropped, "not closed under R"), (repeated, "dependent over Q")):
        assert not N.invariant
        seen.clear()
        with pytest.raises(CertificationError, match=match):
            ext_dims(res, N, *args, 0)
        assert seen and not any(seen)
    with pytest.raises(CertificationError, match="dependent mod 3"):
        ext_dims(res, repeated, *args, 3)
    with pytest.raises(CertificationError, match="dependent over Q"):
        hom_space(res, repeated, 1, 0)
    rebuilt = SyzygyModule(syz.ambient, {j: syz.fine_basis(j) for j in syz.bases}, "rebuilt", syz.fine)
    tail = free_resolution(rebuilt, 2, 0, 6)
    assert not any(s.invariant for s in tail.syzygies)
    seen.clear()
    by_hand = ext_dims(tail, syz, *args, 0)
    assert seen and not any(seen)
    seen.clear()
    assert ext_dims(res.tail(1), syz, *args, 0) == by_hand
    assert seen and all(seen)


@pytest.mark.parametrize("char", [0, 3])
def test_a_hand_built_syzygy_not_closed_under_r_raises(char):
    """`dropped` lacks the basis vectors of degree 2 at one fine degree
    that R maps its degree 1 into.  Ext^0_2, Ext^1_2 and Ext^2_1 into it
    read 5, 1 and 2 where the syzygy it was cut from gives 6, 0 and 0,
    with no error; each now raises before any number, as `hom_space` and
    `HomCalculator.land` do, while the syzygy rebuilt whole as a dict
    gives the syzygy's values."""
    res = free_resolution(DiagonalModule(A2, B3, 1), 3, 0, 6)
    syz = res.syzygy(1)
    dropped, _ = hand_built(syz, syz.min_degree)
    rebuilt = SyzygyModule(syz.ambient, {j: syz.fine_basis(j) for j in syz.bases}, "rebuilt", syz.fine)
    for i, d in ((0, 2), (1, 2), (2, 1)):
        with pytest.raises(CertificationError, match="not closed under R"):
            ext_dims(res, dropped, [i], [d], char)
        assert ext_dims(res, rebuilt, [i], [d], char) == ext_dims(res, syz, [i], [d], char)
    with pytest.raises(CertificationError, match="not closed under R"):
        hom_space(res, dropped, 2, char)
    calc = HomCalculator(A2, B3, 0, 6, char=char)
    with pytest.raises(CertificationError, match="not closed under R"):
        calc.land(dropped, 2)
    calc.land(rebuilt, 2)


def principal(mark: bool, hi: int) -> SyzygyModule:
    """The submodule x0·y0·R of R, which no transposition of x0, x1
    fixes, marked G-invariant or not."""
    amb = FreeModule(A2, B3, (0,))
    bases = {j: [(u, {0: 1}) for u in r_basis(A2, B3, j) if u[0][0] and u[1][0]] for j in range(hi + 1)}
    return SyzygyModule(amb, bases, "x0y0 R", (ZERO,), invariant=mark)


def test_broken_invariance_trips_the_orbit_guards():
    """A module wrongly marked G-invariant raises AssertionError on the
    orbit path, as a resolved module (the fine degrees of F_0) and as a
    target (a representative that is no δ), and gives the mask path's
    value where it is not marked or over a prime."""
    R = DiagonalModule(A2, B3, 0)
    marked = free_resolution(principal(True, 5), 1, 0, 5)
    assert all(s.invariant for s in marked.syzygies)
    with pytest.raises(AssertionError, match="generators of F_0 are not G-invariant"):
        ext_dims(marked, R, [0], [0], 0)
    plain = free_resolution(principal(False, 5), 1, 0, 5)
    assert ext_dims(plain, R, [0], [0], 0) == ext_dims(marked, R, [0], [0], 3) == {(0, 0): 6}
    res = free_resolution(R, 1, 0, 5)
    with pytest.raises(AssertionError, match="orbit representative"):
        ext_dims(res, principal(True, 5), [0], [1], 0)
    assert ext_dims(res, principal(False, 5), [0], [1], 0) == {(0, 1): 1}


# ---------------------------------------------------------------------------
# maps ranked at one δ per orbit: stable Hom and endo-quivers


def echelons_built(fn, *args):
    """(outcome of fn(*args), the number of `linalg.Echelon`s built)."""
    built = []
    real = linalg.Echelon

    class Spy(real):
        def __init__(self, *a, **kw):
            built.append(1)
            super().__init__(*a, **kw)

    with mock.patch.object(linalg, "Echelon", Spy):
        return outcome(fn, *args), len(built)


def per_delta_stable_hom_dims(*args):
    """`stable_hom_dims` with every δ ranked: the path the orbit count
    replaces."""
    with mock.patch.object(resolution, "_orbit", lambda *_: None):
        return stable_hom_dims(*args)


@settings(max_examples=20, deadline=None)
@given(
    weights,
    weights,
    st.tuples(st.sampled_from(["diagonal", 1]), st.integers(min_value=-1, max_value=1)),
    st.tuples(st.sampled_from(["diagonal", 1]), st.integers(min_value=-1, max_value=1)),
    st.lists(st.integers(min_value=-1, max_value=3), min_size=1, max_size=3, unique=True),
)
@example([1, 1], [1, 1, 1], ("diagonal", 1), ("diagonal", 1), [0, 1, 2, 3])  # stable End ω
@example([1, 1, 1], [1, 2], ("diagonal", -1), (1, 1), [1, 2])  # k3_w12
@example([1, 2, 1], [1, 1], (1, 0), ("diagonal", 0), [2, 3])  # G only partly symmetric
@example([1, 1], [1, 1, 1], (1, 1), (1, 1), [-1, 0, 1])  # stable End of k2_k3's syz ω
def test_orbit_counted_stable_hom_equals_per_delta_stable_hom(wa, wb, source, target, d_values):
    """Over Q, between G-invariant diagonals and syzygies,
    `stable_hom_dims` ranking one δ per orbit equals the per-δ ranking,
    value or CertificationError, with at most as many echelons."""
    specA, specB = rings(wa, wb)
    hi = DiagonalModule(specA, specB, max(source[1], target[1], 0)).generation_bound() + 2
    calc = HomCalculator(specA, specB, 0, hi)
    M = outcome(module, specA, specB, calc, *source)
    N = outcome(module, specA, specB, calc, *target)
    if isinstance(M, tuple) or isinstance(N, tuple):
        return  # CertificationError: the resolution properties compare those
    args = (calc, M, N, d_values)
    outcome(per_delta_stable_hom_dims, *args)  # fills the calculator's hom bases
    (fast, built), (slow, built_all) = (
        echelons_built(stable_hom_dims, *args),
        echelons_built(per_delta_stable_hom_dims, *args),
    )
    assert fast == slow
    assert built <= built_all


def orbit_count(deltas, G) -> int:
    """The number of G-orbits that the fine degrees `deltas` meet."""
    return len({frozenset(sigma(delta) for sigma in G) for delta in deltas})


@pytest.mark.parametrize("char", [0, 10007])
def test_endo_quiver_builds_echelons_at_representatives_over_q(char):
    """On k3_k3, an endo-quiver and its stable part over a calculator
    that already holds every hom basis and section build one echelon per
    G-orbit of the δ of each Hom(a, b)_d over Q, and one per δ over a
    prime, and give the same quivers as the first build."""
    calc = HomCalculator(*catalog.RINGS["k3_k3"], 0, 7, char=char)
    mods = [(f"M{s}" if s else "R", catalog.diagonal_module("k3_k3", s)) for s in (-1, 0, 1)]
    first = EndoQuiver(calc, mods, degree_top=3)
    quivers = first.quiver, first.stable_reduce(["R"])
    G = group(calc.ringA, calc.ringB)
    expected = Counter()
    for drop in (set(), {"R"}):
        keep = [m for label, m in mods if label not in drop]
        for a, b in product(keep, keep):
            for d in range(first._d_floor(a, b), first.degree_top + 1):
                deltas = {delta for delta, *_ in first._rad_basis(a, b, d)}
                expected["orbits"] += orbit_count(deltas, G)
                expected["deltas"] += len(deltas)
    assert expected["orbits"] < expected["deltas"]
    eq = EndoQuiver(calc, mods, degree_top=3)
    got, built = echelons_built(lambda: (eq.quiver, eq.stable_reduce(["R"])))
    assert got == quivers
    assert built == expected["orbits" if char == 0 else "deltas"]


def test_broken_invariance_trips_the_quiver_guards():
    """x0·y0·R wrongly marked G-invariant raises AssertionError in the
    endo-quiver over Q (a representative that is no δ of rad), and gives
    the per-δ quiver where it is not marked or over a prime; both
    guards of `orbit_weights` raise on counts built by hand."""
    R = DiagonalModule(A2, B3, 0)
    with pytest.raises(AssertionError, match="orbit representative"):
        EndoQuiver(HomCalculator(A2, B3, 0, 6), [("R", R), ("P", principal(True, 6))], 2).quiver
    plain = EndoQuiver(HomCalculator(A2, B3, 0, 6), [("R", R), ("P", principal(False, 6))], 2)
    modular = EndoQuiver(HomCalculator(A2, B3, 0, 6, char=3), [("R", R), ("P", principal(True, 6))], 2)
    assert plain.quiver.arrows == modular.quiver.arrows
    assert plain.quiver.arrows[("R", "P")] == 1
    orbit = (((0, 1),), ())
    with pytest.raises(AssertionError, match="orbit representative"):
        orbit_weights(orbit, Counter({((1, 0), ()): 1}))
    with pytest.raises(AssertionError, match="at its representative"):
        orbit_weights(orbit, Counter({((1, 0), ()): 1, ((0, 1), ()): 2}))
    assert orbit_weights(orbit, Counter({((1, 0), ()): 2, ((0, 1), ()): 2})) == {((0, 1), ()): 2}


# ---------------------------------------------------------------------------
# the invariance the orbit count rests on


def delta_ranks(res, N, i, d) -> Counter:
    """δ -> (columns, rank) of the i-th dual map in degree d, read off
    `_Dual.blocks` on the mask path, one entry per δ."""
    dual = resolution._Dual(res, N, 0, lambda cols: (len(cols), linalg.rank_of(cols)))
    dual.guard(i, d)
    out = Counter()
    for _, part_a, part_b, solution in dual.blocks(i, d):
        for delta in product(part_a, part_b):
            out[delta] = solution
    return out


@settings(max_examples=25, deadline=None)
@given(
    weights,
    weights,
    st.integers(min_value=-2, max_value=2),
    st.integers(min_value=-2, max_value=2),
    st.integers(min_value=0, max_value=1),
    st.sampled_from([0, 3]),
)
@example([1, 1], [1, 1, 1], 1, 1, 0, 0)  # k2_k3's canonical module
@example([1, 2, 1], [1, 1], -1, 2, 1, 3)  # G only partly symmetric
@example([1, 1, 1], [1, 2], -1, 1, 0, 0)  # k3_w12
def test_fine_betti_numbers_hom_bases_and_block_ranks_are_g_invariant(wa, wb, s, t, k, char):
    """The fine degrees of the generators of each F_k of a resolution of
    M_s, the δ of the hom basis of Hom(M_s, M_t)_d over Q or F_3, and
    the per-δ (columns, rank) of the dual maps into M_t and into the
    first syzygy of M_s are G-invariant multisets, at the degree d = k
    above the bottom max(0, s - t) of Hom(M_s, M_t) ≅ M_(t-s)."""
    d = max(0, s - t) + k
    specA, specB = rings(wa, wb)
    G = group(specA, specB)
    Ms, Mt = DiagonalModule(specA, specB, s), DiagonalModule(specA, specB, t)
    hi = DiagonalModule(specA, specB, max(s, t, 0)).generation_bound() + 1
    calc = HomCalculator(specA, specB, 0, hi, char=char)
    res = outcome(calc.resolution, Ms, 2)
    if isinstance(res, tuple):
        return  # CertificationError: the resolution properties compare those
    for step, syz in enumerate(res.syzygies):
        assert_invariant(Counter(syz.fine), G, f"the fine degrees of F_{step}")
    basis = outcome(calc.hom_basis, Ms, Mt, d)
    if not isinstance(basis, tuple):
        assert_invariant(Counter(delta for delta, *_ in basis), G, "the δ of the hom basis")
    for N in (Mt, res.syzygy(1)):
        for i in (0, 1):
            ranks = outcome(delta_ranks, res, N, i, d)
            if not isinstance(ranks, tuple):
                assert_invariant(ranks, G, f"the δ-block ranks of the map {i}")


# ---------------------------------------------------------------------------
# graded Serre duality over k3_w12


@lru_cache(maxsize=None)
def k3_w12_calculator() -> HomCalculator:
    """One calculator for every example, so each M_s is resolved once."""
    return HomCalculator(*catalog.RINGS["k3_w12"], -4, 8)


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from([-2, -1, 1, 2]),
    st.sampled_from([-2, -1, 1, 2]),
    st.sampled_from([1, 2]),
    st.integers(min_value=-5, max_value=3),
)
@example(-2, 2, 1, -3)
@example(-1, -1, 2, -3)  # Ext^2(M_-1, M_-1)_-3, which a low window breaks
def test_graded_serre_duality_on_k3_w12(s, t, i, e):
    """k3_w12 is a Gorenstein isolated singularity of dimension d = 4 and
    a-invariant a = -3, so its stable category of graded MCM modules has
    the Serre functor (a)[d - 1] (Auslander-Reiten duality; Amiot-Iyama-
    Reiten, Amer. J. Math. 137, 2015): dim Ext^i(M_s, M_t)_e =
    dim Ext^(3-i)(M_t, M_s)_(a-e) for 0 < i < 3.  The two sides read
    resolutions of different modules.  No generation bound of a syzygy
    is certified yet, so the window is one where these values have
    settled: hi = 8 (Ext^2(M_-1, M_-1)_-3 reads 296 at hi = 6 and 0 from
    hi = 8 on)."""
    calc = k3_w12_calculator()
    Ms, Mt = (DiagonalModule(calc.ringA, calc.ringB, k) for k in (s, t))
    lhs = calc.ext_dims(Ms, Mt, [i], [e])
    rhs = calc.ext_dims(Mt, Ms, [3 - i], [-3 - e])
    assert lhs[(i, e)] == rhs[(3 - i, -3 - e)]


def test_serre_dual_values_on_k3_w12():
    """The pairs of the duality probe: Ext^1(M_-2, M_2) is 1 at e = -4
    and 3 at e = -3, and Ext^2(M_2, M_-2) is 1 at e = 1 and 3 at e = 0."""
    calc = k3_w12_calculator()
    Mm, Mp = (DiagonalModule(calc.ringA, calc.ringB, k) for k in (-2, 2))
    assert calc.ext_dims(Mm, Mp, [1], [-4, -3]) == {(1, -4): 1, (1, -3): 3}
    assert calc.ext_dims(Mp, Mm, [2], [1, 0]) == {(2, 1): 1, (2, 0): 3}
