import itertools
from collections import Counter
from functools import lru_cache
from math import comb

import hypothesis.strategies as st
import pytest
from hypothesis import assume, example, given, settings

from segrecalc import cli, linalg
from segrecalc.hilbert import ring
from segrecalc.gradedlin.complexes import (
    BiFreeComplex,
    DegreewiseComplex,
    FreeComplex,
    alpha_complex,
    bify,
    diagonal,
    diff_complex,
    extend_diagonal,
    glue_split_tensor,
    koszul,
    tensor,
    truncate_split,
)
from segrecalc.gradedlin import catalog, complexes, strands
from segrecalc.gradedlin.poly import monomial_index, monomials, mono_mul, variable
from segrecalc.gradedlin.strands import kappa_masks, mask_counts

A2 = ring(("x0", "x1"), (1, 1))
B3 = ring(("y0", "y1", "y2"), (1, 1, 1))
UV = ring(("u", "v"), (1, 2))
XYZ = ring(("x", "y", "z"), (1, 1, 1))


def test_koszul_terms():
    assert koszul(A2).terms == [(2,), (1, 1), (0,)]
    assert koszul(UV).terms == [(3,), (1, 2), (0,)]
    assert [len(t) for t in koszul(B3).terms] == [1, 3, 3, 1]


def test_koszul_right_end_homology():
    for spec in (A2, UV, B3):
        dc = diagonal(bify(koszul(spec), spec, "A"), 0, (0, 4))
        # diagonal over (spec, spec) just expands the one-sided complex
        h = dc.homology()
        last = len(dc.dims) - 1
        assert h == {(last, 0): 1}


def test_truncate_split_views():
    s = truncate_split(koszul(XYZ), lambda g: g >= 1)
    assert s.x().terms[:2] == [(3,), (2, 2, 2)] and s.x().terms[2] == (1, 1, 1)
    assert s.y().terms[-1] == (0,)
    s2 = truncate_split(koszul(UV), lambda g: g >= 3)
    assert s2.x().terms[0] == (3,)
    assert [t for t in s2.y().terms if t] == [(1, 2), (0,)]
    # trivial split leaves everything on one side
    s3 = truncate_split(koszul(A2), lambda g: True)
    assert s3.y().terms == [(), (), ()]


def test_truncate_split_rejects_incompatible():
    with pytest.raises(ValueError):
        truncate_split(koszul(A2), lambda g: g <= 1).x()  # low class above high


def test_tensor_ranks_binomial_convolution():
    t = tensor(koszul(A2), koszul(B3))
    assert t.rank_sequence() == [1, 5, 10, 10, 5, 1]
    for n, term in enumerate(t.terms):
        expected = sum(comb(2, a) * comb(3, n - a) for a in range(0, n + 1))
        assert len(term) == expected


def test_tensor_identity_factor():
    single = ring(("t",), (1,))
    t = tensor(koszul(A2), koszul(single))
    assert t.rank_sequence() == [1, 3, 3, 1]


def reference_tensor(cA: FreeComplex, cB: FreeComplex) -> BiFreeComplex:
    """The total tensor complex built position by position, entries
    summed: the reference for `tensor`, which glues two splits that put
    every generator on the X side."""
    posA, posB = len(cA.terms), len(cB.terms)
    terms = []
    index = {}
    for n in range(posA + posB - 1):
        gens = []
        for p in range(max(0, n - posB + 1), min(n, posA - 1) + 1):
            q = n - p
            for i, a in enumerate(cA.terms[p]):
                for j, b in enumerate(cB.terms[q]):
                    index[(p, q, i, j)] = (n, len(gens))
                    gens.append((a, b))
        terms.append(tuple(gens))
    diffs = [dict() for _ in range(len(terms) - 1)]
    unitA = (0,) * len(cA.ring.variables)
    unitB = (0,) * len(cB.ring.variables)
    for (p, q, i, j), (n, col) in index.items():
        if p + 1 < posA:
            for (r, c), poly in cA.diffs[p].items():
                if c != i:
                    continue
                row = index[(p + 1, q, r, j)][1]
                entry = diffs[n].setdefault((row, col), {})
                for u, coeff in poly.items():
                    key = (u, unitB)
                    entry[key] = entry.get(key, 0) + coeff
        if q + 1 < posB:
            sign = -1 if p % 2 else 1
            for (r, c), poly in cB.diffs[q].items():
                if c != j:
                    continue
                row = index[(p, q + 1, i, r)][1]
                entry = diffs[n].setdefault((row, col), {})
                for u, coeff in poly.items():
                    key = (unitA, u)
                    entry[key] = entry.get(key, 0) + sign * coeff
    return BiFreeComplex(cA.ring, cB.ring, terms, diffs)


def _bi_items(bi: BiFreeComplex):
    """A bigraded complex with every dict as its item list, so that dict
    order counts too."""
    return (
        bi.ringA,
        bi.ringB,
        bi.terms,
        [[(rc, list(poly.items())) for rc, poly in d.items()] for d in bi.diffs],
    )


def _drawn_factor(weights, twist, side, threshold):
    """The Koszul complex on drawn weights, twisted, or one side of a
    truncation split of it, which has empty terms at its ends."""
    spec = ring(tuple(f"v{i}" for i in range(len(weights))), tuple(weights))
    k = koszul(spec).twist(twist)
    if side == "whole":
        return k
    try:
        return truncate_split(k, lambda g: g >= threshold).side(side == "x")
    except ValueError:
        assume(False)


factor_draws = (
    st.lists(st.integers(1, 3), min_size=1, max_size=3),
    st.integers(-2, 2),
    st.sampled_from(["whole", "x", "y"]),
    st.integers(-1, 4),
)


@settings(max_examples=60, deadline=None)
@given(*factor_draws, *factor_draws)
def test_tensor_matches_reference(wa, ta, side_a, thr_a, wb, tb, side_b, thr_b):
    cA = _drawn_factor(wa, ta, side_a, thr_a)
    cB = _drawn_factor(wb, tb, side_b, thr_b)
    assert _bi_items(tensor(cA, cB)) == _bi_items(reference_tensor(cA, cB))


def test_tensor_keeps_empty_terms_and_zero_coefficients():
    # inputs glue_split_tensor rejects or trims: no generators at all, no
    # terms at all, empty terms inside and at the ends, a zero coefficient
    x, y = variable(A2, 0), variable(B3, 0)
    cases = [
        (FreeComplex(A2, [()], []), FreeComplex(B3, [()], [])),
        (FreeComplex(A2, [], []), FreeComplex(B3, [(0,)], [])),
        (FreeComplex(A2, [(1,), (), (0,)], [{}, {}]), FreeComplex(B3, [(0,)], [])),
        (FreeComplex(A2, [(), (1,), (0,), ()], [{}, {(0, 0): {x: 0}}, {}]), koszul(B3)),
        (koszul(A2), FreeComplex(B3, [(1,), (0,)], [{(0, 0): {y: 1}}])),
    ]
    for cA, cB in cases:
        assert _bi_items(tensor(cA, cB)) == _bi_items(reference_tensor(cA, cB))
    assert tensor(*cases[0]).terms == [()]
    assert tensor(*cases[1]).terms == []
    assert tensor(*cases[2]).rank_sequence() == [1, 0, 1]
    assert tensor(*cases[3]).rank_sequence() == [0, 1, 4, 6, 4, 1, 0]
    assert tensor(*cases[3]).diffs[1][(3, 0)] == {(x, (0, 0, 0)): 0}
    all_x = [[truncate_split(c, lambda g: True) for c in pair] for pair in cases[:3]]
    with pytest.raises(ValueError, match="empty glued complex"):
        glue_split_tensor(*all_x[0])
    with pytest.raises(ValueError, match="positional gap"):
        glue_split_tensor(*all_x[2])


def test_koszul_diagonal_patterns():
    # first-factor variant: cokernel dims follow the second factor
    for i in range(-2, 4):
        dc = catalog.koszul_diagonal("k2_k3", 1, i, (0, 6))
        h = dc.homology()
        last = len(dc.dims) - 1
        expected = {(last, -i): comb(-i + 2, 2)} if i <= 0 else {}
        assert h == expected, (i, h)
    # second-factor variant: cokernel dims follow the first factor
    for i in range(-2, 4):
        dc = catalog.koszul_diagonal("k2_k3", 2, i, (0, 6))
        h = dc.homology()
        last = len(dc.dims) - 1
        expected = {(last, 0): i + 1} if i >= 0 else {}
        assert h == expected, (i, h)


def test_koszul_diagonal_labels():
    dc = catalog.koszul_diagonal("k2_k3", 2, 1, (0, 4))
    assert dc.labels == ["M4(-3)", "M3(-2)^3", "M2(-1)^3", "M1"]
    assert dc.summands[0] == [(4, -3, 1)]


def test_almost_split_sequences_exact():
    for key in ("k3_w12", "k3_k3"):
        for seq in catalog.almost_split_suite(key, (0, 5)):
            v = seq.verify()
            assert v["exact"], v


def test_almost_split_shapes():
    seqs = {s.name: s for s in catalog.almost_split_suite("k3_w12", (0, 4))}
    fund = seqs["3-almost-split at-R over k3_w12"]
    assert fund.complex.labels == [
        "R(-3)",
        "M-1(-2)+M1(-3)^3",
        "R(-1)^3+R(-2)^3",
        "M-1^3+M1(-1)",
        "R",
    ]
    at1 = seqs["3-almost-split at-M1 over k3_w12"]
    assert at1.complex.labels[0] == "M1(-3)" and at1.complex.labels[-1] == "M1"
    seqs4 = {s.name: s for s in catalog.almost_split_suite("k3_k3", (0, 4))}
    fund4 = seqs4["4-almost-split at-R over k3_k3"]
    assert fund4.complex.labels[1] == "M-1(-2)^3+M1(-3)^3"
    assert fund4.complex.labels[2] == "R(-2)^9"


def test_glue_rejects_gapped_split():
    # both sides fully in the X class leaves no Y block to glue onto,
    # which is fine; a gap in the middle is not
    sA = truncate_split(koszul(XYZ), lambda g: g >= 2)
    sB = truncate_split(koszul(XYZ), lambda g: g >= 10)  # everything low
    glued = glue_split_tensor(sA, sB)  # X block empty: plain Y'⊗Y''
    assert glued.rank_sequence()


def test_alpha_complex_dims_and_exactness():
    c = alpha_complex(3, 0)
    assert [d.get(0, 0) for d in c.dims] == [10, 18, 9, 1]
    assert c.homology() == {}
    for n in (1, 2, 3):
        for m in range(-5, 6):
            h = alpha_complex(n, m).homology()
            assert h == ({(0, n): 1} if m == -n else {}), (n, m)


def test_diff_complex_cokernel():
    for n in (1, 2, 3):
        spec = ring(tuple(f"y{i}" for i in range(n)), (1,) * n)
        dc = diff_complex(spec, (0, 5))
        assert dc.homology() == {(len(dc.dims) - 1, 0): 1}


def test_diff_complex_rejects_weighted():
    with pytest.raises(ValueError):
        diff_complex(UV, (0, 4))


def test_claim3_core_shape():
    seq = catalog.claim3_core_sequence((0, 5))
    dc = seq.complex
    assert seq.verify()["exact"]
    # third term matches three copies of the shifted second syzygy
    om2_dims = {2: 6, 3: 24, 4: 60, 5: 120, 6: 210}
    for j in range(1, 5):
        assert dc.dim(2, j) == 3 * om2_dims[j + 1]


def test_sink_sequences():
    assert catalog.sink_sequence_at_omega((0, 5)).verify()["exact"]
    cut = catalog.sink_sequence_at_syzygy2((0, 5))
    assert cut.verify()["exact"]
    # the image term agrees degreewise with the second syzygy
    om2_dims = {0: 0, 1: 0, 2: 6, 3: 24, 4: 60, 5: 120}
    for j in range(0, 6):
        assert cut.complex.dim(3, j) == om2_dims[j]


def test_extend_diagonal_dims():
    dc = diff_complex(B3, (0, 4))
    ext = extend_diagonal(dc, A2)
    for t in range(len(dc.dims)):
        for j in range(0, 5):
            assert ext.dim(t, j) == dc.dim(t, j) * (j + 1)


def test_catalog_sequences_reject_an_empty_window():
    makers = [
        catalog.sink_sequence_at_omega,
        catalog.sink_sequence_at_syzygy2,
        catalog.claim3_core_sequence,
        lambda w: diff_complex(B3, w),
    ]
    for key in catalog.RINGS:
        for variant in (1, 2):
            makers.append(lambda w, key=key, v=variant: catalog.koszul_diagonal(key, v, 0, w))
    for key, recipes in catalog.AR_RECIPES.items():
        makers.append(lambda w, key=key: catalog.almost_split_suite(key, w))
        for at in recipes:
            makers.append(lambda w, key=key, at=at: catalog.almost_split_sequence(key, at, w))
    for build in makers:
        with pytest.raises(ValueError, match="empty window"):
            build((5, 2))
    assert catalog.sink_sequence_at_omega((2, 2)).verify()["window"] == [2, 2]


@settings(max_examples=25, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(-3, 5),
    st.integers(0, 3),
    st.sampled_from((0, 2, 3, 10007)),
)
@example(1, -1, 2, 2)  # β = 0, the least pattern entry for one variable
@example(4, 5, 3, 3)  # lo > n
def test_diff_complex_pattern_ranks_match_flat_matrices(n, lo, width, char):
    """rank_at, dims and homology of diff_complex and of its extension
    over A2, ranked by multidegree pattern, against rank_of over the
    flat matrices of `reference_diff_complex` and their expansion over
    A2; the last term S has the dims of S (times A_j)."""
    spec = ring(tuple(f"y{i}" for i in range(n)), (1,) * n)
    window = (lo, lo + width)
    dc = diff_complex(spec, window)
    ref = reference_diff_complex(spec, window)
    for c, mats, spread in (
        (dc, ref.mats, lambda j: 1),
        (extend_diagonal(dc, A2), _extended(ref, A2), lambda j: j + 1),
    ):
        got = {
            (t, j): (c.dim(t, j), c.rank_at(t, j, char))
            for t in range(len(c.dims))
            for j in range(lo, lo + width + 1)
        }
        last = len(c.dims) - 1
        want_h = {}
        for (t, j), (dim, rank) in got.items():
            cols = mats[t].get(j, []) if t < last else []
            want = len(cols) if t < last else spread(j) * len(monomials(spec, j))
            assert dim == want, (t, j)
            assert rank == (linalg.rank_of(cols, char) if cols else 0), (t, j)
            # the flat homology, from the same ranks: H = dim - rank - rank into t
            k = dim - rank - got.get((t - 1, j), (0, 0))[1]
            if k:
                want_h[t, j] = k
        assert c.homology(char) == want_h


def _extended(c, spec):
    """The flat matrices of extend_diagonal(c, spec) from c's: in degree
    j, each column of c once per monomial ia of A_j, its rows offset by
    ia times c's row count."""
    mats = []
    for t, table in enumerate(c.mats):
        out = {}
        for j, cols in table.items():
            rows, da = c.dim(t + 1, j), len(monomials(spec, j))
            if da:
                out[j] = [
                    {ia * rows + r: v for r, v in col.items()} for ia in range(da) for col in cols
                ]
        mats.append(out)
    return mats


def test_kernel_complexes_are_rank_only():
    """diff_complex and its extension (claim 3's complex) have no flat
    matrices, and contraction-suite ranks by pattern over Q, F_2 and F_3
    alike."""
    seq = catalog.claim3_core_sequence((0, 5))
    for c in (diff_complex(XYZ, (0, 5)), seq.complex):
        assert c.mats is None and c.strands is not None
    arts = [cli.check_contraction_suite({"window": 10, "char": p}) for p in (0, 2, 3)]
    assert arts[0]["pass"] and arts[1] == arts[0] and arts[2] == arts[0]
    assert seq.verify()["exact"]


def test_repr_and_eq_of_every_catalog_complex_rank_nothing(monkeypatch):
    """repr() and == return on every kind of complex the catalog builds,
    and on a NamedSequence, without ranking a matrix."""
    window = (0, 5)
    builders = {
        "koszul diagonal": lambda: catalog.koszul_diagonal("k2_k3", 1, 0, window),
        "almost-split": lambda: catalog.almost_split_sequence("k3_w12", "at-R", window).complex,
        "sink at omega": lambda: catalog.sink_sequence_at_omega(window).complex,
        "sink at syz2": lambda: catalog.sink_sequence_at_syzygy2(window).complex,
        "diff_complex": lambda: diff_complex(B3, window),
        "extend_diagonal": lambda: catalog.claim3_core_sequence(window).complex,
        "alpha_complex": lambda: alpha_complex(3, 0),
    }
    pairs = {kind: (build(), build()) for kind, build in builders.items()}
    seq = catalog.claim3_core_sequence(window)
    ranked = []
    monkeypatch.setattr(linalg, "rank_of", lambda *a: ranked.append(a))
    for kind, (x, y) in pairs.items():
        assert repr(x).startswith("DegreewiseComplex(labels="), kind
        assert ("mats=None" in repr(x)) == (kind != "alpha_complex"), kind
        assert x == y, kind
    assert pairs["sink at omega"][0] != pairs["sink at syz2"][0]
    assert repr(seq).startswith("NamedSequence(name='kernel-complex diagonal core sequence'")
    assert ranked == []


def test_manifest_builds_no_flat_matrix_but_alpha_complex(monkeypatch, tmp_path):
    """Every degreewise complex of `reproduce-paper --section all` is
    stranded, except alpha_complex's, which are flat by construction."""
    flat, alphas = [], []
    real_init, real_alpha = DegreewiseComplex.__post_init__, complexes.alpha_complex

    def post_init(self):
        if self.mats is not None:
            flat.append(self)
        real_init(self)

    def alpha(n, m):
        alphas.append(real_alpha(n, m))
        return alphas[-1]

    monkeypatch.setattr(DegreewiseComplex, "__post_init__", post_init)
    monkeypatch.setattr(complexes, "alpha_complex", alpha)
    assert cli.main(["reproduce-paper", "--section", "all", "--out", str(tmp_path / "r")]) == 0
    assert alphas and [id(c) for c in flat] == [id(c) for c in alphas]


# ---------------------------------------------------------------------------
# reference expansions of Koszul maps and diagonals


def _matrix_at_reference(c, t, j):
    """The scalar columns of c.diffs[t] in internal degree j, one
    mono_mul and index lookup per term."""
    src, dst = c.terms[t], c.terms[t + 1]

    def offsets(gens):
        out = [0]
        for g in gens:
            out.append(out[-1] + len(monomials(c.ring, j - g)))
        return out

    src_off, dst_off = offsets(src), offsets(dst)
    cols = [dict() for _ in range(src_off[-1])]
    for (r, col_i), poly in c.diffs[t].items():
        for k, mono in enumerate(monomials(c.ring, j - src[col_i])):
            col = cols[src_off[col_i] + k]
            for u, coeff in poly.items():
                idx = monomial_index(c.ring, j - dst[r]).get(mono_mul(u, mono))
                if idx is None:
                    raise AssertionError("entry degree mismatch")
                col[dst_off[r] + idx] = col.get(dst_off[r] + idx, 0) + coeff
    return [{k: v for k, v in col.items() if v} for col in cols]


def _diagonal_reference(bi, shift, window):
    """The diagonal matrices: the row of (ua·mA) ⊗ (ub·mB) from one
    mono_mul per (term, mA) and one per (term, mB), looked up in the
    target's monomial bases."""
    lo, hi = window
    specA, specB = bi.ringA, bi.ringB

    def basis(term, j):
        offs, blocks = [0], []
        for (a, b) in term:
            ma, mb = monomials(specA, shift + j - a), monomials(specB, j - b)
            blocks.append((ma, mb))
            offs.append(offs[-1] + len(ma) * len(mb))
        return offs, blocks

    mats = []
    for t, entries in enumerate(bi.diffs):
        table = {}
        for j in range(lo, hi + 1):
            soffs, sblocks = basis(bi.terms[t], j)
            doffs, dblocks = basis(bi.terms[t + 1], j)
            if soffs[-1] == 0:
                continue
            cols = [dict() for _ in range(soffs[-1])]
            for (r, c), poly in entries.items():
                ma, mb = sblocks[c]
                if not ma or not mb:
                    continue
                tib = len(dblocks[r][1])
                idxA = monomial_index(specA, shift + j - bi.terms[t + 1][r][0])
                idxB = monomial_index(specB, j - bi.terms[t + 1][r][1])
                rows_b = [[idxB.get(mono_mul(ub, mB)) for mB in mb] for _, ub in poly]
                for ia, mA in enumerate(ma):
                    rows_a = [idxA.get(mono_mul(ua, mA)) for ua, _ in poly]
                    for ib in range(len(mb)):
                        col = cols[soffs[c] + ia * len(mb) + ib]
                        for ra, rbs, coeff in zip(rows_a, rows_b, poly.values()):
                            rb = rbs[ib]
                            if ra is None or rb is None:
                                raise AssertionError("diagonal degree mismatch")
                            key = doffs[r] + ra * tib + rb
                            val = col.get(key, 0) + coeff
                            if val:
                                col[key] = val
                            elif key in col:
                                del col[key]
            table[j] = cols
        mats.append(table)
    return mats


def _ordered(mats):
    # column dicts as item lists, so key order is compared too
    return [{j: [list(col.items()) for col in cols] for j, cols in m.items()} for m in mats]


def _expanded(dc):
    """The reference expansion of a stranded diagonal: the scalar
    matrices of the bigraded complex its strands keep."""
    return _diagonal_reference(dc.strands.bi, dc.strands.shift, dc.window)


def _reference_dims(bi, shift, window):
    """{degree: dimension} per term of the diagonal, by counting monomials."""
    lo, hi = window
    out = []
    for term in bi.terms:
        table = {}
        for j in range(lo, hi + 1):
            n = sum(
                len(monomials(bi.ringA, shift + j - a)) * len(monomials(bi.ringB, j - b))
                for (a, b) in term
            )
            if n:
                table[j] = n
        out.append(table)
    return out


def _flat_diagonal(bi, shift, window):
    """The diagonal as a flat complex over the reference matrices."""
    dims = _reference_dims(bi, shift, window)
    mats = _diagonal_reference(bi, shift, window)
    return DegreewiseComplex([""] * len(bi.terms), dims, mats, window)


def _assert_diagonal_matches(bi, shift, window):
    dc = diagonal(bi, shift, window)
    assert dc.mats is None and dc.strands.bi is bi and dc.strands.shift == shift
    want = _reference_dims(bi, shift, window)
    for t, term in enumerate(bi.terms):
        assert list(dc.dims[t].items()) == list(want[t].items())
        summ = Counter((shift + b - a, -b) for (a, b) in term)
        assert dc.summands[t] == sorted((m, tw, k) for (m, tw), k in summ.items())
    return dc


def _glued(key, at):
    a, b = catalog.ring_pair(key)
    ta, thr_a, tb, thr_b, shift, _ = catalog.AR_RECIPES[key][at]
    sA = truncate_split(koszul(a).twist(ta), lambda g: g >= thr_a)
    sB = truncate_split(koszul(b).twist(tb), lambda g: g >= thr_b)
    return glue_split_tensor(sA, sB), shift


def test_diagonal_tables_match_reference_on_almost_split_sequences():
    for key, recipes in catalog.AR_RECIPES.items():
        for at in recipes:
            bi, shift = _glued(key, at)
            for window in ((0, 4), (-2, 3)):
                dc = _assert_diagonal_matches(bi, shift, window)
                seq = catalog.almost_split_sequence(key, at, window)
                assert dc.labels == seq.complex.labels
                assert _ordered(_expanded(dc)) == _ordered(_expanded(seq.complex))


def test_diagonal_tables_match_reference_on_koszul_diagonals():
    a, b = catalog.ring_pair("k2_k3")
    for variant, bi in ((1, bify(koszul(a), b, "A")), (2, bify(koszul(b), a, "B"))):
        for shift in range(-2, 4):
            dc = _assert_diagonal_matches(bi, shift, (-1, 5))
            kd = catalog.koszul_diagonal("k2_k3", variant, shift, (-1, 5))
            assert dc.labels == kd.labels and dc.summands == kd.summands
            assert _ordered(_expanded(dc)) == _ordered(_expanded(kd))


small_weights = st.lists(st.integers(1, 3), min_size=1, max_size=3)
drawn_complexes = (
    small_weights,
    small_weights,
    st.sampled_from(["tensor", "glue", "bifyA", "bifyB"]),
    st.integers(-2, 2),
    st.integers(-1, 1),
    st.integers(0, 4),
    st.integers(0, 4),
    st.integers(-3, 0),
    st.integers(0, 4),
)


def _drawn_complex(wa, wb, kind, twist, thr_a, thr_b):
    """A bigraded complex from Koszul complexes on drawn weights, the
    first one twisted."""
    A = ring(tuple(f"a{i}" for i in range(len(wa))), tuple(wa))
    B = ring(tuple(f"b{i}" for i in range(len(wb))), tuple(wb))
    kA, kB = koszul(A).twist(twist), koszul(B)
    if kind == "tensor":
        return tensor(kA, kB)
    if kind == "glue":
        sA = truncate_split(kA, lambda g: g >= thr_a)
        sB = truncate_split(kB, lambda g: g >= thr_b)
        try:
            return glue_split_tensor(sA, sB)
        except ValueError:
            assume(False)
    if kind == "bifyA":
        return bify(kA, B, "A")
    return bify(kB, A, "B")


@settings(max_examples=30, deadline=None)
@given(*drawn_complexes)
def test_diagonal_tables_match_reference_on_random_complexes(
    wa, wb, kind, shift, twist, thr_a, thr_b, lo, width
):
    bi = _drawn_complex(wa, wb, kind, twist, thr_a, thr_b)
    _assert_diagonal_matches(bi, shift, (lo, lo + width))


def test_misdegreed_entries_still_raise():
    a, b = catalog.ring_pair("k2_k3")
    bi = bify(koszul(a), b, "A")
    diffs = [dict(d) for d in bi.diffs]
    (rc, poly), = list(diffs[-1].items())[:1]
    (ua, ub), coeff = next(iter(poly.items()))
    diffs[-1][rc] = {(tuple(2 * e for e in ua), ub): coeff}  # degree 2, not 1
    bad = BiFreeComplex(bi.ringA, bi.ringB, bi.terms, diffs)
    with pytest.raises(AssertionError, match="diagonal degree mismatch"):
        _diagonal_reference(bad, 0, (0, 3))
    # x0² on one path of the Koszul square, x0 on the other: no fine degrees
    with pytest.raises(ValueError, match="two fine degrees"):
        diagonal(bad, 0, (0, 3))


# ---------------------------------------------------------------------------
# each degreewise matrix built once and ranked once


def test_homology_ranks_each_matrix_once(monkeypatch):
    ranked = []
    real = linalg.rank_of

    def counted(cols, char=0):
        ranked.append(id(cols))
        return real(cols, char)

    monkeypatch.setattr(linalg, "rank_of", counted)
    # flat: every nonempty matrix is ranked, each once
    for n, m in ((3, 0), (4, -2)):
        dc = alpha_complex(n, m)
        assert dc.strands is None
        ranked.clear()
        dc.homology()
        lo, hi = dc.window
        nonempty = [id(mm[j]) for mm in dc.mats for j in range(lo, hi + 1) if mm.get(j)]
        assert nonempty and sorted(ranked) == sorted(nonempty)
    # strands: each distinct (position, column mask) block is ranked once
    # per complex
    for seq in catalog.almost_split_suite("k3_w12", (-1, 4)):
        dc = seq.complex
        ranked.clear()
        dc.homology()
        assert dc.mats is None
        lo, hi = dc.window
        blocks = {
            (t, mask)
            for t in range(len(dc.dims) - 1)
            for j in range(lo, hi + 1)
            if dc.dims[t].get(j)
            for mask in dc.strands.table(t, j)
            if mask
        }
        assert ranked and len(ranked) == len(blocks)
        ranked.clear()
        dc.homology()
        assert ranked == []


# ---------------------------------------------------------------------------
# twist, splice and image term of stranded diagonals against flat references


def reference_twisted(c, s):
    """Degree shift of a flat complex: the piece at j is c's at j + s."""
    lo, hi = c.window
    dims = [{j - s: v for j, v in d.items()} for d in c.dims]
    mats = [{j - s: m for j, m in mm.items()} for mm in c.mats]
    return DegreewiseComplex(
        [f"{l}({s})" if s else l for l in c.labels], dims, mats, (lo - s, hi - s)
    )


def reference_spliced(x, y):
    """Splice of two flat complexes through a shared term, the junction
    map the composite of the scalar matrices through it."""
    (lo_a, hi_a), (lo_b, hi_b) = x.window, y.window
    lo, hi = max(lo_a, lo_b), min(hi_a, hi_b)
    for j in range(lo, hi + 1):
        if x.dim(len(x.dims) - 1, j) != y.dim(0, j):
            raise ValueError("splice terms differ")
    junction = {}
    for j in range(lo, hi + 1):
        a = x.mats[-1].get(j, [])
        b = y.mats[0].get(j, [])
        if a:
            junction[j] = linalg.compose(b, a) if b else [dict() for _ in a]
    labels = x.labels[:-1] + y.labels[1:]
    dims = x.dims[:-1] + y.dims[1:]
    mats = x.mats[:-1] + [junction] + y.mats[1:]
    return DegreewiseComplex(labels, dims, mats, (lo, hi))


def _koszul_piece(key, variant, shift, twist, window):
    """A Koszul diagonal twisted by `twist` onto `window`, with the flat
    reference of the same: the untwisted diagonal over its reference
    matrices, twisted by `reference_twisted`."""
    lo, hi = window
    dc = catalog.koszul_diagonal(key, variant, shift, (lo + twist, hi + twist))
    ref = DegreewiseComplex(dc.labels, dc.dims, _expanded(dc), dc.window)
    return dc.twisted(twist), reference_twisted(ref, twist)


def _assert_matches_flat(dc, ref, chars=(0, 2, 10007)):
    """Labels, dims and window equal, and every rank the rank_of of the
    reference matrix."""
    assert (dc.labels, dc.dims, dc.window) == (ref.labels, ref.dims, ref.window)
    assert dc.mats is None
    lo, hi = dc.window
    for char in chars:
        for t in range(len(dc.dims) - 1):
            for j in range(lo, hi + 1):
                cols = ref.mats[t].get(j)
                want = linalg.rank_of(cols, char) if cols else 0
                assert dc.rank_at(t, j, char) == want, (t, j, char)


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(["k2_k3", "k3_w12"]),
    st.sampled_from([1, 2]),
    st.integers(-2, 3),
    st.integers(-3, 3),
    st.sampled_from([1, 2]),
    st.integers(-3, 4),
    st.integers(0, 4),
    st.integers(-3, 4),
    st.integers(0, 4),
    st.integers(2, 6),
)
@example("k2_k3", 2, -1, 0, 1, 0, 5, 0, 5, 6)  # sink sequence at omega
@example("k2_k3", 1, 2, -3, 2, 0, 5, 0, 5, 4)  # sink sequence at syz², cut at 4
def test_twist_and_splice_of_stranded_diagonals_match_reference(
    key, v_left, shift, twist, v_right, lo_a, width_a, lo_b, width_b, keep
):
    """twisted, spliced and image_truncated on stranded Koszul diagonals
    against the flat operations on their reference matrices, over Q, F_2
    and F_10007.  The left piece is a Koszul diagonal twisted by `twist`;
    its last term is S(twist, twist), so the right piece's shift and
    twist are the ones that make its first term equal to it."""
    a, b = catalog.ring_pair(key)
    if v_right == 1:
        shift_b, twist_b = shift + sum(a.weights), twist
    else:
        shift_b, twist_b = shift - sum(b.weights), twist + sum(b.weights)
    window_a, window_b = (lo_a, lo_a + width_a), (lo_b, lo_b + width_b)
    assume(max(lo_a, lo_b) <= min(window_a[1], window_b[1]))
    x, x_ref = _koszul_piece(key, v_left, shift, twist, window_a)
    y, y_ref = _koszul_piece(key, v_right, shift_b, twist_b, window_b)
    _assert_matches_flat(x, x_ref)
    _assert_matches_flat(y, y_ref)
    s, s_ref = x.spliced(y), reference_spliced(x_ref, y_ref)
    _assert_matches_flat(s, s_ref)
    # the catalog's cut of a splice keeps its strands
    keep = min(keep, len(s.dims))
    cut = DegreewiseComplex(s.labels[:keep], s.dims[:keep], None, s.window, strands=s.strands)
    cut_ref = DegreewiseComplex(
        s_ref.labels[:keep], s_ref.dims[:keep], s_ref.mats[: keep - 1], s.window
    )
    _assert_matches_flat(cut, cut_ref)
    # the image term: the rational rank of the map into it, so over F_p
    # its homology is rank_Q - rank_p of that map
    im = cut.image_truncated()
    dims, _ = reference_image_truncated(cut_ref)
    assert im.labels == cut.labels[:-1] + [f"im({cut.labels[-1]})"]
    assert im.dims == cut.dims[:-1] + [dims] and im.window == cut.window
    last = keep - 1
    for char in (0, 2, 10007):
        h = im.homology(char)
        for j in range(im.window[0], im.window[1] + 1):
            cols = cut_ref.mats[-1].get(j)
            lost = dims.get(j, 0) - (linalg.rank_of(cols, char) if cols else 0)
            assert h.get((last, j), 0) == lost, (j, char)
            assert im.rank_at(last - 1, j, char) == cut.rank_at(last - 1, j, char)


def test_stranded_operations_name_themselves_on_other_complexes():
    """twisted, spliced and image_truncated need a complex stranded from
    a bigraded complex: a flat one, diff_complex's and an extension's
    raise ValueError naming the operation."""
    kd = catalog.koszul_diagonal("k2_k3", 1, 0, (0, 3))
    others = {
        "flat": alpha_complex(2, 0),
        "DiffStrands": diff_complex(B3, (0, 3)),
        "ExtendedStrands": catalog.claim3_core_sequence((0, 3)).complex,
    }
    for kind, c in others.items():
        for op, call in (
            ("twisted", lambda: c.twisted(1)),
            ("spliced", lambda: c.spliced(kd)),
            ("spliced", lambda: kd.spliced(c)),
            ("image_truncated", c.image_truncated),
        ):
            with pytest.raises(ValueError, match=f"^{op} needs a complex stranded"):
                call()


def test_a_complex_is_flat_or_stranded():
    dc = catalog.koszul_diagonal("k2_k3", 1, 0, (0, 3))
    flat = DegreewiseComplex(dc.labels, dc.dims, _expanded(dc), dc.window)
    for mats, strands in ((None, None), (flat.mats, dc.strands)):
        with pytest.raises(ValueError, match="flat .mats. or stranded"):
            DegreewiseComplex(dc.labels, dc.dims, mats, dc.window, strands=strands)


def test_splice_rejects_unequal_join_terms():
    # the sink at omega joins M_-1 to M_-1; one step off in shift or
    # twist, or another ring pair, is another term
    left = catalog.koszul_diagonal("k2_k3", 2, -1, (0, 4))
    assert left.spliced(catalog.koszul_diagonal("k2_k3", 1, 1, (0, 4))).labels[-1] == "M1"
    for right in (
        catalog.koszul_diagonal("k2_k3", 1, 2, (0, 4)),
        catalog.koszul_diagonal("k2_k3", 1, 1, (0, 4)).twisted(1),
        catalog.koszul_diagonal("k2_k3", 2, -1, (0, 4)),
        catalog.koszul_diagonal("k3_k3", 1, 2, (0, 4)),
    ):
        with pytest.raises(ValueError, match="splice terms differ"):
            left.spliced(right)


def test_misdegreed_entry_of_a_stranded_complex_raises_when_built():
    t = ring(("t",), (1,))
    unit = (0, 0, 0)
    k = koszul(t)  # S(-1) -> S by t
    assert k.diffs == [{(0, 0): {(1,): 1}}]
    good = bify(k, B3, "A")
    assert diagonal(good, 0, (0, 3)).strands is not None
    # t^2 where the twists ask for t: the fine-degree walk is consistent
    bad = BiFreeComplex(t, B3, good.terms, [{(0, 0): {((2,), unit): 1}}])
    with pytest.raises(AssertionError, match="diagonal degree mismatch"):
        _diagonal_reference(bad, 0, (0, 3))
    with pytest.raises(AssertionError, match="fine degrees disagree with the twists"):
        diagonal(bad, 0, (0, 3))
    # a zero term has no degree: it neither raises nor changes a rank
    zero = BiFreeComplex(t, B3, good.terms, [{(0, 0): {((1,), unit): 1, ((2,), unit): 0}}])
    dc = diagonal(zero, 0, (0, 3))
    ref = _diagonal_reference(good, 0, (0, 3))
    assert [dc.rank_at(0, j) for j in range(4)] == [
        linalg.rank_of(ref[0][j]) if ref[0].get(j) else 0 for j in range(4)
    ]


# ---------------------------------------------------------------------------
# fine-degree strands against the expanded matrices


def _assert_strand_ranks(dc, chars=(0, 10007)):
    assert dc.strands is not None
    lo, hi = dc.window
    mats = _expanded(dc)
    for char in chars:
        for t in range(len(mats)):
            for j in range(lo, hi + 1):
                cols = mats[t].get(j, [])
                assert dc.rank_at(t, j, char) == linalg.rank_of(cols, char), (t, j, char)


def test_strand_ranks_match_expanded_ranks_on_bundled_diagonals():
    for key, recipes in catalog.AR_RECIPES.items():
        for at in recipes:
            _assert_strand_ranks(catalog.almost_split_sequence(key, at, (0, 10)).complex)
    for i in range(-2, 4):
        for variant in (1, 2):
            _assert_strand_ranks(catalog.koszul_diagonal("k2_k3", variant, i, (0, 10)))


@settings(max_examples=30, deadline=None)
@given(*drawn_complexes)
def test_strand_ranks_match_expanded_ranks_on_random_complexes(
    wa, wb, kind, shift, twist, thr_a, thr_b, lo, width
):
    bi = _drawn_complex(wa, wb, kind, twist, thr_a, thr_b)
    _assert_strand_ranks(diagonal(bi, shift, (lo, lo + width)))


def test_complexes_without_fine_degrees_get_no_strands():
    a, b = catalog.ring_pair("k2_k3")
    unit = (0, 0, 0)
    x0, x1 = ((1, 0), unit), ((0, 1), unit)
    # S(-1) -> S by x0 + x1: the cokernel is k[t] # B, dim B_j in degree j
    bi = BiFreeComplex(a, b, [((1, 0),), ((0, 0),)], [{(0, 0): {x0: 1, x1: 1}}])
    with pytest.raises(ValueError, match="not a single monomial pair"):
        diagonal(bi, 0, (0, 4))
    assert _flat_diagonal(bi, 0, (0, 4)).homology() == {(1, j): comb(j + 2, 2) for j in range(5)}
    # S(-1)^2 -> S^2 by [[x0, x1], [x1, x0]]: monomial entries, but from
    # the first source generator at 0 the walk reaches the second one at
    # both x1 - x0 and x0 - x1
    bi = BiFreeComplex(
        a,
        b,
        [((1, 0), (1, 0)), ((0, 0), (0, 0))],
        [{(0, 0): {x0: 1}, (1, 0): {x1: 1}, (0, 1): {x1: 1}, (1, 1): {x0: 1}}],
    )
    with pytest.raises(ValueError, match="two fine degrees"):
        diagonal(bi, 0, (0, 4))
    # the map is injective (its determinant x0² - x1² is not zero), so
    # its cokernel has dimension 2 in each degree of A, times dim B_j
    for char in (0, 2, 10007):
        h = _flat_diagonal(bi, 0, (0, 4)).homology(char)
        assert h == {(1, j): 2 * comb(j + 2, 2) for j in range(5)}, char


# ---------------------------------------------------------------------------
# strand counts from packed fine degrees against the κ themselves


def reference_table(strands, t, j):
    """`Strands.table` from the κ tuples of `kappa_masks`, counted per
    mask on each side and multiplied out per pair of masks."""
    specA, specB = strands.specs
    out = Counter()
    for (ca, cb), side_a, side_b in strands.parts[t]:
        counts_a = Counter(kappa_masks(specA, strands.shift + j - ca, side_a).values())
        counts_b = Counter(kappa_masks(specB, j - cb, side_b).values())
        for ma, ka in counts_a.items():
            for mb, kb in counts_b.items():
                out[ma & mb] += ka * kb
    return out


@st.composite
def mask_groups(draw):
    """A ring of 1-3 variables with weights 1-3, a level, and groups
    {(fine degree f, degree d): bitmask}, possibly none, with negative
    entries in f and degrees d above and below the level."""
    weights = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    spec = ring(tuple(f"z{i}" for i in range(len(weights))), tuple(weights))
    # small ranges, so that κ of different groups often share digits: a
    # packing base one too small then merges two κ in most runs
    fine = st.tuples(*[st.integers(-2, 1)] * len(weights))
    keys = draw(st.lists(st.tuples(fine, st.integers(-3, 3)), max_size=6, unique=True))
    groups = {key: draw(st.integers(1, 31)) for key in keys}
    return spec, draw(st.integers(-3, 5)), groups


@settings(max_examples=200, deadline=None)
@given(mask_groups())
def test_packed_mask_counts_match_kappa_masks(drawn):
    spec, level, groups = drawn
    assert mask_counts(spec, level, groups) == Counter(kappa_masks(spec, level, groups).values())


def test_strand_tables_match_reference_on_bundled_diagonals():
    complexes_ = [
        catalog.almost_split_sequence(key, at, (0, 10)).complex
        for key, recipes in catalog.AR_RECIPES.items()
        for at in recipes
    ]
    complexes_ += [
        catalog.koszul_diagonal("k2_k3", variant, i, (0, 10))
        for i in range(-2, 4)
        for variant in (1, 2)
    ]
    for dc in complexes_:
        assert dc.strands is not None
        for t in range(len(dc.dims) - 1):
            for j in range(0, 11):
                assert dc.strands.table(t, j) == reference_table(dc.strands, t, j), (t, j)


def test_strand_counts_run_once_per_distinct_input(monkeypatch):
    """The koszul-diagonal suite rebuilds one bigraded complex per shift;
    with the memo cold, the packed enumeration runs once per distinct
    (ring, level, groups), 82 times, where it ran 554 times unmemoised."""
    seen = []

    def counting(spec, level, groups):
        seen.append((spec, level, frozenset(groups.items())))
        return mask_counts(spec, level, groups)

    monkeypatch.setattr(strands, "mask_counts", counting)
    strands.table_counts.cache_clear()
    assert cli.check_koszul_diagonal_suite({"window": 10, "char": 10007})["pass"]
    assert len(seen) == len(set(seen)) == 82


def test_strand_count_memo_keys_by_value():
    strands.table_counts.cache_clear()
    spec = ring(("z0", "z1"), (1, 2))
    built = [{((0, 1), 2): 1, ((-1, 0), -1): 6}, {((-1, 0), -1): 6}]
    built[1][((0, 1), 2)] = 1  # equal to built[0], built apart, other order
    for groups in built:
        strands.table_counts(spec, 3, frozenset(groups.items()))
    assert strands.table_counts.cache_info().misses == 1
    strands.table_counts(spec, 4, frozenset(built[0].items()))
    strands.table_counts(ring(("z0", "z1"), (1, 1)), 3, frozenset(built[0].items()))
    info = strands.table_counts.cache_info()
    assert (info.hits, info.misses) == (1, 3)
    for level in (3, 4):
        assert dict(strands.table_counts(spec, level, frozenset(built[0].items()))) == (
            mask_counts(spec, level, built[0])
        )


# ---------------------------------------------------------------------------
# d∘d = 0: one scalar certificate per stranded complex


def test_broken_strand_complex_raises_on_every_window():
    bi, shift = _glued("k3_k3", "at-M1")
    diffs = [dict(d) for d in bi.diffs]
    rc, poly = next(iter(diffs[0].items()))
    diffs[0][rc] = {u: 2 * v for u, v in poly.items()}
    bad = BiFreeComplex(bi.ringA, bi.ringB, bi.terms, diffs)
    # the top term is zero below degree 2, so on [0, 1] every expanded
    # product vanishes and the degreewise check passes
    mats = _diagonal_reference(bad, shift, (0, 1))
    assert any(m.get(1) for m in mats)
    DegreewiseComplex([""] * len(bi.terms), [{}] * len(bi.terms), mats, (0, 1)).assert_dd()
    for window in ((0, 1), (-1, 1), (2, 2), (0, 5)):
        with pytest.raises(AssertionError, match=r"d∘d != 0 at position 0 \(scalar"):
            diagonal(bad, shift, window)


def test_broken_complex_without_strands_raises_degreewise():
    a, b = catalog.ring_pair("k2_k3")
    unit = (0, 0, 0)
    x0, x1 = ((1, 0), unit), ((0, 1), unit)
    # Koszul complex on x0 + x1, x1: S(-2) -> S(-1)^2 -> S
    terms = [((2, 0),), ((1, 0), (1, 0)), ((0, 0),)]
    diffs = [
        {(0, 0): {x1: 1}, (1, 0): {x0: -1, x1: -1}},
        {(0, 0): {x0: 1, x1: 1}, (0, 1): {x1: 1}},
    ]
    bi = BiFreeComplex(a, b, terms, diffs)
    with pytest.raises(ValueError, match="not a single monomial pair"):
        diagonal(bi, 0, (0, 4))
    assert _flat_diagonal(bi, 0, (0, 4)).homology() == {(2, 0): 1}
    diffs[0][(1, 0)] = {x0: -2, x1: -1}
    with pytest.raises(AssertionError, match="d∘d != 0 at position 0, degree 2"):
        _flat_diagonal(BiFreeComplex(a, b, terms, diffs), 0, (0, 4))


@settings(max_examples=30, deadline=None)
@given(*drawn_complexes)
def test_strand_certificate_implies_the_degreewise_check(
    wa, wb, kind, shift, twist, thr_a, thr_b, lo, width
):
    bi = _drawn_complex(wa, wb, kind, twist, thr_a, thr_b)
    diagonal(bi, shift, (lo, lo + width))
    _flat_diagonal(bi, shift, (lo, lo + width))  # asserts d∘d = 0 degreewise


def test_manifest_sequences_skip_the_degreewise_check(monkeypatch):
    checked, built = [], []
    real_dd, real_homology = DegreewiseComplex.assert_dd, DegreewiseComplex.homology

    def assert_dd(self):
        checked.append(self.strands)
        return real_dd(self)

    def homology(self, char=0):
        built.append(self.strands)
        return real_homology(self, char)

    monkeypatch.setattr(DegreewiseComplex, "assert_dd", assert_dd)
    monkeypatch.setattr(DegreewiseComplex, "homology", homology)
    cli.check_almost_split("k3_k3", {"window": 10, "char": 10007})
    cli.check_koszul_diagonal_suite({})
    assert len(built) == 3 + 12 and None not in built
    assert all(s is None for s in checked)


def _reference_sym_monomials(n, d):
    return monomials(complexes._std_spec(n), d)


def reference_alpha_complex(n, m):
    """alpha_complex with the contraction written out in its loop."""
    if n < 1:
        raise ValueError("need at least one variable")
    deg = -m
    labels = []
    dims = []
    bases = []
    for l in range(n, -1, -1):
        subs = list(itertools.combinations(range(n), l))
        duals = _reference_sym_monomials(n, m + l)
        bases.append((subs, duals))
        labels.append(f"wedge^{l}(V)xD(Sym^{m + l})")
        dim = len(subs) * len(duals)
        dims.append({deg: dim} if dim else {})
    mats = []
    for t in range(n):
        subs, duals = bases[t]
        tsubs, tduals = bases[t + 1]
        sub_idx = {s: i for i, s in enumerate(tsubs)}
        dual_idx = {d: i for i, d in enumerate(tduals)}
        cols = []
        for s in subs:
            for mu in duals:
                col = {}
                for p, v in enumerate(s):
                    if mu[v] == 0:
                        continue
                    rest = s[:p] + s[p + 1 :]
                    mu2 = tuple(e - 1 if i == v else e for i, e in enumerate(mu))
                    key = sub_idx[rest] * len(tduals) + dual_idx[mu2]
                    sign = -1 if p % 2 else 1
                    col[key] = col.get(key, 0) + sign
                cols.append({k: v for k, v in col.items() if v})
        mats.append({deg: cols} if cols else {})
    return DegreewiseComplex(labels, dims, mats, (deg, deg))


def reference_diff_complex(spec, window):
    """diff_complex with a branch for one variable, the contraction
    written out in the middle maps and a hand-written last map into S."""
    if any(w != 1 for w in spec.weights):
        raise ValueError("diff_complex needs the standard grading")
    n = len(spec.variables)
    lo, hi = window
    kos = koszul(spec)
    if n == 1:
        dims = [
            {j: len(monomials(spec, j - 1)) for j in range(lo, hi + 1) if j >= 1},
            {j: len(monomials(spec, j)) for j in range(lo, hi + 1) if j >= 0},
        ]
        mats = [{j: _matrix_at_reference(kos, 0, j) for j in range(max(lo, 1), hi + 1)}]
        return DegreewiseComplex(["Sxwedge^1", "S"], dims, mats, window)

    @lru_cache(maxsize=None)
    def kernel_basis(i, s):
        # kernel of d_i : S⊗wedge^i -> S⊗wedge^(i-1) in S-degree s,
        # positions n-i -> n-i+1 in the koszul complex
        return linalg.kernel_of(_matrix_at_reference(kos, n - i, s))

    @lru_cache(maxsize=None)
    def kernel_solver(i, s):
        basis = kernel_basis(i, s)
        return linalg.CoordSolver(basis) if basis else None

    labels = ["Sxwedge^n"]
    dims = [dict()]
    for j in range(lo, hi + 1):
        d = len(monomials(spec, j - n))
        if d:
            dims[0][j] = d
    for i in range(n - 1, 0, -1):
        labels.append(f"Diff^{i}xD(Sym^{i})")
        table = {}
        for j in range(lo, hi + 1):
            d = len(kernel_basis(i, j + i)) * len(_reference_sym_monomials(n, i))
            if d:
                table[j] = d
        dims.append(table)
    labels.append("S")
    dims.append({j: len(monomials(spec, j)) for j in range(lo, hi + 1) if j >= 0})

    mats = []
    # first map: s⊗top ↦ Σ_i d_n(s·m_i ⊗ top) ⊗ μ_i
    first = {}
    sym_top = _reference_sym_monomials(n, n - 1)
    for j in range(lo, hi + 1):
        src = monomials(spec, j - n)
        if not src:
            continue
        solver = kernel_solver(n - 1, j + n - 1)
        nduals = len(sym_top)
        images = _matrix_at_reference(kos, 0, j + n - 1)
        index = monomial_index(spec, j - 1)
        prods = [[index[mono_mul(mi, m)] for m in src] for mi in sym_top]
        cols = []
        for k_s in range(len(src)):
            col = {}
            for mi_idx, targets in enumerate(prods):
                coords = solver.solve(images[targets[k_s]])
                if coords is None:
                    raise AssertionError("top map misses the kernel")
                for k, v in enumerate(coords):
                    if v:
                        key = k * nduals + mi_idx
                        col[key] = col.get(key, 0) + v
            cols.append(col)
        first[j] = cols
    mats.append(first)

    for i in range(n - 1, 1, -1):
        step = {}
        duals = _reference_sym_monomials(n, i)
        tduals = _reference_sym_monomials(n, i - 1)
        tdual_idx = {d: k for k, d in enumerate(tduals)}
        subs = list(itertools.combinations(range(n), i))
        tsubs = list(itertools.combinations(range(n), i - 1))
        tsub_idx = {s: k for k, s in enumerate(tsubs)}
        for j in range(lo, hi + 1):
            basis = kernel_basis(i, j + i)
            if not basis:
                continue
            nmono = len(monomials(spec, j))  # wedge coordinates carry S-degree j
            tsolver = kernel_solver(i - 1, j + i - 1)
            tcols = []
            for w in basis:
                for mu in duals:
                    per_mu2 = {}
                    for flat, cval in w.items():
                        sub_i, mono_i = divmod(flat, nmono)
                        sub = subs[sub_i]
                        for p, v in enumerate(sub):
                            if mu[v] == 0:
                                continue
                            mu2 = tuple(
                                e - 1 if idx == v else e for idx, e in enumerate(mu)
                            )
                            rest = sub[:p] + sub[p + 1 :]
                            sign = -1 if p % 2 else 1
                            vec = per_mu2.setdefault(mu2, {})
                            key = tsub_idx[rest] * nmono + mono_i
                            val = vec.get(key, 0) + sign * cval
                            if val:
                                vec[key] = val
                            elif key in vec:
                                del vec[key]
                    col = {}
                    for mu2, vec in per_mu2.items():
                        if not vec:
                            continue
                        coords = tsolver.solve(vec)
                        if coords is None:
                            raise AssertionError("contraction leaves the kernel")
                        for k, v in enumerate(coords):
                            if v:
                                key = k * len(tduals) + tdual_idx[mu2]
                                col[key] = col.get(key, 0) + v
                    tcols.append(col)
            step[j] = tcols
        mats.append(step)

    last = {}
    duals1 = _reference_sym_monomials(n, 1)
    for j in range(lo, hi + 1):
        basis = kernel_basis(1, j + 1)
        if not basis:
            continue
        nmono = len(monomials(spec, j))
        out_idx = monomial_index(spec, j)
        cols = []
        for w in basis:
            for mu in duals1:
                v_mu = mu.index(1)
                col = {}
                for flat, cval in w.items():
                    sub_i, mono_i = divmod(flat, nmono)
                    if sub_i != v_mu:
                        continue
                    key = out_idx[monomials(spec, j)[mono_i]]
                    val = col.get(key, 0) + cval
                    if val:
                        col[key] = val
                    elif key in col:
                        del col[key]
                cols.append(col)
        last[j] = cols
    mats.append(last)
    return DegreewiseComplex(labels, dims, mats, window)


def _contraction_fields(c):
    """Labels, dims and every column, entries in order and typed."""
    return c.labels, [list(d.items()) for d in c.dims], [_typed(m) for m in c.mats]


def test_contraction_complexes_match_reference():
    """diff_complex's labels, dims and homology (over Q and F_3), and
    every field of alpha_complex, against the reference builders."""
    for n in (1, 2, 3, 4):
        spec = ring(tuple(f"y{i}" for i in range(n)), (1,) * n)
        for window in ((-2, 5), (n + 1, 10)):
            got, want = diff_complex(spec, window), reference_diff_complex(spec, window)
            assert got.labels == want.labels, (n, window)
            assert [list(d.items()) for d in got.dims] == [
                list(d.items()) for d in want.dims
            ], (n, window)
            for char in (0, 3):
                assert got.homology(char) == want.homology(char), (n, window, char)
        for m in range(-6, 7):
            got, want = alpha_complex(n, m), reference_alpha_complex(n, m)
            assert _contraction_fields(got) == _contraction_fields(want), (n, m)


def test_diff_complex_certifies_kernel_membership(monkeypatch):
    """A contraction rule missing its first term sends kernel vectors out
    of the kernel; the free-column reader still applies d_1 and raises."""
    rule = complexes._contract

    def dropped(sub, mu):
        terms = rule(sub, mu)
        next(terms, None)
        yield from terms

    monkeypatch.setattr(complexes, "_contract", dropped)
    with pytest.raises(AssertionError, match="map leaves the kernel of d_1"):
        diff_complex(XYZ, (0, 5))


def test_fourfold_homology_over_prime_field_matches_rationals():
    for seq in catalog.almost_split_suite("k3_k3", (0, 6)):
        assert seq.complex.homology(10007) == seq.complex.homology()


def reference_image_truncated(dc):
    """The image of the final map as an untracked Echelon picks its
    independent columns and a CoordSolver over them solves every column:
    the two eliminations that `image_truncated` replaces by one."""
    lo, hi = dc.window
    dims, mats = {}, {}
    for j in range(lo, hi + 1):
        cols = dc.mats[-1].get(j, [])
        ech, basis = linalg.Echelon(), []
        for c in cols:
            if ech.add(c):
                basis.append(c)
        if not basis:
            continue
        solver = linalg.CoordSolver(basis)
        dims[j] = len(basis)
        mats[j] = [{i: v for i, v in enumerate(solver.solve(c)) if v} for c in cols]
    return dims, mats


def _typed(mats):
    """Entries with their order and value types, so ints and Fractions
    that compare equal still differ."""
    return {j: [[(k, type(v), v) for k, v in c.items()] for c in cols] for j, cols in mats.items()}


@settings(max_examples=30, deadline=None)
@given(*drawn_complexes)
def test_image_truncated_matches_two_elimination_reference(
    wa, wb, kind, shift, twist, thr_a, thr_b, lo, width
):
    """The image term of a stranded diagonal against the coordinate
    construction over Q: the flat complex whose last map is written over
    the independent columns of the reference matrix
    (`reference_image_truncated`) has the same labels, dims and
    homology."""
    bi = _drawn_complex(wa, wb, kind, twist, thr_a, thr_b)
    assume(len(bi.terms) >= 2)
    dc = diagonal(bi, shift, (lo, lo + width))
    flat = DegreewiseComplex(dc.labels, dc.dims, _expanded(dc), dc.window)
    dims, mats = reference_image_truncated(flat)
    ref = DegreewiseComplex(
        flat.labels[:-1] + [f"im({flat.labels[-1]})"],
        flat.dims[:-1] + [dims],
        flat.mats[:-1] + [mats],
        flat.window,
    )
    out = dc.image_truncated()
    assert (out.labels, out.dims, out.window) == (ref.labels, ref.dims, ref.window)
    assert out.homology() == ref.homology()
