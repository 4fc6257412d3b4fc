from collections import Counter
from math import comb

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given, settings

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
from segrecalc.gradedlin import catalog
from segrecalc.gradedlin.poly import monomial_index, monomials, mono_mul

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


# ---------------------------------------------------------------------------
# per-factor multiplication tables against the mono_mul expansion


def _matrix_at_reference(c, t, j):
    """FreeComplex.matrix_at as one mono_mul and index lookup per term."""
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
    """The diagonal matrices as one mono_mul per (term, mA, mB) triple."""
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
                for ia, mA in enumerate(ma):
                    for ib, mB in enumerate(mb):
                        col = cols[soffs[c] + ia * len(mb) + ib]
                        for (ua, ub), coeff in poly.items():
                            ra = idxA.get(mono_mul(ua, mA))
                            rb = idxB.get(mono_mul(ub, mB))
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


def _assert_diagonal_matches(bi, shift, window):
    dc = diagonal(bi, shift, window)
    assert _ordered(dc.mats) == _ordered(_diagonal_reference(bi, shift, window))
    lo, hi = window
    for t, term in enumerate(bi.terms):
        expected = {}
        for j in range(lo, hi + 1):
            n = sum(
                len(monomials(bi.ringA, shift + j - a)) * len(monomials(bi.ringB, j - b))
                for (a, b) in term
            )
            if n:
                expected[j] = n
        assert list(dc.dims[t].items()) == list(expected.items())
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
                assert _ordered(dc.mats) == _ordered(seq.complex.mats)


def test_diagonal_tables_match_reference_on_koszul_diagonals():
    a, b = catalog.ring_pair("k2_k3")
    for variant, bi in ((1, bify(koszul(a), b, "A")), (2, bify(koszul(b), a, "B"))):
        for shift in range(-2, 4):
            dc = _assert_diagonal_matches(bi, shift, (-1, 5))
            kd = catalog.koszul_diagonal("k2_k3", variant, shift, (-1, 5))
            assert dc.labels == kd.labels and dc.summands == kd.summands
            assert _ordered(dc.mats) == _ordered(kd.mats)


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
    """A bigraded complex from Koszul complexes on drawn weights, and the
    (twisted) Koszul complex of its first factor."""
    A = ring(tuple(f"a{i}" for i in range(len(wa))), tuple(wa))
    B = ring(tuple(f"b{i}" for i in range(len(wb))), tuple(wb))
    kA, kB = koszul(A).twist(twist), koszul(B)
    if kind == "tensor":
        return tensor(kA, kB), kA
    if kind == "glue":
        sA = truncate_split(kA, lambda g: g >= thr_a)
        sB = truncate_split(kB, lambda g: g >= thr_b)
        try:
            return glue_split_tensor(sA, sB), kA
        except ValueError:
            assume(False)
    if kind == "bifyA":
        return bify(kA, B, "A"), kA
    return bify(kB, A, "B"), kA


@settings(max_examples=30, deadline=None)
@given(*drawn_complexes)
def test_diagonal_tables_match_reference_on_random_complexes(
    wa, wb, kind, shift, twist, thr_a, thr_b, lo, width
):
    bi, kA = _drawn_complex(wa, wb, kind, twist, thr_a, thr_b)
    _assert_diagonal_matches(bi, shift, (lo, lo + width))
    for t in range(len(kA.diffs)):
        for j in range(lo, lo + width + 1):
            assert [list(c.items()) for c in kA.matrix_at(t, j)] == [
                list(c.items()) for c in _matrix_at_reference(kA, t, j)
            ]


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
    with pytest.raises(AssertionError, match="diagonal degree mismatch"):
        diagonal(bad, 0, (0, 3))
    k = koszul(a)
    kdiffs = [dict(d) for d in k.diffs]
    rc, poly = next(iter(kdiffs[-1].items()))
    kdiffs[-1][rc] = {tuple(2 * e for e in u): v for u, v in poly.items()}
    badk = FreeComplex(a, k.terms, kdiffs)
    with pytest.raises(AssertionError, match="entry degree mismatch"):
        badk.matrix_at(len(kdiffs) - 1, 2)


# ---------------------------------------------------------------------------
# each degreewise matrix built once and ranked once


def test_homology_ranks_each_matrix_once(monkeypatch):
    ranked = []
    real = linalg.rank_of

    def counted(cols, char=0):
        ranked.append(id(cols))
        return real(cols, char)

    monkeypatch.setattr(linalg, "rank_of", counted)
    # no strands: every nonempty expanded matrix is ranked, each once
    dc = catalog.sink_sequence_at_syzygy2((0, 4)).complex
    assert dc.strands is None
    dc.homology()
    lo, hi = dc.window
    nonempty = [id(m[j]) for m in dc.mats for j in range(lo, hi + 1) if m.get(j)]
    assert sorted(ranked) == sorted(nonempty)
    # strands: no expanded matrix reaches rank_of, and each distinct
    # (position, column mask) block is ranked once per complex
    for seq in catalog.almost_split_suite("k3_w12", (-1, 4)):
        dc = seq.complex
        ranked.clear()
        dc.homology()
        lo, hi = dc.window
        expanded = {id(m[j]) for m in dc.mats for j in m}
        blocks = {
            (t, mask)
            for t in range(len(dc.mats))
            for j in range(lo, hi + 1)
            if dc.mats[t].get(j)
            for mask in dc.strands.table(t, j)
            if mask
        }
        assert ranked and not expanded & set(ranked)
        assert len(ranked) == len(blocks)
        ranked.clear()
        dc.homology()
        assert ranked == []


# ---------------------------------------------------------------------------
# fine-degree strands against the expanded matrices


def _expanded_homology(dc, char=0):
    """Homology from one rank_of per expanded matrix, without strands."""
    plain = DegreewiseComplex(dc.labels, dc.dims, dc.mats, dc.window)
    assert plain.strands is None
    return plain.homology(char)


def _assert_strand_ranks(dc, chars=(0, 10007)):
    assert dc.strands is not None
    lo, hi = dc.window
    for char in chars:
        for t in range(len(dc.mats)):
            for j in range(lo, hi + 1):
                cols = dc.mats[t].get(j, [])
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
    bi, _ = _drawn_complex(wa, wb, kind, twist, thr_a, thr_b)
    _assert_strand_ranks(diagonal(bi, shift, (lo, lo + width)))


def test_complexes_without_fine_degrees_get_no_strands():
    a, b = catalog.ring_pair("k2_k3")
    unit = (0, 0, 0)
    x0, x1 = ((1, 0), unit), ((0, 1), unit)
    # S(-1) -> S by x0 + x1: the cokernel is k[t] # B, dim B_j in degree j
    bi = BiFreeComplex(a, b, [((1, 0),), ((0, 0),)], [{(0, 0): {x0: 1, x1: 1}}])
    dc = diagonal(bi, 0, (0, 4))
    assert dc.strands is None
    assert dc.homology() == _expanded_homology(dc)
    assert dc.homology() == {(1, j): comb(j + 2, 2) for j in range(5)}
    # S(-1)^2 -> S^2 by [[x0, x1], [x1, x0]]: monomial entries, but from
    # the first source generator at 0 the walk reaches the second one at
    # both x1 - x0 and x0 - x1
    bi = BiFreeComplex(
        a,
        b,
        [((1, 0), (1, 0)), ((0, 0), (0, 0))],
        [{(0, 0): {x0: 1}, (1, 0): {x1: 1}, (0, 1): {x1: 1}, (1, 1): {x0: 1}}],
    )
    dc = diagonal(bi, 0, (0, 4))
    assert dc.strands is None
    for char in (0, 10007):
        assert dc.homology(char) == _expanded_homology(dc, char)


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
    dc = diagonal(BiFreeComplex(a, b, terms, diffs), 0, (0, 4))
    assert dc.strands is None
    assert dc.homology() == {(2, 0): 1}
    diffs[0][(1, 0)] = {x0: -2, x1: -1}
    with pytest.raises(AssertionError, match="d∘d != 0 at position 0, degree 2"):
        diagonal(BiFreeComplex(a, b, terms, diffs), 0, (0, 4))


@settings(max_examples=30, deadline=None)
@given(*drawn_complexes)
def test_strand_certificate_implies_the_degreewise_check(
    wa, wb, kind, shift, twist, thr_a, thr_b, lo, width
):
    bi, _ = _drawn_complex(wa, wb, kind, twist, thr_a, thr_b)
    diagonal(bi, shift, (lo, lo + width)).assert_dd()


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


def test_diff_complex_builds_top_koszul_matrix_once_per_degree(monkeypatch):
    built = Counter()
    real = FreeComplex.matrix_at

    def counted(self, t, j):
        built[(t, j)] += 1
        return real(self, t, j)

    monkeypatch.setattr(FreeComplex, "matrix_at", counted)
    for n in (1, 2, 3):
        built.clear()
        spec = ring(tuple(f"y{i}" for i in range(n)), (1,) * n)
        assert diff_complex(spec, (0, 5)).homology() == {(n, 0): 1}
        top = {j: k for (t, j), k in built.items() if t == 0}
        assert top and max(top.values()) == 1


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


int_column = st.dictionaries(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=-3, max_value=3).filter(bool),
    max_size=4,
)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(int_column, min_size=1, max_size=4),
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(-2, 2), st.integers(-2, 2)),
        max_size=4,
    ),
)
def test_image_truncated_matches_two_elimination_reference(base, mixes):
    # dependent columns are combinations of drawn ones; zero columns
    # appear both drawn and as a column of their own
    cols = list(base) + [{}]
    for a, b, ca, cb in mixes:
        cols.append(linalg.combine(base[a % len(base)], base[b % len(base)], ca, cb))
    n = len(cols)
    dc = DegreewiseComplex(
        ["A", "B"],
        [{0: n, 1: n, 2: 1}, {0: 4, 1: 4}],
        [{0: cols, 1: cols[::-1], 2: [{}]}],
        (0, 2),
    )
    out = dc.image_truncated()
    dims, mats = reference_image_truncated(dc)
    assert out.labels == ["A", "im(B)"]
    assert out.dims[-1] == dims
    assert _typed(out.mats[-1]) == _typed(mats)
