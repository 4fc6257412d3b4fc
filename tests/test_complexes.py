from math import comb

import pytest

from segrecalc.hilbert import ring
from segrecalc.gradedlin.complexes import (
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
