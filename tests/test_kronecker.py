import pytest

from segrecalc.kronecker import (
    DimVector,
    KroneckerContext,
    ar_component_dot,
    classification_report,
    cm_label,
    degree_one_dims,
    ext1_between,
    rigid_pairs,
)


def test_preprojective_vectors():
    ctx = KroneckerContext(3)
    assert [ctx.preprojective(i).as_pair() for i in range(1, 5)] == [
        (0, 1), (1, 3), (3, 8), (8, 21),
    ]
    assert [ctx.preinjective(i).as_pair() for i in range(1, 4)] == [
        (1, 0), (3, 1), (8, 3),
    ]


def test_tame_case_linear_growth():
    ctx = KroneckerContext(2)
    for i in range(1, 8):
        assert ctx.preprojective(i).as_pair() == (i - 1, i)


def test_unit_quadratic_form():
    for n in range(1, 7):
        ctx = KroneckerContext(n)
        for i in range(1, 21):
            assert ctx.q(ctx.preprojective(i)) == 1
            assert ctx.q(ctx.preinjective(i)) == 1


def test_coxeter_step():
    for n in (2, 3, 5):
        ctx = KroneckerContext(n)
        for i in range(1, 12):
            assert ctx.coxeter_step(ctx.preprojective(i + 1)) == ctx.preprojective(i)
        d = DimVector(2, 7)
        assert ctx.q(ctx.coxeter_step(d)) == ctx.q(d)


def test_entries_increase():
    ctx = KroneckerContext(3)
    prev = ctx.preprojective(2)
    for i in range(3, 12):
        cur = ctx.preprojective(i)
        assert cur.source > prev.source and cur.sink > prev.sink
        prev = cur


def test_degree_one_recurrence():
    assert [degree_one_dims(i) for i in range(1, 5)] == [3, 12, 33, 87]
    assert all(degree_one_dims(i) > 0 for i in range(1, 51))


def test_ext_verdicts():
    ctx = KroneckerContext(3)
    assert ext1_between(ctx, "P", 3, "P", 1) == 1
    assert ext1_between(ctx, "P", 2, "P", 1) == 0
    assert ext1_between(ctx, "I", 1, "I", 3) == 1
    assert ext1_between(ctx, "P", 1, "I", 1) == 0
    assert ext1_between(ctx, "I", 1, "P", 1) == 3


def test_rigid_pairs():
    pairs = rigid_pairs(KroneckerContext(3), 10)
    assert all(e["rigid"] for e in pairs["singles"])
    assert all(e["rigid"] for e in pairs["adjacent"])
    assert all(not e["rigid"] for e in pairs["skip"])
    assert all(not e["rigid"] for e in pairs["mixed"])
    skip13 = next(e for e in pairs["skip"] if e["summands"] == ["P1", "P3"])
    assert skip13["ext1"] == 1


def test_labels():
    assert cm_label("P", 1) == "syz(omega)"
    assert cm_label("P", 2) == "syz^3(omega)"
    assert cm_label("P", 3) == "syz^2(M-2)"
    assert cm_label("I", 1) == "M2"
    assert cm_label("I", 2) == "tau(omega)"
    assert cm_label("P", 4) == "tau^-1(syz^3(omega))"
    assert cm_label("I", 3) == "tau^1(M2)"
    assert cm_label("P", 5) == "tau^-1(syz^2(M-2))" and cm_label("I", 4) == "tau^2(omega)"
    with pytest.raises(ValueError):
        cm_label("X", 1)


def test_classification_report():
    ctx = KroneckerContext(3)
    evidence = {
        "rigid_triples": {
            "window": [-4, 2],
            "totals": {"R+omega+syz2": 0, "R+syz1": 0, "omega+M2": 0},
        },
        "syz3_self_extension": {-1: 6},
        "stable_end_omega": {"0": 1, "1": 0},
    }
    report = classification_report(ctx, 6, evidence)
    assert all(v["rigid_on_window"] for v in report["maximal_rigid_windowed"].values())
    assert report["syz3_self_extension"]["nonzero"]
    assert report["stable_end_omega_total"] == 1
    assert len(report["candidate_pairs"]) == 2 * 5
    with pytest.raises(ValueError):
        classification_report(ctx, 6, {})


def test_ar_component_dot():
    dot = ar_component_dot(KroneckerContext(3), count=4)
    assert "P1 = syz(omega)" in dot and dot.count("->") == 3 * 3 * 2
