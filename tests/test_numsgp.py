import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from segrecalc.numsgp import (
    FiniteAbelianGroup,
    SemigroupError,
    a_invariant,
    canonical_degrees,
    frobenius,
    from_complement,
    from_generators,
    gap_table_str,
    gorenstein,
    is_connected,
    reduced,
    semigroup_series,
    subspace_quiver_data,
    twisted_symmetric,
)

KLEIN = FiniteAbelianGroup((2, 2))
TRIV = FiniteAbelianGroup((1,))


def klein_example():
    return from_generators(KLEIN, [(1, (0, 0)), (1, (1, 0)), (1, (0, 1))])


def family(n):
    """Gaps: every non-unit in degree zero plus one element in degree one."""
    group = FiniteAbelianGroup((n,))
    gaps = [(0, (k,)) for k in range(1, n)] + [(1, (1,))]
    return group, from_complement(group, gaps)


def test_klein_gaps_match_table():
    S = klein_example()
    assert set(S.gaps()) == {(0, (0, 1)), (0, (1, 0)), (0, (1, 1)), (1, (1, 1))}
    assert S.conductor == 2


def test_klein_predicates():
    S = klein_example()
    assert is_connected(S)
    assert frobenius(S) == 1
    assert twisted_symmetric(S) == [(1, 1)]
    assert gorenstein(S)
    assert a_invariant(S) == 1
    assert not reduced(S, 2) and reduced(S, 0) and reduced(S, 3)
    assert (-1, (1, 1)) in canonical_degrees(S, -2, 2)


def test_classical_semigroup():
    S = from_generators(TRIV, [(2, (0,)), (3, (0,))])
    assert frobenius(S) == 1
    assert twisted_symmetric(S) == [(0,)]


def test_infinite_complement_divisor():
    with pytest.raises(SemigroupError):
        from_generators(TRIV, [(2, (0,))])


def test_infinite_complement_subgroup():
    # all group parts stay in the subgroup generated by (1, 0)
    with pytest.raises(SemigroupError) as err:
        from_generators(KLEIN, [(1, (0, 0)), (1, (1, 0))])
    assert "coset" in str(err.value)


def test_from_complement_validations():
    with pytest.raises(SemigroupError):
        from_complement(TRIV, [(0, (0,))])
    # gap set not compatible with closure: (1,.) + (1,.) hits a degree-2 gap
    with pytest.raises(SemigroupError):
        from_complement(TRIV, [(2, (0,))])


def test_full_semigroup():
    S = from_complement(FiniteAbelianGroup((3,)), [])
    assert frobenius(S) == -1 and a_invariant(S) == -1
    assert not is_connected(S)
    degs = canonical_degrees(S, -1, 2)
    assert all(t >= 1 for t, _ in degs)


def test_family_checks():
    for n in (3, 4, 5, 6):
        group, S = family(n)
        assert is_connected(S) and frobenius(S) == 1
        assert twisted_symmetric(S) == [(1,)]
        assert a_invariant(S) == 1
        series = semigroup_series(S, 0, 4)
        assert [series.coeff(j) for j in range(5)] == [1, n - 1, n, n, n]
        q = subspace_quiver_data(S, 0)
        assert len(q.vertices) == n + 1 and q.arrow_count() == n


def test_subspace_quiver_two_element_group():
    group, S = family(2)
    q = subspace_quiver_data(S, 0)
    assert len(q.vertices) == 3 and q.arrow_count() == 2


def test_subspace_quiver_rejections():
    group, S = family(4)
    with pytest.raises(SemigroupError):
        subspace_quiver_data(S, 2)  # char divides |L|
    with pytest.raises(SemigroupError):
        subspace_quiver_data(from_complement(group, []), 0)


def test_gap_table_render():
    table = gap_table_str(klein_example())
    lines = table.splitlines()
    assert lines[2].startswith("  0") and lines[2].count("*") == 1
    assert lines[3].count("*") == 3 and lines[4].count("*") == 4


small_groups = st.sampled_from(
    [FiniteAbelianGroup((1,)), FiniteAbelianGroup((2,)), FiniteAbelianGroup((3,)),
     FiniteAbelianGroup((2, 2))]
)


@settings(max_examples=40, deadline=None)
@given(
    small_groups,
    st.data(),
)
def test_roundtrip_and_closure(group, data):
    els = group.elements()
    gens = data.draw(
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=4), st.sampled_from(els)),
            min_size=1,
            max_size=5,
        )
    )
    try:
        S = from_generators(group, gens)
    except SemigroupError:
        return
    # complement extraction and reconstruction is the identity
    S2 = from_complement(group, S.gaps())
    assert S2.conductor == S.conductor and S2.rows == S.rows
    # the stored rows really form a monoid
    members = [(n, el) for n in range(S.conductor) for el in S.rows[n]]
    for (n, a) in members:
        for (m, b) in members:
            assert S.contains(n + m, group.add(a, b))
    # the two independent degree invariants agree
    assert a_invariant(S) == frobenius(S)


@settings(max_examples=30, deadline=None)
@given(small_groups, st.data())
def test_twisted_symmetry_shift_identity(group, data):
    els = group.elements()
    gens = data.draw(
        st.lists(
            st.tuples(st.integers(min_value=1, max_value=3), st.sampled_from(els)),
            min_size=1,
            max_size=4,
        )
    )
    try:
        S = from_generators(group, gens)
    except SemigroupError:
        return
    a = frobenius(S)
    for tau in twisted_symmetric(S):
        # canonical degree set equals the shifted semigroup
        degs = set(canonical_degrees(S, -2 * S.conductor - 2, 2 * S.conductor + 2))
        for (t, lam) in degs:
            n = a - (-t)
            mu = group.add(tau, lam)  # tau * (lam^-1)^-1
            assert S.contains(a + t, mu)
