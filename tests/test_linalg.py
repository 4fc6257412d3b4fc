from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from segrecalc import linalg


def naive_rank(rows):
    """Dense fraction Gaussian elimination, the reference implementation."""
    rows = [list(map(Fraction, r)) for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, len(rows)):
            if rows[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][col]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col] / pv
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def to_cols(dense):
    nrows = len(dense)
    ncols = len(dense[0]) if dense else 0
    return [
        {r: dense[r][c] for r in range(nrows) if dense[r][c]} for c in range(ncols)
    ]


matrices = st.lists(
    st.lists(st.integers(min_value=-4, max_value=4), min_size=1, max_size=5),
    min_size=1,
    max_size=5,
).filter(lambda m: len({len(r) for r in m}) == 1)


@settings(max_examples=100, deadline=None)
@given(matrices)
def test_rank_matches_dense_elimination(dense):
    assert linalg.rank_of(to_cols(dense)) == naive_rank(dense)


@settings(max_examples=100, deadline=None)
@given(matrices)
def test_kernel_vectors_annihilate(dense):
    cols = to_cols(dense)
    ker = linalg.kernel_of(cols)
    assert len(ker) == len(cols) - linalg.rank_of(cols)
    for vec in ker:
        assert linalg.apply_columns(cols, vec) == {}


@settings(max_examples=60, deadline=None)
@given(matrices)
def test_modp_rank_bounded_by_rational(dense):
    cols = to_cols(dense)
    assert linalg.rank_of(cols, char=32003) <= linalg.rank_of(cols)


def test_coord_solver_roundtrip():
    basis = [{0: 1, 1: 2}, {1: 1, 2: 3}]
    solver = linalg.CoordSolver(basis)
    target = {0: 2, 1: 5, 2: 3}
    coords = solver.solve(target)
    assert coords == [2, 1]
    assert all(type(c) is int for c in coords)
    assert solver.solve({0: 1}) is None


def test_coord_solver_fractional():
    solver = linalg.CoordSolver([{0: 2}, {1: 3}])
    assert solver.solve({0: 1, 1: 1}) == [Fraction(1, 2), Fraction(1, 3)]


def test_fractions_over_prime_field():
    assert linalg.reduce_mod({0: Fraction(1, 2), 1: Fraction(4, 2), 2: 7}, 7) == {0: 4, 1: 2}
    assert linalg.rank_of([{0: Fraction(1, 2)}, {0: 3}], char=5) == 1
    with pytest.raises(linalg.CertificationError):
        linalg.rank_of([{0: Fraction(1, 5)}], char=5)


def test_echelon_contains():
    ech = linalg.Echelon()
    ech.add({0: 1, 1: 1})
    ech.add({1: 1})
    assert ech.contains({0: 5, 1: -2})
    assert not ech.contains({2: 1})


def test_compose():
    a = [{0: 1}, {0: 1, 1: 1}]
    b = [{0: 2, 1: 1}]
    assert linalg.compose(a, b) == [{0: 3, 1: 1}]
