import copy
from fractions import Fraction
from math import gcd

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

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


def _solver_coordinates(solver, vec):
    """`CoordSolver.solve` as the sparse (k, value, type) list that the
    kernel reader returns, or None off the span."""
    found = solver.solve(vec)
    return None if found is None else [(k, v, type(v)) for k, v in enumerate(found) if v]


def _typed_pairs(found):
    return None if found is None else [(k, v, type(v)) for k, v in found]


@settings(max_examples=150, deadline=None)
@given(
    matrices,
    st.lists(
        st.fractions(min_value=-3, max_value=3, max_denominator=4), min_size=5, max_size=5
    ),
)
@example([[0, 0, 0], [0, 0, 0]], [Fraction(1, 2), Fraction(-2, 3), 0, 1, 0])  # all zero
@example([[1, 0, 2], [0, 3, 0], [4, 0, 5]], [1, 1, 1, 1, 1])  # full rank
@example([[2, 4, 1, 0], [0, 0, 3, 6]], [Fraction(1, 3), Fraction(-1, 2), 0, 0, 0])
def test_kernel_coordinates_match_coord_solver(dense, coeffs):
    """The free-column reader gives CoordSolver's coordinates, values and
    types, on combinations of kernel vectors with fractional coefficients,
    and None off the kernel, on drawn, all-zero and full-rank matrices."""
    cols = to_cols(dense)
    basis, read = linalg.kernel_coordinates(cols)
    assert basis == linalg.kernel_of(cols)
    solver = linalg.CoordSolver(basis)
    probes = [{}] + [dict(b) for b in basis]
    vec = {}
    for c, b in zip(coeffs, basis):
        for k, x in b.items():
            vec[k] = vec.get(k, 0) + c * x
    vec = {k: int(v) if v.denominator == 1 else v for k, v in vec.items() if v}
    probes.append(vec)
    for probe in probes:
        found = read(probe)
        assert found is not None
        assert _typed_pairs(found) == _solver_coordinates(solver, probe)
        assert _recombine(basis, dict(found)) == probe
    for j, col in enumerate(cols):
        if col:  # the unit vector at j leaves the kernel, so does vec + e_j
            for off in ({j: 1}, {**vec, j: vec.get(j, 0) + 1}):
                assert read(off) is None
                assert solver.solve(off) is None


def test_kernel_coordinates_read_off_free_columns():
    basis, read = linalg.kernel_coordinates([{0: 2}, {0: 4}, {0: 1, 1: 3}, {1: 6}])
    # free columns 1 and 3: each the largest key of its vector, in no other
    assert basis == [{0: 2, 1: -1}, {0: 1, 2: -2, 3: 1}]
    # sorted by k whatever the vector's key order; ints when integral
    found = read({3: 1, 2: -2, 1: -3, 0: 7})
    assert found == [(0, 3), (1, 1)] and all(type(v) is int for _, v in found)
    assert read({0: 1, 1: Fraction(-1, 2)}) == [(0, Fraction(1, 2))]
    assert read({0: 1}) is None
    assert read({}) == []


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


def _recombine(cols, coords):
    out = {}
    for i, v in coords.items():
        for k, x in cols[i].items():
            out[k] = out.get(k, 0) + v * x
    return {k: v for k, v in out.items() if v}


def test_echelon_coordinates_use_only_accepted_columns():
    cols = [{0: 2, 1: 4}, {0: 1, 1: 2}, {}, {1: 1, 2: 3}, {0: 2, 1: 5, 2: 3}]
    ech = linalg.Echelon(track=True)
    accepted = [i for i, c in enumerate(cols) if ech.add(c, tag=i)]
    assert accepted == [0, 3]
    for vec in cols:
        coords = ech.coordinates(vec)
        assert set(coords) <= set(accepted)
        assert _recombine(cols, coords) == vec
    # {0: 1, 1: 2} is half the first accepted column
    assert ech.coordinates(cols[1]) == {0: Fraction(1, 2)}
    assert ech.coordinates({0: 4, 1: 9, 2: 3}) == {0: 2, 3: 1}
    assert all(type(v) is int for v in ech.coordinates({0: 4, 1: 9, 2: 3}).values())
    assert ech.coordinates({2: 1}) is None
    assert ech.coordinates({}) == {}


@settings(max_examples=100, deadline=None)
@given(matrices)
def test_echelon_coordinates_recombine_every_column(dense):
    cols = to_cols(dense)
    cols = cols + [{}] + [linalg.combine(a, b, 2, -3) for a, b in zip(cols, cols[1:])]
    ech = linalg.Echelon(track=True)
    accepted = {i for i, c in enumerate(cols) if ech.add(c, tag=i)}
    for vec in cols:
        coords = ech.coordinates(vec)
        assert set(coords) <= accepted
        assert _recombine(cols, coords) == vec


def test_echelon_coordinates_need_a_tracked_rational_echelon():
    for ech in (linalg.Echelon(), linalg.Echelon(char=7, track=True)):
        ech.add({0: 1})
        with pytest.raises(ValueError):
            ech.coordinates({0: 1})


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


class reference_echelon(linalg.Echelon):
    """`linalg.Echelon` with the elimination step that copies: each step
    builds cs*body + cp*pbody as a new dict (`linalg.combine`) and divides
    it by its content, over F_p body - (q/p)*pbody."""

    def _reduce(self, body, aug):
        char = self.char
        while body:
            r = min(body)
            hit = self.pivots.get(r)
            if hit is None:
                return body, aug
            pbody, paug = hit
            p, q = pbody[r], body[r]
            if char:
                factor = (q * pow(p, char - 2, char)) % char
                body = linalg.combine(body, pbody, 1, -factor, char)
                if aug is not None:
                    aug = linalg.combine(aug, paug, 1, -factor, char)
            else:
                if isinstance(p, int) and isinstance(q, int):
                    g = gcd(p, q)
                    cs, cp = p // g, -(q // g)
                else:
                    cs, cp = p, -q
                body = linalg.combine(body, pbody, cs, cp)
                if aug is not None:
                    aug = linalg.combine(aug, paug, cs, cp)
                c = linalg._content(body, aug if aug is not None else {})
                if c > 1:
                    body = {k: v // c for k, v in body.items()}
                    if aug is not None:
                        aug = {k: v // c for k, v in aug.items()}
        return body, aug


def typed_items(vec):
    """The items of a vector with each value's type, in dict order."""
    return None if vec is None else [(k, v, type(v)) for k, v in vec.items()]


sparse_columns = st.lists(
    st.dictionaries(
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=-6, max_value=6).filter(bool),
        max_size=4,
    ),
    min_size=1,
    max_size=7,
)


@settings(max_examples=150, deadline=None)
@given(
    sparse_columns,
    st.lists(st.integers(min_value=0, max_value=20), max_size=3),
    st.sampled_from([0, 2, 3, 10007]),
)
# steps where the pivot entry divides the column's (cs = 1), divides it
# with the opposite sign (cs = -1), or does not (a scaled step)
@example([{0: 2, 1: 1}, {0: 4, 1: 3}, {0: -2, 2: 5}, {0: 3, 1: 1, 2: 1}], [1], 0)
@example([{0: -2, 1: 3}, {0: 4, 1: 1}, {0: 6, 1: -9}], [], 0)
def test_in_place_echelon_matches_copying_reference(cols, repeats, char):
    """Rank, kernel basis, coordinates and membership, each with its dict
    order and value types, agree with the copying elimination on drawn
    columns with a zero column and repeated ones, and no input changes."""
    cols = cols + [{}] + [cols[k % len(cols)] for k in repeats]
    probes = cols + [linalg.combine(a, b, 2, -3) for a, b in zip(cols, cols[1:])] + [{6: 1}, {}]
    frozen = copy.deepcopy((cols, probes))
    new, ref = linalg.Echelon(char, track=True), reference_echelon(char, track=True)
    assert [new.add(c, tag=i) for i, c in enumerate(cols)] == [
        ref.add(c, tag=i) for i, c in enumerate(cols)
    ]
    assert new.rank == ref.rank == linalg.rank_of(cols, char)
    assert [typed_items(v) for v in new.kernel_basis()] == [
        typed_items(v) for v in ref.kernel_basis()
    ]
    assert [new.contains(v) for v in probes] == [ref.contains(v) for v in probes]
    if not char:
        assert [typed_items(new.coordinates(v)) for v in probes] == [
            typed_items(ref.coordinates(v)) for v in probes
        ]
    assert (cols, probes) == frozen
