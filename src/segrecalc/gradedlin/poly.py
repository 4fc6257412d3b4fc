"""Monomial enumeration and polynomial entries for weighted rings.

Monomials are exponent tuples; per-degree bases are enumerated in
graded-lex descending order so that every matrix in the package is
reproducible bit for bit.  Polynomials are dicts mapping monomials to
integer coefficients; entries of bigraded matrices map monomial pairs.
"""

from __future__ import annotations

from functools import lru_cache

from ..hilbert import WeightedRingSpec

Mono = tuple


@lru_cache(maxsize=None)
def monomials(spec: WeightedRingSpec, d: int) -> tuple[Mono, ...]:
    """Monomials of weighted degree d (rank-1 grading), lex descending."""
    if spec.rank != 1:
        raise ValueError("monomial enumeration needs a rank-1 grading")
    weights = [w[0] for w in spec.weights]
    out = []

    def rec(i, rest, expo):
        if i == len(weights):
            if rest == 0:
                out.append(tuple(expo))
            return
        w = weights[i]
        top = rest // w
        for e in range(top, -1, -1):
            expo.append(e)
            rec(i + 1, rest - e * w, expo)
            expo.pop()

    if d >= 0:
        rec(0, d, [])
    return tuple(out)


@lru_cache(maxsize=None)
def monomial_index(spec: WeightedRingSpec, d: int) -> dict:
    return {m: i for i, m in enumerate(monomials(spec, d))}


def mono_mul(a: Mono, b: Mono) -> Mono:
    return tuple(x + y for x, y in zip(a, b))


def mono_degree(spec: WeightedRingSpec, m: Mono) -> int:
    return sum(e * w[0] for e, w in zip(m, spec.weights))


def variable(spec: WeightedRingSpec, i: int) -> Mono:
    return tuple(1 if j == i else 0 for j in range(len(spec.variables)))
