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
    """Monomials of weighted degree d, lex descending."""
    weights = spec.weights
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


@lru_cache(maxsize=None)
def monomial_codes(spec: WeightedRingSpec, d: int, base: int) -> tuple[int, ...]:
    """The monomials of degree d packed into ints, in `monomials` order:
    exponent i is digit i in base `base`.  A weight is at least 1, so no
    exponent exceeds d; with d < base every digit fits, and the product of
    two monomials whose exponents stay below base is the sum of their
    codes.  AssertionError when d >= base."""
    if d >= base:
        raise AssertionError(f"monomials of degree {d} do not fit base {base}")
    return tuple(sum(e * base**i for i, e in enumerate(m)) for m in monomials(spec, d))


def mono_mul(a: Mono, b: Mono) -> Mono:
    return tuple(x + y for x, y in zip(a, b))


def variable(spec: WeightedRingSpec, i: int) -> Mono:
    return tuple(1 if j == i else 0 for j in range(len(spec.variables)))
