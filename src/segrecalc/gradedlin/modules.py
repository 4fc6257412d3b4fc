"""Graded modules over a Segre product R = A # B with explicit bases.

Three implementations share one duck-typed interface: `dim(j)`,
`min_degree`, and `act(pair, p, j)` returning the multiplication matrix
by a degree-p monomial pair from the degree-j piece to the degree-(j+p)
piece.  DiagonalModule covers the twisted summands A(i) # B, FreeModule
the free R-modules used as covers in resolutions, and SyzygyModule the
kernels cut out inside them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .. import linalg
from ..hilbert import WeightedRingSpec, dim_at
from ..linalg import CertificationError
from .poly import monomials, mono_mul


@lru_cache(maxsize=None)
def r_basis(specA: WeightedRingSpec, specB: WeightedRingSpec, p: int):
    """Monomial-pair basis of the degree-p piece of A # B."""
    return tuple(
        itertools.product(monomials(specA, p), monomials(specB, p))
    )


@lru_cache(maxsize=None)
def r_index(specA, specB, p: int) -> dict:
    return {m: i for i, m in enumerate(r_basis(specA, specB, p))}


@dataclass(frozen=True)
class DiagonalModule:
    """The twisted diagonal summand with pieces A_(shift+j-twist) ⊗ B_(j-twist)."""

    ringA: WeightedRingSpec
    ringB: WeightedRingSpec
    shift: int
    twist: int = 0

    @property
    def label(self) -> str:
        name = "R" if self.shift == 0 else f"M{self.shift}"
        return f"{name}({-self.twist})" if self.twist else name

    @property
    def min_degree(self) -> int:
        return max(0, -self.shift) + self.twist

    def basis(self, j: int):
        return _diag_basis(self.ringA, self.ringB, self.shift + j - self.twist, j - self.twist)

    def dim(self, j: int) -> int:
        a = self.shift + j - self.twist
        b = j - self.twist
        if a < 0 or b < 0:
            return 0
        return dim_at(self.ringA, (a,)) * dim_at(self.ringB, (b,))

    def act(self, pair, p: int, j: int) -> list[dict]:
        """Columns of multiplication by the degree-p pair on the degree-j piece."""
        src = self.basis(j)
        tgt_index = _diag_index(
            self.ringA, self.ringB, self.shift + j + p - self.twist, j + p - self.twist
        )
        ua, ub = pair
        cols = []
        for (ma, mb) in src:
            cols.append({tgt_index[(mono_mul(ua, ma), mono_mul(ub, mb))]: 1})
        return cols

    def generation_bound(self) -> int:
        """Upper bound for the degrees of minimal generators.

        Above min_degree + wA*wB every monomial pair has divisors of a
        common degree on both sides: each factor of degree >= wA*wB
        contains the multiples of one of its variable weights up to the
        other ring's maximal weight times it.
        """
        wa = max(w[0] for w in self.ringA.weights)
        wb = max(w[0] for w in self.ringB.weights)
        return self.min_degree + wa * wb


@lru_cache(maxsize=None)
def _diag_basis(specA, specB, da: int, db: int):
    if da < 0 or db < 0:
        return ()
    return tuple(itertools.product(monomials(specA, da), monomials(specB, db)))


@lru_cache(maxsize=None)
def _diag_index(specA, specB, da: int, db: int) -> dict:
    return {m: i for i, m in enumerate(_diag_basis(specA, specB, da, db))}


@dataclass(frozen=True)
class FreeModule:
    """Free module over R = A # B with generators in prescribed degrees."""

    ringA: WeightedRingSpec
    ringB: WeightedRingSpec
    gens: tuple[int, ...]

    @property
    def label(self) -> str:
        parts = {}
        for g in self.gens:
            parts[g] = parts.get(g, 0) + 1
        return "+".join(
            (f"R({-g})" if g else "R") + (f"^{m}" if m > 1 else "")
            for g, m in sorted(parts.items())
        )

    @property
    def min_degree(self) -> int:
        return min(self.gens) if self.gens else 0

    def offsets(self, j: int) -> list[int]:
        out = [0]
        for g in self.gens:
            out.append(out[-1] + len(r_basis(self.ringA, self.ringB, j - g)))
        return out

    def dim(self, j: int) -> int:
        return self.offsets(j)[-1]

    def act(self, pair, p: int, j: int) -> list[dict]:
        offs = self.offsets(j)
        toffs = self.offsets(j + p)
        ua, ub = pair
        cols = []
        for gi, g in enumerate(self.gens):
            tidx = r_index(self.ringA, self.ringB, j + p - g)
            for (ma, mb) in r_basis(self.ringA, self.ringB, j - g):
                cols.append(
                    {toffs[gi] + tidx[(mono_mul(ua, ma), mono_mul(ub, mb))]: 1}
                )
        assert len(cols) == offs[-1]
        return cols


class SyzygyModule:
    """A kernel inside a free module, stored by explicit degreewise bases.

    Basis vectors are primitive integer vectors in the coordinates of the
    ambient free module; the action multiplies in the ambient module and
    re-expresses the result in the kernel basis of the target degree.
    """

    def __init__(self, ambient: FreeModule, bases: dict, label: str = "syzygy"):
        self.ambient = ambient
        self.bases = bases  # degree -> list of vectors (dict over ambient coords)
        self.label = label
        self._solvers = {}
        self._act_cache = {}  # (pair, p, j) -> act columns
        degs = [j for j, b in bases.items() if b]
        self.min_degree = min(degs) if degs else 0
        self.max_degree = max(bases) if bases else None

    def dim(self, j: int) -> int:
        if j not in self.bases:
            if self.max_degree is not None and j > self.max_degree:
                raise CertificationError(f"syzygy basis not computed in degree {j}")
            return 0
        return len(self.bases[j])

    def _solver(self, j: int):
        if j not in self._solvers:
            basis = self.bases.get(j, [])
            self._solvers[j] = linalg.CoordSolver(basis) if basis else None
        return self._solvers[j]

    def act(self, pair, p: int, j: int) -> list[dict]:
        if self.max_degree is not None and j + p > self.max_degree:
            raise CertificationError(f"syzygy basis not computed in degree {j + p}")
        src = self.bases.get(j, [])
        if not src:
            return []
        amb_cols = self.ambient.act(pair, p, j)
        solver = self._solver(j + p)
        cols = []
        for vec in src:
            img = linalg.apply_columns(amb_cols, vec)
            if not img:
                cols.append({})
                continue
            if solver is None:
                raise AssertionError("action leaves the computed kernel")
            sol = solver.solve(img)
            if sol is None:
                raise AssertionError("action leaves the kernel subspace")
            cols.append({i: v for i, v in enumerate(sol) if v})
        return cols

    def generation_bound(self):
        return None  # not certifiable beyond the computed window
