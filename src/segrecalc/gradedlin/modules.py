"""Graded modules over a Segre product R = A # B with explicit bases.

Three implementations share one duck-typed interface: `dim(j)`,
`min_degree`, and `act(pair, p, j)` returning the multiplication matrix
by a degree-p monomial pair from the degree-j piece to the degree-(j+p)
piece.  DiagonalModule covers the twisted summands A(i) # B, FreeModule
the free R-modules used as covers in resolutions, and SyzygyModule the
kernels cut out inside them.

All three are also graded by the exponent lattice Z^n × Z^m, a fine
degree being a monomial pair (exp_A, exp_B): `fine_basis(j)` gives each
basis vector of the degree-j piece its fine degree κ and its scalar
form, the coefficients of the generators it involves (one entry {0: 1}
for a diagonal module, whose basis pair is its fine degree).  A
SyzygyModule stores its bases in exactly this form.
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
    invariant = True  # each piece is spanned by all monomial pairs of its bidegree

    @property
    def label(self) -> str:
        name = "R" if self.shift == 0 else f"M{self.shift}"
        return f"{name}({-self.twist})" if self.twist else name

    @property
    def min_degree(self) -> int:
        return max(0, -self.shift) + self.twist

    def basis(self, j: int):
        return _diag_basis(self.ringA, self.ringB, self.shift + j - self.twist, j - self.twist)

    def fine_basis(self, j: int) -> list[tuple]:
        """(fine degree, scalar form) per basis vector of the degree-j piece."""
        return [(pair, _UNIT) for pair in self.basis(j)]

    def dim(self, j: int) -> int:
        a = self.shift + j - self.twist
        b = j - self.twist
        if a < 0 or b < 0:
            return 0
        return dim_at(self.ringA, a) * dim_at(self.ringB, b)

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
        wa = max(self.ringA.weights)
        wb = max(self.ringB.weights)
        return self.min_degree + wa * wb


_UNIT = {0: 1}  # scalar form of every diagonal basis vector; never mutated


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
    invariant = True  # every generator sits at the fine degree 0

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

    def fine_basis(self, j: int) -> list[tuple]:
        """(fine degree, {generator: 1}) per basis vector of the degree-j
        piece; every generator has the fine degree 0, so the basis vector
        (generator i, pair u) has the fine degree u."""
        return [
            (pair, {i: 1})
            for i, g in enumerate(self.gens)
            for pair in r_basis(self.ringA, self.ringB, j - g)
        ]

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

    Each basis vector is stored in fine form, as the fine-degree blocks
    of the resolution give it: its fine degree κ and its scalar form
    {ambient generator: coefficient}, an integer primitive vector.  It
    is the element sum over g of coefficient * (generator g, pair
    κ / fine[g]), `fine` giving each ambient generator its fine degree.
    Multiplying by a monomial pair u maps (κ, s) to (κ·u, s), so the
    action re-expresses s over the scalar forms of the target degree's
    basis vectors at κ·u.

    `bases` is a dict, or the mapping a resolution step gives, which
    builds each degree's basis on its first read (`fine_basis`, `act`),
    and counts it (`dim`) and lists its `nonempty_degrees` without
    building any.

    `invariant` says the module is G-invariant by construction, G the
    permutations of equal-weight variables within each factor: σ*N ≅ N
    for σ in G.  `free_resolution` sets it on the syzygies of a module
    that is (DiagonalModule and FreeModule are), and `ext_dims` then
    counts δ-blocks by G-orbits; a module built by hand is not.
    """

    def __init__(self, ambient: FreeModule, bases, label: str, fine: tuple, invariant: bool = False):
        self.ambient = ambient
        self.bases = bases  # degree -> [(fine degree, scalar form)]
        self.label = label
        self.fine = fine  # fine degree of each ambient generator
        self.invariant = invariant
        self._echelons = {}  # degree -> {fine degree: tracked Echelon}
        self._act_cache = {}  # (pair, p, j) -> act columns
        degs = getattr(bases, "nonempty_degrees", None)
        if degs is None:
            degs = [j for j, b in bases.items() if b]
        self.min_degree = min(degs) if degs else 0
        self.max_degree = max(bases) if bases else None

    def _check_window(self, j: int):
        if self.max_degree is not None and j > self.max_degree:
            raise CertificationError(f"syzygy basis not computed in degree {j}")

    def dim(self, j: int) -> int:
        self._check_window(j)
        count = getattr(self.bases, "dim", None)
        return count(j) if count else len(self.bases.get(j, ()))

    def fine_basis(self, j: int) -> list[tuple]:
        """(fine degree, {ambient generator: coefficient}) per basis vector
        of degree j."""
        self._check_window(j)
        return self.bases.get(j, [])

    def _echelons_at(self, j: int) -> dict:
        """One tracked echelon per fine degree κ of degree j, built on the
        degree's first use: the scalar forms of the basis vectors at κ,
        tagged by basis index.  AssertionError when they are dependent."""
        echs = self._echelons.get(j)
        if echs is None:
            echs = self._echelons[j] = {}
            for i, (kappa, scalar) in enumerate(self.bases.get(j, [])):
                if kappa not in echs:
                    echs[kappa] = linalg.Echelon(track=True)
                if not echs[kappa].add(scalar, tag=i):
                    raise AssertionError(
                        f"syzygy basis vectors at one fine degree of degree {j} are dependent"
                    )
        return echs

    def act(self, pair, p: int, j: int) -> list[dict]:
        self._check_window(j + p)
        src = self.bases.get(j, [])
        if not src:
            return []
        echs = self._echelons_at(j + p)
        if not echs:
            raise AssertionError("action leaves the computed kernel")
        ua, ub = pair
        cols = []
        for (ka, kb), scalar in src:
            ech = echs.get((mono_mul(ka, ua), mono_mul(kb, ub)))
            coords = ech and ech.coordinates(scalar)
            if coords is None:
                raise AssertionError("action leaves the kernel subspace")
            cols.append(dict(sorted(coords.items())))
        return cols

    def generation_bound(self):
        return None  # not certifiable beyond the computed window
