"""Extended numerical semigroups: cofinite submonoids of N x L.

L is a finite abelian group.  A semigroup is stored by its conductor c
(everything in degree >= c belongs to it) together with the member sets
of the rows 0..c-1.  All predicates (connectedness, Frobenius number,
twisted symmetry, canonical degree set, Hilbert data) are decided
exactly by finite checks justified by the conductor bound.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd

from .hilbert import HilbertSeries, make_series


class SemigroupError(ValueError):
    """Invalid semigroup data; carries a witness when available."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Product of cyclic groups, elements as mixed-radix tuples."""

    orders: tuple[int, ...]

    def __post_init__(self):
        if not self.orders or any(o < 1 for o in self.orders):
            raise ValueError("cyclic orders must be positive")

    @property
    def order(self) -> int:
        n = 1
        for o in self.orders:
            n *= o
        return n

    @property
    def identity(self) -> tuple:
        return (0,) * len(self.orders)

    def elements(self) -> list[tuple]:
        return list(itertools.product(*[range(o) for o in self.orders]))

    def add(self, a: tuple, b: tuple) -> tuple:
        return tuple((x + y) % o for x, y, o in zip(a, b, self.orders))

    def neg(self, a: tuple) -> tuple:
        return tuple((-x) % o for x, o in zip(a, self.orders))

    def scale(self, c: int, a: tuple) -> tuple:
        return tuple((c * x) % o for x, o in zip(a, self.orders))

    def subgroup(self, gens) -> frozenset:
        """Subgroup generated by the given elements (closure under +)."""
        seen = {self.identity}
        frontier = [self.identity]
        gens = list(gens)
        while frontier:
            cur = frontier.pop()
            for g in gens:
                nxt = self.add(cur, g)
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return frozenset(seen)

    def label(self, el: tuple) -> str:
        if all(o <= 10 for o in self.orders):
            return "".join(str(x) for x in el)
        return ",".join(str(x) for x in el)

    def parse_element(self, token: str) -> tuple:
        if "," in token:
            parts = [int(t) for t in token.split(",")]
        else:
            parts = [int(ch) for ch in token]
        if len(parts) != len(self.orders):
            raise ValueError(f"element {token!r} has wrong rank")
        return tuple(p % o for p, o in zip(parts, self.orders))


@dataclass(frozen=True)
class ExtNumSemigroup:
    """Submonoid of N x L with finite complement.

    `rows[n]` is the member set in degree n for n below the conductor;
    every pair (n, el) with n >= conductor is a member.
    """

    group: FiniteAbelianGroup
    conductor: int
    rows: tuple[frozenset, ...]
    generators: tuple | None = None

    def __post_init__(self):
        if len(self.rows) != self.conductor:
            raise ValueError("need one row per degree below the conductor")
        if self.conductor > 0 and self.group.identity not in self.rows[0]:
            raise SemigroupError("unit (0, 1) missing")
        self._check_closure()

    def _check_closure(self):
        members = [
            (n, el) for n in range(self.conductor) for el in sorted(self.rows[n])
        ]
        for (n, a) in members:
            for (m, b) in members:
                if n + m >= self.conductor:
                    continue
                s = self.group.add(a, b)
                if s not in self.rows[n + m]:
                    raise SemigroupError(
                        "not closed under addition",
                        witness=((n, a), (m, b), (n + m, s)),
                    )

    def contains(self, n: int, el: tuple) -> bool:
        if n < 0:
            return False
        if n >= self.conductor:
            return True
        return el in self.rows[n]

    def gaps(self) -> list[tuple[int, tuple]]:
        out = []
        for n in range(self.conductor):
            for el in self.group.elements():
                if el not in self.rows[n]:
                    out.append((n, el))
        return out

    def to_json_dict(self) -> dict:
        return {
            "group": list(self.group.orders),
            "conductor": self.conductor,
            "gaps": [[n, self.group.label(el)] for n, el in self.gaps()],
            "generators": [
                [n, self.group.label(el)] for n, el in (self.generators or ())
            ],
        }


def _trim_conductor(group: FiniteAbelianGroup, rows: list[set]) -> ExtNumSemigroup:
    full = set(group.elements())
    c = len(rows)
    while c > 0 and rows[c - 1] == full:
        c -= 1
    return ExtNumSemigroup(
        group, c, tuple(frozenset(r) for r in rows[:c])
    )


def from_generators(group: FiniteAbelianGroup, gens) -> ExtNumSemigroup:
    """Monoid closure of the generators, if its complement is finite.

    The closure is cofinite exactly when the generator degrees have gcd 1
    and the associated difference subgroup is all of L; otherwise a
    witness coset of misses is reported.
    """
    gens = [(int(n), tuple(el)) for n, el in gens]
    if not gens:
        raise SemigroupError("generator list is empty")
    for n, el in gens:
        if n < 0:
            raise SemigroupError("generator degrees must be >= 0")
    pos = [(n, el) for n, el in gens if n > 0]
    if not pos:
        raise SemigroupError(
            "infinite complement: no generator of positive degree", witness=(1, group.identity)
        )
    d = 0
    for n, _ in pos:
        d = gcd(d, n)
    # Bezout combination of the degrees, tracked on the group side
    bez_n, bez_el = pos[0]
    for idx in range(1, len(pos)):
        n, el = pos[idx]
        g, x, y = _xgcd(bez_n, n)
        bez_el = group.add(group.scale(x, bez_el), group.scale(y, el))
        bez_n = g
    mu = bez_el  # (d, mu) generates the degree-d layer of the group closure
    hgens = [group.scale(1, el) for n, el in gens if n == 0]
    for n, el in pos:
        hgens.append(group.add(el, group.neg(group.scale(n // d, mu))))
    H = group.subgroup(hgens)
    if d != 1 or len(H) != group.order:
        if d != 1:
            raise SemigroupError(
                f"infinite complement: generator degrees share the divisor {d}",
                witness=("degree-residue", 1 % d if d > 1 else 1),
            )
        missing = next(el for el in group.elements() if el not in H)
        raise SemigroupError(
            "infinite complement: group components stay inside a proper "
            f"subgroup of order {len(H)}; coset witness {group.label(missing)}",
            witness=("coset", missing, frozenset(H)),
        )
    gmax = max(n for n, _ in pos)
    A0 = group.subgroup([el for n, el in gens if n == 0])
    rows = [set(A0)]
    full = set(group.elements())
    cap = 64 + 4 * gmax * gmax * group.order
    while True:
        n = len(rows)
        if n > cap:
            raise AssertionError("conductor search exceeded its bound")
        row = set()
        for ng, el in pos:
            if ng <= n:
                row.update(group.add(el, a) for a in rows[n - ng])
        rows.append(row)
        if n >= gmax and all(rows[m] == full for m in range(n - gmax + 1, n + 1)):
            break
    sgp = _trim_conductor(group, rows)
    object.__setattr__(sgp, "generators", tuple(gens))
    return sgp


def _xgcd(a: int, b: int):
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def from_complement(group: FiniteAbelianGroup, gaps) -> ExtNumSemigroup:
    """Semigroup with the given finite gap set, verified to be a monoid."""
    gapset = {(int(n), tuple(el)) for n, el in gaps}
    for n, el in gapset:
        if n < 0:
            raise SemigroupError("gap degrees must be >= 0")
    if (0, group.identity) in gapset:
        raise SemigroupError("the unit (0, 1) cannot be a gap")
    c = 1 + max((n for n, _ in gapset), default=-1)
    rows = []
    for n in range(c):
        rows.append({el for el in group.elements() if (n, el) not in gapset})
    return _trim_conductor(group, rows)


def is_connected(S: ExtNumSemigroup) -> bool:
    """Only the unit sits in degree zero."""
    if S.conductor == 0:
        return S.group.order == 1
    return S.rows[0] == frozenset({S.group.identity})


def frobenius(S: ExtNumSemigroup) -> int:
    """Largest degree containing a gap; -1 when there are none."""
    g = S.gaps()
    return max((n for n, _ in g), default=-1)


def twisted_symmetric(S: ExtNumSemigroup) -> list[tuple]:
    """All tau with complement(S) = (a, tau) - S, a the Frobenius number.

    The set identity is checked on degrees [-c-1, 2c], which suffices:
    outside that range both sides are forced by the conductor.
    """
    a = frobenius(S)
    c = S.conductor
    group = S.group
    taus = []
    for tau in group.elements():
        ok = True
        for m in range(-c - 1, 2 * c + 1):
            for lam in group.elements():
                in_comp = not S.contains(m, lam)
                # (a - n, tau * mu^-1) over members (n, mu), solved for mu
                mu = group.add(tau, group.neg(lam))
                in_shift = S.contains(a - m, mu)
                if in_comp != in_shift:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            taus.append(tau)
    return taus


def gorenstein(S: ExtNumSemigroup) -> bool:
    return bool(twisted_symmetric(S))


def a_invariant(S: ExtNumSemigroup) -> int:
    """Equals the Frobenius number; computed through the canonical degrees."""
    degs = [n for n, _ in canonical_degrees(S, -S.conductor - 1, S.conductor + 1)]
    if not degs:
        # complement empty in the sampled range: S = N x L
        return -1
    return -min(degs)


def canonical_degrees(S: ExtNumSemigroup, lo: int, hi: int) -> list[tuple[int, tuple]]:
    """Degree set of the canonical module: minus the complement of S in Z x L."""
    out = []
    for t in range(lo, hi + 1):
        n = -t
        for lam in S.group.elements():
            if not S.contains(n, lam):
                out.append((t, S.group.neg(lam)))
    return sorted(out)


def reduced(S: ExtNumSemigroup, char: int) -> bool:
    """The semigroup ring is reduced iff the order of L is invertible."""
    if char == 0:
        return True
    return S.group.order % char != 0


def semigroup_series(S: ExtNumSemigroup, lo: int = 0, hi: int = 8) -> HilbertSeries:
    table = {}
    for n in range(max(lo, 0), hi + 1):
        v = len(S.rows[n]) if n < S.conductor else S.group.order
        if v:
            table[n] = v
    return make_series((lo, hi), table, support_lower=0)


def subspace_quiver_data(S: ExtNumSemigroup, char: int):
    """Star quiver (one source, |L| sinks) attached to the parametrized
    family with gaps {(0, lam) : lam != 1} plus a single degree-1 gap.

    Errors when S is outside the family or when char divides |L|.
    """
    from .quivers import Quiver

    group = S.group
    n = group.order
    if char != 0 and n % char == 0:
        raise SemigroupError("characteristic divides the group order")
    if not is_connected(S):
        raise SemigroupError("semigroup outside the family: not connected")
    if S.conductor != 2 or frobenius(S) != 1:
        raise SemigroupError("semigroup outside the family: conductor is not 2")
    row1_gaps = [el for el in group.elements() if el not in S.rows[1]]
    if len(row1_gaps) != 1 or row1_gaps[0] == group.identity:
        raise SemigroupError("semigroup outside the family: degree-1 gaps")
    vertices = ["0"] + [str(i) for i in range(1, n + 1)]
    arrows = {("0", str(i)): 1 for i in range(1, n + 1)}
    return Quiver(tuple(vertices), arrows)


def gap_table_str(S: ExtNumSemigroup) -> str:
    """Bullet table of the rows of degree 0 to conductor + 1, one column per
    group element."""
    group = S.group
    els = group.elements()
    labels = [group.label(el) for el in els]
    widths = [max(len(l), 1) for l in labels]
    head = "    | " + "  ".join(l.rjust(w) for l, w in zip(labels, widths))
    lines = [head, "-" * len(head)]
    for nrow in range(S.conductor + 2):
        cells = []
        for el, w in zip(els, widths):
            cells.append(("*" if S.contains(nrow, el) else " ").rjust(w))
        lines.append(f"{nrow:>3} | " + "  ".join(cells))
    return "\n".join(lines)


def report(S: ExtNumSemigroup, char: int = 0) -> dict:
    taus = twisted_symmetric(S)
    return {
        "semigroup": S.to_json_dict(),
        "connected": is_connected(S),
        "frobenius": frobenius(S),
        "a_invariant": a_invariant(S),
        "twisted_symmetric_taus": [S.group.label(t) for t in taus],
        "gorenstein": bool(taus),
        "reduced": reduced(S, char),
        "char": char,
        "series": semigroup_series(S).to_json_dict(),
        "table": gap_table_str(S),
    }
