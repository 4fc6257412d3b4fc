"""Sparse exact linear algebra over the rationals and prime fields.

Matrices are stored column-wise: a matrix is a list of sparse columns,
each a dict mapping row index to a nonzero integer.  Rational
eliminations are integer-preserving, so results are exact.  `Echelon`
reduces its own copy of an inserted column in place: one step adds a
multiple of a pivot (an axpy), and over Q first scales the column when
the pivot entry does not divide its own, taking the content only then.
A step that needs no scaling, or only by -1 (folded into the pivot's
multiple), leaves the column a scalar multiple of what a step that
always cross-multiplies and divides by the content would give; so every
rank, normalised kernel vector and coordinate ratio is the same.
`Echelon`, `rank_of` and `kernel_of` take a prime characteristic to run
the same elimination over F_p; a rational entry n/d enters F_p as
n * d^-1.  `Echelon.coordinates`, `CoordSolver`, `kernel_coordinates`,
`apply_columns` and `compose` work over Q.  `kernel_coordinates` reads
the coordinates of a kernel vector off the free columns of the basis
`kernel_of` returns, with no elimination per vector; `CoordSolver`, one
elimination per basis and one reduction per vector, stays as the tests'
reference for it and for the other coordinate paths.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

Col = dict  # row index -> nonzero int


class CertificationError(RuntimeError):
    """The requested quantity is not determined by the computed window."""


def reduce_mod(vec: Col, char: int) -> Col:
    """The nonzero entries of vec in F_char.

    A Fraction entry n/d becomes n * d^-1; CertificationError when char
    divides d, because the entry has no image in F_char.
    """
    out = {}
    for k, v in vec.items():
        if v.__class__ is Fraction:
            if not v.denominator % char:
                raise CertificationError(
                    f"entry {v} has a denominator divisible by {char}"
                )
            v = v.numerator * pow(v.denominator, -1, char)
        v %= char
        if v:
            out[k] = v
    return out


def combine(a: Col, b: Col, ca: int, cb: int, char: int = 0) -> Col:
    """Return ca*a + cb*b, dropping zeros (mod char when char > 0)."""
    out = {}
    for k, x in a.items():
        out[k] = ca * x
    for k, y in b.items():
        z = out.get(k, 0) + cb * y
        if z:
            out[k] = z
        elif k in out:
            del out[k]
    if char:
        for k in list(out):
            z = out[k] % char
            if z:
                out[k] = z
            else:
                del out[k]
    return out


def _axpy(y: Col, x: Col, c, char: int = 0):
    """y += c*x in place for c*x without zero entries, dropping zeros (mod
    char when char > 0, y and x reduced)."""
    get = y.get
    if char:
        for k, v in x.items():
            z = (get(k, 0) + c * v) % char
            if z:
                y[k] = z
            else:
                del y[k]
    else:
        for k, v in x.items():
            z = get(k, 0) + c * v
            if z:
                y[k] = z
            else:
                del y[k]


def _content(*vecs: Col) -> int:
    g = 0
    for v in vecs:
        for x in v.values():
            if not isinstance(x, int):
                return 1
            g = gcd(g, x)
            if g == 1:
                return 1
    return g


class Echelon:
    """Incremental column echelon form, pivots keyed by least row index.

    Each accepted column is stored reduced against the previous pivots;
    an inserted column that reduces to zero is linearly dependent, and
    its accumulated coordinates (when tracked) give a kernel vector.
    """

    def __init__(self, char: int = 0, track: bool = False):
        self.char = char
        self.track = track
        self.pivots: dict[int, tuple[Col, Col | None]] = {}
        self.kernel: list[Col] = []
        self.count = 0

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def _reduce(self, body: Col, aug: Col | None):
        """Reduce body, and aug alongside it, in place against the pivots;
        both are the caller's own dicts without zero entries."""
        char, pivots = self.char, self.pivots
        vecs = (body,) if aug is None else (body, aug)
        while body:
            r = min(body)
            hit = pivots.get(r)
            if hit is None:
                break
            pbody, paug = hit
            p, q = pbody[r], body[r]
            scaled = False
            if char:
                c = -q * pow(p, char - 2, char) % char
            else:
                if isinstance(p, int) and isinstance(q, int):
                    g = gcd(p, q)
                    cs, c = p // g, -(q // g)
                else:
                    cs, c = p, -q
                if cs == -1:
                    c = -c  # the step's sign, which changes no result
                elif cs != 1:
                    scaled = True
                    for v in vecs:
                        for k, x in v.items():
                            v[k] = cs * x
            _axpy(body, pbody, c, char)
            if aug is not None:
                _axpy(aug, paug, c, char)
            if scaled:
                g = _content(*vecs)
                if g > 1:
                    for v in vecs:
                        for k, x in v.items():
                            v[k] = x // g
        return body, aug

    def add(self, body: Col, tag=None) -> bool:
        """Insert a column; return True when it enlarges the span."""
        if self.char:
            body = reduce_mod(body, self.char)
        else:
            body = {k: v for k, v in body.items() if v}
        aug = {("c", tag if tag is not None else self.count): 1} if self.track else None
        self.count += 1
        body, aug = self._reduce(body, aug)
        if not body:
            if self.track:
                self.kernel.append(aug)
            return False
        self.pivots[min(body)] = (body, aug)
        return True

    def contains(self, body: Col) -> bool:
        if self.char:
            body = reduce_mod(body, self.char)
        else:
            body = {k: v for k, v in body.items() if v}
        body, _ = self._reduce(body, None)
        return not body

    def coordinates(self, vec: Col) -> dict | None:
        """Coordinates of vec keyed by the tags of the accepted columns (a
        dependent column never becomes a pivot), or None outside the
        span.  Over Q only, on a tracked echelon; a coordinate is an int
        when integral, a Fraction only otherwise."""
        if not self.track or self.char:
            raise ValueError("coordinates need a tracked echelon over Q")
        body = {k: v for k, v in vec.items() if v}
        aug = {("q", 0): 1}
        body, aug = self._reduce(body, aug)
        if body:
            return None
        alpha = aug.pop(("q", 0))
        out = {}
        for k, v in aug.items():
            q, r = divmod(-v, alpha)
            out[k[1]] = Fraction(-v, alpha) if r else q
        return out

    def kernel_basis(self) -> list[Col]:
        """The tracked dependencies as vectors over the column tags,
        integer and primitive over Q, deterministic (first nonzero
        coordinate positive; 1 over F_p)."""
        return [
            _normalize_vec({k[1]: v for k, v in aug.items()}, self.char)
            for aug in self.kernel
        ]


def rank_of(cols: list[Col], char: int = 0) -> int:
    ech = Echelon(char)
    for c in cols:
        ech.add(c)
    return ech.rank


def kernel_of(cols: list[Col], char: int = 0) -> list[Col]:
    """Kernel basis of the matrix with the given columns.

    Vectors are dicts over column indices, integer and primitive over Q,
    deterministic (first nonzero coordinate positive).  The basis is in
    free-column form: vector k comes from the k-th column that reduced
    to zero, its free column f_k; f_k is its largest key, since the rest
    of the vector combines earlier accepted columns, and no other basis
    vector is nonzero at f_k, since a dependent column never becomes a
    pivot.  `kernel_coordinates` relies on this.
    """
    ech = Echelon(char, track=True)
    for i, c in enumerate(cols):
        ech.add(c, tag=i)
    return ech.kernel_basis()


def kernel_coordinates(cols: list[Col]):
    """The kernel basis of `kernel_of(cols)` over Q, and a reader of
    coordinates in it.

    A kernel vector v = Σ c_k b_k has v[f_k] = c_k b_k[f_k] at the free
    column f_k of b_k, so c_k = v[f_k] / b_k[f_k], read over v's own keys
    only.  The reader returns the nonzero (k, c_k) sorted by k, c_k an
    int when integral and a Fraction otherwise (the values and types of
    `Echelon.coordinates`), or None when `cols` does not send v to zero.
    AssertionError when the basis is not in free-column form."""
    basis = kernel_of(cols)
    seen = {}
    for b in basis:
        for f in b:
            seen[f] = seen.get(f, 0) + 1
    free = {}  # free column -> (k, b_k at it)
    for k, b in enumerate(basis):
        f = max(b)
        if seen[f] != 1:
            raise AssertionError(f"kernel vector {k} has no free column")
        free[f] = (k, b[f])

    def read(vec: Col) -> list | None:
        if apply_columns(cols, vec):
            return None
        out = []
        for f, x in vec.items():
            hit = free.get(f)
            if hit is not None and x:
                k, p = hit
                q, r = divmod(x, p)
                out.append((k, Fraction(x, p) if r else q))
        out.sort()
        return out

    return basis, read


def _normalize_vec(vec: Col, char: int = 0) -> Col:
    if not vec:
        return vec
    if char:
        lead = vec[min(vec)]
        inv = pow(lead, char - 2, char)
        return {k: (v * inv) % char for k, v in vec.items()}
    c = _content(vec)
    if c > 1:
        vec = {k: v // c for k, v in vec.items()}
    if vec[min(vec)] < 0:
        vec = {k: -v for k, v in vec.items()}
    return vec


class CoordSolver:
    """Express vectors in the span of a fixed list of integer columns."""

    def __init__(self, basis: list[Col]):
        self.ech = Echelon(track=True)
        for i, b in enumerate(basis):
            if not self.ech.add(b, tag=i):
                raise ValueError("basis columns are dependent")
        self.size = len(basis)

    def solve(self, vec: Col) -> list | None:
        """Coordinates of vec in the basis, or None when not in the span;
        see `Echelon.coordinates`."""
        found = self.ech.coordinates(vec)
        if found is None:
            return None
        coords = [0] * self.size
        for i, v in found.items():
            coords[i] = v
        return coords


def apply_columns(cols: list[Col], vec: Col) -> Col:
    """Matrix times vector, the matrix given by its columns."""
    out: Col = {}
    for j, x in vec.items():
        col = cols[j]
        for r, y in col.items():
            z = out.get(r, 0) + x * y
            if z:
                out[r] = z
            elif r in out:
                del out[r]
    return out


def compose(colsA: list[Col], colsB: list[Col]) -> list[Col]:
    """Columns of A∘B for column-stored A and B."""
    return [apply_columns(colsA, b) for b in colsB]
