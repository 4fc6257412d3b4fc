"""Representation combinatorics of the Kronecker quiver with n arrows:
Euler form, preprojective and preinjective dimension vectors, rigidity
of candidate summand sets via Euler-form arithmetic, the degree-one
dimension recurrence, and the labels of the matching Cohen-Macaulay
modules over the bundled 4-dimensional non-Gorenstein ring."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class DimVector:
    """Dimension vector on the two vertices.

    Honest module dimension vectors are non-negative; the reflection
    recurrences are allowed to run through the full root system (for one
    arrow they cycle through negative roots), so negative entries are
    not rejected.
    """

    source: int
    sink: int

    def as_pair(self):
        return (self.source, self.sink)


@dataclass(frozen=True)
class KroneckerContext:
    """The quiver with n parallel arrows; Euler form
    <d, e> = d_s e_s + d_t e_t - n d_s e_t."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one arrow")

    def euler(self, d: DimVector, e: DimVector) -> int:
        return d.source * e.source + d.sink * e.sink - self.n * d.source * e.sink

    def q(self, d: DimVector) -> int:
        return self.euler(d, d)

    def coxeter_step(self, d: DimVector) -> DimVector:
        """The index-lowering transform: sends p_(i+1) to p_i (and
        q_(i+1) to q_i); preserves the quadratic form."""
        return DimVector(self.n * d.source - d.sink, d.source)

    def preprojective(self, i: int) -> DimVector:
        return self._recurrence(i, DimVector(0, 1), DimVector(1, self.n))

    def preinjective(self, i: int) -> DimVector:
        return self._recurrence(i, DimVector(1, 0), DimVector(self.n, 1))

    def _recurrence(self, i: int, first: DimVector, second: DimVector) -> DimVector:
        if i < 1:
            raise ValueError("indices start at 1")
        a, b = first, second
        if i == 1:
            return a
        for _ in range(i - 2):
            a, b = b, DimVector(self.n * b.source - a.source, self.n * b.sink - a.sink)
        return b


def ext1_between(ctx: KroneckerContext, kind_a: str, i: int, kind_b: str, j: int) -> int:
    """dim Ext^1 from the (kind_a, i) indecomposable to the (kind_b, j) one.

    Decided by the Euler form plus the hom-order: maps between
    preprojectives raise the index and between preinjectives lower it,
    there are no maps from preinjectives to preprojectives, and the
    projectives/injectives at the fringe have no extensions on their own
    side.
    """
    da = ctx.preprojective(i) if kind_a == "P" else ctx.preinjective(i)
    db = ctx.preprojective(j) if kind_b == "P" else ctx.preinjective(j)
    if kind_a == "P" and kind_b == "P":
        if i <= j:
            return 0  # targets later in the hom order never extend back
        return max(-ctx.euler(da, db), 0)  # hom vanishes from later to earlier
    if kind_a == "I" and kind_b == "I":
        if i >= j:
            return 0
        return max(-ctx.euler(da, db), 0)
    if kind_a == "P" and kind_b == "I":
        return 0  # preinjectives extend preprojectives, not conversely
    # kind_a == "I", kind_b == "P": hom(I, P) = 0, so ext is minus the form
    return max(-ctx.euler(da, db), 0)


def rigid_pairs(ctx: KroneckerContext, bound: int) -> dict:
    """Rigidity verdicts for the candidate summand sets up to the bound.

    Adjacent preprojective or preinjective pairs are rigid; skipping
    pairs and mixed pairs acquire self-extensions, witnessed by the
    Euler numbers reported alongside.
    """
    singles = []
    for kind in ("P", "I"):
        for i in range(1, bound + 1):
            d = ctx.preprojective(i) if kind == "P" else ctx.preinjective(i)
            singles.append(
                {"summands": [f"{kind}{i}"], "q": ctx.q(d), "rigid": ctx.q(d) == 1}
            )
    adjacent = []
    skip = []
    for kind in ("P", "I"):
        for i in range(1, bound):
            e = _pair_ext_total(ctx, kind, i, kind, i + 1)
            adjacent.append(
                {"summands": [f"{kind}{i}", f"{kind}{i + 1}"], "ext1": e, "rigid": e == 0}
            )
        for i in range(1, bound - 1):
            for j in range(i + 2, bound + 1):
                e = _pair_ext_total(ctx, kind, i, kind, j)
                skip.append(
                    {"summands": [f"{kind}{i}", f"{kind}{j}"], "ext1": e, "rigid": e == 0}
                )
    mixed = []
    for i in range(1, bound + 1):
        for j in range(1, bound + 1):
            e = _pair_ext_total(ctx, "P", i, "I", j)
            mixed.append(
                {"summands": [f"P{i}", f"I{j}"], "ext1": e, "rigid": e == 0}
            )
    return {
        "bound": bound,
        "singles": singles,
        "adjacent": adjacent,
        "skip": skip,
        "mixed": mixed,
    }


def _pair_ext_total(ctx, ka, i, kb, j) -> int:
    return ext1_between(ctx, ka, i, kb, j) + ext1_between(ctx, kb, j, ka, i)


def degree_one_dims(i: int) -> int:
    """The recurrence d_1 = 3, d_2 = 12, d_i = 3*d_(i-1) - d_(i-2)."""
    if i < 1:
        raise ValueError("indices start at 1")
    a, b = 3, 12
    if i == 1:
        return a
    if i == 2:
        return b
    for _ in range(i - 2):
        a, b = b, 3 * b - a
    return b


def cm_label(kind: str, i: int) -> str:
    """Module label over the bundled non-Gorenstein ring for the i-th
    preprojective or preinjective; beyond the explicitly identified ones
    the label is a formal translate."""
    if i < 1:
        raise ValueError("indices start at 1")
    if kind == "P":
        named = {1: "syz(omega)", 2: "syz^3(omega)", 3: "syz^2(M-2)"}
        if i in named:
            return named[i]
        k = (i - 2) // 2
        base = named[2] if i % 2 == 0 else named[3]
        return f"tau^-{k}({base})"
    if kind == "I":
        named = {1: "M2", 2: "tau(omega)"}
        if i in named:
            return named[i]
        if i % 2 == 1:
            return f"tau^{(i - 1) // 2}(M2)"
        return f"tau^{i // 2}(omega)"
    raise ValueError("kind must be 'P' or 'I'")


def ar_component_dot(ctx: KroneckerContext, count: int = 6) -> str:
    """DOT rendering of the preprojective and preinjective fringes with
    the Cohen-Macaulay labels attached."""
    lines = [f"digraph AR{ctx.n} {{", "  rankdir=LR;"]
    for kind in ("P", "I"):
        for i in range(1, count + 1):
            d = ctx.preprojective(i) if kind == "P" else ctx.preinjective(i)
            lines.append(
                f'  "{kind}{i}" [label="{kind}{i} = {cm_label(kind, i)}\\n{d.as_pair()}"];'
            )
    for i in range(1, count):
        for _ in range(ctx.n):
            lines.append(f'  "P{i}" -> "P{i + 1}";')
            lines.append(f'  "I{i + 1}" -> "I{i}";')
    lines.append("}")
    return "\n".join(lines)


def classification_report(ctx: KroneckerContext, bound: int, evidence: dict) -> dict:
    """Assemble the rigidity classification over the bundled ring.

    `evidence` must contain the windowed Ext tables from the graded
    linear algebra layer: keys `rigid_triples` (totals per maximal rigid
    module), `syz3_self_extension` (graded dims), and
    `stable_end_omega`.  Conclusions are marked as corroborated on the
    stated window; the underlying general statements are established
    results re-checked here at finite level.
    """
    for key in ("rigid_triples", "syz3_self_extension", "stable_end_omega"):
        if key not in evidence:
            raise ValueError(f"missing Ext table {key!r} in the evidence")
    pairs = rigid_pairs(ctx, bound)
    candidates = []
    for entry in pairs["adjacent"]:
        if entry["rigid"]:
            labels = [
                cm_label(s[0], int(s[1:])) for s in entry["summands"]
            ]
            candidates.append({"summands": entry["summands"], "modules": labels})
    triples = evidence["rigid_triples"]
    selfext = evidence["syz3_self_extension"]
    report = {
        "arrows": ctx.n,
        "bound": bound,
        "candidate_pairs": candidates,
        "euler_verdicts": pairs,
        "maximal_rigid_windowed": {
            name: {"ext1_total": total, "rigid_on_window": total == 0}
            for name, total in triples["totals"].items()
        },
        "syz3_self_extension": {
            "graded_dims": {str(k): v for k, v in selfext.items()},
            "nonzero": any(selfext.values()),
        },
        "stable_end_omega_total": sum(evidence["stable_end_omega"].values()),
        "status": "corroborated on window "
        + str(triples.get("window", "?"))
        + "; global statements are established results re-checked at finite level",
    }
    return report
