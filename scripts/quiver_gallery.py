#!/usr/bin/env python3
"""Dump DOT files for every quiver the package knows how to build:
endomorphism quivers of the three bundled rings (plus stable parts),
the two p-Segre examples, the folded quivers, and the Kronecker
component with its module labels."""

import sys
from pathlib import Path

from segrecalc import kronecker
from segrecalc.cli import _gorenstein_endo_quiver, check_folding
from segrecalc.gradedlin import catalog
from segrecalc.gradedlin.modules import DiagonalModule
from segrecalc.gradedlin.resolution import HomCalculator
from segrecalc.hilbert import ring
from segrecalc.quivers import EndoQuiver, Quiver, VeroneseSideData, p_segre_quiver


def from_json(art) -> Quiver:
    """The quiver that `Quiver.to_json_dict` wrote as `art`."""
    return Quiver(tuple(art["vertices"]), {(s, t): m for s, t, m in art["arrows"]})


def main(out="quiver-gallery"):
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)

    def dump(name, quiver):
        (out_dir / f"{name}.dot").write_text(quiver.to_dot(name) + "\n")
        print(f"wrote {name}.dot  ({len(quiver.vertices)} vertices, "
              f"{quiver.arrow_count()} arrows)")

    a, b = catalog.ring_pair("k2_k3")
    calc = HomCalculator(a, b, 0, 8)
    omega = DiagonalModule(a, b, 1)
    syz2 = calc.resolution(omega, 3).syzygy(2)
    eq = EndoQuiver(
        calc,
        [("R", DiagonalModule(a, b, 0)), ("omega", omega), ("syz2", syz2)],
        degree_top=3,
    )
    dump("nongorenstein_tilting", eq.quiver)

    # check_folding builds the stable quivers of both k3 pairs (on the
    # same windows) and keeps them in its artifact
    folds = check_folding({})
    for key, fold in (("k3_w12", "threefold"), ("k3_k3", "fourfold")):
        eq = _gorenstein_endo_quiver(key, 8 if key == "k3_w12" else 7)
        dump(f"endo_{key}", eq.quiver)
        dump(f"endo_{key}_stable", from_json(folds[fold]["stable"]))
    dump("folded_threefold", from_json(folds["threefold"]["folded"]))
    dump("folded_fourfold", from_json(folds["fourfold"]["folded"]))

    dump("p3_loop_example", p_segre_quiver(
        VeroneseSideData(ring(("x", "y"), (1, 2))),
        VeroneseSideData(ring(("u", "v"), (1, 2))), 3, degree_top=5))
    side_a = VeroneseSideData(ring(("x", "y"), (1, 1)), order=2, residues=(0, 1))
    side_b = VeroneseSideData(ring(("u", "v"), (1, 1)), order=2, residues=(0, 1))
    dump("veronese_square", p_segre_quiver(side_a, side_b, 1, degree_top=4))

    (out_dir / "kronecker_component.dot").write_text(
        kronecker.ar_component_dot(kronecker.KroneckerContext(3)) + "\n"
    )
    print("wrote kronecker_component.dot")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
