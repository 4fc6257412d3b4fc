"""Acceptance suite: one test per criterion, each printing a pass/fail
line with its elapsed time.  All tolerances are exact integer equalities;
time budgets are asserted with the stated limits."""

import hashlib
import json
import time
from pathlib import Path

from segrecalc import cli
from segrecalc.quivers import fold_d3, fold_d4, middle_multiplicities
from segrecalc.gradedlin import catalog


def report(number, name, passed, elapsed, budget):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE C{number:02d} {name}: {status} ({elapsed:.2f}s, budget {budget}s)")
    assert passed, f"criterion {number} ({name}) failed"
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


def timed(fn, *args):
    t0 = time.time()
    out = fn(*args)
    return out, time.time() - t0


def test_criterion_01_local_cohomology_suite():
    art, dt = timed(cli.check_local_cohomology_suite, {})
    report(1, "local-cohomology-suite", art["pass"], dt, 1)


def test_criterion_02_gorenstein_suite():
    art, dt = timed(cli.check_gorenstein_suite, {})
    report(2, "gorenstein-suite", art["pass"], dt, 1)


def test_criterion_03_koszul_diagonal_suite():
    art, dt = timed(cli.check_koszul_diagonal_suite, {"window": 6})
    report(3, "koszul-diagonal-suite", art["pass"], dt, 30)


def test_criterion_04_almost_split_threefold():
    art, dt = timed(cli.check_almost_split, "k3_w12", {"window": 5})
    report(4, "almost-split-threefold", art["pass"], dt, 120)


def test_criterion_05_almost_split_fourfold():
    art, dt = timed(cli.check_almost_split, "k3_k3", {"window": 5})
    report(5, "almost-split-fourfold", art["pass"], dt, 300)


def test_criterion_06_main_suite():
    art, dt = timed(cli.check_main_suite, {"window": 5})
    assert art["checks"]["sequences_exact"]
    assert art["checks"]["ext1_X_X_zero"]
    assert art["checks"]["ext1_syz2_M2_total_1"]
    assert art["checks"]["ext1_syz2_M3_total_2"]
    assert art["checks"]["stable_end_omega_dim_1"]
    report(6, "main-sequence-suite", art["pass"], dt, 300)


def test_criterion_07_endo_quiver_window_stable():
    art, dt = timed(cli.check_nongor_quiver, {})
    assert art["window_stable"]
    report(7, "nongor-endo-quiver", art["pass"], dt, 120)


def test_criterion_08_folding():
    # hom data (stable quivers and middle terms) is prepared first; the
    # folding arithmetic itself carries the one-second budget
    eq3 = cli._gorenstein_endo_quiver("k3_w12", 8)
    stable3 = eq3.stable_reduce(["R"])
    seq3 = {
        at: catalog.almost_split_sequence("k3_w12", at, (0, 5))
        for at in ("at-M1", "at-M-1")
    }
    eq4 = cli._gorenstein_endo_quiver("k3_k3", 7)
    stable4 = eq4.stable_reduce(["R"])
    seq4 = {
        at: catalog.almost_split_sequence("k3_k3", at, (0, 5))
        for at in ("at-M1", "at-M-1")
    }
    t0 = time.time()
    mids3 = {at: middle_multiplicities(s) for at, s in seq3.items()}
    n_map = {
        ("M1", "M-1"): mids3["at-M1"].get("M-1", 0),
        ("M-1", "M1"): mids3["at-M-1"].get("M1", 0),
    }
    folded3 = fold_d3(stable3, n_map)
    mids4 = {at: middle_multiplicities(s) for at, s in seq4.items()}
    m_map = {
        ("M-1", "M1"): mids4["at-M1"].get("M-1", 0),
        ("M1", "M-1"): mids4["at-M-1"].get("M1", 0),
    }
    folded4 = fold_d4(stable4.vertices, m_map)
    dt = time.time() - t0
    ok = (
        len(folded3.vertices) == 4
        and folded3.arrow_multiset() == [1, 1, 3, 3]
        and len(folded4.vertices) == 6
        and folded4.arrow_multiset() == [3] * 6
    )
    report(8, "folding-suite", ok, dt, 1)


def test_criterion_09_numsgp_suite():
    art, dt = timed(cli.check_numsgp_suite, {})
    report(9, "numsgp-suite", art["pass"], dt, 1)


def test_criterion_10_contraction_suite():
    art, dt = timed(cli.check_contraction_suite, {})
    report(10, "contraction-suite", art["pass"], dt, 30)


def test_criterion_11_kronecker_suite():
    art, dt = timed(cli.check_kronecker_suite, {"window": 5})
    for key, val in art["checks"].items():
        assert val, key
    report(11, "kronecker-suite", art["pass"], dt, 60)


# sha256 of every `reproduce-paper --section all` artifact, pinned so that
# a change of behaviour between commits shows, not only between two runs
PINNED_DIGESTS = Path(__file__).with_name("reproduce_sha256.json")


def test_criterion_12_determinism(tmp_path):
    t0 = time.time()
    rc1 = cli.main(["reproduce-paper", "--section", "all", "--out", str(tmp_path / "a")])
    dt1 = time.time() - t0
    rc2 = cli.main(["reproduce-paper", "--section", "all", "--out", str(tmp_path / "b")])
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    same = names == sorted(p.name for p in (tmp_path / "b").iterdir()) and all(
        (tmp_path / "a" / n).read_bytes() == (tmp_path / "b" / n).read_bytes()
        for n in names
    )
    digests = {
        n: hashlib.sha256((tmp_path / "a" / n).read_bytes()).hexdigest() for n in names
    }
    table = json.loads(PINNED_DIGESTS.read_text())
    changed = sorted(n for n in set(digests) | set(table) if digests.get(n) != table.get(n))
    if changed:
        print(f"artifacts differing from {PINNED_DIGESTS.name}: {', '.join(changed)}")
    ok = rc1 == 0 and rc2 == 0 and same and not changed
    report(12, "determinism", ok, dt1, 900)
