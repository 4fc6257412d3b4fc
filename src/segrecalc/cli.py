"""Batch front end: run declarative config jobs or the bundled
reproduction manifest, with JSON/text/DOT outputs and deterministic
bytes.

Exit codes: 0 all checks pass, 1 a check failed, 2 usage or config
error, 3 window-certification gap.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from math import isqrt
from pathlib import Path

from . import hilbert, kronecker, numsgp
from .config import ConfigError, parse_config, want_int, want_ints, want_str
from .gradedlin import catalog
from .gradedlin.modules import DiagonalModule
from .gradedlin.resolution import CertificationError, HomCalculator, free_resolution
from .quivers import EndoQuiver, VeroneseSideData, fold_d3, fold_d4, middle_multiplicities, p_segre_quiver

JSON_KW = {"sort_keys": True, "indent": 2}


def write_artifact(out_dir: Path, name: str, payload) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{name}.json"
    path.write_text(json.dumps(payload, **JSON_KW) + "\n")
    return path


def write_text(out_dir: Path, name: str, text: str) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    path.write_text(text + ("\n" if not text.endswith("\n") else ""))
    return path


# ---------------------------------------------------------------------------
# the reproduction manifest


def check_local_cohomology_suite(opts) -> dict:
    a, b = catalog.ring_pair("k2_k3")
    rep = hilbert.segre_report(a, b, shifts=(-1, 0, 1, 2, 3))
    art = rep.to_json_dict()
    ring_shift = art["shifts"]["0"]
    top = rep.top_cohomology
    checks = {
        "dimension_4": rep.dimension == 4,
        "a_invariant_-3": rep.a_invariant == -3,
        "not_gorenstein": not rep.gorenstein,
        "low_cohomology_certified": all(
            ring_shift["statuses"][str(p)] == "zero-certified" for p in range(4)
        ),
        "top_dims": [top.coeff(j) for j in (-3, -4, -5)] == [2, 9, 24],
        "cm_shifts": all(art["shifts"][str(s)]["cm"] for s in (-1, 0, 1, 2)),
        "m3_not_cm": art["shifts"]["3"]["statuses"]["3"] == "nonzero",
    }
    art["checks"] = checks
    art["pass"] = all(checks.values())
    return art


def check_gorenstein_suite(opts) -> dict:
    out = {}
    ok = True
    for key, dim in (("k3_w12", 4), ("k3_k3", 5)):
        a, b = catalog.ring_pair(key)
        rep = hilbert.segre_report(a, b, shifts=(0,))
        entry = rep.to_json_dict()
        entry["checks"] = {
            "gorenstein": rep.gorenstein,
            "tests_agree": rep.gorenstein_series_test == rep.gorenstein_criterion_test,
            "a_invariant_-3": rep.a_invariant == -3,
            "dimension": rep.dimension == dim,
        }
        ok = ok and all(entry["checks"].values())
        out[key] = entry
    out["pass"] = ok
    return out


def check_koszul_diagonal_suite(opts) -> dict:
    from math import comb

    window = (0, opts.get("window", 6))
    char = opts.get("char", 0)
    results = {}
    ok = True
    for i in range(-2, 4):
        for variant in (1, 2):
            dc = catalog.koszul_diagonal("k2_k3", variant, i, window)
            h = dc.homology(char)
            last = len(dc.dims) - 1
            if variant == 1:
                expected = {(last, -i): comb(-i + 2, 2)} if i <= 0 else {}
            else:
                expected = {(last, 0): i + 1} if i >= 0 else {}
            for _t, j in expected:
                if not window[0] <= j <= window[1]:
                    raise CertificationError(
                        f"koszul variant{variant},i={i} expects homology in degree "
                        f"{j}, outside the window {list(window)}"
                    )
            good = h == expected
            ok = ok and good
            results[f"variant{variant},i={i}"] = {
                "terms": dc.labels,
                "homology": {f"{t},{j}": v for (t, j), v in sorted(h.items())},
                "pass": good,
            }
    return {"window": list(window), "cases": results, "pass": ok}


def check_almost_split(key: str, opts) -> dict:
    window = (0, opts.get("window", 5))
    char = opts.get("char", 0)
    out = {}
    ok = True
    for seq in catalog.almost_split_suite(key, window):
        v = seq.verify(char)
        out[seq.name] = v
        ok = ok and v["exact"]
    return {"cases": out, "pass": ok}


def _expected_endo_quivers():
    return {
        "k3_w12": {
            ("M-1", "R"): 3,
            ("R", "M1"): 3,
            ("R", "M-1"): 1,
            ("M1", "R"): 1,
            ("M1", "M-1"): 1,
        },
        "k3_k3": {
            ("M-1", "R"): 3,
            ("R", "M1"): 3,
            ("R", "M-1"): 3,
            ("M1", "R"): 3,
        },
    }


def _gorenstein_endo_quiver(key: str, hi: int, char: int = 0):
    a, b = catalog.ring_pair(key)
    mods = [
        ("M-1", DiagonalModule(a, b, -1)),
        ("R", DiagonalModule(a, b, 0)),
        ("M1", DiagonalModule(a, b, 1)),
    ]
    return EndoQuiver(HomCalculator(a, b, 0, hi, char), mods, degree_top=3)


def check_gorenstein_quivers(opts) -> dict:
    out = {}
    ok = True
    expected = _expected_endo_quivers()
    stable_expected = {"k3_w12": {("M1", "M-1"): 1}, "k3_k3": {}}
    for key, hi in (("k3_w12", 8), ("k3_k3", 7)):
        eq = _gorenstein_endo_quiver(key, hi, opts.get("char", 0))
        stable = eq.stable_reduce(["R"])
        good = eq.quiver.arrows == expected[key] and stable.arrows == stable_expected[key]
        ok = ok and good
        out[key] = {
            "quiver": eq.quiver.to_json_dict(),
            "stable": stable.to_json_dict(),
            "pass": good,
        }
    return {"cases": out, "pass": ok}


def check_folding(opts) -> dict:
    window = (0, opts.get("window", 5))
    # doubled quiver from the 3-almost-split data
    eq = _gorenstein_endo_quiver("k3_w12", 8, opts.get("char", 0))
    stable3 = eq.stable_reduce(["R"])
    mids3 = {
        at: middle_multiplicities(catalog.almost_split_sequence("k3_w12", at, window))
        for at in ("at-M1", "at-M-1")
    }
    n_map = {
        ("M1", "M-1"): mids3["at-M1"].get("M-1", 0),
        ("M-1", "M1"): mids3["at-M-1"].get("M1", 0),
        ("M1", "M1"): mids3["at-M1"].get("M1", 0),
        ("M-1", "M-1"): mids3["at-M-1"].get("M-1", 0),
    }
    folded3 = fold_d3(stable3, n_map)
    ok3 = (
        len(folded3.vertices) == 4
        and folded3.arrow_multiset() == [1, 1, 3, 3]
    )
    # tripled quiver from the 4-almost-split data
    eq5 = _gorenstein_endo_quiver("k3_k3", 7, opts.get("char", 0))
    stable4 = eq5.stable_reduce(["R"])
    mids4 = {
        at: middle_multiplicities(catalog.almost_split_sequence("k3_k3", at, window))
        for at in ("at-M1", "at-M-1")
    }
    m_map = {
        ("M-1", "M1"): mids4["at-M1"].get("M-1", 0),
        ("M1", "M-1"): mids4["at-M-1"].get("M1", 0),
    }
    folded4 = fold_d4(stable4.vertices, m_map)
    ok4 = len(folded4.vertices) == 6 and folded4.arrow_multiset() == [3] * 6
    return {
        "threefold": {
            "stable": stable3.to_json_dict(),
            "middles": mids3,
            "folded": folded3.to_json_dict(),
            "pass": ok3,
        },
        "fourfold": {
            "stable": stable4.to_json_dict(),
            "middles": mids4,
            "folded": folded4.to_json_dict(),
            "pass": ok4,
        },
        "pass": ok3 and ok4,
    }


def check_p_segre_quivers(opts) -> dict:
    xy = hilbert.ring(("x", "y"), (1, 2))
    uv = hilbert.ring(("u", "v"), (1, 2))
    q3 = p_segre_quiver(VeroneseSideData(xy), VeroneseSideData(uv), 3, degree_top=5)
    expected3 = {
        ("R", "M1"): 1,
        ("R", "M2"): 1,
        ("M1", "M2"): 1,
        ("M1", "R"): 1,
        ("M1", "M1"): 1,
        ("M2", "M1"): 1,
        ("M2", "R"): 1,
    }
    k2 = hilbert.ring(("x", "y"), (1, 1))
    l2 = hilbert.ring(("u", "v"), (1, 1))
    side_a = VeroneseSideData(k2, order=2, residues=(0, 1))
    side_b = VeroneseSideData(l2, order=2, residues=(0, 1))
    sq = p_segre_quiver(side_a, side_b, 1, degree_top=4)
    expected_sq = {
        ("(0;0,0)", "(0;0,1)"): 2,
        ("(0;0,0)", "(0;1,0)"): 2,
        ("(0;0,1)", "(0;1,1)"): 2,
        ("(0;1,0)", "(0;1,1)"): 2,
        ("(0;1,1)", "(0;0,0)"): 4,
    }
    stable = p_segre_quiver(side_a, side_b, 1, degree_top=4, drop_free=["(0;0,0)"])
    expected_stable = {("(0;0,1)", "(0;1,1)"): 2, ("(0;1,0)", "(0;1,1)"): 2}
    ok = (
        q3.arrows == expected3
        and sq.arrows == expected_sq
        and stable.arrows == expected_stable
    )
    return {
        "loop_example": q3.to_json_dict(),
        "veronese_square": sq.to_json_dict(),
        "veronese_square_stable": stable.to_json_dict(),
        "pass": ok,
    }


def check_numsgp_suite(opts) -> dict:
    out = {}
    ok = True
    for n in (3, 4, 5, 6):
        group = numsgp.FiniteAbelianGroup((n,))
        lam = (1,)
        gaps = [(0, (k,)) for k in range(1, n)] + [(1, lam)]
        S = numsgp.from_complement(group, gaps)
        taus = numsgp.twisted_symmetric(S)
        quiver = numsgp.subspace_quiver_data(S, 0)
        divisor = min(p for p in range(2, n + 1) if n % p == 0)
        coprime = next(p for p in (2, 3, 5, 7, 11) if n % p != 0)
        checks = {
            "connected": numsgp.is_connected(S),
            "frobenius_1": numsgp.frobenius(S) == 1,
            "tau_is_lambda": taus == [lam],
            "gorenstein": numsgp.gorenstein(S),
            "a_inv_matches": numsgp.a_invariant(S) == numsgp.frobenius(S),
            "reduced_iff_char": (not numsgp.reduced(S, divisor))
            and numsgp.reduced(S, coprime)
            and numsgp.reduced(S, 0),
            "star_quiver": len(quiver.vertices) == n + 1
            and quiver.arrow_count() == n,
            "series_stabilizes": numsgp.semigroup_series(S, 0, 4).coeff(3) == n,
        }
        ok = ok and all(checks.values())
        out[f"Z{n}"] = {"report": numsgp.report(S), "checks": checks}
    klein = numsgp.FiniteAbelianGroup((2, 2))
    S = numsgp.from_generators(klein, [(1, (0, 0)), (1, (1, 0)), (1, (0, 1))])
    taus = numsgp.twisted_symmetric(S)
    checks = {
        "frobenius_1": numsgp.frobenius(S) == 1,
        "tau_is_nu": taus == [(1, 1)],
        "not_reduced_char2": not numsgp.reduced(S, 2),
        "connected": numsgp.is_connected(S),
        "roundtrip": numsgp.from_complement(klein, S.gaps()).rows == S.rows,
    }
    ok = ok and all(checks.values())
    out["klein"] = {"report": numsgp.report(S, char=2), "checks": checks}
    return {"cases": out, "pass": ok}


def check_contraction_suite(opts) -> dict:
    from .gradedlin.complexes import alpha_complex, diff_complex

    ok = True
    cases = {}
    for n in (1, 2, 3):
        for m in range(-5, 6):
            c = alpha_complex(n, m)
            h = c.homology(opts.get("char", 0))
            expected = {(0, n): 1} if m == -n else {}
            good = h == expected
            ok = ok and good
            cases[f"alpha(n={n},m={m})"] = good
    for n in (1, 2, 3):
        spec = hilbert.ring(tuple(f"y{i}" for i in range(n)), (1,) * n)
        dc = diff_complex(spec, (0, opts.get("window", 5)))
        h = dc.homology(opts.get("char", 0))
        good = h == {(len(dc.dims) - 1, 0): 1}
        ok = ok and good
        cases[f"diff(n={n})"] = good
    return {"cases": cases, "window": [0, opts.get("window", 5)], "pass": ok}


def _ext_calc(opts) -> HomCalculator:
    return HomCalculator(*catalog.ring_pair("k2_k3"), 0, 8, opts.get("char", 0))


def _ext_degrees(opts) -> range:
    """Internal degrees of the Ext tables of the main and Kronecker suites."""
    return range(-4, 3 if opts.get("window", 5) >= 5 else 2)


def _ext_table(calc: HomCalculator, opts) -> dict:
    return catalog.rigidity_ext_table(calc, _ext_degrees(opts))


def check_main_suite(opts) -> dict:
    window = (0, opts.get("window", 5))
    char = opts.get("char", 0)
    seqs = {}
    ok = True
    for builder in (
        catalog.sink_sequence_at_omega,
        catalog.sink_sequence_at_syzygy2,
        catalog.claim3_core_sequence,
    ):
        v = builder(window).verify(char)
        seqs[v["name"]] = v
        ok = ok and v["exact"]
    table = _ext_table(_ext_calc(opts), opts)
    x_pairs = [
        "omega,omega", "omega,R", "omega,syz2", "syz2,R", "syz2,omega", "syz2,syz2",
    ]
    checks = {
        "sequences_exact": ok,
        "ext1_X_X_zero": all(not table["ext1"][p] for p in x_pairs),
        "ext1_syz2_M2_total_1": sum(table["ext1"]["syz2,M2"].values()) == 1,
        "ext1_syz2_M3_total_2": sum(table["ext1"]["syz2,M3"].values()) == 2,
        "stable_end_omega_dim_1": sum(table["stable_end_omega"].values()) == 1,
        "betti_head": table["betti_omega"][:3] == [[0, 0], [1, 1, 1], [2, 2, 2, 2, 2, 2]],
    }
    passed = all(checks.values())
    return {
        "sequences": seqs,
        "ext_table": table,
        "checks": checks,
        "pass": passed,
    }


def check_nongor_quiver(opts) -> dict:
    a, b = catalog.ring_pair("k2_k3")
    expected = {("R", "om"): 2, ("om", "syz2"): 3, ("syz2", "R"): 3}
    results = {}
    ok = True
    for D, hi in ((4, 7), (5, 8), (6, 9)):
        calc = HomCalculator(a, b, 0, hi, opts.get("char", 0))
        omega = DiagonalModule(a, b, 1)
        # depth 3 registers the tail from step 2 as the resolution of syz2
        syz2 = calc.resolution(omega, 3).syzygy(2)
        eq = EndoQuiver(
            calc,
            [("R", DiagonalModule(a, b, 0)), ("om", omega), ("syz2", syz2)],
            degree_top=3,
        )
        good = eq.quiver.arrows == expected
        ok = ok and good
        results[f"D={D}"] = {
            "quiver": eq.quiver.to_json_dict(),
            "data_window": [0, hi],
            "pass": good,
        }
    return {"cases": results, "window_stable": ok, "pass": ok}


def check_kronecker_suite(opts) -> dict:
    ctx = kronecker.KroneckerContext(3)
    vec_ok = [ctx.preprojective(i).as_pair() for i in range(1, 5)] == [
        (0, 1), (1, 3), (3, 8), (8, 21),
    ]
    q_ok = all(ctx.q(ctx.preprojective(i)) == 1 for i in range(1, 21)) and all(
        ctx.q(ctx.preinjective(i)) == 1 for i in range(1, 21)
    )
    d_ok = [kronecker.degree_one_dims(i) for i in range(1, 5)] == [3, 12, 33, 87]
    calc = _ext_calc(opts)
    report = kronecker.classification_report(
        ctx,
        10,
        {
            "rigid_triples": catalog.rigid_triples_check(calc, _ext_degrees(opts)),
            "syz3_self_extension": catalog.syz3_self_extension(calc),
            "stable_end_omega": catalog.stable_end_omega(calc),
        },
    )
    pairs = report["euler_verdicts"]
    pair_ok = (
        all(e["rigid"] for e in pairs["adjacent"])
        and all(not e["rigid"] for e in pairs["skip"])
        and all(not e["rigid"] for e in pairs["mixed"])
    )
    rigid_ok = all(
        v["rigid_on_window"] for v in report["maximal_rigid_windowed"].values()
    )
    selfext_ok = report["syz3_self_extension"]["nonzero"]
    checks = {
        "dimension_vectors": vec_ok,
        "unit_quadratic_form": q_ok,
        "degree_one_recurrence": d_ok,
        "euler_rigidity": pair_ok,
        "maximal_rigid_windowed": rigid_ok,
        "syz3_not_rigid": selfext_ok,
        "stable_end_dim_1": report["stable_end_omega_total"] == 1,
    }
    return {
        "report": report,
        "checks": checks,
        "pass": all(checks.values()),
    }


MANIFEST = [
    ("local-cohomology-suite", "2", check_local_cohomology_suite),
    ("gorenstein-suite", "2", check_gorenstein_suite),
    ("almost-split-threefold", "5", lambda o: check_almost_split("k3_w12", o)),
    ("almost-split-fourfold", "5", lambda o: check_almost_split("k3_k3", o)),
    ("gorenstein-endo-quivers", "5", check_gorenstein_quivers),
    ("folding-suite", "5", check_folding),
    ("p-segre-quivers", "5", check_p_segre_quivers),
    ("numsgp-suite", "6", check_numsgp_suite),
    ("koszul-diagonal-suite", "7", check_koszul_diagonal_suite),
    ("contraction-suite", "7", check_contraction_suite),
    ("main-sequence-suite", "7", check_main_suite),
    ("nongor-endo-quiver", "7", check_nongor_quiver),
    ("kronecker-suite", "7", check_kronecker_suite),
]


def run_manifest(sections, out_dir: Path, opts) -> int:
    failures = 0
    summary = {}
    for name, section, fn in MANIFEST:
        if sections and section not in sections:
            continue
        start = time.perf_counter()
        art = fn(opts)
        elapsed = time.perf_counter() - start
        write_artifact(out_dir, name, art)
        summary[name] = bool(art.get("pass"))
        status = "pass" if art.get("pass") else "FAIL"
        print(f"{name:32s} [{status}]")
        # timings go to stderr only, so stdout and the artifacts stay deterministic
        print(f"{name}: {elapsed:.2f} s", file=sys.stderr)
        if not art.get("pass"):
            failures += 1
    write_artifact(out_dir, "summary", {"checks": summary, "pass": failures == 0})
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# config-driven jobs


def _ring_from_block(block) -> hilbert.WeightedRingSpec:
    names = block["variables"]
    weights = []
    for tok in block["weights"]:
        if "," in tok:
            weights.append(tuple(int(t) for t in tok.split(",")))
        else:
            weights.append(int(tok))
    return hilbert.ring(tuple(names), weights)


def _semigroup_from_block(block) -> numsgp.ExtNumSemigroup:
    group = numsgp.FiniteAbelianGroup(tuple(int(t) for t in block["group"]))

    def parse_pairs(tokens):
        out = []
        for tok in tokens:
            for piece in tok.split(","):
                if not piece:
                    continue
                n, el = piece.split(":")
                out.append((int(n), group.parse_element(el)))
        return out

    if "generators" in block and "gaps" in block:
        raise ValueError("semigroup block takes 'generators' or 'gaps', not both")
    if "generators" in block:
        return numsgp.from_generators(group, parse_pairs(block["generators"]))
    if "gaps" in block:
        return numsgp.from_complement(group, parse_pairs(block["gaps"]))
    raise ValueError("semigroup block needs 'generators' or 'gaps'")


def run_job(name: str, job: dict, cfg, out_dir: Path, opts) -> bool:
    kind = want_str(job, "kind")
    if kind == "segre-report":
        a = _ring_from_block(cfg.rings[want_str(job, "ring_a")])
        b = _ring_from_block(cfg.rings[want_str(job, "ring_b")])
        shifts = want_ints(job, "shifts", (0,))
        rep = hilbert.segre_report(a, b, shifts=tuple(shifts))
        write_artifact(out_dir, name, rep.to_json_dict())
        return True
    if kind == "numsgp":
        S = _semigroup_from_block(cfg.semigroups[want_str(job, "semigroup")])
        char = want_int(job, "char", 0)
        art = numsgp.report(S, char=char and _prime(str(char)))
        write_artifact(out_dir, name, art)
        write_text(out_dir, f"{name}.txt", art["table"])
        return True
    if kind == "resolve":
        block = cfg.modules[want_str(job, "module")]
        pair = want_str(block, "pair")
        shift = want_int(block, "shift", 0)
        depth = want_int(job, "depth", opts.get("depth", 4))
        hi = want_int(job, "window", opts.get("window", 6))
        res = free_resolution(catalog.diagonal_module(pair, shift), depth, 0, hi)
        write_artifact(out_dir, name, res.to_json_dict())
        return True
    if kind == "sequence-check":
        pair = want_str(job, "pair")
        at = want_str(job, "at", "")
        hi = want_int(job, "window", opts.get("window", 5))
        char = opts.get("char", 0)
        if at:
            seq = catalog.almost_split_sequence(pair, at, (0, hi))
        else:
            variant = want_int(job, "variant", 1)
            shift = want_int(job, "shift", 0)
            seq = catalog.NamedSequence(
                f"koszul diagonal v{variant} shift {shift}",
                catalog.koszul_diagonal(pair, variant, shift, (0, hi)),
                None,
            )
        art = seq.verify(char)
        write_artifact(out_dir, name, art)
        if want_int(job, "assert_exact", 1 if at else 0):
            return art["exact"]
        return True
    if kind == "endo-quiver":
        pair = want_str(job, "pair")
        shifts = want_ints(job, "shifts", (-1, 0, 1))
        hi = want_int(job, "window", 8)
        a, b = catalog.ring_pair(pair)
        mods = [(f"M{s}" if s else "R", DiagonalModule(a, b, s)) for s in shifts]
        calc = HomCalculator(a, b, 0, hi, opts.get("char", 0))
        eq = EndoQuiver(calc, mods, degree_top=want_int(job, "degree_top", 3))
        art = {"quiver": eq.quiver.to_json_dict()}
        if "drop" in job:
            art["stable"] = eq.stable_reduce(job["drop"]).to_json_dict()
        write_artifact(out_dir, name, art)
        write_text(out_dir, f"{name}.dot", eq.quiver.to_dot(name.replace("-", "_")))
        return True
    if kind == "kronecker":
        n = want_int(job, "arrows", 3)
        bound = want_int(job, "bound", 10)
        ctx = kronecker.KroneckerContext(n)
        art = kronecker.rigid_pairs(ctx, bound)
        write_artifact(out_dir, name, art)
        write_text(out_dir, f"{name}.dot", kronecker.ar_component_dot(ctx))
        return True
    raise ValueError(f"unknown job kind {kind!r}")


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="segrecalc",
        description="exact Hilbert-series, graded linear algebra and quiver "
        "computations for Segre products of weighted polynomial rings",
    )
    sub = p.add_subparsers(dest="command")

    runp = sub.add_parser("run", help="run jobs from a config file")
    runp.add_argument("--config", required=True)
    runp.add_argument("--out", default="segrecalc-out")
    runp.add_argument("--jobs", nargs="*", help="subset of job names")
    runp.add_argument("--depth", type=int, default=None, help="homological depth of resolve jobs")
    _common_flags(runp)

    rep = sub.add_parser(
        "reproduce-paper", help="re-run the bundled reference computations"
    )
    rep.add_argument("--section", default="all", help="2, 5, 6, 7 or all")
    rep.add_argument("--out", default="segrecalc-out")
    _common_flags(rep)

    ns = sub.add_parser("numsgp", help="one-off extended numerical semigroup report")
    ns.add_argument("--group", required=True, help="cyclic orders, e.g. 2,2")
    ns.add_argument("--gens", help="comma-separated degree:element pairs")
    ns.add_argument("--gaps", help="comma-separated degree:element pairs")
    ns.add_argument("--char", type=int, default=0)
    ns.add_argument("--out", default=None)
    return p


def _common_flags(p):
    p.add_argument("--window", type=int, default=None)
    p.add_argument("--field", default="rational", help="rational or prime:p")


def _options(args) -> dict:
    opts = {}
    for name in ("window", "depth"):
        value = getattr(args, name, None)
        if value is not None:
            if value < 0:
                raise ValueError(f"--{name} must be >= 0, not {value}")
            opts[name] = value
    field = getattr(args, "field", "rational")
    if field.startswith("prime:"):
        opts["char"] = _prime(field.split(":", 1)[1])
    elif field != "rational":
        raise ValueError("--field must be 'rational' or 'prime:p'")
    return opts


def _prime(text: str) -> int:
    """The prime p of `--field prime:p` or of a nonzero characteristic;
    ValueError unless 2 <= p < 2^31 is prime (trial division)."""
    p = int(text) if text.isdecimal() else 0
    if not 2 <= p < 2**31 or any(p % q == 0 for q in range(2, isqrt(p) + 1)):
        raise ValueError(f"a prime field needs a prime p below 2^31, not {text!r}")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command is None:
        build_parser().print_help()
        return 2
    try:
        opts = _options(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.command == "reproduce-paper":
            sections = None if args.section == "all" else {args.section}
            return run_manifest(sections, Path(args.out), opts)
        if args.command == "run":
            try:
                cfg = parse_config(Path(args.config).read_text())
            except (OSError, ConfigError) as exc:
                print(f"config error: {exc}", file=sys.stderr)
                return 2
            selected = args.jobs or list(cfg.jobs)
            if not selected:
                print("no jobs defined", file=sys.stderr)
                return 2
            ok = True
            for name in selected:
                if name not in cfg.jobs:
                    print(f"unknown job {name!r}", file=sys.stderr)
                    return 2
                try:
                    ok = run_job(name, cfg.jobs[name], cfg, Path(args.out), opts) and ok
                except (KeyError, ValueError) as exc:
                    print(f"job {name}: {exc}", file=sys.stderr)
                    return 2
            return 0 if ok else 1
        if args.command == "numsgp":
            if not (args.gens or args.gaps):
                print("need --gens or --gaps", file=sys.stderr)
                return 2
            block = {"group": args.group.split(",")}
            if args.gens:
                block["generators"] = [args.gens]
            if args.gaps:
                block["gaps"] = [args.gaps]
            try:
                S = _semigroup_from_block(block)
                char = args.char and _prime(str(args.char))
            except ValueError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            art = numsgp.report(S, char=char)
            print(art["table"])
            print(json.dumps({k: v for k, v in art.items() if k != "table"}, **JSON_KW))
            if args.out:
                write_artifact(Path(args.out), "numsgp", art)
            return 0
    except CertificationError as exc:
        print(f"certification gap: {exc}", file=sys.stderr)
        return 3
    except numsgp.SemigroupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
