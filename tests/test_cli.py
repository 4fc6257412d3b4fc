import hashlib
import json
import os
import re
import runpy
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from segrecalc import cli, hilbert, numsgp
from segrecalc.cli import check_kronecker_suite, main
from segrecalc.gradedlin import catalog, resolution
from segrecalc.gradedlin.modules import DiagonalModule
from segrecalc.gradedlin.resolution import CertificationError, HomCalculator
from segrecalc.config import ConfigError, parse_config
from segrecalc.quivers import EndoQuiver

DEMO_CONFIG = Path(__file__).parents[1] / "configs" / "demo.cfg"
# sha256 of every `run --config configs/demo.cfg` output, pinned like
# reproduce_sha256.json; its tilting-quiver job is the only config path
# to the stable quotient by maps through free modules
DEMO_DIGESTS = Path(__file__).with_name("demo_sha256.json")
GALLERY = Path(__file__).parents[1] / "scripts" / "quiver_gallery.py"
# sha256 of the ten DOT files `scripts/quiver_gallery.py` writes, pinned
# like demo_sha256.json
GALLERY_DIGESTS = Path(__file__).with_name("gallery_sha256.json")
REPRODUCE_DIGESTS = Path(__file__).with_name("reproduce_sha256.json")


def test_config_parse():
    cfg = parse_config(
        """
# a comment
[ring A]
variables = x0 x1
weights = 1 1

[job r]
kind = segre-report
ring_a = A
ring_b = A
shifts = 0 1
"""
    )
    assert cfg.rings["A"]["variables"] == ["x0", "x1"]
    assert cfg.jobs["r"]["shifts"] == ["0", "1"]


def test_config_errors_carry_positions():
    with pytest.raises(ConfigError) as err:
        parse_config("[ring A\n")
    assert err.value.line == 1
    with pytest.raises(ConfigError) as err:
        parse_config("key = 1\n")
    assert err.value.line == 1
    with pytest.raises(ConfigError) as err:
        parse_config("[ring A]\nvariables = x\nvariables = y\n")
    assert err.value.line == 3
    with pytest.raises(ConfigError) as err:
        parse_config("[widget A]\n")
    assert "widget" in str(err.value)


def test_usage_exit_codes(tmp_path, capsys):
    assert main([]) == 2
    bad = tmp_path / "bad.cfg"
    bad.write_text("[ring A\n")
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2


def test_numsgp_subcommand(tmp_path, capsys):
    rc = main(
        [
            "numsgp",
            "--group",
            "2,2",
            "--gens",
            "1:00,1:10,1:01",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert '"frobenius": 1' in out
    art = json.loads((tmp_path / "numsgp.json").read_text())
    assert art["frobenius"] == 1 and art["twisted_symmetric_taus"] == ["11"]


def test_numsgp_subcommand_rejects_bad_generators(capsys):
    rc = main(["numsgp", "--group", "1", "--gens", "2:0"])
    assert rc == 2
    # malformed groups and pairs, and characteristics that are neither 0
    # nor a prime, are usage errors too
    for argv in (
        ["--group", "a", "--gens", "1:0"],
        ["--group", "2", "--gens", "1"],
        ["--group", "2", "--gens", "1:0,2:5x"],
        ["--group", "0", "--gens", "1:0"],
        ["--group", "2", "--gens", "1:0,1:1", "--char", "4"],
        ["--group", "2", "--gens", "1:0,1:1", "--char", "-3"],
    ):
        assert main(["numsgp", *argv]) == 2, argv
    assert main(["numsgp", "--group", "2", "--gens", "1:0,1:1", "--char", "3"]) == 0


def test_numsgp_rejects_generators_and_gaps_together(tmp_path, capsys):
    # both used to be accepted, and the gaps silently dropped
    assert main(["numsgp", "--group", "2", "--gens", "1:0,1:1", "--gaps", "0:1"]) == 2
    assert "not both" in capsys.readouterr().err
    cfg = tmp_path / "both.cfg"
    cfg.write_text(
        """
[semigroup S]
group = 2
generators = 1:0,1:1
gaps = 0:1

[job sgp]
kind = numsgp
semigroup = S
"""
    )
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "not both" in capsys.readouterr().err
    assert not (tmp_path / "out" / "sgp.json").exists()


def test_run_jobs(tmp_path):
    cfg = tmp_path / "jobs.cfg"
    cfg.write_text(
        """
[ring A]
variables = x y z
weights = 1 1 1

[ring B]
variables = u v
weights = 1 2

[semigroup S]
group = 3
gaps = 0:1,0:2,1:1

[module omega]
pair = k2_k3
shift = 1

[job report]
kind = segre-report
ring_a = A
ring_b = B
shifts = 0

[job sgp]
kind = numsgp
semigroup = S

[job res]
kind = resolve
module = omega
depth = 2
window = 5

[job seq]
kind = sequence-check
pair = k3_w12
at = at-M1
window = 4
"""
    )
    out = tmp_path / "out"
    rc = main(["run", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["gorenstein"] and rep["a_invariant"] == -3
    sgp = json.loads((out / "sgp.json").read_text())
    assert sgp["frobenius"] == 1
    res = json.loads((out / "res.json").read_text())
    assert res["betti"][0] == [0, 0]
    seq = json.loads((out / "seq.json").read_text())
    assert seq["exact"]
    # resolve twice: a recomputation produces identical bytes
    first = (out / "res.json").read_bytes()
    rc = main(["run", "--config", str(cfg), "--jobs", "res", "--out", str(out)])
    assert rc == 0 and (out / "res.json").read_bytes() == first


def test_numsgp_job_rejects_a_composite_characteristic(tmp_path, capsys):
    cfg = tmp_path / "jobs.cfg"
    cfg.write_text(
        "[semigroup S]\ngroup = 2\ngenerators = 1:0,1:1\n\n"
        "[job sgp]\nkind = numsgp\nsemigroup = S\nchar = 4\n"
    )
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "needs a prime" in capsys.readouterr().err


def test_unknown_job_name(tmp_path):
    cfg = tmp_path / "jobs.cfg"
    cfg.write_text("[job a]\nkind = kronecker\n")
    assert main(["run", "--config", str(cfg), "--jobs", "missing", "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("kind", ["fold", "reproduce-paper"])
def test_removed_job_kinds_are_usage_errors(tmp_path, capsys, kind):
    # the folding suite and the manifest run through `reproduce-paper` only
    cfg = tmp_path / "jobs.cfg"
    cfg.write_text(f"[job a]\nkind = {kind}\n")
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert "unknown job kind" in capsys.readouterr().err
    assert not out.exists()


def test_field_flag_validation(tmp_path, capsys):
    assert main(["reproduce-paper", "--field", "float"]) == 2
    # a composite modulus can hang the F_p elimination, and F_1 is no field
    for bad in ("prime:4", "prime:1", "prime:0", "prime:x", "prime:-7", "prime:2147483648"):
        assert main(["reproduce-paper", "--field", bad, "--out", str(tmp_path / "r")]) == 2, bad
    assert not (tmp_path / "r").exists()
    assert "needs a prime" in capsys.readouterr().err
    rc = main(["reproduce-paper", "--section", "6", "--field", "prime:32003", "--out", str(tmp_path / "r")])
    assert rc == 0


class _Built(Exception):
    pass


def test_checks_build_their_calculators_over_the_field(tmp_path, monkeypatch):
    fields = []

    class Recording(HomCalculator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            fields.append(self.char)
            raise _Built  # the field is all this test needs

    monkeypatch.setattr(cli, "HomCalculator", Recording)
    checks = (
        cli.check_main_suite,
        cli.check_gorenstein_quivers,
        cli.check_folding,
        cli.check_nongor_quiver,
        cli.check_kronecker_suite,
    )
    for check in checks:
        with pytest.raises(_Built):
            check({"char": 32003})
    cfg = tmp_path / "jobs.cfg"
    cfg.write_text("[job q]\nkind = endo-quiver\npair = k3_w12\n")
    with pytest.raises(_Built):
        main(["run", "--config", str(cfg), "--field", "prime:32003", "--out", str(tmp_path / "o")])
    assert fields == [32003] * (len(checks) + 1)


def test_certification_gap_exit_code(tmp_path, capsys):
    cfg = tmp_path / "jobs.cfg"
    cfg.write_text(
        """
[module deep]
pair = k2_k3
shift = -3

[job r]
kind = resolve
module = deep
window = 2
"""
    )
    rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 3
    assert "certification gap" in capsys.readouterr().err


def test_reproduce_section_six(tmp_path):
    rc = main(["reproduce-paper", "--section", "6", "--out", str(tmp_path / "r")])
    assert rc == 0
    summary = json.loads((tmp_path / "r" / "summary.json").read_text())
    assert summary["pass"] and summary["checks"] == {"numsgp-suite": True}


def test_reproduce_section_without_checks_is_a_usage_error(tmp_path, capsys):
    # section 9 used to run no check, exit 0 and write an empty passing summary
    out = tmp_path / "r"
    for section in ("9", "3", "4"):
        with pytest.raises(SystemExit) as exc:
            main(["reproduce-paper", "--section", section, "--out", str(out)])
        assert exc.value.code == 2
        assert f"invalid choice: '{section}'" in capsys.readouterr().err
    assert not out.exists()


def test_endo_quiver_drop_without_a_vertex_is_a_usage_error(tmp_path, capsys, monkeypatch):
    # a bad drop is refused before any quiver is built
    def refuse(*args, **kwargs):
        raise AssertionError("a quiver was built for a bad drop")

    monkeypatch.setattr(EndoQuiver, "_arrows", refuse)
    cfg = tmp_path / "jobs.cfg"
    cfg.write_text(
        "[job none]\nkind = endo-quiver\npair = k3_w12\nwindow = 8\ndrop =\n\n"
        "[job unknown]\nkind = endo-quiver\npair = k3_w12\nwindow = 8\ndrop = X\n"
    )
    out = tmp_path / "o"
    for job in ("none", "unknown"):
        assert main(["run", "--config", str(cfg), "--jobs", job, "--out", str(out)]) == 2, job
    assert not out.exists()
    err = capsys.readouterr().err
    assert "job none: the free vertices to drop must be vertices, not []" in err
    assert "job unknown: the free vertices to drop must be vertices, not ['X']" in err


def test_kronecker_suite_resolves_each_module_once(monkeypatch):
    # omega to depth 5 (its syzygies are served as tails) and M_2 as a source
    calls = []
    real = resolution.free_resolution

    def counted(module, *args):
        calls.append(module)
        return real(module, *args)

    def refuse(*args):
        raise AssertionError("kronecker-suite needs two entries, not the whole table")

    monkeypatch.setattr(resolution, "free_resolution", counted)
    monkeypatch.setattr(catalog, "rigidity_ext_table", refuse)
    assert check_kronecker_suite({})["pass"]
    assert len(calls) == 2


def test_ext_tables_compute_each_pair_once(monkeypatch):
    calls = Counter()
    real = HomCalculator.ext_dims

    def counted(self, M, N, i_values, d_values):
        calls[(M, N, tuple(i_values), tuple(d_values))] += 1
        return real(self, M, N, i_values, d_values)

    monkeypatch.setattr(HomCalculator, "ext_dims", counted)
    calc = HomCalculator(*catalog.ring_pair("k2_k3"), 0, 8)
    table = catalog.rigidity_ext_table(calc)
    assert max(calls.values()) == 1
    ext1 = table["ext1"]
    assert ext1["M2_as_target_of_omega"] == ext1["omega,M2"]
    assert table["syz3_self_extension"] == catalog.syz3_self_extension(calc)
    assert table["stable_end_omega"] == catalog.stable_end_omega(calc)
    calls.clear()
    assert catalog.rigid_triples_check(calc)["totals"] == {
        "R+omega+syz2": 0, "R+syz1": 0, "omega+M2": 0,
    }
    assert max(calls.values()) == 1


def test_negative_window_or_depth_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "r"
    assert main(["reproduce-paper", "--window", "-1", "--out", str(out)]) == 2
    assert main(["run", "--config", str(DEMO_CONFIG), "--depth", "-1", "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "--window must be >= 0" in err and "--depth must be >= 0" in err


def test_negative_job_window_or_depth_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "jobs.cfg"
    cfg.write_text(
        "[module omega]\npair = k2_k3\nshift = 1\n\n"
        "[job seq]\nkind = sequence-check\npair = k3_w12\nat = at-M1\nwindow = -1\n\n"
        "[job res]\nkind = resolve\nmodule = omega\ndepth = -2\n\n"
        "[job quiver]\nkind = endo-quiver\npair = k2_k3\nwindow = -1\n"
    )
    out = tmp_path / "o"
    for job in ("seq", "res", "quiver"):
        assert main(["run", "--config", str(cfg), "--jobs", job, "--out", str(out)]) == 2, job
    assert not out.exists()
    err = capsys.readouterr().err
    assert "job seq: window must be >= 0, not -1" in err
    assert "job res: depth must be >= 0, not -2" in err
    assert "job quiver: window must be >= 0, not -1" in err


def test_negative_job_counts_are_usage_errors(tmp_path, capsys):
    cfg = tmp_path / "jobs.cfg"
    cfg.write_text(
        "[job quiver]\nkind = endo-quiver\npair = k2_k3\ndegree_top = -1\n\n"
        "[job kr]\nkind = kronecker\nbound = -3\n"
    )
    out = tmp_path / "o"
    for job in ("quiver", "kr"):
        assert main(["run", "--config", str(cfg), "--jobs", job, "--out", str(out)]) == 2, job
    assert not out.exists()
    err = capsys.readouterr().err
    assert "job quiver: degree_top must be >= 0, not -1" in err
    assert "job kr: bound must be >= 0, not -3" in err


@pytest.mark.parametrize("weights", ["1,0 0,1", "0 1"])
def test_ring_weights_must_be_positive_integers(tmp_path, capsys, weights):
    cfg = tmp_path / "jobs.cfg"
    cfg.write_text(
        f"[ring A]\nvariables = x y\nweights = {weights}\n\n"
        "[ring B]\nvariables = u v\nweights = 1 1\n\n"
        "[job report]\nkind = segre-report\nring_a = A\nring_b = B\n"
    )
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert f"job report: weights must be positive integers, not {weights}" in err


def test_depth_is_a_run_flag_only(tmp_path, capsys):
    # no manifest check reads a depth, so reproduce-paper does not accept one
    out = tmp_path / "r"
    with pytest.raises(SystemExit) as exc:
        main(["reproduce-paper", "--depth", "3", "--out", str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --depth 3" in capsys.readouterr().err
    assert not out.exists()


def test_demo_config_outputs_match_pinned_digests(tmp_path):
    out = tmp_path / "demo"
    assert main(["run", "--config", str(DEMO_CONFIG), "--out", str(out)]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert digests == json.loads(DEMO_DIGESTS.read_text())


def test_run_writes_only_under_out(tmp_path, monkeypatch):
    home, out = tmp_path / "home", tmp_path / "demo"
    home.mkdir()
    monkeypatch.setenv("HOME", str(home))
    for var in [v for v in os.environ if v.startswith("SEGRECALC_")]:
        monkeypatch.delenv(var)
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--config", str(DEMO_CONFIG), "--out", str(out)]) == 0
    assert sorted(tmp_path.iterdir()) == [out, home]
    assert not any(home.iterdir())
    assert sorted(p.name for p in out.iterdir()) == sorted(json.loads(DEMO_DIGESTS.read_text()))


def test_folding_builds_only_the_stable_quivers(monkeypatch):
    drops = []
    real = EndoQuiver._arrows

    def recording(self, drop_free):
        drops.append(drop_free)
        return real(self, drop_free)

    monkeypatch.setattr(EndoQuiver, "_arrows", recording)
    assert cli.check_folding({})["pass"]
    assert drops == [{"R"}, {"R"}]


def test_quiver_gallery_matches_pinned_digests(tmp_path):
    out = tmp_path / "gallery"
    assert runpy.run_path(str(GALLERY))["main"](str(out)) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert digests == json.loads(GALLERY_DIGESTS.read_text())


def test_quiver_gallery_builds_each_stable_quiver_once(tmp_path, monkeypatch):
    # the gallery reads the k3 stable quivers off check_folding's artifact
    drops = []
    real = EndoQuiver._arrows

    def recording(self, drop_free):
        drops.append(drop_free)
        return real(self, drop_free)

    monkeypatch.setattr(EndoQuiver, "_arrows", recording)
    assert runpy.run_path(str(GALLERY))["main"](str(tmp_path / "gallery")) == 0
    assert drops.count({"R"}) == 2


def test_kronecker_suite_reads_main_suites_resolutions_and_ext_values(monkeypatch):
    # kronecker-suite needs omega to depth 5, as main-sequence-suite left
    # it, and M_2 as a source, which main does not resolve; every Ext
    # value main computed is read from the session's calculator
    resolved, asked = [], []
    real_resolution, real_ext = resolution.free_resolution, resolution.ext_dims

    def counted_resolution(module, depth, *args):
        resolved.append((module, depth))
        return real_resolution(module, depth, *args)

    def counted_ext(res, N, i_values, d_values, char):
        asked.append({(res.module, N, i, d) for i in i_values for d in d_values})
        return real_ext(res, N, i_values, d_values, char)

    monkeypatch.setattr(resolution, "free_resolution", counted_resolution)
    monkeypatch.setattr(resolution, "ext_dims", counted_ext)
    assert cli.check_main_suite({})["pass"]
    answered = set().union(*asked)
    asked.clear()
    assert check_kronecker_suite({})["pass"]
    assert all(not keys & answered for keys in asked)
    a, b = catalog.ring_pair("k2_k3")
    omega, M2 = DiagonalModule(a, b, 1), DiagonalModule(a, b, 2)
    assert sorted(resolved, key=repr) == [(omega, 5), (M2, 2)]


def test_folding_reads_the_quivers_of_gorenstein_endo_quivers(monkeypatch):
    built = []
    real = EndoQuiver._arrows

    def recording(self, drop_free):
        built.append(drop_free)
        return real(self, drop_free)

    monkeypatch.setattr(EndoQuiver, "_arrows", recording)
    assert cli.check_gorenstein_quivers({})["pass"]
    assert built == [{"R"}, None, {"R"}, None]
    assert cli.check_folding({})["pass"]
    assert len(built) == 4


def test_nongor_endo_quiver_takes_its_three_calculators_from_the_session(monkeypatch):
    used = []
    real = EndoQuiver.__init__

    def recording(self, calc, *args, **kwargs):
        used.append(calc)
        real(self, calc, *args, **kwargs)

    monkeypatch.setattr(EndoQuiver, "__init__", recording)
    session = cli.new_session()
    assert cli.check_nongor_quiver({})["pass"]
    assert [calc.hi for calc in used] == [7, 8, 9]
    assert all(calc is session.calculator("k2_k3", 0, calc.hi) for calc in used)


@pytest.mark.parametrize("char", [0, 3])
def test_session_checks_match_pinned_digests_in_either_order(char):
    # the five checks that share calculators or quivers, each order on a
    # fresh session: no artifact depends on which check filled it
    names = {
        "main-sequence-suite", "kronecker-suite", "gorenstein-endo-quivers",
        "folding-suite", "nongor-endo-quiver",
    }
    checks = [(name, fn) for name, _, fn in cli.MANIFEST if name in names]
    assert len(checks) == len(names)
    pinned = json.loads(REPRODUCE_DIGESTS.read_text())
    for order in (checks, checks[::-1]):
        cli.new_session()
        for name, fn in order:
            art = fn({"char": char})
            digest = hashlib.sha256((json.dumps(art, **cli.JSON_KW) + "\n").encode()).hexdigest()
            assert digest == pinned[f"{name}.json"], (name, [n for n, _ in order])


def test_series_coefficient_outside_its_window_is_a_certification_gap(
    tmp_path, capsys, monkeypatch
):
    # numsgp-suite reads semigroup_series(S, 0, 4).coeff(3); a window that
    # stops below 3 leaves that coefficient uncertified
    narrow = numsgp.semigroup_series
    monkeypatch.setattr(numsgp, "semigroup_series", lambda S, lo, hi: narrow(S, lo, 2))
    rc = main(["reproduce-paper", "--section", "6", "--out", str(tmp_path / "r")])
    assert rc == 3
    assert "certification gap: degree 3 outside the window [0, 2]" in capsys.readouterr().err
    # a run job reports the same gap as exit 3, not as a usage error
    monkeypatch.setattr(
        hilbert, "segre_report", lambda a, b, shifts: hilbert.ring_series(a, (0, 4)).coeff(9)
    )
    argv = ["run", "--config", str(DEMO_CONFIG), "--out", str(tmp_path / "d")]
    rc = main(argv + ["--jobs", "gorenstein-report"])
    assert rc == 3
    assert "certification gap: degree 9 outside the window [0, 4]" in capsys.readouterr().err


def test_koszul_window_too_small_is_a_certification_gap(tmp_path, capsys):
    # variant 1 at i = -1, -2 expects homology in degrees 1 and 2
    with pytest.raises(CertificationError, match="outside the window"):
        cli.check_koszul_diagonal_suite({"window": 1})
    rc = main(["reproduce-paper", "--section", "7", "--window", "0", "--out", str(tmp_path / "r")])
    assert rc == 3
    assert "certification gap" in capsys.readouterr().err
    assert cli.check_koszul_diagonal_suite({"window": 2})["pass"]


def test_manifest_timings_go_to_stderr_only(tmp_path, capsys):
    out = tmp_path / "r"
    assert main(["reproduce-paper", "--section", "2", "--out", str(out)]) == 0
    captured = capsys.readouterr()
    names = ["local-cohomology-suite", "gorenstein-suite"]
    for name in names:
        assert re.search(rf"^{name}: \d+\.\d\d s$", captured.err, re.M)
    assert captured.out.split() == [names[0], "[pass]", names[1], "[pass]"]


def test_benchmark_tracer_binds_every_name():
    # perfbench wraps program functions by name from outside, so deleting or
    # renaming one crashes every benchmark worker; `install` rebinds module
    # globals, hence a fresh interpreter
    root = Path(__file__).parents[1]
    code = "import tracer; tracer.install(tracer.Tracer()); assert tracer.cache_counters()"
    path = os.pathsep.join([str(root / "src"), str(root / "perfbench")])
    done = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
