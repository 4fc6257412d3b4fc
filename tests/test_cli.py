import hashlib
import json
from collections import Counter
from pathlib import Path

import pytest

from segrecalc import cache as cache_mod
from segrecalc import cli
from segrecalc.cli import check_kronecker_suite, main
from segrecalc.gradedlin import catalog, resolution
from segrecalc.gradedlin.resolution import HomCalculator
from segrecalc.config import ConfigError, parse_config
from segrecalc.quivers import EndoQuiver

DEMO_CONFIG = Path(__file__).parents[1] / "configs" / "demo.cfg"
# sha256 of every `run --config configs/demo.cfg` output, pinned like
# reproduce_sha256.json; its tilting-quiver job is the only config path
# to the stable quotient by maps through free modules
DEMO_DIGESTS = Path(__file__).with_name("demo_sha256.json")


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


def test_cache_roundtrip(tmp_path, monkeypatch):
    monkeypatch.setenv(cache_mod.ENV_VAR, str(tmp_path))
    calls = []

    def produce():
        calls.append(1)
        return {"answer": 42}

    key = {"kind": "test", "n": 1}
    assert cache_mod.cache(key, produce) == {"answer": 42}
    assert cache_mod.cache(key, produce) == {"answer": 42}
    assert len(calls) == 1
    # distinct key recomputes
    cache_mod.cache({"kind": "test", "n": 2}, produce)
    assert len(calls) == 2
    # entries of another cache format are not read back
    monkeypatch.setattr(cache_mod, "CACHE_FORMAT", cache_mod.CACHE_FORMAT + 1)
    cache_mod.cache(key, produce)
    assert len(calls) == 3
    # every write goes through a temporary file that is renamed away
    assert sorted(p.suffix for p in tmp_path.iterdir()) == [".json"] * 3


def test_cache_corruption_recovers(tmp_path, monkeypatch):
    monkeypatch.setenv(cache_mod.ENV_VAR, str(tmp_path))
    warnings = []
    key = {"kind": "corrupt"}
    cache_mod.cache(key, lambda: {"v": 1}, warn=warnings.append)
    path = tmp_path / f"{cache_mod.content_key(key)}.json"
    path.write_text(path.read_text()[: len(path.read_text()) // 2])
    assert cache_mod.cache(key, lambda: {"v": 1}, warn=warnings.append) == {"v": 1}
    assert warnings and "recomputing" in warnings[0]
    # tampered payload fails the integrity check
    record = json.loads(path.read_text())
    record["payload"] = {"v": 999}
    path.write_text(json.dumps(record))
    assert cache_mod.cache(key, lambda: {"v": 1}, warn=warnings.append) == {"v": 1}
    assert any("integrity" in w for w in warnings)


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


def test_run_jobs(tmp_path, monkeypatch):
    monkeypatch.setenv(cache_mod.ENV_VAR, str(tmp_path / "cache"))
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
    # resolve twice: cache hit produces identical bytes
    first = (out / "res.json").read_bytes()
    rc = main(["run", "--config", str(cfg), "--jobs", "res", "--out", str(out)])
    assert rc == 0 and (out / "res.json").read_bytes() == first


def test_unknown_job_name(tmp_path):
    cfg = tmp_path / "jobs.cfg"
    cfg.write_text("[job a]\nkind = kronecker\n")
    assert main(["run", "--config", str(cfg), "--jobs", "missing", "--out", str(tmp_path / "o")]) == 2


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


def test_certification_gap_exit_code(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(cache_mod.ENV_VAR, str(tmp_path / "cache"))
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


def test_demo_config_outputs_match_pinned_digests(tmp_path, monkeypatch):
    monkeypatch.setenv(cache_mod.ENV_VAR, str(tmp_path / "cache"))
    out = tmp_path / "demo"
    assert main(["run", "--config", str(DEMO_CONFIG), "--out", str(out)]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert digests == json.loads(DEMO_DIGESTS.read_text())


def test_folding_builds_only_the_stable_quivers(monkeypatch):
    drops = []
    real = EndoQuiver._arrows

    def recording(self, drop_free):
        drops.append(drop_free)
        return real(self, drop_free)

    monkeypatch.setattr(EndoQuiver, "_arrows", recording)
    assert cli.check_folding({})["pass"]
    assert drops == [{"R"}, {"R"}]
