"""Benchmark of segrecalc's bundled manifest checks.

    python3 perfbench/run.py --workload ext-table --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout.  Each repetition runs the
workload's checks in a fresh interpreter (cold module-level memos,
`--parallel 0`, one thread) importing `src/segrecalc`, and compares the
sha256 of every artifact with `perfbench/reference.json`.  With
`--trace 0` the run times a few import-only set-up probes, then
repetitions until `--seconds` is used up (at least one), and reports the
end-to-end metrics; with `--trace 1` it runs one untraced and one traced
repetition of the same order and reports the per-layer metrics.  Times
are scaled to a reference interpreter speed (speed.py).  The last stdout
line is one JSON object; the metric names and units come from
`BENCHMARK.json`.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import speed_now

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
TIME_LIMIT_S = 170
SETUP_PROBES = 7

# digests of the sequences-fp artifacts agree for all of these and over Q
PRIMES = (10007, 32003, 65521)

SEQUENCE_CHECKS = (
    "local-cohomology-suite",
    "gorenstein-suite",
    "almost-split-threefold",
    "almost-split-fourfold",
    "p-segre-quivers",
    "numsgp-suite",
    "koszul-diagonal-suite",
    "contraction-suite",
)

# name -> (checks, whether the seed permutes them, options from the seed)
WORKLOADS = {
    "ext-table": (
        ("main-sequence-suite", "kronecker-suite"),
        True,
        lambda seed: {"parallel": 0},
    ),
    "endo-quivers": (
        ("gorenstein-endo-quivers", "folding-suite"),
        True,
        lambda seed: {"parallel": 0},
    ),
    "sequences-fp": (
        SEQUENCE_CHECKS,
        False,
        lambda seed: {"window": 10, "char": PRIMES[seed % len(PRIMES)], "parallel": 0},
    ),
}


class BenchError(RuntimeError):
    pass


def spawn(root: Path, checks, opts: dict, deadline: float, trace: bool = False) -> dict:
    """Run one worker process to completion and return its report, with
    `setup_s` (unscaled), `wall_s` and per-layer times scaled."""
    cmd = [sys.executable, str(WORKER), "--checks", ",".join(checks), "--opts", json.dumps(opts)]
    if trace:
        cmd.append("--trace")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONHASHSEED"] = "0"
    start = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker exceeded the run's time limit")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    lines = out.decode().strip().splitlines()
    if not lines:
        raise BenchError("worker printed no report")
    report = json.loads(lines[-1])
    report["setup_s"] = report["ready"] - start
    speed = report["speed_factor"]
    report["wall_s"] = report["wall_unscaled_s"] * speed
    if "layers" in report:
        report["layers"] = {k: v * speed if k.endswith("_s") else v for k, v in report["layers"].items()}
    return report


def failed_checks(report: dict, reference: dict) -> int:
    """Number of checks that raised, did not pass, or whose artifact
    digest differs from the reference."""
    bad = 0
    for e in report["checks"]:
        if e["error"] or not e["pass"] or e["digest"] != reference.get(e["name"]):
            bad += 1
            print(f"check {e['name']} failed: {e['error'] or 'pass or digest mismatch'}", file=sys.stderr)
    return bad


def order_for(rng: random.Random, checks, shuffle: bool) -> list[str]:
    return rng.sample(checks, len(checks)) if shuffle else list(checks)


def run_untraced(root, checks, shuffle, opts, seed, seconds, deadline, reference):
    setups = []
    for _ in range(SETUP_PROBES):
        before = speed_now()
        probe = spawn(root, [], {}, deadline)
        setups.append(probe["setup_s"] * (before + speed_now()) / 2)
    rng = random.Random(seed)
    reps, attempted, failed, cold = [], 0, 0, True
    start = time.monotonic()
    while True:
        rep = spawn(root, order_for(rng, checks, shuffle), opts, deadline)
        reps.append(rep)
        attempted += len(rep["checks"])
        failed += failed_checks(rep, reference)
        cold = cold and not rep["warm_at_start"]
        print(
            f"rep {len(reps)}: wall {rep['wall_s']:.3f} s scaled, "
            f"{rep['wall_unscaled_s']:.3f} s unscaled",
            file=sys.stderr,
        )
        elapsed = time.monotonic() - start
        if elapsed + elapsed / len(reps) > seconds:
            break
    metrics = {
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "ok_frac": (attempted - failed) / attempted,
    }
    return metrics, attempted, failed, cold


def run_traced(root, checks, shuffle, opts, seed, deadline, reference):
    order = order_for(random.Random(seed), checks, shuffle)
    base = spawn(root, order, opts, deadline)
    traced = spawn(root, order, opts, deadline, trace=True)
    # both match the reference digests, hence each other
    failed = failed_checks(base, reference) + failed_checks(traced, reference)
    attempted = len(base["checks"]) + len(traced["checks"])
    metrics = dict(traced["layers"])
    for names, _, _ in WORKLOADS.values():
        for name in names:
            metrics.setdefault(f"cli.{name}_s", 0.0)
    metrics["trace.overhead_s"] = traced["wall_s"] - base["wall_s"]
    metrics["bench.wall_unscaled_s"] = base["wall_unscaled_s"]
    metrics["bench.speed_factor"] = base["speed_factor"]
    metrics["failed_frac"] = failed / attempted
    cold = not base["warm_at_start"] and not traced["warm_at_start"]
    return metrics, attempted, failed, cold


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text())
        reference = json.loads((HERE / "reference.json").read_text())
        if not (root / "src" / "segrecalc" / "__init__.py").is_file():
            raise BenchError("no src/segrecalc in the current directory")
        checks, shuffle, make_opts = WORKLOADS[args.workload]
        opts = make_opts(args.seed)
        if args.trace:
            metrics, attempted, failed, cold = run_traced(
                root, checks, shuffle, opts, args.seed, deadline, reference
            )
            wanted = spec["per_layer"]
        else:
            metrics, attempted, failed, cold = run_untraced(
                root, checks, shuffle, opts, args.seed, args.seconds, deadline, reference
            )
            wanted = spec["end_to_end"]
        if not cold:
            print("module-level memos were warm before the first check", file=sys.stderr)
        result = {
            "correct": failed == 0 and cold,
            "attempted": attempted,
            "failed": failed,
            "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
        }
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"benchmark error: {exc!r}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
