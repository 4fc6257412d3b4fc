"""One benchmark process: import segrecalc from the checkout, run the
named manifest checks on cold caches, and print one JSON line.

    python3 perfbench/worker.py --checks a,b --opts '{"window": 10}' [--trace]

The line holds the monotonic clock reading just before the first timed
check call (`ready`; the parent subtracts its spawn time to get set-up
time), per-check seconds and artifact sha256 digests, the unscaled wall
time of the checks and the speed factor sampled meanwhile (speed.py),
the peak resident memory, the memos found warm at start, and with
`--trace` the per-layer numbers, times unscaled.  An empty `--checks`
only measures set-up.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def import_segrecalc():
    sys.path.insert(0, str(SRC))
    import segrecalc.cli

    if not Path(segrecalc.cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"segrecalc was not imported from {SRC}")
    return segrecalc.cli


def warm_memos() -> list[str]:
    """Names of the module-level memos that are not empty."""
    from tracer import cache_counters

    return sorted(
        name.rsplit(".", 1)[0]
        for name, value in cache_counters().items()
        if name.endswith(".entries") and value
    )


def artifact_digest(cli, art) -> str:
    """sha256 of the artifact bytes as `cli.write_artifact` writes them."""
    return hashlib.sha256((json.dumps(art, **cli.JSON_KW) + "\n").encode()).hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--checks", default="")
    ap.add_argument("--opts", default="{}")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    cli = import_segrecalc()
    sys.path.insert(0, str(HERE))
    import tracer as tracing
    from speed import SpeedSampler

    checks = {name: fn for name, _, fn in cli.MANIFEST}
    names = [n for n in args.checks.split(",") if n]
    opts = json.loads(args.opts)
    warm = warm_memos()
    tr = None
    if args.trace:
        tr = tracing.Tracer()
        tracing.install(tr)
        checks = {n: tr.span(f"cli.{n}", fn) for n, fn in checks.items()}

    results = []
    clock = time.perf_counter
    ready = time.monotonic()
    with SpeedSampler() as sampler:
        for name in names:
            entry = {"name": name, "pass": False, "digest": None, "error": None}
            start, busy = clock(), sampler.busy
            try:
                art = checks[name](dict(opts))
            except Exception:  # a failing check is reported, the rest still run
                art = None
                entry["error"] = traceback.format_exc(limit=3)
            entry["seconds"] = clock() - start - (sampler.busy - busy)
            if art is not None:
                entry["pass"] = art.get("pass") is True
                entry["digest"] = artifact_digest(cli, art)
            results.append(entry)

    out = {
        "ready": ready,
        "checks": results,
        "wall_unscaled_s": sum(e["seconds"] for e in results),
        "speed_factor": sampler.factor(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "warm_at_start": warm,
    }
    if tr is not None:
        layers = tracing.layer_metrics(tr)
        for name in names:
            layers[f"cli.{name}_s"] = tr.inclusive[f"cli.{name}"]
        out["layers"] = layers
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
