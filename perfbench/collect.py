"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/collect.py --seeds 0-9 [--workloads ext-table,...]
        [--trace-seeds 0,1] [--out summary.json]

Run from the root of a source checkout.  Each run is one `run.py`
invocation with the `run_seconds` of BENCHMARK.json.  For every
workload and metric the summary holds the values, their median and the
spread (distance between the first and third quartile over the median);
`--trace-seeds` adds traced runs and lists the count metrics that
differed between them.  The summary and the machine description go to
`--out` as JSON, and a one-line digest per metric to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    out = []
    for part in filter(None, text.split(",")):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def machine() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu}


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: incorrect result {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def summarise(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]:
        values = [r[name] for r in runs]
        med = statistics.median(values)
        entry = {"median": med, "values": values}
        if len(values) >= 2 and med:
            q1, _, q3 = statistics.quantiles(values, n=4)
            entry["spread"] = (q3 - q1) / med
        out[name] = entry
    return out


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="0-9")
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--trace-seeds", default="")
    ap.add_argument("--out")
    args = ap.parse_args()

    seconds = spec["run_seconds"]
    summary = {"machine": machine(), "run_seconds": seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, s, seconds, 0) for s in parse_seeds(args.seeds)]
        entry = {"end_to_end": summarise(runs) if runs else {}}
        traced = [run_once(workload, s, seconds, 1) for s in parse_seeds(args.trace_seeds)]
        if traced:
            entry["per_layer"] = summarise(traced)
            entry["counts_differ"] = sorted(
                m["name"] for m in spec["per_layer"]
                if m["unit"] == "count" and len({t[m["name"]] for t in traced}) > 1
            )
        summary["workloads"][workload] = entry
        for name, e in entry["end_to_end"].items():
            print(f"{workload} {name}: median {e['median']:.6g} spread {e.get('spread', 0):.4f}",
                  file=sys.stderr)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
