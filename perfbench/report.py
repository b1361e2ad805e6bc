"""Print the end-to-end metrics of every workload, with units and fail ratio.

    python3 perfbench/report.py             # one run per workload, seed 1
    python3 perfbench/report.py --runs 10   # seeds 1..10 per workload

Each run is ``perfbench/run.py --trace 0`` in its own process, for every
workload of BENCHMARK.json, with its ``run_seconds``.  With more than one run
per workload it also prints each metric's median and the distance between
its first and third quartiles as a share of the median, next to the
metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=1)
    args = parser.parse_args(argv)

    metrics = spec["end_to_end"]
    for workload in (w["name"] for w in spec["workloads"]):
        results = []
        for seed in range(1, args.runs + 1):
            res = run_once(workload, seed, spec["run_seconds"])
            results.append(res)
            shown = "  ".join(f"{m['name']}={res['metrics'][m['name']]['value']:.4f} {m['unit']}"
                              for m in metrics)
            print(f"{workload:7s} seed={seed:<4d} {shown}  fail_ratio="
                  f"{res['failed'] / res['attempted']:.4f} ({res['failed']}/{res['attempted']})",
                  flush=True)
        if len(results) < 2:
            continue
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            print(f"{workload:7s} {m['name']:12s} median={med:.4f} {m['unit']}  "
                  f"spread={(q3 - q1) / med:.4f}  bound={m['bound']}", flush=True)
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        print(f"{workload:7s} fail_ratio={failed / attempted:.4f} ({failed}/{attempted})",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
