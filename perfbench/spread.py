"""Measure the benchmark's run-to-run spread (maintenance tool).

Runs ``run.py --trace 0`` once per seed for each workload and records,
per end-to-end metric, the median and the interquartile range as a
share of the median (``statistics.quantiles(values, n=4)``), beside the
host's own spin-loop time. The result is written to spread.json.

    python3 perfbench/spread.py --seeds 0-9
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time

from pin import parse_seeds
from run import HERE, ROOT, WORKLOADS

SPIN = re.compile(r"host spin ([0-9.]+)/([0-9.]+) ms")


def summarize(values: list) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "iqr_share": (q3 - q1) / median if median else 0.0,
            "min": min(values), "max": max(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seconds", default="12")
    parser.add_argument("--out", default=f"{HERE}/spread.json")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    report = {
        "host": {"machine": platform.machine(), "python": platform.python_version(),
                 "cpus": len(os.sched_getaffinity(0))},
        "seeds": seeds,
        "seconds": float(args.seconds),
        "workloads": {},
    }
    failed = 0
    for workload in args.workloads.split(","):
        values: dict = {}
        spins = []
        for seed in seeds:
            started = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, f"{HERE}/run.py", "--workload", workload,
                 "--seed", str(seed), "--seconds", args.seconds, "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=False,
            )
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                failed += 1
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            spins.extend(float(x) for x in SPIN.search(proc.stderr).groups())
            print(f"{workload} seed {seed}: {time.perf_counter() - started:.0f} s, "
                  f"failed {result['failed']}/{result['attempted']}, "
                  f"wall {result['metrics']['wall_s']['value']:.2f} s", file=sys.stderr)
        entry = {name: summarize(vals) for name, vals in values.items()}
        entry["host.spin_ms"] = summarize(spins)
        report["workloads"][workload] = entry
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
