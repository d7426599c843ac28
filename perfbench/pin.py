"""Pin the output digests the benchmark checks (maintenance tool).

Runs the timed phase of a workload for each given seed and stores every
op's output digest in pins.json. Existing pins are never replaced: if a
digest differs from its pin, or an op fails its other checks, the tool
reports it, leaves pins.json unchanged and exits 1.

    python3 perfbench/pin.py --workload autoscale --seeds 0-31
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from run import PINS, WORKLOADS, run_child, RUN_BUDGET_S


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 0-31 or 1,5,9")
    args = parser.parse_args(argv)
    pins = {}
    if os.path.exists(PINS):
        with open(PINS, encoding="utf-8") as handle:
            pins = json.load(handle)
    table = pins.setdefault(args.workload, {})
    conflicts = 0
    for seed in parse_seeds(args.seeds):
        child_args = argparse.Namespace(workload=args.workload, seed=seed, units=1)
        result = run_child(child_args, "timed", time.perf_counter() + RUN_BUDGET_S)
        for failure in result["failures"]:
            if "!= pinned" not in failure:
                print(f"seed {seed}: {failure}", file=sys.stderr)
                conflicts += 1
        for key, value in result["digests"].items():
            if table.setdefault(key, value) != value:
                print(f"seed {seed}: {key} is {value}, pinned {table[key]}",
                      file=sys.stderr)
                conflicts += 1
        print(f"seed {seed}: {len(result['digests'])} digests", file=sys.stderr)
    if conflicts:
        print("pins.json left unchanged", file=sys.stderr)
        return 1
    with open(PINS, "w", encoding="utf-8") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
