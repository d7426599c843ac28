"""Benchmark entry point: one run of one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload {place,autoscale,runtime} \\
        --seed N --seconds S --trace {0,1}

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json,
from untraced processes; with ``--trace 1`` they are the per-layer ones,
from a traced process, plus ``trace.overhead`` against an untraced
process of the same run. End-to-end times are scaled to a reference
host speed (``REFERENCE_PROBE_US``). README.md describes every metric.

Every measured process starts in the same bytecode state: bytecode is
read from a private cache under ``.perfbench/pycache`` that one
unmeasured warm-up import fills, and no measured process writes to it.
Set-up time is the median over several processes (``SETUP_SAMPLES``).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(ROOT, ".perfbench")
PINS = os.path.join(HERE, "pins.json")
WORKLOADS = ("place", "autoscale", "runtime")

#: Simulated work per unit is fixed; one unit takes about this long on
#: a 2-vCPU host at the seed commit, so ``--seconds`` picks how many
#: units a run measures (at least one).
UNIT_SECONDS = 12.0
#: Set-up samples per untraced run: this many set-up-only processes
#: plus the timed process itself.
SETUP_SAMPLES = 4
#: Every process of a run must end by then (the run's own limit is 180 s).
RUN_BUDGET_S = 170.0
#: End-to-end times are reported at this host speed: the median time of
#: child.HostProbe's loop on the 2-vCPU host the benchmark was tuned on.
#: The host's speed changes by up to 2x between runs there; scaling
#: each measured phase by the probe median sampled during it roughly
#: halves the run-to-run spread. Raw seconds go to standard error.
REFERENCE_PROBE_US = 500.0


class ChildFailed(RuntimeError):
    pass


def child_env(write_bytecode: bool) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONPYCACHEPREFIX"] = os.path.join(WORKDIR, "pycache")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    if write_bytecode:
        env.pop("PYTHONDONTWRITEBYTECODE", None)
    else:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_child(args: argparse.Namespace, mode: str, deadline: float,
              write_bytecode: bool = False, trace_out: str = "") -> dict:
    """Start child.py, wait for it, and return its JSON result."""
    spawned = time.perf_counter()
    cmd = [
        sys.executable, os.path.join(HERE, "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--units", str(args.units), "--mode", mode,
        "--spawned-at", repr(spawned), "--pins", PINS,
    ]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(write_bytecode),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise ChildFailed(f"{mode} process exceeded the run's time budget")
    if proc.returncode != 0:
        raise ChildFailed(f"{mode} process exited {proc.returncode}:\n{stderr[-4000:]}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise ChildFailed(f"{mode} process printed no result:\n{stderr[-4000:]}")
    return json.loads(lines[-1])


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in 0..100)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def at_reference_speed(seconds: float, probe_us: float) -> float:
    """Seconds as a host whose probe median is REFERENCE_PROBE_US would take."""
    return seconds * REFERENCE_PROBE_US / probe_us


def end_to_end(timed: dict, setups: list) -> dict:
    wall = at_reference_speed(timed["wall_s"], timed["probe_us"])
    return {
        "setup_s": statistics.median(
            at_reference_speed(s["setup_s"], s["setup_probe_us"]) for s in setups
        ),
        "wall_s": wall,
        "peak_rss_mb": timed["peak_rss_mb"],
        "sim_s_per_s": timed["sim_s"] / wall,
        "records_per_s": timed["records"] / wall,
    }


def per_layer(traced: dict, untraced: dict) -> dict:
    setups = (traced, untraced)
    latencies = [1000.0 * s for s in untraced["latencies_s"]]
    return {
        **traced["layers"],
        "setup.import_s": statistics.median(s["import_s"] for s in setups),
        "setup.inputs_s": statistics.median(s["inputs_s"] for s in setups),
        "host.spin_ms": statistics.median(traced["spin_ms"] + untraced["spin_ms"]),
        "host.probe_us": traced["probe_us"],
        "trace.overhead": (
            at_reference_speed(traced["wall_s"], traced["probe_us"])
            / at_reference_speed(untraced["wall_s"], untraced["probe_us"]) - 1.0
        ),
        "client.ops": len(latencies),
        "client.op_p50_ms": statistics.median(latencies),
        "client.op_p90_ms": percentile(latencies, 90),
    }


def declared_units(section: str) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[section]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=UNIT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    args.units = max(1, round(args.seconds / UNIT_SECONDS))

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no src/repro package next to perfbench/; run it "
              "from a checkout of the repository", file=sys.stderr)
        return 2
    os.makedirs(WORKDIR, exist_ok=True)
    deadline = time.perf_counter() + RUN_BUDGET_S
    try:
        # fills the private bytecode cache; not measured
        run_child(args, "setup", deadline, write_bytecode=True)
        if args.trace:
            untraced = run_child(args, "timed", deadline)
            traced = run_child(
                args, "traced", deadline,
                trace_out=os.path.join(WORKDIR, f"trace-{args.workload}.jsonl"),
            )
            children = [untraced, traced]
            metrics = per_layer(traced, untraced)
        else:
            setups = [run_child(args, "setup", deadline)
                      for _ in range(SETUP_SAMPLES)]
            timed = run_child(args, "timed", deadline)
            children = [timed]
            metrics = end_to_end(timed, setups + [timed])
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    units = declared_units("per_layer" if args.trace else "end_to_end")
    if set(units) != set(metrics):
        print(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} are not "
              f"both computed and declared in BENCHMARK.json", file=sys.stderr)
        return 1

    attempted = sum(child["attempted"] for child in children)
    failed = sum(child["failed"] for child in children)
    for child in children:
        for failure in child["failures"]:
            print(f"perfbench: FAILED {failure}", file=sys.stderr)
        print(f"perfbench: timed phase {child['wall_s']:.3f} s, host spin "
              f"{child['spin_ms'][0]:.1f}/{child['spin_ms'][1]:.1f} ms before/after, "
              f"probe {child['probe_us']:.1f} us",
              file=sys.stderr)
        if child["unpinned"]:
            print(f"perfbench: {child['unpinned']} op outputs have no pinned "
                  f"digest for seed {args.seed}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
