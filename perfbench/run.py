#!/usr/bin/env python3
"""CellFi benchmark: two single-threaded simulation workloads.

    python3 perfbench/run.py --workload fig9_cellfi --seed 1 --seconds 50 --trace 0

Builds perfbench/ (and the library from src/) into .bench_build/perfbench,
then runs replications of the workload for --seconds seconds. Every
replication is a fresh process of cellfi_perfbench, so each one pays the
first-in-process set-up cost a user pays. Each replication's outcome is
gated (see GATES); a replication that crashes or fails its gate counts as
failed, and so does every zero-hop replication of a CellFi run whose median
replication made no hop. The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (medians over the run's
replications). --trace 1 runs each replication twice, untraced and traced,
in alternating order; the two outcomes must match byte for byte, and the
per-layer metrics come from the traced runs. See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "cellfi_perfbench"

# Outcome gates per workload. The connected floors sit under every value
# seen on a 36-seed scan (README.md, "Outcome gates"); the default-seed
# outcomes are recorded next to them. Both workloads run CellFi, so both
# must hop.
GATES = {
    # seed 1: connected 0.976, 29.2 Mbps, 9 hops
    "fig9_cellfi": {"connected_floor": 0.8},
    # seed 1: connected 1.0, 16.2 Mbps, 7 hops; 5,000 background users,
    # far from the saturated regime in which real clients get 0 Mbps
    "users_agg": {"connected_floor": 0.8},
}

# Set-up samples wanted per run. A full replication gives one; when set-up
# is cheap, set-up-only processes make up the rest so the median is steady.
SETUP_SAMPLES = 64
SETUP_BURST = 12
CHEAP_SETUP_S = 0.05

# Every process of a run ends this many seconds after measuring starts, so
# a hung replication cannot hold the run past its time limit.
DEADLINE_S = 170

MASK64 = (1 << 64) - 1


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def replication_seed(seed, rep):
    """Scenario seed of replication `rep`: the run's seed itself for rep 0,
    then SplitMix64-mixed values, so the same --seed gives the same inputs."""
    if rep == 0:
        return seed & MASK64
    z = (seed * 0x9E3779B97F4A7C15 + rep * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"CellFi sources not found under {ROOT / 'src'}")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD), "-j", jobs],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout)
            raise RuntimeError(f"build step failed: {' '.join(cmd)}")


def child_env():
    # The library reads CELLFI_* knobs (tracing, shard threads, SIMD, chaos
    # plans, background load); none may leak into a measured run.
    return {k: v for k, v in os.environ.items() if not k.startswith("CELLFI_")}


def run_child(workload, seed, mode, timeout=DEADLINE_S):
    """One cellfi_perfbench process; returns its JSON record."""
    done = subprocess.run([str(BINARY), workload, str(seed), mode],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          env=child_env(), timeout=max(1.0, timeout))
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} mode {mode} exited "
                           f"{done.returncode}: {done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def gate_problems(workload, rec):
    """Per-replication gate; the hop gate is per run (Run.check_hops)."""
    floor = GATES[workload]["connected_floor"]
    problems = []
    if not rec["throughput_mbps"] > 0.0:
        problems.append("served client throughput is 0")
    if rec["fraction_connected"] < floor:
        problems.append(f"connected {rec['fraction_connected']:.3f} < {floor}")
    return problems


class Run:
    """Replications of one workload within a time budget."""

    def __init__(self, workload, seed, seconds, trace):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.attempted = 0
        self.failed = 0
        self.reps = []          # untraced records of passing replications
        self.traced = []        # traced records (trace mode)
        self.overhead = []      # traced minus untraced rep_s (trace mode)
        self.setup = []         # set-up samples
        self.rep_cost = []      # host seconds per replication (budgeting)
        self.deadline = time.monotonic() + DEADLINE_S

    def child(self, seed, mode):
        return run_child(self.workload, seed, mode, self.deadline - time.monotonic())

    def replicate(self, rep):
        seed = replication_seed(self.seed, rep)
        self.attempted += 1
        t0 = time.monotonic()
        try:
            if not self.trace:
                rec = self.child(seed, "0")
                traced = None
            elif rep % 2 == 0:
                rec = self.child(seed, "0")
                traced = self.child(seed, "1")
            else:
                traced = self.child(seed, "1")
                rec = self.child(seed, "0")
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as err:
            self.failed += 1
            log(f"FAILED: {err}")
            return
        finally:
            self.rep_cost.append(time.monotonic() - t0)
        problems = gate_problems(self.workload, rec)
        if traced is not None and traced["outcome"] != rec["outcome"]:
            problems.append("traced outcome differs from the untraced one")
        if problems:
            self.failed += 1
            log(f"FAILED gate: {self.workload} seed {seed}: {'; '.join(problems)}")
            return
        log(f"{self.workload} seed {seed}: rep_s {rec['rep_s']:.3f} "
            f"setup_s {rec['setup_s']:.6f} connected {rec['fraction_connected']:.3f} "
            f"{rec['throughput_mbps']:.1f} Mbps {rec['hops']} hops")
        self.reps.append(rec)
        self.setup.append(rec["setup_s"])
        if traced is not None:
            self.traced.append(traced)
            self.overhead.append(traced["rep_s"] - rec["rep_s"])

    def setup_only(self, rep):
        rec = self.child(replication_seed(self.seed, rep), "setup")
        self.setup.append(rec["setup_s"])

    def measure(self):
        start = time.monotonic()
        rep = 0
        while True:
            self.replicate(rep)
            rep += 1
            if not self.trace and self.setup and statistics.median(self.setup) < CHEAP_SETUP_S:
                # Spread the set-up-only samples over the run, on seeds no
                # replication of the run uses.
                for k in range(SETUP_BURST):
                    if len(self.setup) < SETUP_SAMPLES:
                        self.setup_only(rep + 1000 * (k + 1))
            elapsed = time.monotonic() - start
            if elapsed + statistics.median(self.rep_cost) > self.seconds:
                break

    def check_hops(self):
        """A CellFi workload must hop. One quiet topology may need no hop
        (users_agg has such seeds, fully served), so the run fails when its
        median replication made none, counting each zero-hop replication."""
        if statistics.median(r["hops"] for r in self.reps) == 0:
            self.failed += sum(1 for r in self.reps if r["hops"] == 0)
            log(f"FAILED gate: {self.workload}: the median replication made zero hops")

    def metrics(self):
        if not self.trace:
            sim_per_s = [r["sim_s"] / r["run_s"] for r in self.reps]
            return {
                "rep_s": (statistics.median(r["rep_s"] for r in self.reps), "s"),
                "setup_s": (statistics.median(self.setup), "s"),
                "sim_per_s": (statistics.median(sim_per_s), "1/s"),
                "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in self.reps), "MB"),
            }
        out = {}
        for name in self.traced[0]["layers"]:
            values = [t["layers"][name] for t in self.traced]
            unit = "s" if name.endswith("_s") else "us" if "_us" in name else "count"
            median = statistics.median_low(values) if unit == "count" else statistics.median(values)
            out[name] = (median, unit)
        out["trace.overhead_s"] = (statistics.median(self.overhead), "s")
        return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(GATES))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        build()
    except RuntimeError as err:
        log(f"perfbench: {err}")
        return 1

    run = Run(args.workload, args.seed, args.seconds, args.trace == 1)
    try:
        run.measure()
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as err:
        log(f"perfbench: {err}")
        return 1
    if not run.reps:
        log("perfbench: no replication passed")
        return 1
    run.check_hops()
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in run.metrics().items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
