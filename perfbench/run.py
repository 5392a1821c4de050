#!/usr/bin/env python3
"""End-to-end benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the perfbench driver (perfbench/CMakeLists.txt, msim's src/ tree
in Release) under .bench_build/ on first use, runs one measurement of
one workload, and prints the driver's output.  The last stdout line is
the result object {"correct", "attempted", "failed", "metrics"}.  In
untraced runs set-up is repeated in fresh processes and setup_s is the
median over all of them.  Exits non-zero without a result line when the
build or any run fails.  See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("serve-warm-op", "cli-cold-ac", "table1-mc", "tone-thd")
SETUP_PROBES = 6      # extra fresh-process set-ups per untraced run
RUN_TIMEOUT_S = 170   # one driver process, well inside the run limit


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("msim sources (src/) not found next to perfbench/")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   stdout=sys.stderr, check=True)


def driver(args):
    """Runs the driver once; returns its stdout lines."""
    env = dict(os.environ, MSIM_THREADS="1")
    proc = subprocess.run([BINARY] + args, cwd=BUILD, env=env,
                          stdout=subprocess.PIPE, text=True, check=True,
                          timeout=RUN_TIMEOUT_S)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if not lines:
        raise RuntimeError("driver printed nothing")
    return lines


def setup_probe(base):
    """Set-up time [s] of one fresh driver process."""
    return json.loads(driver(base + ["--setup-only"])[-1])["setup_s"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    try:
        build()
        base = ["--workload", a.workload, "--seed", str(a.seed)]
        # Set-up probes run half before and half after the measured run,
        # so one host speed state is less likely to hold all of them.
        probes = SETUP_PROBES // 2 if not a.trace else 0
        setups = [setup_probe(base) for _ in range(probes)]
        lines = driver(base + ["--seconds", str(a.seconds),
                               "--trace", str(a.trace)])
        result = json.loads(lines[-1])
        if not a.trace:
            setups.append(result["metrics"]["setup_s"]["value"])
            setups += [setup_probe(base)
                       for _ in range(SETUP_PROBES - probes)]
            result["metrics"]["setup_s"]["value"] = statistics.median(setups)
    except (subprocess.SubprocessError, OSError, RuntimeError,
            ValueError, KeyError) as e:
        log("failed: %s" % e)
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
