#!/usr/bin/env python3
"""Alternating end-to-end benchmark pairs between two checkouts.

    python3 tools/perf_pairs.py --parent DIR --change DIR \\
        [--workloads tone-thd table1-mc] --seeds 1 7919 --pairs 10

Without --workloads it runs every workload the change's BENCHMARK.json
names, so a change is checked on the workloads it should not move too.
For every workload and seed, runs `perfbench/run.py` N times in each
checkout (DIR is a checkout root holding perfbench/ and src/), one parent
run and one change run per pair, alternating which side goes first.  It
prints one Markdown table in the docs/performance.md format: per
end-to-end metric the median and, in brackets, the quartiles of each
side, the change in the median, and in how many pairs the change read
better; the `success_frac` row shows the share of operations that
passed their check next to the timings.  Directions, names and units come from the change's
BENCHMARK.json; `setup_s` is shown in ms.  `--json FILE` also writes
every run's metrics.

Exits 1 when any run fails or reports success_frac < 1, after printing
whatever it measured; 2 on bad arguments.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

RUN_TIMEOUT_S = 900


def log(msg):
    print("perf_pairs: " + msg, file=sys.stderr, flush=True)


def run_once(root, workload, seed, seconds):
    """Metrics {name: value} of one perfbench run in checkout `root`."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=root, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=RUN_TIMEOUT_S)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s: run.py exited %d" % (root, proc.returncode))
    metrics = json.loads(lines[-1])["metrics"]
    return {k: v["value"] for k, v in metrics.items()}


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def fmt(x, name):
    if name == "ops_per_s":
        return "%.0f" % x
    if name in ("setup_s", "peak_rss_mb"):
        return "%.2f" % x
    return "%.3f" % x


def table_rows(workload, seed, pairs, specs):
    """Markdown rows for one (workload, seed) from [(parent, change)]."""
    rows = []
    for spec in specs:
        name = spec["name"]
        scale = 1e3 if spec["unit"] == "s" else 1.0
        label = "`%s`%s" % (name, " (ms)" if scale != 1.0 else "")
        par = [p[name] * scale for p, _ in pairs]
        chg = [c[name] * scale for _, c in pairs]
        pq, cq = quartiles(par), quartiles(chg)
        delta = (cq[1] - pq[1]) / pq[1] * 100.0 if pq[1] else 0.0
        lower = spec["better"] == "lower"
        wins = sum(1 for p, c in zip(par, chg) if (c < p if lower else c > p))
        rows.append("| `%s` | %d | %s | %s (%s–%s) | %s (%s–%s) | %s%.1f %% | "
                    "%d/%d |" % (
                        workload, seed, label,
                        fmt(pq[1], name), fmt(pq[0], name), fmt(pq[2], name),
                        fmt(cq[1], name), fmt(cq[0], name), fmt(cq[2], name),
                        "−" if delta < 0 else "+", abs(delta), wins,
                        len(pairs)))
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="parent checkout root")
    ap.add_argument("--change", required=True, help="change checkout root")
    ap.add_argument("--workloads", nargs="+",
                    help="default: every workload in the change's "
                    "BENCHMARK.json")
    ap.add_argument("--seeds", nargs="+", type=int, default=[1])
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--json", help="also write every run's metrics here")
    a = ap.parse_args()
    if a.pairs < 1:
        ap.error("--pairs must be at least 1")
    sides = {"parent": os.path.abspath(a.parent),
             "change": os.path.abspath(a.change)}
    for root in sides.values():
        if not os.path.isfile(os.path.join(root, "perfbench", "run.py")):
            ap.error("%s has no perfbench/run.py" % root)
    with open(os.path.join(sides["change"], "BENCHMARK.json")) as f:
        bench = json.load(f)
    specs = bench["end_to_end"]
    workloads = a.workloads or [w["name"] for w in bench["workloads"]]

    failed = False
    raw = []
    out = ["| workload | seed | metric | parent | change | Δ | wins |",
           "|---|---:|---|---:|---:|---:|---:|"]
    for workload in workloads:
        for seed in a.seeds:
            pairs = []
            for i in range(a.pairs):
                order = ("parent", "change") if i % 2 == 0 else \
                    ("change", "parent")
                got = {}
                for side in order:
                    log("%s seed %d pair %d/%d: %s" % (
                        workload, seed, i + 1, a.pairs, side))
                    try:
                        got[side] = run_once(sides[side], workload, seed,
                                             a.seconds)
                    except (subprocess.SubprocessError, OSError,
                            RuntimeError, ValueError, KeyError) as e:
                        log("run failed: %s" % e)
                        failed = True
                        continue
                    if got[side].get("success_frac", 0.0) < 1.0:
                        log("%s success_frac %s" % (
                            side, got[side].get("success_frac")))
                        failed = True
                    raw.append({"workload": workload, "seed": seed,
                                "pair": i, "side": side,
                                "metrics": got[side]})
                if len(got) == 2:
                    pairs.append((got["parent"], got["change"]))
            if pairs:
                out += table_rows(workload, seed, pairs, specs)
    print("\n".join(out))
    if a.json:
        with open(a.json, "w") as f:
            json.dump(raw, f, indent=1)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
