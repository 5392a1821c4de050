#!/usr/bin/env python3
"""The benchmark's own test: a short run of every workload.

    python3 perfbench/selftest.py [--seconds 1]

For every workload in BENCHMARK.json, runs run.py once untraced and once
traced and checks that the run passed every output check
(correct, failed == 0, success_frac == 1) and printed every end-to-end
or per-layer metric named in BENCHMARK.json, with its unit.  On
serve-warm-op it also checks the warm-path invariants: zero pattern
searches per op, every registry lookup a hit, no result-memo hits.
Exits 0 when everything holds.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    if out.returncode != 0:
        return None
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--seed", type=int, default=1)
    a = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    problems = []
    for w in (x["name"] for x in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            tag = "%s trace=%d" % (w, trace)
            r = run(w, a.seed, a.seconds, trace)
            if r is None:
                problems.append(tag + ": run failed")
                continue
            if not r["correct"] or r["failed"] != 0 or r["attempted"] < 1:
                problems.append(tag + ": output check failed: %s" % {
                    k: r[k] for k in ("correct", "attempted", "failed")})
            m = r["metrics"]
            for want in spec[key]:
                got = m.get(want["name"])
                if got is None:
                    problems.append(tag + ": missing " + want["name"])
                elif got["unit"] != want["unit"]:
                    problems.append(tag + ": %s unit %s != %s" % (
                        want["name"], got["unit"], want["unit"]))
            if trace == 0 and m.get("success_frac", {}).get("value") != 1.0:
                problems.append(tag + ": success_frac != 1")
            if trace == 1 and w == "serve-warm-op":
                for name, value in (("numeric.pattern_searches_per_op", 0.0),
                                    ("registry.hit_frac", 1.0),
                                    ("registry.memo_hit_frac", 0.0)):
                    if m.get(name, {}).get("value") != value:
                        problems.append(tag + ": %s != %g" % (name, value))
            print("%-26s %s" % (tag, "ok" if not problems else "..."),
                  flush=True)
    for p in problems:
        print("FAIL " + p)
    print("selftest: %s" % ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
