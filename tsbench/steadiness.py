#!/usr/bin/env python3
"""Steadiness check of the end-to-end metrics across seeds.

    python3 tsbench/steadiness.py [--seeds 10]

Runs tsbench/run.py --trace 0 once per seed (1..N) on each workload, then
prints, per end-to-end metric, the median of the per-run values and their
spread: the distance between the first and third quartile
(statistics.quantiles, n=4) as a share of the median.  A spread should stay
below a third of the metric's bound in BENCHMARK.json (setup_s is only
compared by median).  The hypervisor's share of CPU time during each timed
loop (host_context loop_steal_frac) is printed beside the figures.  Raw
results go to .bench_out/steadiness.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the spec and paths live in run.py)


def one_run(workload, seed):
    r = subprocess.run([sys.executable, os.path.join(run.BENCH_DIR, "run.py"),
                        "--workload", workload, "--seed", str(seed),
                        "--seconds", str(run.SPEC["run_seconds"]),
                        "--trace", "0"],
                       cwd=run.ROOT, capture_output=True, text=True)
    if r.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{r.stderr}")
    lines = r.stdout.splitlines()
    res = json.loads(lines[-1])
    if not res["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect output\n{r.stdout}")
    values = {k: v["value"] for k, v in res["metrics"].items()}
    for line in lines:
        if line.startswith("host_context "):
            host = json.loads(line.split(" ", 1)[1])
            values["loop_steal_frac"] = host["loop_steal_frac"]
    return values


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--seeds", type=int, default=10)
    a = p.parse_args()

    bounds = {m["name"]: m["bound"] for m in run.SPEC["end_to_end"]}
    table, raw = {}, {}
    for w in (w["name"] for w in run.SPEC["workloads"]):
        runs = []
        for seed in range(1, a.seeds + 1):
            runs.append(one_run(w, seed))
            print(f"{w} seed {seed}: {runs[-1]}", flush=True)
        raw[w] = runs
        table[w] = {}
        for name, bound in bounds.items():
            vals = [r[name] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            table[w][name] = {"median": med, "spread": round(spread, 4)}
            flag = "ok" if name == "setup_s" or spread < bound / 3 else "WIDE"
            print(f"  {w:13s} {name:15s} median {med:10.4f} spread "
                  f"{spread:7.4f} bound {bound} {flag}", flush=True)
        steal = [r.get("loop_steal_frac", 0.0) for r in runs]
        table[w]["loop_steal_frac_max"] = max(steal)
        print(f"  {w:13s} loop_steal_frac median {statistics.median(steal):.4f}"
              f" max {max(steal):.4f}", flush=True)

    os.makedirs(run.OUT_DIR, exist_ok=True)
    with open(os.path.join(run.OUT_DIR, "steadiness.json"), "w") as f:
        json.dump({"table": table, "runs": raw}, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
