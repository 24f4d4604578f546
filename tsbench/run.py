#!/usr/bin/env python3
"""End-to-end benchmark of the tseig eigensolver.

Usage, from the root of a source checkout:

    python3 tsbench/run.py --workload evd_full --seed 1 --seconds 30 --trace 0
    python3 tsbench/run.py --write-benchmark-json   # regenerate BENCHMARK.json

Builds the library and the tsbench program (tsbench/CMakeLists.txt) into
.bench_build/tsbench on first use, runs the program's self-test, then one
workload.  --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
ones from a layer-by-layer replay.  With --trace 0, setup_s is the median
set-up time of the measured process and SETUP_PROBES more fresh processes
that only set up, so every sample pays process and pool start.  Every line of the program's output is
passed through; the last line is the JSON result, checked here against the
metric lists below.  Exits non-zero, without a result line, on any failure.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "tsbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "tsbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "tsbench")

# Seconds the tsbench process may take before it is killed.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
# Fresh set-up-only processes per --trace 0 run, besides the measured one.
SETUP_PROBES = 2

SPEC = {
    "command": ["python3", "tsbench/run.py"],
    "paths": ["tsbench"],
    "run_seconds": 30,
    "workloads": [
        {"name": "evd_full",
         "why": "Fig 4a, all eigenpairs by D&C at n=1024: Q2/Q1 back-transform "
                "(or ormtr) and stedc do most of the work, so back-transform "
                "and GEMM-tier changes show here"},
        {"name": "trd_values",
         "why": "Fig 4c, eigenvalues only at n=1536: only sy2sb+sb2st (or "
                "sytrd) and sterf run, so a back-transform or D&C change must "
                "predict no change here"},
        {"name": "kpoint_batch",
         "why": "Fig 4d f=0.2, one syev_batch of 4162 problems (n=3..512): "
                "the only path through the batch scheduler, the n<=3 lane, "
                "stebz/stein and narrow-E back-transforms"},
    ],
    "end_to_end": [
        {"name": "twostage_s_min", "unit": "s", "better": "lower",
         "bound": 0.24},
        {"name": "onestage_s_min", "unit": "s", "better": "lower",
         "bound": 0.24},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower",
         "bound": 0.15},
    ],
    "per_layer": [
        {"name": name, "unit": unit, "better": better}
        for name, unit, better in [
            ("twostage.apply_q2_s", "s", "lower"),
            ("twostage.apply_q2_gflops", "GFLOP/s", "higher"),
            ("twostage.apply_q2_flops_per_n2m", "count", "lower"),
            ("twostage.apply_q2_par_eff", "ratio", "higher"),
            ("twostage.apply_q1_s", "s", "lower"),
            ("twostage.apply_q1_gflops", "GFLOP/s", "higher"),
            ("twostage.sy2sb_s", "s", "lower"),
            ("twostage.sy2sb_gflops", "GFLOP/s", "higher"),
            ("twostage.sy2sb_par_eff", "ratio", "higher"),
            ("twostage.sb2st_s", "s", "lower"),
            ("twostage.sb2st_par_eff", "ratio", "higher"),
            ("onestage.sytrd_s", "s", "lower"),
            ("onestage.sytrd_gflops", "GFLOP/s", "higher"),
            ("onestage.ormtr_s", "s", "lower"),
            ("onestage.ormtr_gflops", "GFLOP/s", "higher"),
            ("tridiag.stedc_s", "s", "lower"),
            ("tridiag.stedc_par_eff", "ratio", "higher"),
            ("tridiag.stedc_deflated_frac", "ratio", "higher"),
            ("tridiag.stebz_s", "s", "lower"),
            ("tridiag.stein_s", "s", "lower"),
            ("lapack.sterf_s", "s", "lower"),
            ("blas.gemm_sq_gflops", "GFLOP/s", "higher"),
            ("blas.gemm_k32_gflops", "GFLOP/s", "higher"),
            ("blas.symv_gflops", "GFLOP/s", "higher"),
            ("runtime.threads_created", "count", "lower"),
            ("runtime.jobs_per_request", "count", "lower"),
            ("runtime.parks_per_request", "count", "lower"),
            ("solver.batch_occupancy", "ratio", "higher"),
            ("solver.batch_wait_s_p50", "s", "lower"),
            ("solver.batch_wait_s_p99", "s", "lower"),
            ("solver.batch_partitioned_s", "s", "lower"),
            ("solver.overhead_frac", "ratio", "lower"),
            ("solver.speedup_vs_onestage", "ratio", "higher"),
            ("solver.max_scaled_residual", "ratio", "lower"),
            ("solver.max_scaled_orth", "ratio", "lower"),
            ("obs.metrics_overhead_frac", "ratio", "lower"),
        ]
    ],
}


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the program; returns True on success."""
    steps = []
    # A configure that failed part-way leaves a cache but no build files.
    if not any(os.path.exists(os.path.join(BUILD_DIR, f))
               for f in ("build.ninja", "Makefile")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release", *gen])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", "4"])
    for cmd in steps:
        try:
            r = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                               stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"build step failed: {e}")
            return False
        if r.returncode != 0:
            log(f"build step exited {r.returncode}: {' '.join(cmd)}")
            return False
    return True


def git_describe():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        r = subprocess.run(["git", "describe", "--always", "--dirty", "--tags"],
                           cwd=ROOT, env=env, capture_output=True, text=True,
                           timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    out = r.stdout.strip()
    return out if r.returncode == 0 and out else "unknown"


def run_program(args):
    """Runs the tsbench program; returns (exit code, stdout lines)."""
    try:
        r = subprocess.run([BINARY, *args], cwd=ROOT, capture_output=True,
                           text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"tsbench exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 1, []
    except OSError as e:
        log(f"cannot run tsbench: {e}")
        return 1, []
    sys.stderr.write(r.stderr)
    return r.returncode, r.stdout.splitlines()


def setup_probe(workload, seed):
    """Set-up time of one fresh tsbench process, or None on failure."""
    rc, lines = run_program(["--workload", workload, "--seed", str(seed),
                             "--setup-only"])
    if rc != 0 or not lines:
        log(f"set-up probe exited {rc}")
        return None
    try:
        return float(lines[-1].split()[1])
    except (IndexError, ValueError):
        log(f"set-up probe printed {lines[-1]!r}")
        return None


def validate(line, trace):
    """Returns an error string, or None when the result line is well formed."""
    try:
        res = json.loads(line)
    except ValueError as e:
        return f"last line is not JSON: {e}"
    if not isinstance(res, dict) or set(res) != {"correct", "attempted",
                                                 "failed", "metrics"}:
        return "result keys differ from correct/attempted/failed/metrics"
    if not isinstance(res["correct"], bool):
        return "correct is not a boolean"
    for key in ("attempted", "failed"):
        if not isinstance(res[key], int) or isinstance(res[key], bool):
            return f"{key} is not a whole number"
    if res["attempted"] < 1:
        return "no request was attempted"
    spec = SPEC["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in spec}
    got = res["metrics"]
    if not isinstance(got, dict) or set(got) != set(want):
        return f"metric names differ: {sorted(set(got) ^ set(want))}"
    for name, unit in want.items():
        m = got[name]
        if not isinstance(m, dict) or set(m) != {"value", "unit"}:
            return f"metric {name} is malformed"
        if m["unit"] != unit:
            return f"metric {name} has unit {m['unit']}, expected {unit}"
        v = m["value"]
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            return f"metric {name} is not a finite number"
    return None


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=[w["name"] for w in SPEC["workloads"]])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--write-benchmark-json", action="store_true",
                   help="write BENCHMARK.json at the checkout root and exit")
    a = p.parse_args()

    if a.write_benchmark_json:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as f:
            json.dump(SPEC, f, indent=2)
            f.write("\n")
        return 0
    if a.workload is None:
        p.error("--workload is required")
    if a.seed < 0 or a.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")

    if not build():
        return 1
    rc, lines = run_program(["--selftest"])
    sys.stderr.write("\n".join(lines) + "\n")
    if rc != 0:
        log("tsbench self-test failed")
        return 1

    probes = []
    if a.trace == 0:
        for _ in range(SETUP_PROBES):
            probes.append(setup_probe(a.workload, a.seed))
            if probes[-1] is None:
                return 1

    os.makedirs(OUT_DIR, exist_ok=True)
    rc, lines = run_program(["--workload", a.workload, "--seed", str(a.seed),
                            "--seconds", str(a.seconds), "--trace",
                            str(a.trace), "--git", git_describe(),
                            "--out-dir", OUT_DIR])
    if rc != 0 or not lines:
        log(f"tsbench exited {rc}")
        sys.stderr.write("\n".join(lines) + "\n")
        return rc or 1
    print("\n".join(lines[:-1]), flush=True)
    err = validate(lines[-1], a.trace)
    if err:
        log(f"invalid result: {err}")
        return 1
    res = json.loads(lines[-1])
    if probes:
        setups = probes + [res["metrics"]["setup_s"]["value"]]
        res["metrics"]["setup_s"]["value"] = statistics.median(setups)
        print(f"setup_s {statistics.median(setups):.6f} s (median of "
              f"{len(setups)} fresh processes: "
              f"{' '.join(f'{x:.6f}' for x in setups)})", flush=True)
    print(json.dumps(res), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
