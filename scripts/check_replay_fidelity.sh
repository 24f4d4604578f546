#!/bin/sh
# Replay-fidelity gate for the benchmark's per-layer numbers.  A traced
# tsbench run (--trace 1) replays each request layer by layer through the
# public functions solver::syev calls, in the same order and with the same
# options, and checks the replayed eigenpairs against syev's own.  run.py
# exits 0 even when the two differ, so this script reads the result line:
# every workload must report "correct": true and "failed": 0.  A failure
# means the driver and the replay's copy of it have drifted apart.
#
# Usage: scripts/check_replay_fidelity.sh   (about 10 s per workload; the
# first run also builds .bench_build/tsbench)
set -eu
cd "$(dirname "$0")/.."
status=0
for w in evd_full trd_values kpoint_batch; do
  if ! out=$(python3 tsbench/run.py --workload "$w" --seed 1 --seconds 1 \
               --trace 1); then
    echo "FAIL $w: tsbench/run.py exited non-zero"
    status=1
    continue
  fi
  if ! printf '%s\n' "$out" | tail -n 1 | python3 -c '
import json, sys
r = json.loads(sys.stdin.read())
ok = r["correct"] is True and r["failed"] == 0
print("ok  " if ok else "FAIL", sys.argv[1] + ":", "correct", r["correct"],
      "failed", r["failed"], "of", r["attempted"])
sys.exit(0 if ok else 1)' "$w"; then
    status=1
  fi
done
exit $status
