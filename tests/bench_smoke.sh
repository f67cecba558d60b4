#!/usr/bin/env bash
# The benchmark's smoke checks, as CI's bench-smoke job runs them: one short
# run of each workload, whose correctness anchors must hold, then one traced
# run of each, whose spans must all be installed. Run it from anywhere:
#   bash tests/bench_smoke.sh
# It runs perfbench/run.py from the repository root, which caches its corpora
# under .perfbench_data/ there; the first run of a seed generates them.
set -eu -o pipefail
cd "$(dirname "$0")/.."

# the result must be correct, and search and rate must have checked
# their anchors against perfbench/reference.json: a corpus whose key
# no longer matches it would fall back to the looser recomputation.
# search and rate run on a second seed too, so that a kernel change
# which moves the best core is checked on two corpora
for run in ingest:1 search:1 rate:1 search:7 rate:7; do
  workload=${run%:*} seed=${run#*:}
  tail=$(python3 perfbench/run.py --workload "$workload" --seed "$seed" --seconds 1 \
           --trace 0 | tail -n 2)
  python3 -c 'import json, sys
info, last = sys.argv[2].splitlines()
r = json.loads(last)
anchors = json.loads(info.removeprefix("info "))["anchors"] or {}
print(sys.argv[1], "seed", sys.argv[3], "correct:", r["correct"],
      "failed:", r["failed"], "reference:", anchors.get("reference"))
sys.exit(r["correct"] is not True or r["failed"] != 0
         or (sys.argv[1] != "ingest" and anchors.get("reference") is not True))' \
    "$workload" "$tail" "$seed"
done

# the tracer wraps cadict's functions by name (TARGETS in perfbench/work.py);
# a target renamed or moved is listed in the info line's `absent`, and its
# per-layer metrics would otherwise read 0 without an error
for workload in ingest search rate; do
  info=$(python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 1 \
           --trace 1 | grep '^info ')
  python3 -c 'import json, sys
absent = json.loads(sys.argv[2].removeprefix("info "))["absent"]
print(sys.argv[1], "absent:", absent)
sys.exit(absent != [])' "$workload" "$info"
done
echo "bench smoke: ok"
