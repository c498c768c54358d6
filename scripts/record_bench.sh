#!/usr/bin/env bash
# Append one perfbench result to the benchmark trajectory in the repo root.
#
#   scripts/record_bench.sh RESULT_JSON [--commit ID] [--label TEXT]
#
# RESULT_JSON is a results file that perfbench/run.py wrote, named
# .bench_results/<workload>-seed<N>-trace<T>.json. It is copied to
# BENCH_<seq>_<workload>.json, where <seq> (three digits) is one more than
# the highest sequence number already recorded, with two fields added:
#
#   "commit"  the commit the measured sources belong to: --commit, else the
#             repo's HEAD, suffixed "-dirty" when src/, perfbench/ or the
#             root CMakeLists.txt differ from HEAD
#   "label"   free text, e.g. "parent" / "change" for a before/after pair
#
# The file keeps everything else the harness wrote (host and build
# fingerprint, seed, end-to-end and per-layer metrics), so points are
# compared only with points of the same host and build.
set -euo pipefail
ROOT="$(cd "$(dirname "$0")/.." && pwd)"

usage() {
  sed -n '2,4p' "$0" >&2
  exit 2
}

[[ $# -ge 1 ]] || usage
RESULT="$1"
shift
COMMIT=""
LABEL=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --commit) [[ $# -ge 2 ]] || usage; COMMIT="$2"; shift 2 ;;
    --label) [[ $# -ge 2 ]] || usage; LABEL="$2"; shift 2 ;;
    *) usage ;;
  esac
done
[[ -f "$RESULT" ]] || { echo "record_bench: no such file: $RESULT" >&2; exit 2; }

if [[ -z "$COMMIT" ]]; then
  COMMIT="$(git -C "$ROOT" rev-parse HEAD)"
  if [[ -n "$(git -C "$ROOT" status --porcelain -- src perfbench CMakeLists.txt)" ]]; then
    COMMIT="${COMMIT}-dirty"
  fi
fi

python3 - "$ROOT" "$RESULT" "$COMMIT" "$LABEL" <<'EOF'
import glob
import json
import os
import re
import sys

root, result_path, commit, label = sys.argv[1:]
with open(result_path) as f:
    record = json.load(f)
for key in ("workload", "seed", "host", "result"):
    if key not in record:
        sys.exit(f"record_bench: {result_path} has no '{key}'; "
                 "not a perfbench results file")
seqs = [int(m.group(1)) for path in glob.glob(os.path.join(root, "BENCH_*.json"))
        if (m := re.match(r"BENCH_(\d+)_", os.path.basename(path)))]
seq = max(seqs, default=0) + 1
record["commit"] = commit
record["label"] = label
out = os.path.join(root, f"BENCH_{seq:03d}_{record['workload']}.json")
with open(out, "x") as f:
    json.dump(record, f, indent=1, sort_keys=True)
    f.write("\n")
print(out)
EOF
