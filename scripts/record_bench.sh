#!/usr/bin/env bash
# Append to the benchmark trajectory: one full `python -m bench.run
# --seed 0` of the checked-out commit, saved as BENCH_<pr>.json with the
# PR number and the commit it ran on.  Refuses to run when tracked files
# have uncommitted changes, so every entry names the code it measured.
set -euo pipefail
cd "$(dirname "$0")/.."
pr=${1:?usage: scripts/record_bench.sh <pr-number>}
if [ -n "$(git status --porcelain --untracked-files=no)" ]; then
    echo "record_bench.sh: tracked files have uncommitted changes; commit first" >&2
    git status --short --untracked-files=no >&2
    exit 1
fi
python -m bench.run --seed 0
python - "$pr" "$(git describe --always --dirty --abbrev=12)" <<'EOF'
import json, sys
record = {"pr": int(sys.argv[1]), "commit": sys.argv[2], **json.load(open("bench/out/results.json"))}
json.dump(record, open(f"BENCH_{sys.argv[1]}.json", "w"), indent=1)
EOF
