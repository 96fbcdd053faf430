#!/usr/bin/env bash
# Repo check: invariant linter, tier-1 test suite, every example script,
# then the repo benchmark at smoke size (all five workloads through public
# APIs, with its correctness checks every round).  Each stage passes or
# fails on what the code computes — lint findings, test assertions, an
# example's non-zero exit, failed benchmark operations — never on how
# long anything took: durations are read from `python -m bench.run` and
# the BENCH_*.json trajectory, not asserted here.  The linter runs first:
# it is the cheapest check and its findings (mutated Function inputs,
# unguarded id() keys, scatter loops in hot paths) usually explain
# downstream test failures.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

summary=""
stage() { # stage <name> <command...>: run it and note its wall seconds
    local name=$1 start=$SECONDS
    shift
    "$@"
    summary+=$(printf '  %-12s %4d s' "$name" $((SECONDS - start)))$'\n'
}

examples() { # every user-facing script runs to a zero exit
    local example
    for example in examples/*.py; do
        echo "examples: $example"
        python "$example" >/dev/null
    done
}

stage lint python -m repro.analysis.lint src/
stage tests python -m pytest -x -q
stage examples examples
stage "bench smoke" python -m bench.run --scale smoke
printf 'check: OK\n%s' "$summary"
