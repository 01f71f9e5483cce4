#!/usr/bin/env bash
# End-to-end Graphalytics matrix benchmark: builds gly_bench, then runs it.
#
#   benchmark/run.sh [--seed N] [--out DIR]
#       Every workload in BENCHMARK.json, end-to-end (--trace 0) and then
#       per-layer (--trace 1). Prints every metric with its unit; exits 1
#       if any cell failed.
#   benchmark/run.sh --workload NAME [--seed N] [--trace 0|1]
#       One run. The last line on stdout is the JSON result. Each run
#       measures for BENCHMARK.json's run_seconds; a --seconds argument
#       must name that value.
#   benchmark/run.sh --smoke
#       Every workload at tiny scale, one pass each (a few seconds).
#
# Works from any directory. The build goes to .bench_build/ and inputs,
# scratch space and results to .bench_work/, both at the checkout root.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build=.bench_build
workdir=.bench_work
# The compiler's and the platforms' scratch files stay in the checkout too.
export TMPDIR="$root/$workdir/tmp"
mkdir -p "$TMPDIR"

# Build output goes to stderr: stdout carries results only.
cmake -S benchmark -B "$build" -DCMAKE_BUILD_TYPE=RelWithDebInfo >&2
cmake --build "$build" --target gly_bench -j "$(nproc)" >&2
bench="$build/gly_bench"

workload=""
seed=1
out="$workdir/results"
smoke=0
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
  case "${args[i]}" in
    --workload) workload="${args[i + 1]:-}" ;;
    --seed) seed="${args[i + 1]:-}" ;;
    --out) out="${args[i + 1]:-}" ;;
    --smoke) smoke=1 ;;
  esac
done

if ((smoke)); then
  exec "$bench" --workdir "$workdir" "$@"
fi

# One run of one workload. The inputs are made first, in a process of their
# own, so that neither their generation time nor its memory is measured.
run_one() {
  local name="$1"
  shift
  "$bench" --workdir "$workdir" --gen-only "$@" >&2
  local status=0
  local result
  result="$("$bench" --workdir "$workdir" "$@")" || status=$?
  local trace_file="$out/$name-seed$seed-trace.json"
  if [[ $status -ne 2 && -f scripts/validate_trace.py ]]; then
    python3 scripts/validate_trace.py "$trace_file" >&2 || status=1
  fi
  printf '%s\n' "$result"
  return "$status"
}

if [[ -n "$workload" ]]; then
  run_one "$workload" "$@"
  exit
fi

status=0
names="$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')"
for name in $names; do
  for trace in 0 1; do
    run_one "$name" "$@" --workload "$name" --trace "$trace" || status=1
  done
done
exit "$status"
