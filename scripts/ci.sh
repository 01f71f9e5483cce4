#!/usr/bin/env bash
# CI entry point. Six stages:
#
#   1. tier-1      — plain build, full test suite (the gate every PR must
#                    hold). The `chaos` label is split out into stage 6 so
#                    its wall-clock cost is attributed to the chaos stage.
#                    Then a longest-function guard: code_quality_report's
#                    maxfn column must stay at or below 150 code lines in
#                    every module row, and all 11 modules of src/ must be
#                    listed, so Engine::Run stays split into its superstep
#                    phases, RunBenchmark into its open, load, cell and
#                    close phases, and mapreduce::Job::Run into its map,
#                    shuffle+reduce and cleanup phases.
#   2. asan        — GLY_SANITIZE=address build running the `ingest`,
#                    `robustness`, `conformance`, and `hotpath` CTest
#                    labels: the one text parser that reads every
#                    untrusted edge file, the one JSON reader
#                    (common/json) that reads every journal, metrics,
#                    trace and profile artifact (json_test's RFC 8259
#                    cases, and robustness_test's seeded byte mutations of
#                    the committed samples and 10^6-deep documents through
#                    all four decoders), fault-injection,
#                    checkpoint/recovery, WAL/resume,
#                    cancellation, the graph store (graphdb_test's page
#                    cache, WAL torn-tail and recovery cases), the
#                    MapReduce job engine (mapreduce_test's spill, combine
#                    and k-way merge cases), the cross-engine
#                    kernel-conformance suites, and the golden hot-path
#                    pins (recycled arenas, pooled partitions, striped
#                    page cache, page cursors and their failure/
#                    cancellation paths, and the 1- and 3-worker
#                    MapReduce chains) — the paths most valuable to run
#                    under a sanitizer.
#   3. tsan        — GLY_SANITIZE=thread build running the `ingest`,
#                    `observability`, `robustness`, `scheduler`, and
#                    `hotpath` CTest labels: the ETL pipeline (chunked
#                    parsing, pooled CSR build, reordering), the
#                    tracer/metrics-registry concurrency stress tests, the
#                    SIGPROF sampling-profiler stress (signal handler vs
#                    ring drain vs worker threads, via profiler_test's
#                    observability label), the cancellation/
#                    watchdog/grace-join paths (harness watchdog vs attempt
#                    thread, token polls from every engine), the
#                    artifact readers (json_test and the byte-mutation
#                    sweep ride the robustness label), the graph store
#                    and the MapReduce job engine (graphdb_test and
#                    mapreduce_test, also on the robustness label), the
#                    concurrent cell scheduler (jobs=1 vs jobs=4
#                    differential run, admission control, shared journal
#                    writer), and the golden hot-path pins (one Pregel
#                    compute task per worker on up to 8 threads, the
#                    8-thread page-cache hammer, 8 threads walking chains
#                    through page cursors) under the race detector, where
#                    their bugs would actually show.
#   4. observability — `ctest -L observability` in the tier-1 build (the
#                    golden-trace, metrics round-trip, monitor, profiler,
#                    and 4-engine trace-artifact suites), then cross-checks
#                    the committed sample artifacts (tests/data/
#                    sample_trace.json, sample_metrics.jsonl,
#                    sample_profile.json, sample_profile.folded) against
#                    the documented schemas with scripts/validate_trace.py
#                    — the Python validator and the C++ exporter agreeing
#                    on the same bytes is the cross-implementation schema
#                    test — runs the bench_compare.py unit tests, and
#                    finishes with a profiler smoke: a real
#                    `graphalytics_run --profile` of BFS+PR on an rmat-12
#                    graph across all four engines whose trace.json,
#                    per-cell profile-*.json, profile.folded, and
#                    trace_analyze / results_query outputs must all
#                    validate, and whose results.jsonl results_query
#                    must read back with --summary and --failures.
#   5. bench-smoke — fig4_runtimes kernel duel, the ext_etl_times
#                    parse/build duel, and the engines_hotpath engine-level
#                    bench (pooled hot paths, scale ${ENGINE_BENCH_SCALE}),
#                    each gated by scripts/bench_compare.py against its
#                    committed baseline (BENCH_kernels.json / BENCH_etl.json
#                    / BENCH_engines.json; >10% median regression fails; see
#                    DESIGN.md §8). BENCH_THRESHOLD
#                    overrides the gate for noisy boxes; regenerate a
#                    baseline with the same bench invocation after
#                    intentional perf changes. The ETL duel pins
#                    --threads ${ETL_THREADS} so the baseline's thread count
#                    matches across boxes (bench_compare skips, rather than
#                    gates, thread-mismatched pairs).
#   6. chaos       — crash-restart chaos driver (`ctest -L chaos`):
#                    SIGKILLs a real graphalytics_run child mid-matrix ten
#                    times and asserts --resume completes a validated,
#                    journal-consistent matrix (no lost or duplicated
#                    cells), both serially and with the concurrent cell
#                    scheduler (--jobs 4, kills landing while several cells
#                    share the journal writer). See tools/chaos_runner.cc.
#
# Build directories are separate from the developer's `build/` so a CI run
# never clobbers an interactive configuration. Override with TIER1_DIR /
# ASAN_DIR / TSAN_DIR; JOBS controls parallelism (default: nproc).
set -euo pipefail

cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"
TIER1_DIR="${TIER1_DIR:-build-ci}"
ASAN_DIR="${ASAN_DIR:-build-ci-asan}"
TSAN_DIR="${TSAN_DIR:-build-ci-tsan}"
BENCH_SCALE="${BENCH_SCALE:-12}"
BENCH_REPEATS="${BENCH_REPEATS:-3}"
ENGINE_BENCH_SCALE="${ENGINE_BENCH_SCALE:-14}"
ETL_THREADS="${ETL_THREADS:-4}"

echo "==> [1/6] tier-1: configure + build (${TIER1_DIR})"
cmake -B "${TIER1_DIR}" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "${TIER1_DIR}" -j "${JOBS}"

echo "==> [1/6] tier-1: full test suite (chaos split into stage 6)"
ctest --test-dir "${TIER1_DIR}" --output-on-failure -j "${JOBS}" -LE chaos

echo "==> [1/6] tier-1: longest function (every module's maxfn <= 150)"
"${TIER1_DIR}/tools/code_quality_report" src | awk '
  NF == 8 && $2 ~ /^[0-9]+$/ && $1 != "TOTAL" {
    print; ++modules; if ($7 > 150) bad = 1
  }
  END {
    if (modules < 11 || bad) {
      print "all 11 modules must be listed, each with maxfn <= 150"; exit 1
    }
  }'

echo "==> [2/6] asan: configure + build (${ASAN_DIR}, GLY_SANITIZE=address)"
cmake -B "${ASAN_DIR}" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DGLY_SANITIZE=address
cmake --build "${ASAN_DIR}" -j "${JOBS}"

echo "==> [2/6] asan: ingest + robustness + conformance + golden hot-path pins"
ctest --test-dir "${ASAN_DIR}" --output-on-failure -j "${JOBS}" \
      -L 'ingest|robustness|conformance|hotpath'

echo "==> [3/6] tsan: configure + build (${TSAN_DIR}, GLY_SANITIZE=thread)"
cmake -B "${TSAN_DIR}" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DGLY_SANITIZE=thread
cmake --build "${TSAN_DIR}" -j "${JOBS}"

echo "==> [3/6] tsan: ingest + observability + robustness + scheduler + golden hot-path pins (race detector)"
ctest --test-dir "${TSAN_DIR}" --output-on-failure -j "${JOBS}" \
      -L 'ingest|observability|robustness|scheduler|hotpath'

echo "==> [4/6] observability: golden-trace suite + committed sample schemas"
ctest --test-dir "${TIER1_DIR}" --output-on-failure -j "${JOBS}" \
      -L observability
python3 scripts/validate_trace.py tests/data/sample_trace.json \
    tests/data/sample_metrics.jsonl tests/data/sample_profile.json \
    tests/data/sample_profile.folded
python3 scripts/bench_compare_test.py

echo "==> [4/6] observability: --profile smoke (BFS+PR, rmat-12, 4 engines)"
PROFILE_DIR="${TIER1_DIR}/profile-smoke"
rm -rf "${PROFILE_DIR}"
mkdir -p "${PROFILE_DIR}"
cat > "${PROFILE_DIR}/benchmark.properties" <<PROPS
graphs = g500
graph.g500.source = rmat
graph.g500.scale = 12
graph.g500.edge_factor = 16
platforms = giraph, graphx, mapreduce, neo4j
algorithms = bfs, pr
report.dir = ${PROFILE_DIR}/report
validate = true
monitor = false
PROPS
"${TIER1_DIR}/tools/graphalytics_run" --profile full \
    "${PROFILE_DIR}/benchmark.properties" > "${PROFILE_DIR}/report.txt"
# Every artifact the profiled run wrote must pass the schema validator:
# the run-wide trace + profile, and all eight per-cell pairs.
python3 scripts/validate_trace.py \
    "${PROFILE_DIR}"/report/trace/trace.json \
    "${PROFILE_DIR}"/report/trace/profile.json \
    "${PROFILE_DIR}"/report/trace/profile.folded \
    "${PROFILE_DIR}"/report/trace/trace-*.json \
    "${PROFILE_DIR}"/report/trace/profile-*.json \
    "${PROFILE_DIR}"/report/trace/metrics.jsonl
# ... and the offline analytics tools must read them back.
"${TIER1_DIR}/tools/trace_analyze" \
    "${PROFILE_DIR}/report/trace/trace.json" \
    --out "${PROFILE_DIR}/profile-offline.json"
python3 scripts/validate_trace.py "${PROFILE_DIR}/profile-offline.json"
"${TIER1_DIR}/tools/results_query" --top-phases \
    "${PROFILE_DIR}/report/trace/profile.json" --top 5
"${TIER1_DIR}/tools/results_query" --critical-path \
    "${PROFILE_DIR}/report/trace/profile.json"
"${TIER1_DIR}/tools/results_query" "${PROFILE_DIR}/report/results.jsonl" \
    --summary
"${TIER1_DIR}/tools/results_query" "${PROFILE_DIR}/report/results.jsonl" \
    --failures

echo "==> [5/6] bench-smoke: kernel duel at scale ${BENCH_SCALE} vs baseline"
"${TIER1_DIR}/bench/fig4_runtimes" --kernels-only \
    --kernel-scale "${BENCH_SCALE}" --repeats "${BENCH_REPEATS}" \
    --json "${TIER1_DIR}/bench_kernels_current.json"
python3 scripts/bench_compare.py BENCH_kernels.json \
    "${TIER1_DIR}/bench_kernels_current.json"

echo "==> [5/6] bench-smoke: ETL duel at scale ${BENCH_SCALE}, ${ETL_THREADS} threads"
"${TIER1_DIR}/bench/ext_etl_times" --kernels-only \
    --kernel-scale "${BENCH_SCALE}" --repeats "${BENCH_REPEATS}" \
    --threads "${ETL_THREADS}" \
    --json "${TIER1_DIR}/bench_etl_current.json"
python3 scripts/bench_compare.py BENCH_etl.json \
    "${TIER1_DIR}/bench_etl_current.json"

echo "==> [5/6] bench-smoke: engine hot paths at scale ${ENGINE_BENCH_SCALE}"
"${TIER1_DIR}/bench/engines_hotpath" \
    --kernel-scale "${ENGINE_BENCH_SCALE}" --repeats "${BENCH_REPEATS}" \
    --json "${TIER1_DIR}/bench_engines_current.json"
python3 scripts/bench_compare.py BENCH_engines.json \
    "${TIER1_DIR}/bench_engines_current.json"

echo "==> [6/6] chaos: SIGKILL/resume crash-restart driver"
ctest --test-dir "${TIER1_DIR}" --output-on-failure -L chaos

echo "==> ci passed"
