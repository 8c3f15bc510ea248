#!/usr/bin/env bash
# Runs the engine microbenchmarks and emits a machine-readable JSON report
# (google-benchmark's JSON format: a `context` block plus one entry per
# benchmark with real_time/cpu_time in ns and the items_per_second rate).
#
# Usage:
#   bench/run_bench.sh [out.json]
#
# Environment:
#   BUILD_DIR        build tree containing bench_engine   (default: build)
#   BENCH_FILTER     --benchmark_filter regex             (default: engine +
#                    sweep benchmarks, the perf-gate set, plus the topology
#                    build: BM_GenerateRegular and BM_FromEdges)
#   BENCH_MIN_TIME   --benchmark_min_time value; newer google-benchmark
#                    releases (>= 1.8) want a unit suffix like "0.2s"
#                    (default: 0.2)
#   BENCH_ALLOW_UNOPTIMIZED=1  skip the Release-build check (for debugging
#                    the harness only -- never record a baseline this way)
#   OMP_NUM_THREADS  pin intra-run OpenMP threads; the checked-in baselines
#                    are recorded with OMP_NUM_THREADS=1
#
# The checked-in BENCH_<PR>.json files at the repo root are snapshots of
# this script's output, one per PR that moved engine performance, so the
# perf trajectory is diffable across PRs.
#
# Build-type enforcement: numbers from a non-Release build are a useless
# baseline (BENCH_2.json's context shows how easy it is to misread: its
# `library_build_type: "debug"` describes the INSTALLED google-benchmark
# library, not our binary).  This script therefore (a) refuses to run
# unless BUILD_DIR was configured with CMAKE_BUILD_TYPE=Release, and (b)
# stamps the verified build type into the JSON context as
# `saer_build_type`, which is the field CI and reviewers should assert on.
set -euo pipefail

BUILD_DIR="${BUILD_DIR:-build}"
OUT="${1:-BENCH.json}"
FILTER="${BENCH_FILTER:-BM_SaerRun/|BM_SaerRunWorkspace|BM_SaerRunLargeN|BM_SaerRunImplicit|BM_ImplicitNeighbors|BM_ImplicitSelect|BM_SaerRunNoAssignment|BM_SaerThresholdBoundary|BM_SaerSparseRounds|BM_RaesRun|BM_SweepScheduler|BM_GenerateRegular|BM_FromEdges}"
MIN_TIME="${BENCH_MIN_TIME:-0.2}"

BENCH="$BUILD_DIR/bench_engine"
if [[ ! -x "$BENCH" ]]; then
  echo "run_bench.sh: $BENCH not found or not executable." >&2
  echo "Build it first (needs google-benchmark):" >&2
  echo "  cmake -B $BUILD_DIR -S . -DCMAKE_BUILD_TYPE=Release && cmake --build $BUILD_DIR --target bench_engine" >&2
  exit 1
fi

CACHE="$BUILD_DIR/CMakeCache.txt"
BUILD_TYPE="unknown"
if [[ -f "$CACHE" ]]; then
  BUILD_TYPE="$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' "$CACHE" | head -n1)"
  BUILD_TYPE="${BUILD_TYPE:-unset}"
fi
if [[ "$BUILD_TYPE" != "Release" && "${BENCH_ALLOW_UNOPTIMIZED:-0}" != "1" ]]; then
  echo "run_bench.sh: refusing to benchmark a non-Release build" >&2
  echo "  $CACHE says CMAKE_BUILD_TYPE=$BUILD_TYPE" >&2
  echo "Reconfigure with -DCMAKE_BUILD_TYPE=Release, or set" >&2
  echo "BENCH_ALLOW_UNOPTIMIZED=1 to override (never for baselines)." >&2
  exit 1
fi

# Thread context: BM_SaerRunLargeN carries a thread axis (each row calls
# set_thread_count itself), but every other benchmark inherits the ambient
# budget -- stamp it so a baseline recorded on a throttled/pinned box can
# never be misread as one core-for-core comparable to another machine.
OMP_THREADS="${OMP_NUM_THREADS:-unset}"
HW_THREADS="$(nproc 2>/dev/null || echo unknown)"

# Peak RSS: --benchmark_context values are stamped before the run starts,
# but peak RSS is only known after it ends, so the bench process runs under
# GNU time and the measured maximum is injected into the JSON context
# afterwards.  max_rss_kib covers the whole bench invocation (the high-water
# mark across all benchmarks in the filter), which is what the BENCH_*
# snapshots need to track the memory trajectory: the stored 2^22 adjacency
# dominates it today, and the implicit axis is what keeps it flat as n grows.
BENCH_CMD=("$BENCH"
  --benchmark_filter="$FILTER"
  --benchmark_min_time="$MIN_TIME"
  --benchmark_context=saer_build_type="$BUILD_TYPE"
  --benchmark_context=saer_omp_num_threads="$OMP_THREADS"
  --benchmark_context=saer_hardware_threads="$HW_THREADS"
  --benchmark_out="$OUT"
  --benchmark_out_format=json)

TIME_BIN="/usr/bin/time"
TIME_LOG="$(mktemp)"
trap 'rm -f "$TIME_LOG"' EXIT

if [[ -x "$TIME_BIN" ]]; then
  "$TIME_BIN" -v -o "$TIME_LOG" "${BENCH_CMD[@]}"
  MAX_RSS_KIB="$(sed -n 's/.*Maximum resident set size (kbytes): //p' "$TIME_LOG" | head -n1)"
elif command -v python3 >/dev/null 2>&1; then
  # ru_maxrss from getrusage(RUSAGE_CHILDREN) is in KiB on Linux -- the
  # same unit GNU time reports as "kbytes".
  python3 - "$TIME_LOG" "${BENCH_CMD[@]}" <<'PY'
import resource, subprocess, sys
log, cmd = sys.argv[1], sys.argv[2:]
rc = subprocess.call(cmd)
with open(log, "w") as f:
    f.write(str(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) + "\n")
sys.exit(rc)
PY
  MAX_RSS_KIB="$(head -n1 "$TIME_LOG")"
else
  echo "run_bench.sh: neither $TIME_BIN nor python3 found; max_rss_kib unmeasured" >&2
  "${BENCH_CMD[@]}"
  MAX_RSS_KIB=""
fi

# google-benchmark's JSON opens with `{\n  "context": {`, so inserting the
# field right after that line keeps it inside context without a JSON parser.
if [[ -n "$MAX_RSS_KIB" ]]; then
  sed -i "0,/\"context\": {/s//\"context\": {\n    \"max_rss_kib\": $MAX_RSS_KIB,/" "$OUT"
fi
echo "wrote $OUT (saer_build_type=$BUILD_TYPE omp_num_threads=$OMP_THREADS hw_threads=$HW_THREADS max_rss_kib=${MAX_RSS_KIB:-unmeasured})"
