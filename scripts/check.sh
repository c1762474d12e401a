#!/usr/bin/env bash
# Tier-1 verify wrapper — the same entry point CI uses, so a local run
# reproduces any CI job's commands exactly.
#
#   scripts/check.sh [Debug|Release] [extra cmake args...]
#       configure, build (benches included, so bench bitrot is caught at
#       compile time), ctest.
#
#   scripts/check.sh --sanitize=thread
#   scripts/check.sh --sanitize=address,undefined
#       sanitizer build via -DPPR_SANITIZE. thread runs the concurrency
#       suites twice (default parallelism and PPR_THREADS=1) — TSAN
#       slows the numeric sweeps ~10x for no added coverage; the other
#       sanitizers run the full suite.
#
#   scripts/check.sh --analyze
#       Clang -Wthread-safety as errors via -DPPR_ANALYZE (needs
#       clang++; set CXX to pick one).
#
#   scripts/check.sh --tidy
#       clang-tidy with the repo .clang-tidy (scripts/run_tidy.sh) plus
#       the raw-mutex confinement check.

set -euo pipefail
cd "$(dirname "$0")/.."

MODE=build
BUILD_TYPE=Release
SANITIZE=""
ARGS=()
for arg in "$@"; do
  case "${arg}" in
    Debug|Release) BUILD_TYPE="${arg}" ;;
    --tidy) MODE=tidy ;;
    --analyze) MODE=analyze ;;
    --sanitize=*) MODE=sanitize; SANITIZE="${arg#--sanitize=}" ;;
    *) ARGS+=("${arg}") ;;
  esac
done

# The concurrency surface TSAN covers: worker pool, ParallelFor kernels,
# the PprServer queue/context-checkout path, the updates-under-load
# suite (PprServerDynamicTest matches PprServer*), which races
# ApplyUpdates' exclusive epoch barrier against concurrent queries, the
# chaos suites (PprServerChaosTest / PprServerQueueTest), which race
# cancellation, deadlines, injected faults and bounded-drain shutdown
# against all of the above, the dynamic resize conformance suite
# (DynamicResizeTest), whose node add/remove batches grow and shrink
# tracker and walk-index dimensions under the same epoch machinery, and
# the eval batch drivers (BatchSolveTest / BatchPowerPushTest /
# BatchSpeedPprTest), whose BatchSolve fans queries out with
# ParallelFor, one context per chunk. DynamicConcurrentReadTest calls
# Solve on one dynamic solver from several threads: cold tracker builds
# outside the solver lock, racing first reads of one source, and warm
# copies of maintained estimates.
TSAN_FILTER='WorkerPool*:ThreadBudget*:PprServer*:ParallelFor*:Batch*:DynamicResize*:DynamicConcurrent*'

case "${MODE}" in
  tidy)
    exec scripts/run_tidy.sh "${ARGS[@]+"${ARGS[@]}"}"
    ;;

  analyze)
    export CXX="${CXX:-clang++}"
    BUILD_DIR=build-analyze
    cmake -B "${BUILD_DIR}" -S . \
      -DCMAKE_BUILD_TYPE=Debug \
      -DPPR_ANALYZE=ON \
      -DPPR_BUILD_BENCH=ON \
      "${ARGS[@]+"${ARGS[@]}"}"
    # The analysis runs at compile time; a clean build is the pass.
    cmake --build "${BUILD_DIR}" -j "$(nproc)"
    ;;

  sanitize)
    BUILD_DIR="build-san-${SANITIZE//,/-}"
    cmake -B "${BUILD_DIR}" -S . \
      -DCMAKE_BUILD_TYPE=Debug \
      -DPPR_SANITIZE="${SANITIZE}" \
      "${ARGS[@]+"${ARGS[@]}"}"
    cmake --build "${BUILD_DIR}" -j "$(nproc)"
    if [ "${SANITIZE}" = thread ]; then
      "${BUILD_DIR}/ppr_tests" --gtest_filter="${TSAN_FILTER}"
      PPR_THREADS=1 "${BUILD_DIR}/ppr_tests" --gtest_filter="${TSAN_FILTER}"
    else
      ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "$(nproc)"
      PPR_THREADS=1 "${BUILD_DIR}/ppr_tests" --gtest_filter="${TSAN_FILTER}"
    fi
    ;;

  build)
    BUILD_DIR="build-${BUILD_TYPE,,}"
    cmake -B "${BUILD_DIR}" -S . \
      -DCMAKE_BUILD_TYPE="${BUILD_TYPE}" \
      -DPPR_BUILD_BENCH=ON \
      "${ARGS[@]+"${ARGS[@]}"}"
    cmake --build "${BUILD_DIR}" -j "$(nproc)"
    ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "$(nproc)"
    ;;
esac
