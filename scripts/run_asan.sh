#!/usr/bin/env bash
# AddressSanitizer + UndefinedBehaviorSanitizer lane: builds a separate
# tree with ASan, UBSan (any undefined-behavior report aborts the test)
# and libstdc++ assertions (bounds-checked operator[] and friends), then
# runs the suites that cover the executor, the SPARQL layer, the store
# and its dictionary, the server, and the lattice (profiler, materializer,
# maintainer). The flags go on the command line; no CMake option is
# involved.
#
# observability_test is not in the lane: AnalyzeTest.
# OperatorActualsSumToExecTotals asserts a wall-time ratio that the
# instrumented build misses (no sanitizer report is involved).
#
#   scripts/run_asan.sh [build_dir]
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${1:-$REPO_ROOT/build-asan}"
FLAGS="-g -fsanitize=address,undefined -fno-sanitize-recover=undefined -D_GLIBCXX_ASSERTIONS"
SUITES=(exec_test sparql_exec_test sparql_agg_test sparql_planner_test
        sparql_reference_test sparql_value_test sparql_modifiers_test
        sparql_filter_kernel_test store_test rdf_store_test rdf_term_test
        server_test event_loop_test telemetry_test core_profiler_test
        core_pipeline_test maintenance_test parallel_test integration_test)

cmake -B "$BUILD_DIR" -S "$REPO_ROOT" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="$FLAGS"
cmake --build "$BUILD_DIR" -j "$(nproc)" --target "${SUITES[@]}"

export ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1:abort_on_error=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1}"
cd "$BUILD_DIR"
regex="^($(IFS='|'; echo "${SUITES[*]}"))\$"
ctest -R "$regex" --output-on-failure
