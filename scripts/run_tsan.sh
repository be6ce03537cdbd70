#!/usr/bin/env bash
# ThreadSanitizer lane over the concurrency-sensitive tests (the ones
# carrying the `maintenance`, `exec`, `server`, `store`, `scale`,
# `observability`, `telemetry` and `pipeline` CTest labels — delta-rule
# incremental view maintenance with its parallel per-view roll-up repair,
# the vectorized executor, the concurrent online serving subsystem, the
# sharded copy-on-write TripleStore with its COW epoch snapshots, the
# compact-layout scale suite with concurrent snapshot readers, the
# metrics/trace layer with its cross-thread recording, the
# continuous-telemetry stack — background sampler vs. concurrent
# queries/updates, workload recorder, slow-query capture, HTTP listener —
# and the lattice pipeline: parallel roll-ups over the shared root table,
# concurrent view queries interning on double facets, and full pipelines
# at the default pool size): builds a separate TSan-enabled tree and runs
# only those suites.
#
#   scripts/run_tsan.sh [build_dir]
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${1:-$REPO_ROOT/build-tsan}"

cmake -B "$BUILD_DIR" -S "$REPO_ROOT" -DSOFOS_TSAN=ON \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" -j "$(nproc)" \
  --target maintenance_test parallel_test exec_test server_test \
           event_loop_test store_test scale_test observability_test \
           telemetry_test core_profiler_test core_pipeline_test \
           integration_test

cd "$BUILD_DIR"
ctest -L 'maintenance|exec|server|store|scale|observability|telemetry|pipeline' \
  --output-on-failure
