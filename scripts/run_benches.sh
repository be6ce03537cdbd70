#!/usr/bin/env bash
# Builds the bench suite and emits the perf-trajectory artifacts.
#
#   scripts/run_benches.sh [build_dir] [out_dir]
#
# Currently emits:
#   BENCH_parallel.json    — thread-scaling curve (1/2/4/8) of lattice
#                            profiling (one root evaluation plus parallel
#                            roll-ups) and batched workload execution (one
#                            task per query)
#   BENCH_maintenance.json — staged-delta merge vs full re-finalize and
#                            ApplyUpdates in auto vs forced-full mode
#   BENCH_exec.json        — root-view query on the vectorized batch
#                            engine: median and quartiles of 41 runs
#   BENCH_server.json      — online serving (epoll event loops): closed-
#                            loop cold/warm/mixed phases, telemetry-overhead
#                            A/B (median of interleaved rounds), open-loop
#                            overload sweep with queue-model admission, and
#                            the idle-connection phase
#   BENCH_store.json       — sharded COW TripleStore: Finalize/ApplyDelta/
#                            Clone+publish at 1/2/4/8 shards with 0.5%
#                            deltas, COW clone and publish cost
#   BENCH_scale.json       — million-triple scale: bytes/triple of the
#                            compact CSR + front-coded layout vs sorted
#                            runs, gen/load seconds, query p50/p95 and
#                            delta-apply at 100k/300k/1m (SOFOS_SCALE_BIG=1
#                            appends a 10m point)
# Other benches (E1..E9 tables) print to stdout and are kept text-only.
# Every artifact carries a "memory" object (VmHWM/VmRSS from procfs).
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${1:-$REPO_ROOT/build}"
OUT_DIR="${2:-$REPO_ROOT}"

if [ ! -f "$BUILD_DIR/CMakeCache.txt" ]; then
  cmake -B "$BUILD_DIR" -S "$REPO_ROOT"
fi
cmake --build "$BUILD_DIR" -j "$(nproc)" \
  --target bench_parallel bench_maintenance bench_exec bench_server \
           bench_store bench_scale

mkdir -p "$OUT_DIR"
"$BUILD_DIR/bench_parallel" "$OUT_DIR/BENCH_parallel.json"
"$BUILD_DIR/bench_maintenance" "$OUT_DIR/BENCH_maintenance.json"
"$BUILD_DIR/bench_exec" "$OUT_DIR/BENCH_exec.json"
"$BUILD_DIR/bench_server" "$OUT_DIR/BENCH_server.json"
"$BUILD_DIR/bench_store" "$OUT_DIR/BENCH_store.json"
# SOFOS_SCALE_BIG=1 scripts/run_benches.sh adds the (minutes-long) 10m point.
SOFOS_SCALE_BIG="${SOFOS_SCALE_BIG:-0}" \
  "$BUILD_DIR/bench_scale" "$OUT_DIR/BENCH_scale.json"

echo "bench artifacts in $OUT_DIR:"
ls -l "$OUT_DIR"/BENCH_*.json

# Regression gate: diff the fresh artifacts against the committed
# baselines and flag >25% regressions (warn-only by default; set
# SOFOS_BENCH_STRICT=1 to fail the run on any regression).
if [ "${SOFOS_BENCH_STRICT:-0}" = "1" ]; then
  python3 "$REPO_ROOT/scripts/check_bench.py" --out-dir "$OUT_DIR" --strict
else
  python3 "$REPO_ROOT/scripts/check_bench.py" --out-dir "$OUT_DIR"
fi
