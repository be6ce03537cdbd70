#!/usr/bin/env python3
"""Bench regression gate: diff fresh BENCH_*.json against the committed
baselines and flag metrics that regressed by more than a threshold.

    scripts/check_bench.py [--threshold 0.25] [--strict] [--ref HEAD]
                           [--out-dir DIR] [file.json ...]

For every bench artifact (default: BENCH_*.json in the repo root / the
given files), the committed baseline is read with `git show <ref>:<name>`.
The two JSON trees are walked in parallel; every numeric leaf whose key
looks like a performance figure is compared:

  - "higher is worse"  (latency, time, memory: *_us, *_ms, *_seconds,
    *_kb, *_bytes, bytes_per_triple, ...) regresses when
    fresh > base * (1 + threshold);
  - "higher is better" (throughput_qps, speedup_*, *_rate, *_scaling,
    triples_per_second) regresses when fresh < base * (1 - threshold);
  - neutral keys (counts, sizes, epochs, ...) are skipped —
    they describe the workload, not its performance.

Tiny absolute values are ignored (< 1.0 in the metric's unit): a 0.2us →
0.3us jitter is not a 50% regression worth failing CI over.

Exit status: 0 when clean or when only warnings were found; with
--strict, any regression exits 1 (the mode run_benches.sh can opt into
for CI). A missing baseline (new bench, first run) is reported and
skipped. Stdlib only.
"""

import argparse
import json
import os
import subprocess
import sys

# Key-name suffix/substring heuristics, checked in order.
HIGHER_IS_BETTER = (
    "throughput",
    "speedup",
    "_qps",
    "hit_rate",
    "_rate",
    "scaling",
    "triples_per_second",
    "per_second",
)
HIGHER_IS_WORSE = (
    "_us",
    "_ms",
    "_micros",
    "_millis",
    "_seconds",
    "_secs",
    "latency",
    "_kb",
    "_bytes",
    "bytes_per_triple",
    "amplification",
)
# Descriptive figures: changes are workload drift, not perf regressions.
NEUTRAL = (
    "requests",
    "errors",
    "rows",
    "triples",
    "epoch",
    "count",
    "repetitions",
    "clients",
    "shards",
    "threads",
    "concurrency",
    "batches",
    "queries",
    "dim",
    "seed",
    "terms",
    # Maintenance sweep descriptors: the delta fraction swept, the signed
    # bindings a batch produced, and the measured delta/full cost crossover
    # are workload/policy figures, not timings.
    "fraction",
    "bindings",
    "crossover",
    # Telemetry descriptors: the A/B overhead figure is a noisy difference
    # of two qps measurements (the warm phases themselves are gated), and
    # window/threshold/sample/capture figures are configuration or volume,
    # not performance.
    "overhead",
    "window",
    "samples",
    "captured",
    "suppressed",
    "threshold",
    # Open-loop serving descriptors: offered load and the SLO budget are
    # configuration; the shed rate tracks the offered/capacity ratio, not
    # server quality (shedding *more* at 3x overload is correct behavior);
    # e2e latency under overload includes deliberate queueing + lateness
    # and is unbounded by design at the over-capacity points; round-spread
    # figures report measurement noise, not performance.
    "offered",
    "budget",
    "shed",
    "e2e",
    "spread",
)

MIN_ABS = 1.0  # ignore metrics whose baseline magnitude is below this


def direction(key):
    """Returns +1 (higher is better), -1 (higher is worse) or 0 (skip)."""
    k = key.lower()
    for pat in HIGHER_IS_BETTER:
        if pat in k:
            return +1
    for pat in HIGHER_IS_WORSE:
        if pat in k:
            return -1
    return 0


def walk(base, fresh, path, out):
    """Pairs numeric leaves of two parallel JSON trees into `out`."""
    if isinstance(base, dict) and isinstance(fresh, dict):
        for key in base:
            if key in fresh:
                walk(base[key], fresh[key], path + [key], out)
    elif isinstance(base, list) and isinstance(fresh, list):
        for i, (b, f) in enumerate(zip(base, fresh)):
            # Label list entries by their "name" when present so reports
            # read "datasets[geopop].batch_wall_ms", not "datasets[1]".
            tag = b.get("name") if isinstance(b, dict) else None
            walk(b, f, path + ["[%s]" % (tag if tag else i)], out)
    elif isinstance(base, (int, float)) and isinstance(fresh, (int, float)) \
            and not isinstance(base, bool) and not isinstance(fresh, bool):
        out.append((path, float(base), float(fresh)))


def check_artifact(name, base_text, fresh_text, threshold):
    """Returns (regressions, improvements, compared) for one artifact."""
    base = json.loads(base_text)
    fresh = json.loads(fresh_text)
    leaves = []
    walk(base, fresh, [], leaves)
    regressions, improvements, compared = [], [], 0
    for path, b, f in leaves:
        key = path[-1]
        sign = direction(key)
        if sign == 0 or any(n in key.lower() for n in NEUTRAL):
            continue
        if b == 0:
            continue
        # The tiny-value guard only applies to unit-bearing metrics
        # (latencies, byte counts): sub-unit jitter there is noise.
        # Ratios (speedups, hit rates, scaling) are legitimately < 1.
        if sign < 0 and abs(b) < MIN_ABS:
            continue
        compared += 1
        ratio = f / b
        label = "%s: %s" % (name, ".".join(str(p) for p in path))
        if sign < 0 and ratio > 1.0 + threshold:
            regressions.append("%s  %.3f -> %.3f  (+%.0f%%, higher is worse)"
                              % (label, b, f, (ratio - 1.0) * 100))
        elif sign > 0 and ratio < 1.0 - threshold:
            regressions.append("%s  %.3f -> %.3f  (-%.0f%%, higher is better)"
                              % (label, b, f, (1.0 - ratio) * 100))
        elif sign < 0 and ratio < 1.0 - threshold:
            improvements.append("%s  %.3f -> %.3f  (-%.0f%%)"
                                % (label, b, f, (1.0 - ratio) * 100))
        elif sign > 0 and ratio > 1.0 + threshold:
            improvements.append("%s  %.3f -> %.3f  (+%.0f%%)"
                                % (label, b, f, (ratio - 1.0) * 100))
    return regressions, improvements, compared


def committed_baseline(repo_root, ref, name):
    try:
        return subprocess.run(
            ["git", "-C", repo_root, "show", "%s:%s" % (ref, name)],
            capture_output=True, text=True, check=True).stdout
    except (subprocess.CalledProcessError, FileNotFoundError):
        return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="*",
                        help="bench artifacts (default: BENCH_*.json in "
                             "--out-dir)")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="relative regression threshold (default 0.25)")
    parser.add_argument("--ref", default="HEAD",
                        help="git ref holding the baselines (default HEAD)")
    parser.add_argument("--out-dir", default=None,
                        help="directory holding fresh artifacts (default: "
                             "the repo root)")
    parser.add_argument("--strict", action="store_true",
                        help="exit 1 on any regression (default: warn only)")
    args = parser.parse_args()

    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out_dir = args.out_dir or repo_root
    files = args.files or sorted(
        os.path.join(out_dir, f) for f in os.listdir(out_dir)
        if f.startswith("BENCH_") and f.endswith(".json"))
    if not files:
        print("check_bench: no BENCH_*.json artifacts found in %s" % out_dir)
        return 0

    total_regressions, total_compared = 0, 0
    for path in files:
        name = os.path.basename(path)
        try:
            with open(path) as f:
                fresh_text = f.read()
        except OSError as e:
            print("check_bench: cannot read %s: %s" % (path, e))
            continue
        base_text = committed_baseline(repo_root, args.ref, name)
        if base_text is None:
            print("check_bench: %s has no committed baseline at %s "
                  "(new bench?) -- skipped" % (name, args.ref))
            continue
        try:
            regressions, improvements, compared = check_artifact(
                name, base_text, fresh_text, args.threshold)
        except (json.JSONDecodeError, ValueError) as e:
            print("check_bench: %s: malformed JSON: %s" % (name, e))
            continue
        total_compared += compared
        total_regressions += len(regressions)
        for line in regressions:
            print("REGRESSION  " + line)
        for line in improvements:
            print("improved    " + line)

    print("check_bench: %d metric%s compared, %d regression%s beyond %.0f%%"
          % (total_compared, "" if total_compared == 1 else "s",
             total_regressions, "" if total_regressions == 1 else "s",
             args.threshold * 100))
    if total_regressions and args.strict:
        return 1
    if total_regressions:
        print("check_bench: warnings only (pass --strict to fail the build)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
