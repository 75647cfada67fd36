#!/usr/bin/env bash
# Runs the tracked benchmark subset and records the results to
# BENCH_<git-sha>.json at the repo root, so performance baselines travel
# with the history and regressions are a `diff` away.
#
# Usage:
#   scripts/bench.sh              # full run (CPU-pinned when possible)
#   scripts/bench.sh --quick      # CI smoke: --benchmark_min_time=0.05s
#   OUT=my.json scripts/bench.sh  # custom output path
#   BENCHES="bench_executor" scripts/bench.sh   # custom binary subset
#
# The tracked subset covers the batch dataflow hot path: the executor
# ingest benchmarks (Server::PushBatch -> CACQ eddy), including the
# sharded sweep, the zipfian-skew rebalance on/off pair
# (BM_ShardedSkewedThroughput), the process-pair HA tax and recovery
# latency (BM_ShardedFailover), the Fjord queue benchmarks
# (EnqueueBatch/DequeueUpTo), and the many-query scale sweep
# (BM_ManyQueries* at 10..10k CQs, inline and sharded), and the
# disorder-tolerant ingress sweep (bench_disorder: reorder bound ×
# disorder rate, delayed vs speculative, kIngestLate backfill), and the
# SteM joins: CACQ sharing with one shared SteM pair under 1..32 join
# queries (bench_cacq_sharing, BM_SharedJoin) and the per-window
# symmetric-hash/index hybrid (bench_stem_hybrid_join), and the other two
# users of the query index: PSoup's Query SteM (bench_psoup) and the
# grouped filter inside it (bench_grouped_filter), and the E8 windows on
# all three window-plan kinds: a landmark's running state, sliding panes
# and units (bench_windows: BM_LandmarkMax, BM_SlidingMax,
# BM_SlidingSumDouble, BM_ServerSlidingAvgHop). Add binaries via
# $BENCHES.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"
BUILD_DIR="${BUILD_DIR:-build}"
SHA="$(git rev-parse --short HEAD)"
OUT="${OUT:-BENCH_${SHA}.json}"
BENCHES="${BENCHES:-bench_executor bench_fjords_queues bench_many_queries bench_disorder bench_spool bench_cacq_sharing bench_stem_hybrid_join bench_psoup bench_grouped_filter bench_windows}"

EXTRA_ARGS=()
if [[ "${1:-}" == "--quick" ]]; then
  # Plain double spelling: accepted by every google-benchmark version
  # (newer ones also take a "0.05s" suffix form).
  EXTRA_ARGS+=(--benchmark_min_time=0.05)
  shift
fi
FILTER="${1:-}"
if [[ -n "$FILTER" ]]; then
  EXTRA_ARGS+=("--benchmark_filter=$FILTER")
fi

# Pin to one CPU when the tool is available: steadier numbers. Binaries
# matching $MULTICORE_RE spawn worker threads (the sharded exchange
# sweep) and must NOT be pinned — a one-CPU mask would serialize the
# shards and understate every multi-shard configuration.
PIN=()
if command -v taskset >/dev/null 2>&1; then
  PIN=(taskset -c 0)
fi
MULTICORE_RE="${MULTICORE_RE:-^(bench_executor|bench_many_queries)$}"

cmake -B "$BUILD_DIR" -S . >/dev/null
# shellcheck disable=SC2086
cmake --build "$BUILD_DIR" -j "$JOBS" --target $BENCHES >/dev/null

TMPDIR_BENCH="$(mktemp -d)"
trap 'rm -rf "$TMPDIR_BENCH"' EXIT
PARTS=()
for b in $BENCHES; do
  RUN_PIN=("${PIN[@]}")
  if [[ "$b" =~ $MULTICORE_RE ]]; then
    RUN_PIN=()
  fi
  echo "==> $b ${EXTRA_ARGS[*]:-}" >&2
  "${RUN_PIN[@]}" "$BUILD_DIR/bench/$b" --benchmark_format=json \
      "${EXTRA_ARGS[@]}" >"$TMPDIR_BENCH/$b.json"
  PARTS+=("$TMPDIR_BENCH/$b.json")
done

python3 - "$OUT" "${PARTS[@]}" <<'PY'
import json
import sys

out_path, *parts = sys.argv[1:]
merged = {"context": None, "benchmarks": []}
for path in parts:
    with open(path) as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError:
            # e.g. --benchmark_filter matched nothing in this binary.
            print(f"warning: no benchmark output from {path}",
                  file=sys.stderr)
            continue
    if merged["context"] is None:
        ctx = doc.get("context", {})
        ctx.pop("load_avg", None)  # Noise; meaningless across runs.
        merged["context"] = ctx
    binary = path.rsplit("/", 1)[-1].removesuffix(".json")
    for bench in doc.get("benchmarks", []):
        bench["binary"] = binary
        merged["benchmarks"].append(bench)
with open(out_path, "w") as f:
    json.dump(merged, f, indent=1, sort_keys=True)
    f.write("\n")
PY

echo "==> wrote $OUT ($(python3 -c "
import json
print(len(json.load(open('$OUT'))['benchmarks']))") benchmarks)"
