#!/usr/bin/env bash
# Measures the cost of the always-on telemetry layer: runs the tracked
# hot-path benchmark (BM_PushThroughputFilters/64 by default) once in a
# default build and once with -DTCQ_DISABLE_METRICS=ON (registry mirrors
# and trace hooks compiled out) as ROUNDS alternating pairs, and fails if
# the median per-pair overhead of the instrumented build is more than
# MAX_OVERHEAD_PCT.
#
# Usage:
#   scripts/telemetry_overhead.sh            # full run
#   scripts/telemetry_overhead.sh --quick    # CI smoke (short min_time)
#   MAX_OVERHEAD_PCT=10 scripts/telemetry_overhead.sh
#   BENCH_FILTER='BM_PushThroughputFilters/64$' scripts/telemetry_overhead.sh
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"
MAX_OVERHEAD_PCT="${MAX_OVERHEAD_PCT:-5}"
BENCH_FILTER="${BENCH_FILTER:-BM_PushThroughputFilters/64\$}"
BENCH_BIN="bench_executor"

EXTRA_ARGS=(--benchmark_filter="$BENCH_FILTER")
ROUNDS="${ROUNDS:-5}"
if [[ "${1:-}" == "--quick" ]]; then
  EXTRA_ARGS+=(--benchmark_min_time=0.05)
fi

PIN=()
if command -v taskset >/dev/null 2>&1; then
  PIN=(taskset -c 0)
fi

build_config() {  # build_config <build_dir> <extra cmake flags...>
  local dir="$1"; shift
  cmake -B "$dir" -S . "$@" >/dev/null
  cmake --build "$dir" -j "$JOBS" --target "$BENCH_BIN" >/dev/null
}

echo "==> building: telemetry enabled (default) + compiled out" >&2
build_config build-telemetry-on
build_config build-telemetry-off -DTCQ_DISABLE_METRICS=ON

# Run the two binaries as ROUNDS alternating pairs (on first in even
# rounds, off first in odd ones) and gate on the MEDIAN of the per-pair
# overheads. Drift on a shared host moves both runs of a pair alike, so
# each pair's ratio cancels most of it, and the median discards the odd
# pair a neighbour disturbed. A per-build minimum did neither: on an
# unchanged tree it ranged from +2% to +18%.
TMPDIR_OH="$(mktemp -d)"
trap 'rm -rf "$TMPDIR_OH"' EXIT
run_config() {  # run_config <on|off> <round>
  "${PIN[@]}" build-telemetry-"$1"/bench/"$BENCH_BIN" \
      --benchmark_format=json "${EXTRA_ARGS[@]}" >"$TMPDIR_OH/$1.$2.json"
}
for ((i = 0; i < ROUNDS; ++i)); do
  echo "==> pair $((i + 1))/$ROUNDS" >&2
  if ((i % 2 == 0)); then
    run_config on "$i"
    run_config off "$i"
  else
    run_config off "$i"
    run_config on "$i"
  fi
done

python3 - "$MAX_OVERHEAD_PCT" "$ROUNDS" "$TMPDIR_OH" <<'PY'
import json
import statistics
import sys

max_pct, rounds, tmpdir = float(sys.argv[1]), int(sys.argv[2]), sys.argv[3]

def cpu_time(config, i):
    with open(f"{tmpdir}/{config}.{i}.json") as f:
        doc = json.load(f)
    for b in doc.get("benchmarks", []):
        if b.get("run_type") != "aggregate":
            return b["cpu_time"], b["name"]
    raise SystemExit(f"error: no benchmark output for {config} pair {i}")

overheads = []
for i in range(rounds):
    enabled, name = cpu_time("on", i)
    disabled, _ = cpu_time("off", i)
    overheads.append((enabled - disabled) / disabled * 100.0)
    print(f"pair {i + 1}: enabled={enabled:.3f}us compiled-out={disabled:.3f}us "
          f"overhead={overheads[-1]:+.2f}%")
overhead = statistics.median(overheads)
print(f"{name}: median overhead={overhead:+.2f}% (limit {max_pct}%, "
      f"{rounds} alternating pairs, range {min(overheads):+.2f}% to "
      f"{max(overheads):+.2f}%)")
if overhead > max_pct:
    print(f"FAIL: telemetry overhead {overhead:.2f}% exceeds {max_pct}%",
          file=sys.stderr)
    sys.exit(1)
print("OK: telemetry overhead within limit")
PY
