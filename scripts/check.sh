#!/usr/bin/env bash
# Full verification: tier-1 (fast unit suite) plus the fault-injection /
# concurrency stress suite, the equivalence label (the matrix, the window
# plan, CACQ's fixed route against the eddy route, the typed aggregate
# state and the per-window runner's linear loops), the history-spool
# tests and the front-end tests under ThreadSanitizer and ASan+UBSan, as CI
# runs them.
#
# Usage:
#   scripts/check.sh            # tier-1 + one stress pass per sanitizer
#   STRESS_REPEAT=30 scripts/check.sh   # acceptance-grade soak
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"
STRESS_REPEAT="${STRESS_REPEAT:-1}"

echo "==> tier-1: plain build + full ctest"
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS" >/dev/null
(cd build && ctest --output-on-failure -j "$JOBS")

for SAN in thread address; do
  DIR="build-${SAN}san"
  echo "==> sanitizer=${SAN}: stress + equivalence + spool + frontend x${STRESS_REPEAT} (${DIR})"
  cmake -B "$DIR" -S . -DTCQ_SANITIZE="$SAN" >/dev/null
  cmake --build "$DIR" -j "$JOBS" >/dev/null
  (cd "$DIR" && ctest -L "stress|equivalence|spool|frontend" --output-on-failure \
      --repeat until-fail:"$STRESS_REPEAT")
done

echo "==> all checks passed"
