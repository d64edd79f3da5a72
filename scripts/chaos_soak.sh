#!/usr/bin/env bash
# Chaos soak: drive every trainer through a matrix of fault plans (loss,
# straggler, crash window, partition window, critical-party crash window)
# and assert the resilience layer's contract on each run:
#   - the run terminates (timeout-guarded — a hang fails the soak),
#   - the outcome is converged/complete or a typed error (never "error"),
#   - the run emitted flb.resilience.* metrics,
#   - a critical-party crash ("resume" row) was resumed from a checkpoint,
#   - a same-seed rerun is bit-identical (same fingerprint line).
# Usage: ./scripts/chaos_soak.sh [build-dir]
set -euo pipefail

BUILD_DIR="${1:-build}"
REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BIN="$REPO_ROOT/$BUILD_DIR/examples/example_chaos_soak"
RESULTS="$REPO_ROOT/results"
OUT="$RESULTS/chaos_soak.jsonl"
# Wall-clock budget per run. The simulated run deadline bounds simulated
# time; this bounds real time in case the harness itself wedges.
SOAK_TIMEOUT="${FLB_SOAK_TIMEOUT:-120}"

command -v jq >/dev/null || { echo "jq not found" >&2; exit 2; }
[ -x "$BIN" ] || { echo "missing $BIN (build example_chaos_soak)" >&2; exit 2; }
mkdir -p "$RESULTS"
: > "$OUT"

fail=0
runs=0

# one_run <model> <plan-name> <plan>: two same-seed runs; asserts outcome,
# resilience metrics, and bit-identity between the two lines.
one_run() {
  local model="$1" plan_name="$2" plan="$3"
  local line_a line_b
  for attempt in a b; do
    local line rc=0
    line=$(timeout "$SOAK_TIMEOUT" \
        "$BIN" --model="$model" --plan="$plan" --seed=11 --epochs=2) || rc=$?
    if [ "$rc" != 0 ]; then
      if [ "$rc" = 124 ]; then
        echo "FAIL $model/$plan_name: hung past ${SOAK_TIMEOUT}s wall" >&2
      else
        echo "FAIL $model/$plan_name: exit $rc" >&2
      fi
      fail=1
      return
    fi
    if [ "$attempt" = a ]; then line_a="$line"; else line_b="$line"; fi
  done
  echo "$line_a" >> "$OUT"
  runs=$((runs + 1))

  if ! echo "$line_a" | jq -e \
      '.outcome | IN("ok", "unavailable", "deadline_exceeded")' >/dev/null
  then
    echo "FAIL $model/$plan_name: untyped outcome: $line_a" >&2
    fail=1
  fi
  if ! echo "$line_a" | jq -e '.resilience_metrics > 0' >/dev/null; then
    echo "FAIL $model/$plan_name: no flb.resilience.* metrics: $line_a" >&2
    fail=1
  fi
  # Completed runs must have completed every epoch they report converged
  # for; typed-error runs report how far they got.
  if ! echo "$line_a" | jq -e \
      '(.outcome != "ok") or (.epochs == 2)' >/dev/null; then
    echo "FAIL $model/$plan_name: ok outcome with missing epochs: $line_a" >&2
    fail=1
  fi
  if [ "$plan_name" = resume ] &&
      ! echo "$line_a" | jq -e '.resumes >= 1' >/dev/null; then
    echo "FAIL $model/$plan_name: no checkpoint resume: $line_a" >&2
    fail=1
  fi
  if [ "$line_a" != "$line_b" ]; then
    echo "FAIL $model/$plan_name: same-seed rerun differs:" >&2
    echo "  a: $line_a" >&2
    echo "  b: $line_b" >&2
    fail=1
  else
    echo "ok  $model/$plan_name ($(echo "$line_a" | jq -r '.outcome'))"
  fi
}

for model in homo_lr homo_nn hetero_lr hetero_sbt hetero_nn; do
  # The faulted party and its partition peer use each topology's naming.
  case "$model" in
    homo_*)   party="party1"; peer="server" ;;
    hetero_*) party="host1";  peer="guest" ;;
  esac
  one_run "$model" drop      "seed=9;drop=0.15"
  one_run "$model" straggler "seed=9;straggler=${party}:6"
  one_run "$model" crash     "seed=9;crash=${party}@0.05-0.2"
  one_run "$model" partition "seed=9;partition=${party}|${peer}@0.05-0.15"
  # The critical party crashes inside one epoch and recovers before the
  # run deadline: the trainer must roll back to its last checkpoint.
  case "$model" in
    homo_lr)    critical="server@0.01-0.2" ;;
    homo_nn)    critical="server@0.15-0.6" ;;
    hetero_sbt) critical="guest@1.1-2.2" ;;
    hetero_*)   critical="guest@0.15-0.6" ;;
  esac
  one_run "$model" resume "seed=9;crash=${critical}"
done

echo "soak: $runs runs recorded in $OUT"
exit "$fail"
