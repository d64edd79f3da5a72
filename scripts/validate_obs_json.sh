#!/usr/bin/env bash
# Schema-checks the observability artifacts a run leaves behind:
#   *.trace.json    — Chrome trace-event JSON (traceEvents with ph/pid/tid/ts)
#   *.metrics.json  — MetricsRegistry snapshots (metrics with name/type/value)
#   *.status.json   — ObsServer /status snapshots (phase/run/epoch/he/
#                     resilience/server)
#   BENCH_*.json    — bench result records (bench/section/metric/value/unit)
# Usage: ./scripts/validate_obs_json.sh [results-dir]
set -euo pipefail

DIR="${1:-results}"
command -v jq >/dev/null || { echo "jq not found" >&2; exit 2; }

fail=0
checked=0

for f in "$DIR"/*.trace.json; do
  [ -e "$f" ] || continue
  checked=$((checked + 1))
  if ! jq -e '
      (.traceEvents | type == "array") and
      (.traceEvents | length > 0) and
      ([.traceEvents[] | select(.ph != "M")] | length > 0) and
      ([.traceEvents[]
        | select(.ph != "M")
        | select((.name | type != "string") or
                 (.pid | type != "number") or
                 (.tid | type != "number") or
                 (.ts | type != "number") or
                 (.ph | IN("X", "i", "C") | not))]
       | length == 0) and
      ([.traceEvents[] | select(.ph == "X")
        | select((.dur | type != "number") or .dur < 0)] | length == 0)
    ' "$f" >/dev/null; then
    echo "FAIL trace schema: $f" >&2
    fail=1
  else
    echo "ok  $f ($(jq '.traceEvents | length' "$f") events)"
  fi
done

for f in "$DIR"/*.metrics.json; do
  [ -e "$f" ] || continue
  checked=$((checked + 1))
  if ! jq -e '
      (.metrics | type == "array") and
      ([.metrics[]
        | select((.name | type != "string") or
                 (.labels | type != "string") or
                 (.value | type != "number") or
                 (.type | IN("counter", "gauge", "histogram") | not))]
       | length == 0) and
      ([.metrics[] | select(.type == "histogram")
        | select((.count | type != "number") or
                 (.buckets | type != "array"))] | length == 0)
    ' "$f" >/dev/null; then
    echo "FAIL metrics schema: $f" >&2
    fail=1
  else
    echo "ok  $f ($(jq '.metrics | length' "$f") metrics)"
  fi
done

for f in "$DIR"/*.status.json; do
  [ -e "$f" ] || continue
  checked=$((checked + 1))
  if ! jq -e '
      (.phase | IN("idle", "setup", "train", "done", "linger")) and
      (.bench | type == "string") and
      (.section | type == "string") and
      (.generation | type == "number") and
      (.run.engine | type == "string") and
      (.run.model | type == "string") and
      (.run.key_bits | type == "number") and
      (.run.parties | type == "number") and
      (.run.seed | type == "number") and
      (.epoch.epoch | type == "number") and
      (.epoch.max_epochs | type == "number") and
      (.epoch.loss | type == "number") and
      (.epoch.sim_seconds | type == "number") and
      (.he.encrypts | type == "number") and
      (.he.values_encrypted | type == "number") and
      (.totals.total_seconds | type == "number") and
      (.faults.injected | type == "number") and
      (.channel.retransmits | type == "number") and
      (.trace.dropped_events | type == "number") and
      (.resilience.quarantined | type == "number") and
      (.resilience.quarantines | type == "number") and
      (.resilience.readmits | type == "number") and
      (.resilience.deadline_exceeded | type == "number") and
      (.resilience.breaker_open | type == "number") and
      (.resilience.breaker_half_open | type == "number") and
      (.resilience.breaker_trips | type == "number") and
      (.resilience.breaker_fast_fails | type == "number") and
      (.server.requests.metrics | type == "number") and
      (.server.requests.status | type == "number") and
      (.server.requests.trace | type == "number") and
      (.server.requests.healthz | type == "number")
    ' "$f" >/dev/null; then
    echo "FAIL status schema: $f" >&2
    fail=1
  else
    echo "ok  $f (phase $(jq -r '.phase' "$f"), gen $(jq '.generation' "$f"))"
  fi
done

for f in "$DIR"/BENCH_*.json; do
  [ -e "$f" ] || continue
  checked=$((checked + 1))
  if ! jq -e '
      (.bench | type == "string") and
      (.results | type == "array") and
      ([.results[]
        | select((.bench | type != "string") or
                 (.section | type != "string") or
                 (.metric | type != "string") or
                 (.value | type != "number") or
                 (.unit | type != "string"))]
       | length == 0)
    ' "$f" >/dev/null; then
    echo "FAIL bench schema: $f" >&2
    fail=1
  else
    echo "ok  $f ($(jq '.results | length' "$f") rows)"
  fi
done

if [ "$checked" = 0 ]; then
  echo "no observability JSON found under $DIR" >&2
  exit 1
fi
exit "$fail"
