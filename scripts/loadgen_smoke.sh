#!/usr/bin/env bash
# Loadgen proof point for the crash-safe serving work, in two phases against
# real binaries:
#
#   phase 1 (clean): a durably-checkpointing server under mixed
#   predict/stream/drift/adapt traffic must serve with zero 5xx, zero 429,
#   a bounded predict p99, and an exactly-reconciled streaming queue
#   (enqueued == folded + lost + depth + in-flight), while the fold-count
#   trigger writes checkpoint generations under -state-dir.
#
#   phase 2 (overload): the same traffic against a server with a tiny
#   in-flight cap, an armed fold-failure injector, and the circuit breaker
#   enabled must shed load the contractual way — 429/503 WITH Retry-After,
#   no 500s, books still balanced — and the breaker must actually trip.
#
# Reports land in loadgen_clean.json / loadgen_overload.json (CI uploads
# them as artifacts). Used by `make loadgen-smoke`.
set -euo pipefail
cd "$(dirname "$0")/.." || exit 1

ADDR="${SMORE_LOADGEN_ADDR:-127.0.0.1:8797}"
OVER_ADDR="${SMORE_LOADGEN_OVER_ADDR:-127.0.0.1:8798}"
DURATION="${SMORE_LOADGEN_DURATION:-6s}"
tmp="$(mktemp -d)"
pids=()
cleanup() {
  for p in "${pids[@]:-}"; do kill "$p" 2>/dev/null || true; done
  # Reap the servers before deleting $tmp: a SIGTERM shutdown checkpoint may
  # still be writing into the state dir, and a concurrent rm -rf can fail.
  wait 2>/dev/null || true
  rm -rf "$tmp"
}
trap cleanup EXIT

fail() { echo "loadgen-smoke: $1" >&2; exit 1; }

wait_healthz() { # $1 addr, $2 pid
  for _ in $(seq 1 50); do
    curl -fsS "http://$1/healthz" >/dev/null 2>&1 && return 0
    kill -0 "$2" 2>/dev/null || fail "smore-serve on $1 died during startup"
    sleep 0.2
  done
  fail "smore-serve on $1 never became healthy"
}

go build -o "$tmp/smore" ./cmd/smore
go build -o "$tmp/smore-serve" ./cmd/smore-serve
go build -o "$tmp/smore-loadgen" ./cmd/smore-loadgen

"$tmp/smore" train -dim 512 -levels 8 -ngram 2 -sensors 2 -classes 3 -window 16 \
  -per-class 8 -seed 7 -save "$tmp/model.smore" >/dev/null

# --- phase 1: clean serving with durable checkpoints -------------------------
"$tmp/smore-serve" -load "$tmp/model.smore" -addr "$ADDR" \
  -state-dir "$tmp/state" -checkpoint-folds 64 &
pids+=($!)
wait_healthz "$ADDR" "${pids[-1]}"

"$tmp/smore-loadgen" -addr "http://$ADDR" -duration "$DURATION" -qps 150 \
  -seed 7 -p99-max 500ms -out loadgen_clean.json \
  || fail "clean phase failed its gates (see loadgen_clean.json)"
grep -q '"429"' loadgen_clean.json && fail "clean phase saw 429 backpressure"
grep -q '"503"' loadgen_clean.json && fail "clean phase saw 503 backpressure"
[ -f "$tmp/state/default/MANIFEST.json" ] \
  || fail "fold-count trigger wrote no checkpoint manifest under -state-dir"
grep -q '"gen"' "$tmp/state/default/MANIFEST.json" \
  || fail "checkpoint manifest lists no generations"
echo "loadgen-smoke: clean phase OK (state dir populated: $(find "$tmp/state/default" -type f | wc -l) files)"

# --- phase 2: overload + injected fold failures ------------------------------
# stream.fold.err:after=4 lets four folds succeed, then fails every one:
# the threshold-3 breaker must trip (503 adapter_open), and the in-flight
# cap of 2 must shed the rest as 429 — all with Retry-After, never a 500.
"$tmp/smore-serve" -load "$tmp/model.smore" -addr "$OVER_ADDR" \
  -max-in-flight 2 -breaker-threshold 3 -breaker-cooldown 500ms \
  -stream-batch 8 \
  -fault 'stream.fold.err:after=4,stream.fold.slow:delay=20ms' -fault-seed 7 &
pids+=($!)
wait_healthz "$OVER_ADDR" "${pids[-1]}"

"$tmp/smore-loadgen" -addr "http://$OVER_ADDR" -duration "$DURATION" -qps 300 \
  -workers 16 -seed 7 -expect-backpressure -out loadgen_overload.json \
  || fail "overload phase failed its gates (see loadgen_overload.json)"
grep -Eq '"(429|503)"' loadgen_overload.json \
  || fail "overload phase produced no backpressure at all"
curl -fsS "http://$OVER_ADDR/metrics" >"$tmp/over_metrics.txt"
grep -Eq 'smore_breaker_opens_total\{model="default"\} [1-9]' "$tmp/over_metrics.txt" \
  || fail "circuit breaker never opened under injected fold failures"
grep -q 'smore_breaker_state{model="default"}' "$tmp/over_metrics.txt" \
  || fail "breaker state gauge missing from /metrics"
echo "loadgen-smoke: overload phase OK (backpressure with Retry-After, breaker tripped)"

echo "loadgen-smoke OK"
