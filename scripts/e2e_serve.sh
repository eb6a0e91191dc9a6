#!/usr/bin/env bash
# End-to-end check of the train-once/serve-many path with the real binaries.
# First pin adaptation at scale: the default config at 2,000 windows per
# class, saved with 1 and 2 workers, must give the same bundle with a pinned
# SHA-256. Then train+adapt+save a small model with `smore`, boot
# `smore-serve` on it, and
# verify /healthz, a /v1/predict round trip, a byte-identical /v1/model
# export, incremental /v1/adapt, and /metrics. Then exercise the streaming
# path: serve a source-only model, push the target split through
# /v1/stream/adapt, poll /v1/stream/stats until drained, and verify the
# adapted accuracy beats the source-only baseline, plus queue-full 429
# backpressure and SIGTERM graceful shutdown. Finally exercise the model
# registry: upload a second named bundle, round-trip it byte-identically,
# predict against it, hot-swap it, and push past -max-models to watch the
# LRU eviction. Along the way, error responses are checked against the
# uniform {"error":{"code","message"}} envelope, and a per-request
# adaptation strategy is installed, listed, and round-tripped through an
# SME2 bundle export/upload. A drift-policy server then streams a harsh
# second-shift split: the detector spawns a second target, stats/metrics
# report the transition, and POST /v1/stream/rollback restores the
# pre-drift bundle byte-identically. The chaos section kills servers with
# -9: one after a checkpoint with windows still queued, one after a hot
# swap. Used by `make e2e` and CI.
set -euo pipefail
cd "$(dirname "$0")/.." || exit 1

ADDR="${SMORE_E2E_ADDR:-127.0.0.1:8791}"
STREAM_ADDR="${SMORE_E2E_STREAM_ADDR:-127.0.0.1:8792}"
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

fail() { echo "e2e: $1" >&2; exit 1; }

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

# The flat CLI is gone: top-level flags without a command print the usage
# and exit 2, so no caller can silently fall back to it.
code=0
"$tmp/smore" -dim 512 >/dev/null 2>"$tmp/flat.err" || code=$?
[ "$code" = "2" ] || fail "smore with top-level flags exited $code, want 2"
grep -q '^usage: smore <command>' "$tmp/flat.err" || fail "smore with top-level flags did not print the usage"
# ablate sweeps -seeds and -strategies, so it registers no single -seed.
code=0
"$tmp/smore" ablate -seed 1 >/dev/null 2>&1 || code=$?
[ "$code" = "2" ] || fail "smore ablate -seed exited $code, want 2"
# smore-serve takes no -strategy: a bundle carries its strategy, and a
# request's strategy is a published, checkpointed model change.
code=0
"$tmp/smore-serve" -strategy margin+constant+ema >/dev/null 2>&1 || code=$?
[ "$code" = "2" ] || fail "smore-serve -strategy exited $code, want 2"

# Adaptation at scale: at 2,000 windows per class every class batch of the
# pseudo-label update holds about 1,000 rows, so it runs the accumulator's
# bit-sliced weighted path. The saved bundle must not depend on the worker
# count and must match the digest the per-row update produced.
for w in 1 2; do
  "$tmp/smore" train -per-class 2000 -workers "$w" -save "$tmp/large$w.smore" >/dev/null
done
cmp "$tmp/large1.smore" "$tmp/large2.smore" || fail "-per-class 2000 bundle differs between -workers 1 and 2"
want_large=53089e1a9a6029c17d76e153689abd04048823c3da58ffb0a83a96fa656a3b8a
got_large=$(sha256sum "$tmp/large1.smore" | cut -d' ' -f1)
[ "$got_large" = "$want_large" ] || fail "-per-class 2000 bundle digest $got_large, want $want_large"
echo "e2e: -per-class 2000 bundle identical across workers and to the pinned digest"

"$tmp/smore" train -dim 512 -levels 8 -ngram 2 -sensors 2 -classes 3 -window 16 \
  -per-class 8 -seed 7 -save "$tmp/model.smore" >/dev/null

"$tmp/smore-serve" -load "$tmp/model.smore" -addr "$ADDR" -max-models 2 &
pids+=($!)
wait_healthz "$ADDR" "${pids[-1]}"

curl -fsS "http://$ADDR/healthz" | grep >/dev/null '"ok"' || fail "healthz did not report ok"

body='{"windows":[[[0.1,-0.2],[0.3,0.4],[0.0,1.1],[0.5,-0.5]]]}'
curl -fsS -X POST -H 'Content-Type: application/json' -d "$body" \
  "http://$ADDR/v1/predict" | grep >/dev/null '"predictions"' || fail "predict round trip failed"

# The served model must export byte-identically to the saved artifact.
curl -fsS "http://$ADDR/v1/model" -o "$tmp/served.smore"
cmp "$tmp/model.smore" "$tmp/served.smore" || fail "/v1/model export is not byte-identical to the saved bundle"

curl -fsS -X POST -H 'Content-Type: application/json' -d "$body" \
  "http://$ADDR/v1/adapt" | grep >/dev/null '"stats"' || fail "adapt round trip failed"

curl -fsS "http://$ADDR/metrics" | grep >/dev/null 'smore_requests_total{endpoint="predict"} 1' \
  || fail "metrics did not count the predict request"
curl -fsS "http://$ADDR/metrics" | grep >/dev/null 'smore_requests_total{endpoint="metrics"} 1' \
  || fail "metrics did not count its own scrapes"

# The same windows as a canonical body and as a non-canonical one (a
# "Windows" key, an unknown field, exponent-form numbers, newlines): the
# first takes the server's byte scanner, the second its encoding/json
# fallback, and the two answers must be byte-identical.
canon='{"windows":[[[0.1,-0.2],[0.3,0.4],[0.0,1.1],[0.5,-0.5]],[[1.5,0.25],[-1.0,2.0],[0.75,-0.125],[2.5,1.0]],[[-2.0,-1.5],[0.0,0.0],[1.25,-2.25],[3.0,0.5]]]}'
odd='{
  "Windows": [[[1e-1, -2E-1], [3e-1, 4.0e-1], [0e0, 11e-1], [5E-1, -5e-1]],
    [[15e-1, 2.5e-1], [-1E0, 2e+0], [75e-2, -125e-3], [0.25E1, 1]],
    [[-2, -1.5e0], [0e0, 0], [125E-2, -2.25], [3, 5e-1]]],
  "comment": "not canonical"
}'
curl -fsS -X POST -H 'Content-Type: application/json' --data-binary "$canon" \
  "http://$ADDR/v1/predict" >"$tmp/predict_canonical.json" || fail "canonical predict failed"
curl -fsS -X POST -H 'Content-Type: application/json' --data-binary "$odd" \
  "http://$ADDR/v1/predict" >"$tmp/predict_fallback.json" || fail "non-canonical predict failed"
grep -q '"predictions":\[[0-9],[0-9],[0-9]\]' "$tmp/predict_canonical.json" \
  || fail "canonical predict did not answer three predictions: $(cat "$tmp/predict_canonical.json")"
cmp "$tmp/predict_canonical.json" "$tmp/predict_fallback.json" \
  || fail "canonical and non-canonical bodies of the same windows answered differently"

# A body with trailing garbage after the JSON object must be rejected, in
# the uniform error envelope with its stable machine code.
code=$(curl -s -o "$tmp/err_trailing.json" -w '%{http_code}' -X POST -H 'Content-Type: application/json' \
  -d "${body}garbage" "http://$ADDR/v1/predict")
[ "$code" = "400" ] || fail "trailing-garbage body returned $code, want 400"
grep -q '"error":{"code":"trailing_data"' "$tmp/err_trailing.json" \
  || fail "trailing-garbage error is not the {\"error\":{\"code\",\"message\"}} envelope: $(cat "$tmp/err_trailing.json")"

# The loaded bundle must also re-evaluate identically through the CLI. Its
# config sets the encoder shape, so eval rejects the flags it would override.
code=0
"$tmp/smore" eval -dim 512 -load "$tmp/model.smore" >/dev/null 2>"$tmp/eval_dim.err" || code=$?
[ "$code" = "2" ] || fail "smore eval -load -dim exited $code, want 2"
grep -q -- '-dim' "$tmp/eval_dim.err" || fail "smore eval -load -dim did not name the flag: $(cat "$tmp/eval_dim.err")"
"$tmp/smore" eval -sensors 2 -classes 3 -window 16 -per-class 8 -seed 7 \
  -load "$tmp/model.smore" -json >"$tmp/loaded.json"
"$tmp/smore" train -dim 512 -levels 8 -ngram 2 -sensors 2 -classes 3 -window 16 \
  -per-class 8 -seed 7 -json >"$tmp/fresh.json"
# Elapsed differs between runs; compare everything else.
if ! diff <(grep -v '"elapsed"' "$tmp/fresh.json") <(grep -v '"elapsed"' "$tmp/loaded.json"); then
  fail "loaded-model evaluation differs from the fresh run"
fi

# --- streaming adaptation ---------------------------------------------------
# Train a source-only model on a config whose target shift leaves clear room
# to improve, dump the raw target split, and serve the unadapted bundle.
"$tmp/smore" train -dim 1024 -levels 16 -ngram 3 -sensors 3 -classes 4 -window 48 \
  -per-class 24 -retrain 2 -seed 7 \
  -no-adapt -save "$tmp/source.smore" -dump-target "$tmp/target" \
  -dump-drift "$tmp/drift" >/dev/null

"$tmp/smore-serve" -load "$tmp/source.smore" -addr "$STREAM_ADDR" \
  -stream-queue 128 -stream-batch 8 &
stream_pid=$!
pids+=("$stream_pid")
wait_healthz "$STREAM_ADDR" "$stream_pid"

labels=$(sed 's/\[//;s/\]//' "$tmp/target.labels.json")
hits() { # stdin: /v1/predict response; prints correct-prediction count
  sed 's/.*"predictions":\[//;s/\].*//' | awk -v l="$labels" '{
    np = split($0, P, ","); nl = split(l, L, ",");
    if (np != nl) { print -1; exit }
    h = 0; for (i = 1; i <= np; i++) if (P[i] == L[i]) h++;
    print h
  }'
}

total=$(awk -v l="$labels" 'BEGIN{print split(l, L, ",")}')
[ "$total" = "96" ] || fail "target dump has $total labels, want 96"

# Baseline: the served model is unadapted, so a plain predict is source-only.
base_resp=$(curl -fsS -X POST -H 'Content-Type: application/json' \
  --data-binary "@$tmp/target.windows.json" "http://$STREAM_ADDR/v1/predict")
echo "$base_resp" | grep >/dev/null '"adapted":false' || fail "source-only bundle reports adapted=true before streaming"
base_hits=$(echo "$base_resp" | hits)
[ "$base_hits" -ge 0 ] || fail "baseline prediction count does not match label count"

# Push the whole target split through the streaming queue in one 202 batch...
code=$(curl -s -o "$tmp/stream_ack.json" -w '%{http_code}' -X POST -H 'Content-Type: application/json' \
  --data-binary "@$tmp/target.windows.json" "http://$STREAM_ADDR/v1/stream/adapt")
[ "$code" = "202" ] || fail "stream adapt returned $code, want 202"
grep -q '"accepted":96' "$tmp/stream_ack.json" || fail "stream adapt did not accept all 96 windows"

# ...and poll the stats endpoint until the background adapter has folded it.
for _ in $(seq 1 100); do
  stats=$(curl -fsS "http://$STREAM_ADDR/v1/stream/stats")
  if echo "$stats" | grep >/dev/null '"queue_depth":0' &&
     echo "$stats" | grep >/dev/null '"in_flight":0' &&
     echo "$stats" | grep >/dev/null '"windows_folded_total":96'; then
    break
  fi
  sleep 0.1
done
echo "$stats" | grep >/dev/null '"windows_folded_total":96' || fail "stream never drained: $stats"
echo "$stats" | grep >/dev/null '"batches_folded_total":12' || fail "expected 12 micro-batches of 8: $stats"

curl -fsS "http://$STREAM_ADDR/metrics" | grep >/dev/null 'smore_stream_windows_folded_total{model="default"} 96' \
  || fail "stream metrics did not count the folded windows"

# The streamed-in adaptation must beat the source-only baseline.
adapted_resp=$(curl -fsS -X POST -H 'Content-Type: application/json' \
  --data-binary "@$tmp/target.windows.json" "http://$STREAM_ADDR/v1/predict")
echo "$adapted_resp" | grep >/dev/null '"adapted":true' || fail "model not adapted after stream drain"
adapted_hits=$(echo "$adapted_resp" | hits)
if [ "$adapted_hits" -le "$base_hits" ]; then
  fail "streamed adaptation did not improve target accuracy: $base_hits/$total -> $adapted_hits/$total"
fi
echo "e2e: streamed adaptation improved target accuracy $base_hits/$total -> $adapted_hits/$total"

# A batch larger than the whole queue can never fit: terminal 413, not a
# retry-later 429 (transient queue-full 429s are pinned by the Go tests,
# where the fold can be gated deterministically).
TINY_ADDR="${SMORE_E2E_TINY_ADDR:-127.0.0.1:8793}"
"$tmp/smore-serve" -load "$tmp/source.smore" -addr "$TINY_ADDR" \
  -stream-queue 32 -stream-batch 8 &
tiny_pid=$!
pids+=("$tiny_pid")
wait_healthz "$TINY_ADDR" "$tiny_pid"
code=$(curl -s -o "$tmp/err_tiny.json" -w '%{http_code}' -X POST -H 'Content-Type: application/json' \
  --data-binary "@$tmp/target.windows.json" "http://$TINY_ADDR/v1/stream/adapt")
[ "$code" = "413" ] || fail "never-fitting stream batch returned $code, want 413"
grep -q '"error":{"code":"batch_too_large"' "$tmp/err_tiny.json" \
  || fail "never-fitting stream batch missing its envelope code: $(cat "$tmp/err_tiny.json")"
curl -fsS "http://$TINY_ADDR/v1/stream/stats" | grep >/dev/null '"enqueued_total":0' \
  || fail "rejected batch must not be partially enqueued"

# --- model registry ---------------------------------------------------------
# The main server booted with -max-models 2 (the pinned default + one named
# slot), so the registry's hot-swap and LRU-eviction paths are both reachable.
curl -fsS "http://$ADDR/v1/models" | grep >/dev/null '"name":"default"' \
  || fail "registry listing does not include the default model"

# Upload the 3-sensor source bundle under a name; it must round-trip
# byte-identically and serve predictions with its own encoder shape.
code=$(curl -s -o "$tmp/alt_up.json" -w '%{http_code}' -X POST \
  --data-binary "@$tmp/source.smore" "http://$ADDR/v1/models/alt")
[ "$code" = "201" ] || fail "named upload returned $code, want 201"
grep -q '"swapped":false' "$tmp/alt_up.json" || fail "fresh named upload reported a swap"

curl -fsS "http://$ADDR/v1/models/alt" -o "$tmp/alt_served.smore"
cmp "$tmp/source.smore" "$tmp/alt_served.smore" \
  || fail "named export is not byte-identical to the uploaded bundle"

body3='{"windows":[[[0.1,-0.2,0.3],[0.3,0.4,-0.1],[0.0,1.1,0.2],[0.5,-0.5,0.0]]]}'
curl -fsS -X POST -H 'Content-Type: application/json' -d "$body3" \
  "http://$ADDR/v1/models/alt/predict" | grep >/dev/null '"predictions"' \
  || fail "per-model predict round trip failed"
# The 3-sensor windows must NOT be accepted by the 2-sensor default model.
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST -H 'Content-Type: application/json' \
  -d "$body3" "http://$ADDR/v1/predict")
[ "$code" = "400" ] || fail "default model accepted 3-sensor windows ($code), want 400"

# Re-uploading under the same name is an atomic hot swap.
code=$(curl -s -o "$tmp/alt_swap.json" -w '%{http_code}' -X POST \
  --data-binary "@$tmp/model.smore" "http://$ADDR/v1/models/alt")
[ "$code" = "200" ] || fail "hot-swap upload returned $code, want 200"
grep -q '"swapped":true' "$tmp/alt_swap.json" || fail "hot-swap upload did not report a swap"
curl -fsS "http://$ADDR/v1/models/alt" -o "$tmp/alt_swapped.smore"
cmp "$tmp/model.smore" "$tmp/alt_swapped.smore" \
  || fail "post-swap export does not match the swapped-in bundle"

# A second named upload pushes past -max-models 2: the LRU named model is
# evicted (the default is pinned) and its routes start answering 404.
code=$(curl -s -o "$tmp/other_up.json" -w '%{http_code}' -X POST \
  --data-binary "@$tmp/source.smore" "http://$ADDR/v1/models/other")
[ "$code" = "201" ] || fail "over-cap upload returned $code, want 201"
grep -q '"evicted":"alt"' "$tmp/other_up.json" || fail "over-cap upload did not evict the LRU model"
code=$(curl -s -o /dev/null -w '%{http_code}' "http://$ADDR/v1/models/alt")
[ "$code" = "404" ] || fail "evicted model still answers $code, want 404"

# The default model is pinned: DELETE answers 409 with its stable machine
# code; a named delete frees it.
code=$(curl -s -o "$tmp/err_pinned.json" -w '%{http_code}' -X DELETE "http://$ADDR/v1/models/default")
[ "$code" = "409" ] || fail "deleting the default model returned $code, want 409"
grep -q '"error":{"code":"default_pinned"' "$tmp/err_pinned.json" \
  || fail "pinned-default delete missing its envelope code: $(cat "$tmp/err_pinned.json")"

curl -fsS "http://$ADDR/metrics" >"$tmp/metrics.txt"
for want in 'smore_models 2' 'smore_model_uploads_total 3' \
    'smore_model_evictions_total 1' 'smore_model_dim{model="default"} 512' \
    'smore_model_dim{model="other"} 1024'; do
  grep -qF "$want" "$tmp/metrics.txt" || fail "metrics missing '$want'"
done

code=$(curl -s -o /dev/null -w '%{http_code}' -X DELETE "http://$ADDR/v1/models/other")
[ "$code" = "200" ] || fail "named delete returned $code, want 200"
code=$(curl -s -o /dev/null -w '%{http_code}' "http://$ADDR/v1/models/other")
[ "$code" = "404" ] || fail "deleted model still answers $code, want 404"
echo "e2e: registry upload/round-trip, hot swap, LRU eviction, delete OK"

# --- adaptation strategies ---------------------------------------------------
# A per-request strategy is applied to the fold, reported in the response,
# and sticks on the model, so the registry listing shows it.
strat='entropy-cal+constant+bundle'
curl -fsS -X POST -H 'Content-Type: application/json' \
  -d "{\"windows\":[[[0.1,-0.2],[0.3,0.4],[0.0,1.1],[0.5,-0.5]]],\"strategy\":\"$strat\"}" \
  "http://$ADDR/v1/adapt" | grep >/dev/null "\"strategy\":\"$strat\"" \
  || fail "adapt did not report the requested strategy"
curl -fsS "http://$ADDR/v1/models" | grep >/dev/null "\"strategy\":\"$strat\"" \
  || fail "registry listing does not show the installed strategy"

# An unregistered spec is a 400 with its stable code, before any fold.
code=$(curl -s -o "$tmp/err_strat.json" -w '%{http_code}' -X POST -H 'Content-Type: application/json' \
  -d "{\"windows\":[[[0.1,-0.2],[0.3,0.4],[0.0,1.1],[0.5,-0.5]]],\"strategy\":\"margin+constant+nope\"}" \
  "http://$ADDR/v1/adapt")
[ "$code" = "400" ] || fail "unknown strategy returned $code, want 400"
grep -q '"error":{"code":"unknown_strategy"' "$tmp/err_strat.json" \
  || fail "unknown-strategy error missing its envelope code: $(cat "$tmp/err_strat.json")"

# A non-default strategy rides inside the bundle (SME2) through the
# export/upload cycle and shows up on the re-served model.
curl -fsS "http://$ADDR/v1/model" -o "$tmp/strat.smore"
# The ensemble payload starts after the 44-byte SMB1 bundle header.
[ "$(tail -c +45 "$tmp/strat.smore" | head -c 4)" = "SME2" ] \
  || fail "non-default strategy did not export as an SME2 bundle"
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST \
  --data-binary "@$tmp/strat.smore" "http://$ADDR/v1/models/strat")
[ "$code" = "201" ] || fail "SME2 upload returned $code, want 201"
n=$(curl -fsS "http://$ADDR/v1/models" | grep -o "\"strategy\":\"$strat\"" | wc -l)
[ "$n" -eq 2 ] || fail "SME2 strategy did not survive the upload round trip ($n of 2 listings)"
echo "e2e: error envelope, per-request strategy, SME2 round trip OK"

# --- drift: spawn, stats, rollback -------------------------------------------
# Rollback with no checkpoint is a 409 with its stable code — pinned on the
# policy-none stream server, where no spawn can ever create one.
code=$(curl -s -o "$tmp/err_ckpt.json" -w '%{http_code}' -X POST -H 'Content-Type: application/json' \
  -d '{}' "http://$STREAM_ADDR/v1/stream/rollback")
[ "$code" = "409" ] || fail "rollback without checkpoint returned $code, want 409"
grep -q '"error":{"code":"no_checkpoint"' "$tmp/err_ckpt.json" \
  || fail "no-checkpoint rollback missing its envelope code: $(cat "$tmp/err_ckpt.json")"

# A spawn-policy server: phase A streams the target split (a stable
# similarity trajectory; no spawn), then the harsh -dump-drift split trips
# the detector exactly once. The pre-drift export must come back
# byte-identically after the rollback.
DRIFT_ADDR="${SMORE_E2E_DRIFT_ADDR:-127.0.0.1:8794}"
"$tmp/smore-serve" -load "$tmp/source.smore" -addr "$DRIFT_ADDR" \
  -stream-queue 256 -stream-batch 8 -drift-policy spawn &
drift_pid=$!
pids+=("$drift_pid")
wait_healthz "$DRIFT_ADDR" "$drift_pid"

drain_drift() { # $1: expected windows_folded_total
  for _ in $(seq 1 100); do
    dstats=$(curl -fsS "http://$DRIFT_ADDR/v1/stream/stats")
    if echo "$dstats" | grep >/dev/null "\"windows_folded_total\":$1"; then return 0; fi
    sleep 0.1
  done
  fail "drift server never folded $1 windows: $dstats"
}

curl -fsS -X POST -H 'Content-Type: application/json' \
  --data-binary "@$tmp/target.windows.json" "http://$DRIFT_ADDR/v1/stream/adapt" >/dev/null
drain_drift 96
echo "$dstats" | grep >/dev/null '"targets_spawned_total":0' || fail "phase A spawned a target: $dstats"
echo "$dstats" | grep >/dev/null '"targets_live":1' || fail "phase A must end with one live target: $dstats"
echo "$dstats" | grep >/dev/null '"similarity_ema_valid":true' || fail "phase A left no similarity trajectory: $dstats"
echo "$dstats" | grep >/dev/null '"has_checkpoint":false' || fail "checkpoint exists before any spawn: $dstats"
curl -fsS "http://$DRIFT_ADDR/v1/model" -o "$tmp/predrift.smore"

curl -fsS -X POST -H 'Content-Type: application/json' \
  --data-binary "@$tmp/drift.windows.json" "http://$DRIFT_ADDR/v1/stream/adapt" >/dev/null
drain_drift 192
echo "$dstats" | grep >/dev/null '"targets_spawned_total":1' || fail "second shift did not spawn exactly one target: $dstats"
echo "$dstats" | grep >/dev/null '"targets_live":2' || fail "expected two live targets after the spawn: $dstats"
echo "$dstats" | grep >/dev/null '"has_checkpoint":true' || fail "spawn left no checkpoint: $dstats"

curl -fsS "http://$DRIFT_ADDR/metrics" >"$tmp/drift_metrics.txt"
for want in 'smore_model_targets{model="default"} 2' \
    'smore_stream_targets_spawned_total{model="default"} 1' \
    'smore_stream_rollbacks_total{model="default"} 0'; do
  grep -qF "$want" "$tmp/drift_metrics.txt" || fail "drift metrics missing '$want'"
done

code=$(curl -s -o "$tmp/rollback.json" -w '%{http_code}' -X POST -H 'Content-Type: application/json' \
  -d '{}' "http://$DRIFT_ADDR/v1/stream/rollback")
[ "$code" = "200" ] || fail "rollback returned $code, want 200"
grep -q '"rolled_back":true' "$tmp/rollback.json" || fail "rollback did not report success: $(cat "$tmp/rollback.json")"
grep -q '"targets_live":1' "$tmp/rollback.json" || fail "rollback did not shrink the target set: $(cat "$tmp/rollback.json")"
curl -fsS "http://$DRIFT_ADDR/v1/model" -o "$tmp/postroll.smore"
cmp "$tmp/predrift.smore" "$tmp/postroll.smore" \
  || fail "rollback did not restore the pre-drift bundle byte-identically"
curl -fsS "http://$DRIFT_ADDR/metrics" | grep >/dev/null 'smore_stream_rollbacks_total{model="default"} 1' \
  || fail "rollback did not count on the metrics surface"
echo "e2e: drift spawn, stats/metrics, byte-identical rollback OK"

# --- chaos: kill -9 mid-stream, recover from durable checkpoints -------------
# A spawn-policy server with a -state-dir replays the two-shift scenario,
# persists a checkpoint (model + drift rollback) via POST /v1/checkpoint,
# then gets SIGKILLed with windows still in the queue. A restart on the same
# state dir must serve the checkpointed bundle byte-identically, keep the
# drift rollback available across the crash, and resume folding new windows.
CHAOS_ADDR="${SMORE_E2E_CHAOS_ADDR:-127.0.0.1:8795}"
"$tmp/smore-serve" -load "$tmp/source.smore" -addr "$CHAOS_ADDR" \
  -stream-queue 256 -stream-batch 8 -drift-policy spawn \
  -state-dir "$tmp/chaos-state" &
chaos_pid=$!
pids+=("$chaos_pid")
wait_healthz "$CHAOS_ADDR" "$chaos_pid"

drain_chaos() { # $1: expected windows_folded_total
  for _ in $(seq 1 100); do
    cstats=$(curl -fsS "http://$CHAOS_ADDR/v1/stream/stats")
    if echo "$cstats" | grep >/dev/null "\"windows_folded_total\":$1"; then return 0; fi
    sleep 0.1
  done
  fail "chaos server never folded $1 windows: $cstats"
}

curl -fsS -X POST -H 'Content-Type: application/json' \
  --data-binary "@$tmp/target.windows.json" "http://$CHAOS_ADDR/v1/stream/adapt" >/dev/null
drain_chaos 96
curl -fsS "http://$CHAOS_ADDR/v1/model" -o "$tmp/chaos_predrift.smore"

curl -fsS -X POST -H 'Content-Type: application/json' \
  --data-binary "@$tmp/drift.windows.json" "http://$CHAOS_ADDR/v1/stream/adapt" >/dev/null
drain_chaos 192
echo "$cstats" | grep >/dev/null '"has_checkpoint":true' || fail "chaos drift did not spawn a rollback checkpoint: $cstats"

# Persist the adapted model AND its drift rollback durably, and export the
# exact bytes the restart must come back with.
code=$(curl -s -o "$tmp/ckpt_ack.json" -w '%{http_code}' -X POST "http://$CHAOS_ADDR/v1/checkpoint")
[ "$code" = "200" ] || fail "manual checkpoint returned $code, want 200"
grep -q '"generation"' "$tmp/ckpt_ack.json" || fail "checkpoint ack has no generation: $(cat "$tmp/ckpt_ack.json")"
[ -f "$tmp/chaos-state/default/MANIFEST.json" ] || fail "checkpoint wrote no manifest"
curl -fsS "http://$CHAOS_ADDR/v1/model" -o "$tmp/chaos_ckpt.smore"

# Crash hard with fresh windows still queued: everything since the manual
# checkpoint is legitimately lost; nothing durable may be torn.
curl -fsS -X POST -H 'Content-Type: application/json' \
  --data-binary "@$tmp/target.windows.json" "http://$CHAOS_ADDR/v1/stream/adapt" >/dev/null
kill -9 "$chaos_pid"
wait "$chaos_pid" 2>/dev/null || true

"$tmp/smore-serve" -load "$tmp/source.smore" -addr "$CHAOS_ADDR" \
  -stream-queue 256 -stream-batch 8 -drift-policy spawn \
  -state-dir "$tmp/chaos-state" &
chaos_pid=$!
pids+=("$chaos_pid")
wait_healthz "$CHAOS_ADDR" "$chaos_pid"

curl -fsS "http://$CHAOS_ADDR/v1/model" -o "$tmp/chaos_recovered.smore"
cmp "$tmp/chaos_ckpt.smore" "$tmp/chaos_recovered.smore" \
  || fail "post-crash recovery is not byte-identical to the last checkpoint"

# The drift rollback checkpoint must survive the crash: rollback restores the
# pre-drift bundle byte-identically, exactly as it would have before the kill.
curl -fsS "http://$CHAOS_ADDR/v1/stream/stats" | grep >/dev/null '"has_checkpoint":true' \
  || fail "drift rollback checkpoint did not survive the crash"
code=$(curl -s -o "$tmp/chaos_rb.json" -w '%{http_code}' -X POST -H 'Content-Type: application/json' \
  -d '{}' "http://$CHAOS_ADDR/v1/stream/rollback")
[ "$code" = "200" ] || fail "post-crash rollback returned $code, want 200"
curl -fsS "http://$CHAOS_ADDR/v1/model" -o "$tmp/chaos_postroll.smore"
cmp "$tmp/chaos_predrift.smore" "$tmp/chaos_postroll.smore" \
  || fail "post-crash rollback did not restore the pre-drift bundle byte-identically"

# Serving resumes: new windows are accepted and folded by the revived server.
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST -H 'Content-Type: application/json' \
  --data-binary "@$tmp/target.windows.json" "http://$CHAOS_ADDR/v1/stream/adapt")
[ "$code" = "202" ] || fail "revived server rejected new stream windows ($code), want 202"
drain_chaos 96
echo "e2e: kill -9 recovery, checkpoint byte-identity, rollback survival OK"

# The revived chaos server drains cleanly on SIGTERM, writing its final
# checkpoint on the way out, and frees its address for the next case.
kill -TERM "$chaos_pid"
wait "$chaos_pid" || fail "chaos server did not shut down cleanly on SIGTERM"

# A crash after a hot swap must keep the swap: the periodic checkpointer
# saves every model whose version moved, an upload included, so two
# intervals after the 200 the swapped-in bundle is what a restart serves.
SWAP_ADDR="$CHAOS_ADDR"
"$tmp/smore-serve" -load "$tmp/source.smore" -addr "$SWAP_ADDR" \
  -state-dir "$tmp/swap-state" -checkpoint-interval 200ms &
swap_pid=$!
pids+=("$swap_pid")
wait_healthz "$SWAP_ADDR" "$swap_pid"
code=$(curl -s -o "$tmp/swap_up.json" -w '%{http_code}' -X POST \
  --data-binary "@$tmp/model.smore" "http://$SWAP_ADDR/v1/models/default")
[ "$code" = "200" ] || fail "swap upload returned $code, want 200"
sleep 0.5
kill -9 "$swap_pid"
wait "$swap_pid" 2>/dev/null || true
"$tmp/smore-serve" -load "$tmp/source.smore" -addr "$SWAP_ADDR" \
  -state-dir "$tmp/swap-state" -checkpoint-interval 200ms &
swap_pid=$!
pids+=("$swap_pid")
wait_healthz "$SWAP_ADDR" "$swap_pid"
curl -fsS "http://$SWAP_ADDR/v1/model" -o "$tmp/swap_recovered.smore"
cmp "$tmp/model.smore" "$tmp/swap_recovered.smore" \
  || fail "a kill -9 after a hot swap recovered the replaced bundle, not the swapped-in one"
echo "e2e: kill -9 after a hot swap keeps the swap OK"

# SIGTERM must drain cleanly: every server still up exits 0, and the
# revived swap server writes its final checkpoint on the way out.
kill -TERM "$stream_pid" "$tiny_pid" "$drift_pid" "$swap_pid"
wait "$stream_pid" || fail "stream server did not shut down cleanly on SIGTERM"
wait "$tiny_pid" || fail "tiny-queue server did not shut down cleanly on SIGTERM"
wait "$drift_pid" || fail "drift server did not shut down cleanly on SIGTERM"
wait "$swap_pid" || fail "swap server did not shut down cleanly on SIGTERM"

echo "e2e serve OK"
