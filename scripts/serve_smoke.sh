#!/bin/sh
# serve-smoke: end-to-end drive of `gpureach serve` at its HTTP surface.
#
# Starts the server on an ephemeral port, submits the same 2-app x
# 2-scheme campaign twice back to back (so the second submission lands
# while the shared cache — and possibly in-flight runs — can serve it),
# streams both event feeds to completion, and asserts:
#
#   1. the served aggregate is byte-identical to what the CLI sweep
#      writes for the same spec;
#   2. every cell of the duplicate campaign was coalesced or
#      cache-served (the simulator ran each distinct cell exactly once);
#   3. SIGTERM drains cleanly (exit 0, journals flushed).
#
# Needs curl; everything else is POSIX sh + the go toolchain.
set -eu

GO=${GO:-go}
WORK=.serve-smoke
SPEC='{"apps":["ATAX","GUPS"],"schemes":["ic+lds"],"scale":0.05}'
TOTAL=4 # 2 apps x {baseline, ic+lds}

rm -rf "$WORK"
mkdir -p "$WORK"

fail() { echo "serve-smoke: FAIL: $*" >&2; exit 1; }

# json_field <name> — pulls a top-level string/number field out of the
# single-line JSON the API writes, without requiring jq. Absent fields
# (e.g. a counter that never incremented) read as 0.
json_field() {
    v=$(sed -n 's/.*"'"$1"'":"\{0,1\}\([^",}]*\)"\{0,1\}[,}].*/\1/p' | head -1)
    echo "${v:-0}"
}

$GO build -o "$WORK/gpureach" ./cmd/gpureach

"$WORK/gpureach" serve -addr 127.0.0.1:0 -data "$WORK/data" -procs 2 \
    >"$WORK/serve.out" 2>"$WORK/serve.err" &
SERVER=$!
trap 'kill "$SERVER" 2>/dev/null || true' EXIT

# The listen line on stdout carries the picked port.
BASE=
for _ in $(seq 1 50); do
    BASE=$(sed -n 's/^serve: listening on \(http:\/\/[^ ]*\).*/\1/p' "$WORK/serve.out")
    [ -n "$BASE" ] && break
    kill -0 "$SERVER" 2>/dev/null || fail "server died at startup: $(cat "$WORK/serve.err")"
    sleep 0.2
done
[ -n "$BASE" ] || fail "server never printed its listen address"
echo "serve-smoke: server at $BASE"

curl -sf "$BASE/healthz" >/dev/null || fail "healthz unreachable"

# Submit the same spec twice, back to back — the duplicate must be
# admitted as its own campaign and served from shared results.
ID1=$(curl -sf -X POST -d "$SPEC" "$BASE/campaigns" | json_field id)
ID2=$(curl -sf -X POST -d "$SPEC" "$BASE/campaigns" | json_field id)
[ -n "$ID1" ] && [ -n "$ID2" ] || fail "submission did not return campaign IDs"
[ "$ID1" != "$ID2" ] || fail "duplicate submission reused campaign ID $ID1"
echo "serve-smoke: campaigns $ID1 and $ID2 submitted"

# Stream both event feeds; curl -N blocks until the server closes the
# stream at campaign completion, so this doubles as the wait.
curl -sfN "$BASE/campaigns/$ID1/events" >"$WORK/events1.ndjson"
curl -sfN "$BASE/campaigns/$ID2/events" >"$WORK/events2.ndjson"
for f in events1 events2; do
    n=$(wc -l <"$WORK/$f.ndjson")
    [ "$n" -eq "$TOTAL" ] || fail "$f streamed $n events, want $TOTAL"
done
echo "serve-smoke: both event streams delivered $TOTAL records"

for id in "$ID1" "$ID2"; do
    state=$(curl -sf "$BASE/campaigns/$id" | json_field state)
    [ "$state" = "done" ] || fail "campaign $id state = $state, want done"
done

# SLA check: the served aggregate is the CLI sweep's aggregate, byte
# for byte.
curl -sf "$BASE/campaigns/$ID1/aggregate" >"$WORK/served-aggregate.json"
"$WORK/gpureach" sweep -apps ATAX,GUPS -schemes ic+lds -scale 0.05 \
    -out "$WORK/cli" -quiet -no-tables >/dev/null
cmp "$WORK/served-aggregate.json" "$WORK/cli/aggregate.json" \
    || fail "served aggregate differs from CLI sweep aggregate"
echo "serve-smoke: served aggregate byte-identical to CLI sweep"

# Dedup check: across both campaigns the engine executed each distinct
# cell exactly once — every overlapping cell was coalesced onto an
# in-flight execution or served from the shared cache. (Which campaign
# pays for a given cell depends on runner interleaving; the once-only
# total is the deterministic invariant.)
STATUS2=$(curl -sf "$BASE/campaigns/$ID2")
shared2=$(($(echo "$STATUS2" | json_field cache_hits) + $(echo "$STATUS2" | json_field coalesced)))
[ "$shared2" -gt 0 ] || fail "duplicate campaign shows no coalesced/cache-served cells (status: $STATUS2)"
METRICS=$(curl -sf "$BASE/metrics")
runs_executed=$(echo "$METRICS" | json_field runs_executed)
runs_completed=$(echo "$METRICS" | json_field runs_completed)
runs_shared=$(($(echo "$METRICS" | json_field runs_coalesced) + $(echo "$METRICS" | json_field runs_cache_hits)))
[ "$runs_executed" = "$TOTAL" ] || fail "engine executed $runs_executed runs, want $TOTAL (metrics: $METRICS)"
[ "$runs_completed" = "$((TOTAL * 2))" ] || fail "completions = $runs_completed, want $((TOTAL * 2))"
[ "$runs_shared" = "$TOTAL" ] || fail "coalesced+cache-served = $runs_shared, want $TOTAL (metrics: $METRICS)"
echo "serve-smoke: $TOTAL distinct cells executed once, $runs_shared duplicates coalesced/cache-served"

# Graceful drain: SIGTERM, clean exit.
kill -TERM "$SERVER"
rc=0
wait "$SERVER" || rc=$?
trap - EXIT
[ "$rc" -eq 0 ] || fail "server exited $rc on SIGTERM: $(cat "$WORK/serve.err")"
grep -q "drained" "$WORK/serve.err" || fail "server never reported draining"
for id in "$ID1" "$ID2"; do
    n=$(wc -l <"$WORK/data/campaigns/$id/journal.jsonl")
    [ "$n" -eq "$TOTAL" ] || fail "campaign $id journal has $n records after drain, want $TOTAL"
done
echo "serve-smoke: SIGTERM drained cleanly, journals intact"

rm -rf "$WORK"
echo "serve-smoke: PASS"
