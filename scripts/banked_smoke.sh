#!/usr/bin/env bash
# banked_smoke.sh — acceptance smoke for the backend-axis sweep path.
#
# The banked/fenced backend rides through every layer a result crosses:
# machconf labels, the wbserve worker wire, the wbopt result store, and
# the canonical frontier JSON.  This script sweeps the tiny banked+fence
# space (spaces/banked-smoke.json) three ways and asserts they are
# byte-identical:
#
#   1. a plain local grid run (the reference artifact),
#   2. a worker-pool run over a result store, then — simulating a process
#      killed mid-sweep — a resume over a copy of that store cut to its
#      first third of entries, which must re-run exactly the missing
#      jobs; this is the shape of the committed
#      results/banked_frontier.json sweep,
#   3. a re-run over the complete store, which must answer every job from
#      the store (zero new entries) and still render the same bytes.
#
# Run it from the repository root:  make smoke-banked
set -euo pipefail

PORT="${WB_BANKED_SMOKE_PORT:-8163}"
TMP="$(mktemp -d)"
WORKER_PID=""

cleanup() {
  [ -n "$WORKER_PID" ] && kill "$WORKER_PID" 2>/dev/null || true
  rm -rf "$TMP"
}
trap cleanup EXIT

fail() { echo "smoke-banked: FAIL: $*" >&2; exit 1; }

# entries lists a store's result files in sorted order, skipping
# quarantined copies.
entries() { find "$1" -path '*/quarantine' -prune -o -name '*.json' -print | sort; }

go build -o "$TMP/wbserve" ./cmd/wbserve
go build -o "$TMP/wbopt" ./cmd/wbopt

SPACE=spaces/banked-smoke.json
ARGS=(-space "$SPACE" -strategy grid -n 100000 -seed 1 -quiet)

# --- Pass 1: local reference run.
"$TMP/wbopt" "${ARGS[@]}" -out "$TMP/local.json" >/dev/null
grep -q 'backend=banked' "$TMP/local.json" \
  || fail "no banked machine in the frontier artifact"
grep -q 'fencecost=20' "$TMP/local.json" \
  || fail "no fenced machine in the frontier artifact"

# --- Pass 2: the same sweep through a worker, then a resume over a store
# holding only part of the results (what a process killed mid-sweep
# leaves behind).
"$TMP/wbserve" -worker -addr "127.0.0.1:$PORT" >>"$TMP/worker.log" 2>&1 &
WORKER_PID=$!
for _ in $(seq 1 100); do
  curl -sf "http://127.0.0.1:$PORT/healthz" >/dev/null 2>&1 && break
  sleep 0.1
done
curl -sf "http://127.0.0.1:$PORT/healthz" >/dev/null 2>&1 \
  || fail "worker on port $PORT never became healthy"

"$TMP/wbopt" "${ARGS[@]}" -workers "127.0.0.1:$PORT" \
  -store "$TMP/store-full" -out "$TMP/worker.json" >/dev/null
cmp "$TMP/local.json" "$TMP/worker.json" \
  || fail "worker-pool artifact differs from the local run"
FULL=$(entries "$TMP/store-full" | wc -l)
[ "$FULL" -gt 3 ] || fail "worker run stored only $FULL jobs"

PARTIAL=$((FULL / 3))
cp -r "$TMP/store-full" "$TMP/store"
entries "$TMP/store" | tail -n +"$((PARTIAL + 1))" | xargs rm -f
[ "$(entries "$TMP/store" | wc -l)" -eq "$PARTIAL" ] \
  || fail "cutting the store copy to $PARTIAL entries failed"
"$TMP/wbopt" "${ARGS[@]}" -workers "127.0.0.1:$PORT" \
  -store "$TMP/store" -out "$TMP/resumed.json" >/dev/null
RESUMED=$(entries "$TMP/store" | wc -l)
[ "$RESUMED" -eq "$FULL" ] || fail "resume stored $RESUMED jobs, want $FULL"
cmp "$TMP/local.json" "$TMP/resumed.json" \
  || fail "worker + store-resume artifact differs from the local run"

# --- Pass 3: a complete store must satisfy the whole sweep by itself:
# no new entry, and no entry rewritten (a re-simulation would put again).
touch "$TMP/before-replay"
"$TMP/wbopt" "${ARGS[@]}" -store "$TMP/store" -out "$TMP/replayed.json" >/dev/null
REPLAYED=$(entries "$TMP/store" | wc -l)
[ "$REPLAYED" -eq "$FULL" ] || fail "rerun over a complete store changed its entry count ($FULL -> $REPLAYED)"
REWRITTEN=$(find "$TMP/store" -path '*/quarantine' -prune -o -name '*.json' -newer "$TMP/before-replay" -print | wc -l)
[ "$REWRITTEN" -eq 0 ] || fail "rerun over a complete store re-simulated $REWRITTEN jobs"
cmp "$TMP/local.json" "$TMP/replayed.json" \
  || fail "store-replay artifact differs from the local run"

echo "smoke-banked: PASS — local, worker+resume ($PARTIAL/$FULL stored), and replay are byte-identical"
