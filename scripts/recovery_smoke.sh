#!/usr/bin/env bash
# recovery_smoke.sh — end-to-end crash-recovery smoke for the durable
# serving daemon (ISSUE 4 / CI job).
#
# Boots a durable spinnerd on a synthetic graph, drives mutation batches
# at it over HTTP, records the pre-crash partition of a sample of
# vertices, then kill -9s the process mid-churn. On top of the plain
# crash, the script simulates dying DURING an in-flight background
# checkpoint (ISSUE 5): the newest checkpoint file is removed — install
# is atomic, so an interrupted checkpoint simply never appears — and a
# torn temp file is left in the checkpoint directory. A second spinnerd
# over the same data dir must recover (previous checkpoint + LONGER
# journal tail replay, temp file ignored), answer /v1/healthz, report zero
# cut drift from the post-recovery exact reconcile, and resolve every
# sampled vertex to a valid partition — identical to the pre-crash
# answer for the quiesced prefix.
#
# Usage: scripts/recovery_smoke.sh [port]
set -euo pipefail
cd "$(dirname "$0")/.."

PORT="${1:-18573}"
BASE="http://127.0.0.1:$PORT"
BIN=$(mktemp -d)/spinnerd
DIR=$(mktemp -d)
PID=""
cleanup() {
  [ -n "$PID" ] && kill -9 "$PID" 2>/dev/null || true
  rm -rf "$DIR" "$(dirname "$BIN")"
}
trap cleanup EXIT

echo "== build spinnerd"
go build -o "$BIN" ./cmd/spinnerd

wait_healthy() {
  for _ in $(seq 1 100); do
    if curl -fsS "$BASE/v1/healthz" >/dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  echo "spinnerd never became healthy" >&2
  return 1
}

stat_field() { # stat_field <jq-ish key> — crude JSON number extraction, no jq dependency
  curl -fsS "$BASE/v1/stats" | tr ',{}' '\n\n\n' | grep -m1 "\"$1\":" | sed 's/.*: *//'
}

echo "== boot durable spinnerd (fsync=never, checkpoint-every=4, keep-checkpoints=2)"
# -degrade suppresses background restabilization: an unquiesced crash
# recovers to *a* valid state, and with relabeling events excluded that
# state's labels must match the pre-crash lookups exactly.
# -keep-checkpoints/-fsync-interval exercise the ISSUE-5 durability knobs.
"$BIN" -k 4 -synthetic 2000 -seed 11 -shards 2 -addr "127.0.0.1:$PORT" \
  -degrade 999999 -data-dir "$DIR" -fsync never -fsync-interval 25ms \
  -checkpoint-every 4 -keep-checkpoints 2 &
PID=$!
wait_healthy

echo "== churn: 24 mutation batches over HTTP"
for i in $(seq 1 24); do
  body=""
  for j in $(seq 1 20); do
    u=$(( (i * 131 + j * 17) % 2000 ))
    v=$(( (i * 37 + j * 113 + 1) % 2000 ))
    [ "$u" -eq "$v" ] && v=$(( (v + 1) % 2000 ))
    body+="+ $u $v 2"$'\n'
  done
  curl -fsS -X POST --data-binary "$body" "$BASE/v1/mutate" >/dev/null
done

# Let the store drain far enough that a checkpoint exists, then record
# the pre-crash lookups we will compare after recovery.
sleep 1
APPLIED_BEFORE=$(stat_field applied)
SAMPLE="1 42 500 999 1500 1999"
declare -A BEFORE
for v in $SAMPLE; do
  BEFORE[$v]=$(curl -fsS "$BASE/v1/lookup?v=$v" | tr ',{}' '\n\n\n' | grep -m1 '"partition":' | sed 's/.*: *//')
done
echo "   applied=$APPLIED_BEFORE before crash"

echo "== crash: kill -9 mid-churn"
curl -fsS -X POST --data-binary "+ 3 4 2" "$BASE/v1/mutate" >/dev/null || true
kill -9 "$PID"
wait "$PID" 2>/dev/null || true
PID=""

echo "== simulate crash during an in-flight background checkpoint"
# The newest checkpoint never finished installing (atomic rename → it
# simply does not exist) and the writer died mid-write (leftover .tmp).
# The newest checkpoint is usually a delta link (.dckp) chained onto one
# full base (.ckpt); names sort by their zero-padded hex sequence.
# Recovery must ignore the temp file, fall back to the previous retained
# encoding, and replay the longer journal tail to the same answers.
CKPTS=( $(ls "$DIR"/checkpoints/ckpt-*.ckpt "$DIR"/checkpoints/ckpt-*.dckp 2>/dev/null | sort) )
[ "${#CKPTS[@]}" -ge 2 ] || { echo "FAIL: need >= 2 checkpoints to lose one, have ${#CKPTS[@]}" >&2; exit 1; }
NEWEST="${CKPTS[${#CKPTS[@]}-1]}"
echo "   dropping $NEWEST (of ${#CKPTS[@]} checkpoints)"
rm "$NEWEST"
printf 'torn checkpoint write' > "$DIR/checkpoints/ckpt-0123456789abcdef.tmp"

echo "== recover from $DIR"
"$BIN" -addr "127.0.0.1:$PORT" -degrade 999999 -data-dir "$DIR" -fsync never -fsync-interval 25ms \
  -checkpoint-every 4 -keep-checkpoints 2 &
PID=$!
wait_healthy

VERTICES=$(stat_field vertices)
DURABLE=$(stat_field durable)
DRIFT=$(stat_field CutDrift)
RECONCILES=$(stat_field CutReconciles)
APPLIED_AFTER=$(stat_field applied)
REPLAYED=$(stat_field ReplayedRecords)
CKPT_PENDING=$(stat_field CheckpointsPending)
echo "   vertices=$VERTICES durable=$DURABLE applied=$APPLIED_AFTER reconciles=$RECONCILES drift=$DRIFT replayed=$REPLAYED ckpt-pending=$CKPT_PENDING"
[ "$VERTICES" = "2000" ] || { echo "FAIL: vertex space not recovered" >&2; exit 1; }
[ "$DURABLE" = "true" ] || { echo "FAIL: recovered store not durable" >&2; exit 1; }
[ "$DRIFT" = "0" ] || { echo "FAIL: cut drift $DRIFT after recovery" >&2; exit 1; }
[ "$RECONCILES" -ge 1 ] || { echo "FAIL: post-recovery reconcile never ran" >&2; exit 1; }
[ "$APPLIED_AFTER" -ge "$APPLIED_BEFORE" ] || { echo "FAIL: applied went backwards ($APPLIED_BEFORE -> $APPLIED_AFTER)" >&2; exit 1; }
# The fallback checkpoint covers at least -checkpoint-every fewer applied
# batches than the one we deleted, so the replayed tail must be non-empty.
[ "$REPLAYED" -ge 1 ] || { echo "FAIL: fallback recovery replayed nothing" >&2; exit 1; }

echo "== lookup consistency on $SAMPLE"
for v in $SAMPLE; do
  part=$(curl -fsS "$BASE/v1/lookup?v=$v" | tr ',{}' '\n\n\n' | grep -m1 '"partition":' | sed 's/.*: *//')
  if [ -z "$part" ] || [ "$part" -lt 0 ] || [ "$part" -ge 4 ]; then
    echo "FAIL: lookup($v) = '$part' out of [0,4)" >&2; exit 1
  fi
  if [ "$part" != "${BEFORE[$v]}" ]; then
    echo "FAIL: lookup($v) = $part, pre-crash ${BEFORE[$v]}" >&2; exit 1
  fi
done

kill "$PID" 2>/dev/null && wait "$PID" 2>/dev/null || true
PID=""
echo "recovery smoke: OK"
