#!/usr/bin/env bash
# changefeed_smoke.sh — end-to-end smoke for the /v1 change feed and the
# incremental checkpoint chain (ISSUE 8 / CI job).
#
# Boots a durable spinnerd with a small delta ring and a short
# incremental-checkpoint chain, tails /v1/watch with a live spinnerctl
# consumer while mutation batches churn the graph, then asserts the
# consumer-facing contract end to end:
#
#   1. a live `spinnerctl watch` stream delivers delta frames while the
#      writes are in flight;
#   2. `spinnerctl feed-labels` — which builds the label map purely from
#      the change feed, falling back to the /v1/lookup resync when its
#      cursor is compacted out of the small ring (the documented 410
#      path) — converges to exactly the `spinnerctl labels` lookup truth;
#   3. 50 concurrent watchers tailing the same cursor under churn all
#      receive identical deltas (the encode-once fan-out), the server
#      encoded each publication exactly once regardless of stream count
#      (DeltaEncodes == DeltasPublished), and the WatchStreams gauge
#      drains back to zero when they hang up;
#   4. the churn forced delta checkpoints (.dckp files) onto disk;
#   5. after a kill -9 mid-chain, a second spinnerd over the same data
#      dir recovers from the base checkpoint + delta chain, answers
#      /v1/healthz, reports zero cut drift, and the feed-vs-lookup
#      convergence holds again on the recovered incarnation.
#
# Usage: scripts/changefeed_smoke.sh [port]
set -euo pipefail
cd "$(dirname "$0")/.."

PORT="${1:-18577}"
BASE="http://127.0.0.1:$PORT"
BINDIR=$(mktemp -d)
DIR=$(mktemp -d)
PID=""
cleanup() {
  [ -n "$PID" ] && kill -9 "$PID" 2>/dev/null || true
  rm -rf "$DIR" "$BINDIR"
}
trap cleanup EXIT

echo "== build spinnerd + spinnerctl"
go build -o "$BINDIR/spinnerd" ./cmd/spinnerd
go build -o "$BINDIR/spinnerctl" ./cmd/spinnerctl
CTL="$BINDIR/spinnerctl -addr $BASE"

wait_healthy() {
  for _ in $(seq 1 100); do
    if curl -fsS "$BASE/v1/healthz" >/dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  echo "spinnerd never became healthy" >&2
  return 1
}

stat_field() { # crude JSON number extraction, no jq dependency
  curl -fsS "$BASE/v1/stats" | tr ',{}' '\n\n\n' | grep -m1 "\"$1\":" | sed 's/.*: *//'
}

churn() { # churn <rounds> <salt>
  for i in $(seq 1 "$1"); do
    body=""
    for j in $(seq 1 20); do
      u=$(( (i * 131 + j * 17 + $2) % 2000 ))
      v=$(( (i * 37 + j * 113 + $2 + 1) % 2000 ))
      [ "$u" -eq "$v" ] && v=$(( (v + 1) % 2000 ))
      body+="+ $u $v 2"$'\n'
    done
    printf '%s' "$body" | $CTL mutate >/dev/null
  done
}

echo "== boot durable spinnerd (delta-ring=32, max-delta-chain=4, checkpoint-every=4)"
# -degrade suppresses background restabilization so the feed-vs-lookup
# comparison races no relabeling; the tiny ring forces the 410 resync.
"$BINDIR/spinnerd" -k 4 -synthetic 2000 -seed 11 -shards 2 -addr "127.0.0.1:$PORT" \
  -degrade 999999 -data-dir "$DIR" -fsync never -checkpoint-every 4 \
  -max-delta-chain 4 -delta-ring 32 &
PID=$!
wait_healthy

echo "== live /v1/watch consumer under churn"
WATCHOUT="$BINDIR/watch.out"
$CTL watch -count 3 > "$WATCHOUT" &
WATCHPID=$!
churn 8 0
wait "$WATCHPID"
DELTALINES=$(grep -c '^seq=' "$WATCHOUT" || true)
[ "$DELTALINES" -ge 3 ] || { echo "FAIL: live watch printed $DELTALINES delta lines, want >= 3" >&2; cat "$WATCHOUT" >&2; exit 1; }
echo "   live consumer streamed $DELTALINES deltas"

echo "== churn past the 32-slot ring, then feed-labels must resync and converge"
churn 30 7
sleep 1  # drain
FLOOR=$(stat_field delta_floor)
NEXT=$(stat_field delta_next)
[ "$FLOOR" -gt 1 ] || { echo "FAIL: delta floor $FLOOR, ring never compacted" >&2; exit 1; }
$CTL feed-labels > "$BINDIR/feed.txt"
$CTL labels > "$BINDIR/lookup.txt"
if ! diff -q "$BINDIR/feed.txt" "$BINDIR/lookup.txt" >/dev/null; then
  echo "FAIL: feed-reconstructed labels differ from lookup truth" >&2
  diff "$BINDIR/feed.txt" "$BINDIR/lookup.txt" | head >&2
  exit 1
fi
LINES=$(wc -l < "$BINDIR/feed.txt")
echo "   feed == lookup over $LINES vertices (retention [$FLOOR,$NEXT))"

# WatchStreams is a gauge of open streams (0 once consumers hang up);
# the monotonic accepted-stream count is WatchStreamsTotal.
WATCHES=$(stat_field WatchStreamsTotal)
PUBLISHED=$(stat_field DeltasPublished)
[ "$WATCHES" -ge 2 ] || { echo "FAIL: WatchStreamsTotal=$WATCHES, want >= 2" >&2; exit 1; }
[ "$PUBLISHED" -ge 32 ] || { echo "FAIL: DeltasPublished=$PUBLISHED, want >= 32" >&2; exit 1; }

echo "== fan-out: 50 concurrent watchers under churn see identical deltas"
# All watchers tail from the same cursor while mutations churn the ring
# underneath (and compact it past older sequences). The encode-once
# fan-out hands every stream the same memoized frames, so after
# normalizing away the per-connection handshake line the outputs must be
# byte-identical — and the server must have encoded each delta exactly
# once no matter how many streams were attached.
FROM=$(( $(stat_field delta_next) - 1 ))
WDIR="$BINDIR/fanout"
mkdir -p "$WDIR"
WPIDS=()
for i in $(seq 1 50); do
  $CTL watch -from "$FROM" -count 5 > "$WDIR/w$i.out" &
  WPIDS+=("$!")
done
sleep 1 # let the streams connect before churn compacts FROM away
churn 10 41
for p in "${WPIDS[@]}"; do wait "$p"; done
for i in $(seq 1 50); do
  grep '^seq=' "$WDIR/w$i.out" > "$WDIR/w$i.seqs" || true
done
for i in $(seq 2 50); do
  diff -q "$WDIR/w1.seqs" "$WDIR/w$i.seqs" >/dev/null || {
    echo "FAIL: watcher $i deltas differ from watcher 1 (fan-out not identical)" >&2
    diff "$WDIR/w1.seqs" "$WDIR/w$i.seqs" | head >&2
    exit 1
  }
done
NSEQS=$(wc -l < "$WDIR/w1.seqs")
[ "$NSEQS" -eq 5 ] || { echo "FAIL: watchers saw $NSEQS deltas, want 5" >&2; cat "$WDIR/w1.out" >&2; exit 1; }
sleep 1 # drain the churn so the two counters are sampled at rest
PUB=$(stat_field DeltasPublished)
ENC=$(stat_field DeltaEncodes)
[ "$PUB" = "$ENC" ] || { echo "FAIL: DeltaEncodes=$ENC != DeltasPublished=$PUB (encode-once broken)" >&2; exit 1; }
for _ in $(seq 1 50); do
  [ "$(stat_field WatchStreams)" = "0" ] && break
  sleep 0.1
done
[ "$(stat_field WatchStreams)" = "0" ] || { echo "FAIL: WatchStreams gauge stuck at $(stat_field WatchStreams)" >&2; exit 1; }
# And the feed still reconstructs lookup truth after the fan-out churn.
$CTL feed-labels > "$BINDIR/feed-fanout.txt"
$CTL labels > "$BINDIR/lookup-fanout.txt"
diff -q "$BINDIR/feed-fanout.txt" "$BINDIR/lookup-fanout.txt" >/dev/null \
  || { echo "FAIL: post-fan-out feed differs from lookup truth" >&2; exit 1; }
echo "   50 watchers, identical frames, $ENC encodes for $PUB publications, streams drained"

echo "== incremental checkpoints on disk"
INCR_BYTES=$(stat_field IncrCheckpointBytes)
DCKPS=$(ls "$DIR"/checkpoints/ckpt-*.dckp 2>/dev/null | wc -l)
[ "$DCKPS" -ge 1 ] || { echo "FAIL: no .dckp chain links on disk" >&2; ls -la "$DIR/checkpoints" >&2; exit 1; }
[ "$INCR_BYTES" -gt 0 ] || { echo "FAIL: IncrCheckpointBytes=$INCR_BYTES with $DCKPS chain links" >&2; exit 1; }
echo "   $DCKPS chain links, $INCR_BYTES incremental bytes"

echo "== crash: kill -9 mid-chain"
printf '+ 3 4 2\n' | $CTL mutate >/dev/null || true
kill -9 "$PID"
wait "$PID" 2>/dev/null || true
PID=""

echo "== recover from base + delta chain"
"$BINDIR/spinnerd" -addr "127.0.0.1:$PORT" -degrade 999999 -data-dir "$DIR" \
  -fsync never -checkpoint-every 4 -max-delta-chain 4 -delta-ring 32 &
PID=$!
wait_healthy
VERTICES=$(stat_field vertices)
DRIFT=$(stat_field CutDrift)
REPLAYED=$(stat_field ReplayedRecords)
NEWFLOOR=$(stat_field delta_floor)
echo "   vertices=$VERTICES drift=$DRIFT replayed=$REPLAYED delta_floor=$NEWFLOOR"
[ "$VERTICES" = "2000" ] || { echo "FAIL: vertex space not recovered" >&2; exit 1; }
[ "$DRIFT" = "0" ] || { echo "FAIL: cut drift $DRIFT after chain recovery" >&2; exit 1; }

echo "== post-recovery: sequences reset, feed still converges"
# The new incarnation starts its feed over: a consumer from seq 0 sees
# the fresh baseline (or a 410 "reset"/"compacted" it recovers from).
churn 3 23
sleep 1
$CTL feed-labels > "$BINDIR/feed2.txt"
$CTL labels > "$BINDIR/lookup2.txt"
diff -q "$BINDIR/feed2.txt" "$BINDIR/lookup2.txt" >/dev/null \
  || { echo "FAIL: post-recovery feed differs from lookup truth" >&2; exit 1; }
echo "   feed == lookup on the recovered incarnation"

echo "PASS: change feed + incremental checkpoint smoke"
