#!/usr/bin/env bash
# replication_smoke.sh — end-to-end replicated-serving smoke for the
# spinnerd daemon (ISSUE 7 / CI job).
#
# Boots a durable leader on a synthetic graph plus a warm-standby
# follower tailing its journal stream (-follow). Drives mutation churn at
# the leader, asserts the follower converges to the same applied sequence
# with bounded staleness, serves lookups from its own snapshots, and
# refuses writes (503 read_only). Then the failover drill: record the
# leader's acknowledged-and-replicated watermark plus a lookup sample,
# kill -9 the leader, POST /v1/promote on the follower, and assert the
# promoted node reports role=leader, has lost no acknowledged batch
# (applied_seq >= the pre-kill watermark), answers the sample lookups
# identically, and accepts writes.
#
# Usage: scripts/replication_smoke.sh [leader-port] [follower-port]
set -euo pipefail
cd "$(dirname "$0")/.."

LPORT="${1:-18577}"
FPORT="${2:-18578}"
LBASE="http://127.0.0.1:$LPORT"
FBASE="http://127.0.0.1:$FPORT"
BIN=$(mktemp -d)/spinnerd
LDIR=$(mktemp -d)
FDIR=$(mktemp -d)
LPID=""
FPID=""
cleanup() {
  [ -n "$LPID" ] && kill -9 "$LPID" 2>/dev/null || true
  [ -n "$FPID" ] && kill -9 "$FPID" 2>/dev/null || true
  rm -rf "$LDIR" "$FDIR" "$(dirname "$BIN")"
}
trap cleanup EXIT

echo "== build spinnerd"
go build -o "$BIN" ./cmd/spinnerd

wait_healthy() { # wait_healthy <base-url>
  for _ in $(seq 1 100); do
    if curl -fsS "$1/v1/healthz" >/dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  echo "spinnerd at $1 never became healthy" >&2
  return 1
}

stat_field() { # stat_field <base-url> <key> — crude JSON extraction, no jq dependency
  curl -fsS "$1/v1/stats" | tr ',{}' '\n\n\n' | grep -m1 "\"$2\":" | sed 's/.*: *//' | tr -d '"'
}

churn() { # churn <rounds> <salt> — mutation batches against the leader
  for i in $(seq 1 "$1"); do
    body=""
    for j in $(seq 1 20); do
      u=$(( (i * 131 + j * 17 + $2) % 2000 ))
      v=$(( (i * 37 + j * 113 + $2 + 1) % 2000 ))
      [ "$u" -eq "$v" ] && v=$(( (v + 1) % 2000 ))
      body+="+ $u $v 2"$'\n'
    done
    curl -fsS -X POST --data-binary "$body" "$LBASE/v1/mutate" >/dev/null
  done
}

# wait_caught_up: block until the follower has applied the leader's
# current journal watermark (acknowledged AND replicated).
wait_caught_up() {
  want=$(stat_field "$LBASE" applied_seq)
  for _ in $(seq 1 200); do
    got=$(stat_field "$FBASE" applied_seq)
    [ -n "$got" ] && [ "$got" -ge "$want" ] && return 0
    sleep 0.1
  done
  echo "follower stuck at applied_seq=$got, leader at $want" >&2
  return 1
}

echo "== boot leader (fsync=never, checkpoint-every=8)"
# -degrade suppresses background restabilization so the follower's
# replayed labels must match the leader's lookups exactly.
"$BIN" -k 4 -synthetic 2000 -seed 11 -shards 2 -addr "127.0.0.1:$LPORT" \
  -degrade 999999 -data-dir "$LDIR" -fsync never -fsync-interval 25ms \
  -checkpoint-every 8 -keep-checkpoints 2 &
LPID=$!
wait_healthy "$LBASE"

echo "== boot follower tailing $LBASE"
# Same partitioner flags as the leader: the journal replay path is the
# recovery path, and identical options make it bit-identical.
"$BIN" -k 4 -seed 11 -addr "127.0.0.1:$FPORT" -degrade 999999 \
  -follow "127.0.0.1:$LPORT" -data-dir "$FDIR" -fsync never \
  -max-staleness 30s &
FPID=$!
wait_healthy "$FBASE"
[ "$(stat_field "$FBASE" role)" = "follower" ] || { echo "FAIL: follower reports role=$(stat_field "$FBASE" role)" >&2; exit 1; }
[ "$(stat_field "$LBASE" role)" = "leader" ] || { echo "FAIL: leader reports role=$(stat_field "$LBASE" role)" >&2; exit 1; }

echo "== churn: 24 mutation batches at the leader"
churn 24 0
sleep 0.5
wait_caught_up

STALE=$(stat_field "$FBASE" staleness_ms)
echo "   follower caught up (applied_seq=$(stat_field "$FBASE" applied_seq), staleness=${STALE}ms)"
[ -n "$STALE" ] && [ "$STALE" -lt 5000 ] || { echo "FAIL: follower staleness ${STALE}ms, want < 5000" >&2; exit 1; }

echo "== follower refuses writes while tailing"
CODE=$(curl -s -o /dev/null -w '%{http_code}' -X POST --data-binary "+ 1 2 2" "$FBASE/v1/mutate")
[ "$CODE" = "503" ] || { echo "FAIL: follower /v1/mutate returned $CODE, want 503 read_only" >&2; exit 1; }

echo "== lookup sample served from the follower's own snapshots"
SAMPLE="1 42 500 999 1500 1999"
declare -A BEFORE
for v in $SAMPLE; do
  lpart=$(curl -fsS "$LBASE/v1/lookup?v=$v" | tr ',{}' '\n\n\n' | grep -m1 '"partition":' | sed 's/.*: *//')
  fpart=$(curl -fsS "$FBASE/v1/lookup?v=$v" | tr ',{}' '\n\n\n' | grep -m1 '"partition":' | sed 's/.*: *//')
  [ "$fpart" = "$lpart" ] || { echo "FAIL: lookup($v) leader=$lpart follower=$fpart" >&2; exit 1; }
  BEFORE[$v]=$fpart
done

echo "== more churn, then record the replicated watermark"
churn 12 7
sleep 0.5
wait_caught_up
WATERMARK=$(stat_field "$FBASE" applied_seq)
for v in $SAMPLE; do
  BEFORE[$v]=$(curl -fsS "$FBASE/v1/lookup?v=$v" | tr ',{}' '\n\n\n' | grep -m1 '"partition":' | sed 's/.*: *//')
done
echo "   watermark=$WATERMARK (acknowledged and replicated)"

echo "== kill -9 the leader"
kill -9 "$LPID"
wait "$LPID" 2>/dev/null || true
LPID=""

echo "== promote the follower"
PROMOTE=$(curl -fsS -X POST "$FBASE/v1/promote")
echo "   $PROMOTE"
echo "$PROMOTE" | grep -q '"promoted": *true' || { echo "FAIL: promote response: $PROMOTE" >&2; exit 1; }
[ "$(stat_field "$FBASE" role)" = "leader" ] || { echo "FAIL: promoted node still role=$(stat_field "$FBASE" role)" >&2; exit 1; }

APPLIED=$(stat_field "$FBASE" applied_seq)
[ "$APPLIED" -ge "$WATERMARK" ] || { echo "FAIL: promoted applied_seq=$APPLIED lost acknowledged batches (watermark $WATERMARK)" >&2; exit 1; }

echo "== lookup consistency across failover"
for v in $SAMPLE; do
  part=$(curl -fsS "$FBASE/v1/lookup?v=$v" | tr ',{}' '\n\n\n' | grep -m1 '"partition":' | sed 's/.*: *//')
  if [ -z "$part" ] || [ "$part" -lt 0 ] || [ "$part" -ge 4 ]; then
    echo "FAIL: lookup($v) = '$part' out of [0,4)" >&2; exit 1
  fi
  if [ "$part" != "${BEFORE[$v]}" ]; then
    echo "FAIL: lookup($v) = $part after promotion, pre-kill ${BEFORE[$v]}" >&2; exit 1
  fi
done

echo "== promoted node accepts writes"
curl -fsS -X POST --data-binary "+ 5 6 2" "$FBASE/v1/mutate" >/dev/null || { echo "FAIL: promoted node refused a write" >&2; exit 1; }
NEW_APPLIED=$(stat_field "$FBASE" applied_seq)
[ "$NEW_APPLIED" -gt "$APPLIED" ] || sleep 0.5
NEW_APPLIED=$(stat_field "$FBASE" applied_seq)
[ "$NEW_APPLIED" -gt "$APPLIED" ] || { echo "FAIL: post-promotion write never journaled ($APPLIED -> $NEW_APPLIED)" >&2; exit 1; }

kill "$FPID" 2>/dev/null && wait "$FPID" 2>/dev/null || true
FPID=""
echo "replication smoke: OK"
