#!/usr/bin/env bash
# durability_smoke.sh — kill -9 a live rdtserved and verify the restart
# answers the identical verdict from its WAL, then do the same across a
# clean SIGTERM drain.
#
# The daemon is started with -data-dir, a session is created and fed a
# known event stream (including the Figure 1 style exchange), the
# verdict is captured, then the process is killed hard (no drain). A
# second daemon on the same data dir must log a recovery that replayed
# WAL records and serve a bit-identical verdict, then keep ingesting and
# seal. It is then stopped with SIGTERM, and a third daemon must replay
# the WAL again — a drain writes nothing a restart could load instead —
# and serve the sealed verdict byte for byte.
#
# Usage: scripts/durability_smoke.sh [path-to-rdtserved]
set -euo pipefail

cd "$(dirname "$0")/.."

BIN="${1:-}"
WORK="$(mktemp -d "${TMPDIR:-/tmp}/rdt-durability.XXXXXX")"
DATA="$WORK/data"
PID=""

cleanup() {
  [ -n "$PID" ] && kill -9 "$PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

if [ -z "$BIN" ]; then
  BIN="$WORK/rdtserved"
  go build -o "$BIN" ./cmd/rdtserved
fi

ADDR="127.0.0.1:18474"
BASE="http://$ADDR"

start_daemon() {
  "$BIN" -addr "$ADDR" -data-dir "$DATA" >"$WORK/$1.log" 2>&1 &
  PID=$!
  for _ in $(seq 1 100); do
    if curl -fsS "$BASE/healthz" >/dev/null 2>&1; then return 0; fi
    if ! kill -0 "$PID" 2>/dev/null; then
      echo "daemon died on startup:" >&2
      cat "$WORK/$1.log" >&2
      exit 1
    fi
    sleep 0.1
  done
  echo "daemon did not become healthy" >&2
  exit 1
}

echo "== boot =="
start_daemon boot

echo "== ingest =="
curl -fsS -X POST "$BASE/v1/sessions" -d '{"id":"smoke","n":3}' >/dev/null
curl -fsS -X POST "$BASE/v1/sessions/smoke/events" -d '[
  {"op":"checkpoint","proc":0},
  {"op":"send","proc":1,"peer":0,"msg":0},
  {"op":"deliver","msg":0},
  {"op":"checkpoint","proc":0},
  {"op":"send","proc":0,"peer":2,"msg":1},
  {"op":"deliver","msg":1},
  {"op":"checkpoint","proc":2},
  {"op":"send","proc":2,"peer":1,"msg":2},
  {"op":"deliver","msg":2},
  {"op":"checkpoint","proc":1}
]' >/dev/null
curl -fsS -X POST "$BASE/v1/sessions/smoke/events" -d '[{"op":"checkpoint","proc":2}]' >/dev/null
curl -fsS -X POST "$BASE/v1/sessions/smoke/events" -d '[{"op":"send","proc":0,"peer":1,"msg":3}]' >/dev/null
BEFORE="$(curl -fsS "$BASE/v1/sessions/smoke/verdict?flush=1")"
echo "verdict: $BEFORE"

echo "== kill -9 =="
kill -9 "$PID"
wait "$PID" 2>/dev/null || true
PID=""

# expect_replay LOG: the daemon logged a recovery that replayed records.
expect_replay() {
  grep "recovered" "$WORK/$1.log"
  if grep -q "(0 records / 0 events replayed" "$WORK/$1.log"; then
    echo "expected a nonzero WAL replay in $1" >&2
    exit 1
  fi
}

echo "== restart =="
start_daemon restart
expect_replay restart

AFTER="$(curl -fsS "$BASE/v1/sessions/smoke/verdict")"
if [ "$BEFORE" != "$AFTER" ]; then
  echo "VERDICT MISMATCH after crash recovery" >&2
  echo "  before: $BEFORE" >&2
  echo "  after:  $AFTER" >&2
  exit 1
fi
echo "verdict identical after kill -9 + restart"

# The recovered session is live: it accepts more events and seals.
curl -fsS -X POST "$BASE/v1/sessions/smoke/events" \
  -d '[{"op":"checkpoint","proc":1}]' >/dev/null
curl -fsS -X POST "$BASE/v1/sessions/smoke/seal" >/dev/null
SEALED="$(curl -fsS "$BASE/v1/sessions/smoke/verdict")"
STATE="$(echo "$SEALED" | sed -n 's/.*"state":"\([a-z]*\)".*/\1/p')"
if [ "$STATE" != "sealed" ]; then
  echo "expected sealed state after recovery, got: $STATE" >&2
  exit 1
fi

echo "== SIGTERM =="
kill -TERM "$PID"
wait "$PID" 2>/dev/null || true
PID=""
grep -q "drained" "$WORK/restart.log"

echo "== restart after drain =="
start_daemon drained
expect_replay drained
AGAIN="$(curl -fsS "$BASE/v1/sessions/smoke/verdict")"
if [ "$SEALED" != "$AGAIN" ]; then
  echo "VERDICT MISMATCH after drain + restart" >&2
  echo "  before: $SEALED" >&2
  echo "  after:  $AGAIN" >&2
  exit 1
fi
echo "verdict identical after SIGTERM + restart"

kill -9 "$PID" 2>/dev/null || true
wait "$PID" 2>/dev/null || true
PID=""
echo "durability smoke: OK"
