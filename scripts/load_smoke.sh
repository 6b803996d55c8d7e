#!/usr/bin/env bash
# load_smoke.sh — boot a real rdtserved with both ingest wires and race
# rdtload over each: the JSON API versus the RDTSTRM1 binary stream.
#
# Three assertions:
#   1. Parity: identical seeded traffic through either wire must produce
#      identical verdicts (rdtload's digest canonicalizes the per-session
#      verdict documents and hashes them in session order).
#   2. Liveness: both wires report nonzero throughput.
#   3. No resumes: one healthy daemon never closes a stream connection,
#      so the stream leg must not have resumed a channel. A server-side
#      close fails the smoke instead of being replayed away.
#
# Both throughput numbers are printed, but how fast either wire is gets
# measured by `bash bench/run.sh` (mem-rotate, json-rotate), not here.
# Knobs: LOAD_SMOKE_BATCH (events per batch, default 2),
# LOAD_SMOKE_EVENTS (events per session, default 2000).
set -euo pipefail

cd "$(dirname "$0")/.."

BATCH="${LOAD_SMOKE_BATCH:-2}"
EVENTS="${LOAD_SMOKE_EVENTS:-2000}"

WORK="$(mktemp -d "${TMPDIR:-/tmp}/rdt-load.XXXXXX")"
PID=""

cleanup() {
  [ -n "$PID" ] && kill "$PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

go build -o "$WORK/rdtserved" ./cmd/rdtserved
go build -o "$WORK/rdtload" ./cmd/rdtload

echo "== boot =="
"$WORK/rdtserved" -addr 127.0.0.1:0 -stream-addr 127.0.0.1:0 >"$WORK/served.log" 2>&1 &
PID=$!
for _ in $(seq 1 100); do
  if grep -q "stream ingest on" "$WORK/served.log"; then break; fi
  if ! kill -0 "$PID" 2>/dev/null; then
    echo "daemon died on startup:" >&2
    cat "$WORK/served.log" >&2
    exit 1
  fi
  sleep 0.1
done
HTTP_ADDR="$(sed -n 's/^rdtserved: listening on \([0-9.:]*\).*/\1/p' "$WORK/served.log")"
STREAM_ADDR="$(sed -n 's/^rdtserved: stream ingest on \([0-9.:]*\)$/\1/p' "$WORK/served.log")"
if [ -z "$HTTP_ADDR" ] || [ -z "$STREAM_ADDR" ]; then
  echo "could not parse listen addresses from:" >&2
  cat "$WORK/served.log" >&2
  exit 1
fi
echo "http=$HTTP_ADDR stream=$STREAM_ADDR"

COMMON=(-sessions 8 -procs 4 -events "$EVENTS" -batch "$BATCH" -shape random -seed 7)

echo "== rdtload: JSON ingest =="
"$WORK/rdtload" -mode json -http "$HTTP_ADDR" -prefix smoke-json- "${COMMON[@]}" | tee "$WORK/json.out"

echo "== rdtload: binary stream ingest =="
"$WORK/rdtload" -mode stream -addr "$STREAM_ADDR" -http "$HTTP_ADDR" -prefix smoke-stream- "${COMMON[@]}" | tee "$WORK/stream.out"

json_rate="$(awk '/throughput/ {print $3; exit}' "$WORK/json.out")"
stream_rate="$(awk '/throughput/ {print $3; exit}' "$WORK/stream.out")"
json_digest="$(awk '/verdict digest/ {print $4; exit}' "$WORK/json.out")"
stream_digest="$(awk '/verdict digest/ {print $4; exit}' "$WORK/stream.out")"
stream_resumes="$(awk '/rdtload: resumes/ {print $3; exit}' "$WORK/stream.out")"

echo "== results =="
echo "json:   $json_rate events/sec"
echo "stream: $stream_rate events/sec"

if [ -z "$json_rate" ] || [ -z "$stream_rate" ] || \
   ! awk "BEGIN{exit !($json_rate > 0 && $stream_rate > 0)}"; then
  echo "expected nonzero throughput on both wires" >&2
  exit 1
fi

if [ "$stream_resumes" != "0" ]; then
  echo "the stream leg resumed ${stream_resumes:-?} channels on a single daemon; want 0" >&2
  exit 1
fi

if [ -z "$json_digest" ] || [ "$json_digest" != "$stream_digest" ]; then
  echo "VERDICT DIGEST MISMATCH between wires" >&2
  echo "  json:   $json_digest" >&2
  echo "  stream: $stream_digest" >&2
  exit 1
fi
echo "verdict digests identical across wires ($stream_digest)"
echo "load smoke: OK"
