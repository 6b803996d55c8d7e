#!/usr/bin/env bash
# shard_smoke.sh — boot a 3-member sharded rdtserved cluster behind
# rdtrouterd, drive it over the binary wire with rdtload, and change
# membership mid-ingest: one member leaves, a fresh member joins. Every
# displaced session is handed off live (passivate, ship, reactivate)
# while its producer keeps streaming.
#
# Four assertions:
#   1. Parity: the cluster's verdict digest over the seeded workload is
#      bit-identical to a single unsharded rdtserved's digest over the
#      same traffic — zero lost, zero duplicated events through both
#      rebalances (the digest covers events_applied and the full RDT
#      verdict of every session).
#   2. Drain: the removed member ends the run holding no sessions.
#   3. Spread: the newly-joined member ends the run owning at least one
#      of the driven sessions.
#   4. No resumes on the reference: a single daemon never closes a
#      stream connection, so a resume there is a server-side close that
#      the replay would otherwise hide.
#
# Knobs: SHARD_SMOKE_SESSIONS (default 150) and SHARD_SMOKE_EVENTS
# (events per session, default 8000): at the ~850 k events/s a
# three-member durable cluster ingests since group commit, 1.2 M events
# keep the producers streaming for well over a second, and both
# membership changes land within 0.6 s; SHARD_SMOKE_BATCH (default 32).
set -euo pipefail

cd "$(dirname "$0")/.."

SESSIONS="${SHARD_SMOKE_SESSIONS:-150}"
EVENTS="${SHARD_SMOKE_EVENTS:-8000}"
BATCH="${SHARD_SMOKE_BATCH:-32}"

WORK="$(mktemp -d "${TMPDIR:-/tmp}/rdt-shard.XXXXXX")"
PIDS=()

cleanup() {
  for pid in "${PIDS[@]:-}"; do
    [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
  done
  rm -rf "$WORK"
}
trap cleanup EXIT

go build -o "$WORK/rdtserved" ./cmd/rdtserved
go build -o "$WORK/rdtrouterd" ./cmd/rdtrouterd
go build -o "$WORK/rdtload" ./cmd/rdtload

# boot_member NAME: start one ringless shard member on ephemeral ports
# (it adopts its ring from the router's config push) and record its
# HTTP/stream addresses in NAME_HTTP / NAME_STREAM.
boot_member() {
  local name="$1" log="$WORK/$1.log"
  mkdir -p "$WORK/data-$name"
  "$WORK/rdtserved" -addr 127.0.0.1:0 -stream-addr 127.0.0.1:0 \
    -data-dir "$WORK/data-$name" -shard-self "$name" >"$log" 2>&1 &
  PIDS+=("$!")
  local pid="$!"
  for _ in $(seq 1 100); do
    if grep -q "stream ingest on" "$log"; then break; fi
    if ! kill -0 "$pid" 2>/dev/null; then
      echo "member $name died on startup:" >&2
      cat "$log" >&2
      exit 1
    fi
    sleep 0.1
  done
  local http stream
  http="$(sed -n 's/^rdtserved: listening on \([0-9.:]*\).*/\1/p' "$log")"
  stream="$(sed -n 's/^rdtserved: stream ingest on \([0-9.:]*\)$/\1/p' "$log")"
  if [ -z "$http" ] || [ -z "$stream" ]; then
    echo "could not parse $name's listen addresses from:" >&2
    cat "$log" >&2
    exit 1
  fi
  eval "${name^^}_HTTP=$http ${name^^}_STREAM=$stream"
  echo "member $name: http=$http stream=$stream"
}

echo "== boot members =="
boot_member a
boot_member b
boot_member c
boot_member d # joins mid-ingest; ringless until then

echo "== boot router over {a, b, c} =="
"$WORK/rdtrouterd" -addr 127.0.0.1:0 \
  -members "a=$A_HTTP+$A_STREAM,b=$B_HTTP+$B_STREAM,c=$C_HTTP+$C_STREAM" \
  >"$WORK/router.log" 2>&1 &
PIDS+=("$!")
ROUTER_PID="$!"
for _ in $(seq 1 100); do
  if grep -q "listening on" "$WORK/router.log"; then break; fi
  if ! kill -0 "$ROUTER_PID" 2>/dev/null; then
    echo "router died on startup:" >&2
    cat "$WORK/router.log" >&2
    exit 1
  fi
  sleep 0.1
done
ROUTER="$(sed -n 's/^rdtrouterd: listening on \([0-9.:]*\)$/\1/p' "$WORK/router.log")"
echo "router: http=$ROUTER"

COMMON=(-sessions "$SESSIONS" -procs 4 -events "$EVENTS" -batch "$BATCH" -shape random -seed 11 -prefix shard-)

echo "== rdtload against the cluster (rebalance mid-ingest) =="
"$WORK/rdtload" -mode stream -addr "$A_STREAM,$B_STREAM,$C_STREAM" -http "$ROUTER" \
  "${COMMON[@]}" >"$WORK/cluster.out" 2>&1 &
LOAD_PID="$!"
PIDS+=("$LOAD_PID")

still_loading() {
  if ! kill -0 "$LOAD_PID" 2>/dev/null; then
    echo "rdtload finished before the rebalance; raise SHARD_SMOKE_EVENTS" >&2
    cat "$WORK/cluster.out" >&2
    exit 1
  fi
}
sleep 0.3
still_loading
echo "== membership change: remove c =="
curl -sf -X POST "http://$ROUTER/v1/shard/members" \
  -d '{"action":"remove","member":{"name":"c"}}' >/dev/null
sleep 0.3
still_loading
echo "== membership change: add d =="
curl -sf -X POST "http://$ROUTER/v1/shard/members" \
  -d "{\"action\":\"add\",\"member\":{\"name\":\"d\",\"http\":\"$D_HTTP\",\"stream\":\"$D_STREAM\"}}" >/dev/null

if ! wait "$LOAD_PID"; then
  echo "rdtload against the cluster failed:" >&2
  cat "$WORK/cluster.out" >&2
  exit 1
fi
cat "$WORK/cluster.out"
cluster_digest="$(awk '/verdict digest/ {print $4; exit}' "$WORK/cluster.out")"

echo "== cluster state checks =="
epoch="$(curl -sf "http://$ROUTER/healthz" | sed -n 's/.*"epoch":\([0-9]*\).*/\1/p')"
echo "ring epoch: $epoch"
if [ "$epoch" != "3" ]; then
  echo "expected ring epoch 3 after two membership changes, got $epoch" >&2
  exit 1
fi
c_sessions="$(curl -sf "http://$C_HTTP/v1/sessions" | { grep -o '"id"' || true; } | wc -l)"
d_sessions="$(curl -sf "http://$D_HTTP/v1/sessions" | { grep -o '"id"' || true; } | wc -l)"
echo "removed member c holds $c_sessions sessions; joined member d holds $d_sessions"
if [ "$c_sessions" -ne 0 ]; then
  echo "removed member still holds $c_sessions sessions after handoff" >&2
  exit 1
fi
if [ "$d_sessions" -lt 1 ]; then
  echo "joined member received no sessions" >&2
  exit 1
fi

echo "== reference: single unsharded daemon, same workload =="
"$WORK/rdtserved" -addr 127.0.0.1:0 -stream-addr 127.0.0.1:0 >"$WORK/ref.log" 2>&1 &
PIDS+=("$!")
REF_PID="$!"
for _ in $(seq 1 100); do
  if grep -q "stream ingest on" "$WORK/ref.log"; then break; fi
  if ! kill -0 "$REF_PID" 2>/dev/null; then
    echo "reference daemon died on startup:" >&2
    cat "$WORK/ref.log" >&2
    exit 1
  fi
  sleep 0.1
done
REF_HTTP="$(sed -n 's/^rdtserved: listening on \([0-9.:]*\).*/\1/p' "$WORK/ref.log")"
REF_STREAM="$(sed -n 's/^rdtserved: stream ingest on \([0-9.:]*\)$/\1/p' "$WORK/ref.log")"
"$WORK/rdtload" -mode stream -addr "$REF_STREAM" -http "$REF_HTTP" \
  "${COMMON[@]}" | tee "$WORK/ref.out"
ref_digest="$(awk '/verdict digest/ {print $4; exit}' "$WORK/ref.out")"
ref_resumes="$(awk '/rdtload: resumes/ {print $3; exit}' "$WORK/ref.out")"

echo "== results =="
if [ "$ref_resumes" != "0" ]; then
  echo "the reference leg resumed ${ref_resumes:-?} channels on a single daemon; want 0" >&2
  exit 1
fi
if [ -z "$cluster_digest" ] || [ "$cluster_digest" != "$ref_digest" ]; then
  echo "VERDICT DIGEST MISMATCH: cluster diverged from the unsharded reference" >&2
  echo "  cluster: $cluster_digest" >&2
  echo "  single:  $ref_digest" >&2
  exit 1
fi
echo "verdict digests identical across cluster rebalance ($cluster_digest)"
echo "shard smoke: OK"
