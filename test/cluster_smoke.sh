#!/usr/bin/env bash
# CI smoke test for the register service: a 5-server f=2 cluster of
# separate daemons with persistent state, a seeded paced load under it,
# two servers SIGKILLed mid-run and restarted over their state files.
# The loadgen run must complete every operation, observe the
# recoveries, keep a regular history, and respect the Theorem 2
# storage ceiling during the run and the (2f+k)D/k GC floor after
# quiescence — loadgen exits non-zero if any of that fails.
#
# Usage: test/cluster_smoke.sh [path-to-spacebounds-exe]
# (Defaults to the built binary: concurrent `dune exec` daemons would
# serialize on dune's build lock.  Run `dune build` first.)
set -ue

SPACEBOUNDS=${1:-_build/default/bin/spacebounds.exe}
SOCKDIR=$(mktemp -d)
STATEDIR=$(mktemp -d)
JSON=${JSON:-BENCH_service_closed.json}

F=2
K=1
N=$((2 * F + K))
ALGO_ARGS=(-a adaptive -f "$F" -k "$K" --value-bytes 64)

declare -a PIDS
cleanup() {
  for pid in "${PIDS[@]:-}"; do kill "$pid" 2>/dev/null || true; done
  wait 2>/dev/null || true
  rm -rf "$SOCKDIR" "$STATEDIR"
}
trap cleanup EXIT

start_server() {
  $SPACEBOUNDS serve "${ALGO_ARGS[@]}" --server "$1" \
    --sockdir "$SOCKDIR" --statedir "$STATEDIR" &
  PIDS[$1]=$!
}

echo "== starting $N daemons (f=$F, k=$K) under $SOCKDIR"
for i in $(seq 0 $((N - 1))); do start_server "$i"; done

for _ in $(seq 1 100); do
  up=$(ls "$SOCKDIR" 2>/dev/null | grep -c '\.sock$' || true)
  [ "$up" -eq "$N" ] && break
  sleep 0.1
done
[ "$(ls "$SOCKDIR" | grep -c '\.sock$')" -eq "$N" ] || {
  echo "cluster did not come up"; exit 1;
}

echo "== loadgen: seeded paced run (kills arrive mid-run)"
$SPACEBOUNDS loadgen "${ALGO_ARGS[@]}" \
  --writers 2 --writes-each 60 --readers 2 --reads-each 60 \
  --seed 11 --think-ms 25 --sockdir "$SOCKDIR" --json "$JSON" &
LOADGEN=$!

# SIGKILL f = 2 servers mid-run, then restart them over their state
# files: each recovers into a fresh incarnation and is re-admitted.
sleep 0.9
echo "== SIGKILL servers 3 and 4"
kill -9 "${PIDS[3]}" "${PIDS[4]}"
sleep 0.7
echo "== restarting servers 3 and 4 over $STATEDIR"
start_server 3
start_server 4

wait "$LOADGEN"
echo "== loadgen verdict: green"

# The kills really happened during the run: the report must show the
# restarted servers' incarnation bumps.
grep -q '"recoveries": 2' "$JSON" || {
  echo "expected 2 observed recoveries in $JSON:"; cat "$JSON"; exit 1;
}
grep -q '"ok": true' "$JSON" || { echo "report not ok"; cat "$JSON"; exit 1; }
echo "== smoke test passed"

# ---------------------------------------------------------------------
# Mixed-version phase: the same cluster shape pinned to wire v1 (an
# old build), the current-version loadgen negotiating down to every
# daemon, and a rolling upgrade of f servers to the current wire
# version under live load.  Theorem 2 ceiling/floor and regularity are
# still enforced by loadgen itself; on top of that the report must show
# the downgrades happening and zero schema rejects.
# ---------------------------------------------------------------------
echo "== mixed-version phase: restarting the cluster pinned to wire v1"
for pid in "${PIDS[@]:-}"; do kill "$pid" 2>/dev/null || true; done
wait 2>/dev/null || true
rm -rf "$SOCKDIR" "$STATEDIR"
mkdir -p "$SOCKDIR" "$STATEDIR"
MIXED_JSON=${MIXED_JSON:-BENCH_service_mixed.json}

start_server_v1() {
  $SPACEBOUNDS serve "${ALGO_ARGS[@]}" --server "$1" --wire-version 1 \
    --sockdir "$SOCKDIR" --statedir "$STATEDIR" &
  PIDS[$1]=$!
}

for i in $(seq 0 $((N - 1))); do start_server_v1 "$i"; done
for _ in $(seq 1 100); do
  up=$(ls "$SOCKDIR" 2>/dev/null | grep -c '\.sock$' || true)
  [ "$up" -eq "$N" ] && break
  sleep 0.1
done
[ "$(ls "$SOCKDIR" | grep -c '\.sock$')" -eq "$N" ] || {
  echo "v1 cluster did not come up"; exit 1;
}

echo "== loadgen (current version) against the v1 cluster"
$SPACEBOUNDS loadgen "${ALGO_ARGS[@]}" \
  --writers 2 --writes-each 60 --readers 2 --reads-each 60 \
  --seed 23 --think-ms 25 --sockdir "$SOCKDIR" --json "$MIXED_JSON" &
LOADGEN=$!

# Roll f = 2 daemons forward to the current wire version mid-run: the
# upgraded servers come back self-describing, the still-v1 majority
# keeps serving, and the client keeps both generations in one quorum.
sleep 0.9
echo "== rolling servers 3 and 4 forward to the current wire version"
kill -9 "${PIDS[3]}" "${PIDS[4]}"
sleep 0.7
start_server 3
start_server 4

wait "$LOADGEN"
echo "== mixed-version loadgen verdict: green"

# Every daemon started at v1, so the client must have negotiated down
# once per server — and a downgrade is not a reject.
grep -q "\"downgrades\": $N" "$MIXED_JSON" || {
  echo "expected $N wire downgrades in $MIXED_JSON:"; cat "$MIXED_JSON"; exit 1;
}
grep -q '"schema_rejects": 0' "$MIXED_JSON" || {
  echo "expected no schema rejects in $MIXED_JSON:"; cat "$MIXED_JSON"; exit 1;
}
grep -q '"recoveries": 2' "$MIXED_JSON" || {
  echo "expected 2 observed recoveries in $MIXED_JSON:"; cat "$MIXED_JSON"; exit 1;
}
grep -q '"ok": true' "$MIXED_JSON" || {
  echo "mixed-version report not ok"; cat "$MIXED_JSON"; exit 1;
}
echo "== mixed-version smoke test passed"

# ---------------------------------------------------------------------
# Crash-point phase: server 0 armed to abort inside the torn-write
# window (after the temp-file fsync, before the rename) on its 3rd
# persist.  The abort is _exit 70 — indistinguishable from SIGKILL.
# The restart must load the OLD state (the rename never happened),
# recover into a fresh incarnation, and the loadgen run stays green
# with exactly that one recovery observed.
# ---------------------------------------------------------------------
echo "== crash-point phase: server 0 armed with --crash-at persist:3"
for pid in "${PIDS[@]:-}"; do kill "$pid" 2>/dev/null || true; done
wait 2>/dev/null || true
rm -rf "$SOCKDIR" "$STATEDIR"
mkdir -p "$SOCKDIR" "$STATEDIR"
CRASH_JSON=${CRASH_JSON:-BENCH_service_crash.json}

$SPACEBOUNDS serve "${ALGO_ARGS[@]}" --server 0 --crash-at persist:3 \
  --sockdir "$SOCKDIR" --statedir "$STATEDIR" &
PIDS[0]=$!
for i in $(seq 1 $((N - 1))); do start_server "$i"; done
for _ in $(seq 1 100); do
  up=$(ls "$SOCKDIR" 2>/dev/null | grep -c '\.sock$' || true)
  [ "$up" -eq "$N" ] && break
  sleep 0.1
done
[ "$(ls "$SOCKDIR" | grep -c '\.sock$')" -eq "$N" ] || {
  echo "armed cluster did not come up"; exit 1;
}

$SPACEBOUNDS loadgen "${ALGO_ARGS[@]}" \
  --writers 2 --writes-each 60 --readers 2 --reads-each 60 \
  --seed 31 --think-ms 25 --sockdir "$SOCKDIR" --json "$CRASH_JSON" &
LOADGEN=$!

set +e
wait "${PIDS[0]}"; code=$?
set -e
[ "$code" -eq 70 ] || { echo "expected crash exit 70, got $code"; exit 1; }
echo "== server 0 hit its crash point (exit 70); restarting over its state"
start_server 0

wait "$LOADGEN"
echo "== crash-point loadgen verdict: green"
grep -q '"recoveries": 1' "$CRASH_JSON" || {
  echo "expected 1 observed recovery in $CRASH_JSON:"; cat "$CRASH_JSON"; exit 1;
}
grep -q '"ok": true' "$CRASH_JSON" || {
  echo "crash-point report not ok"; cat "$CRASH_JSON"; exit 1;
}
echo "== crash-point smoke test passed"

# ---------------------------------------------------------------------
# Sharded open-loop bench phase: every daemon hosts 8 shards, the
# loadgen drives Poisson arrivals over 1000 keys through batched v3
# frames, and the run is gated against the committed baseline in
# bench/baselines/BENCH_service.json (ms_per_op and p99 within budget,
# plus the hard gates the baseline carries: >= 900 ops/s at p99 under
# 50 ms).  No state files here: this phase measures the service stack
# itself, not the disk — the durable sharded run is the next phase.
# ---------------------------------------------------------------------
echo "== sharded bench phase: 8 shards/server, open loop over 1000 keys"
for pid in "${PIDS[@]:-}"; do kill "$pid" 2>/dev/null || true; done
wait 2>/dev/null || true
rm -rf "$SOCKDIR" "$STATEDIR"
mkdir -p "$SOCKDIR" "$STATEDIR"
OPEN_JSON=${OPEN_JSON:-BENCH_service.json}

start_server_sharded() {
  $SPACEBOUNDS serve "${ALGO_ARGS[@]}" --server "$1" --shards 8 \
    --sockdir "$SOCKDIR" &
  PIDS[$1]=$!
}

for i in $(seq 0 $((N - 1))); do start_server_sharded "$i"; done
for _ in $(seq 1 100); do
  up=$(ls "$SOCKDIR" 2>/dev/null | grep -c '\.sock$' || true)
  [ "$up" -eq "$N" ] && break
  sleep 0.1
done
[ "$(ls "$SOCKDIR" | grep -c '\.sock$')" -eq "$N" ] || {
  echo "sharded cluster did not come up"; exit 1;
}

$SPACEBOUNDS loadgen "${ALGO_ARGS[@]}" \
  --open-loop --rate 1000 --duration-ms 8000 --keys 1000 \
  --settle-ms 1000 --sockdir "$SOCKDIR" --json "$OPEN_JSON" --check
grep -q '"ok": true' "$OPEN_JSON" || {
  echo "sharded bench report not ok"; cat "$OPEN_JSON"; exit 1;
}
grep -q '"schema_rejects": 0' "$OPEN_JSON" || {
  echo "expected no schema rejects in $OPEN_JSON"; cat "$OPEN_JSON"; exit 1;
}
# The open loop keeps no trace, so its report must claim no regularity
# verdict.
if grep -q '"weak_ok"\|"algo_check_ok"' "$OPEN_JSON"; then
  echo "open-loop report carries verdicts it never checked"; cat "$OPEN_JSON"
  exit 1
fi
echo "== sharded bench phase passed"

# ---------------------------------------------------------------------
# Sharded chaos phase: the same 8-shard fleet with durable per-shard
# state, open-loop load over 1000 keys, and f = 2 daemons SIGKILLed
# mid-run then restarted over their state files.  The run must drain
# green — every arrival completes, both recoveries are observed, and
# the Theorem 2 ceiling (per key and fleet-wide) plus the quiescent GC
# budget hold across the crash-recovery.
# ---------------------------------------------------------------------
echo "== sharded chaos phase: kill f=2 daemons mid open-loop run"
for pid in "${PIDS[@]:-}"; do kill "$pid" 2>/dev/null || true; done
wait 2>/dev/null || true
rm -rf "$SOCKDIR" "$STATEDIR"
mkdir -p "$SOCKDIR" "$STATEDIR"
SHARD_JSON=${SHARD_JSON:-BENCH_service_sharded.json}

start_server_sharded_durable() {
  $SPACEBOUNDS serve "${ALGO_ARGS[@]}" --server "$1" --shards 8 \
    --sockdir "$SOCKDIR" --statedir "$STATEDIR" &
  PIDS[$1]=$!
}

for i in $(seq 0 $((N - 1))); do start_server_sharded_durable "$i"; done
for _ in $(seq 1 100); do
  up=$(ls "$SOCKDIR" 2>/dev/null | grep -c '\.sock$' || true)
  [ "$up" -eq "$N" ] && break
  sleep 0.1
done
[ "$(ls "$SOCKDIR" | grep -c '\.sock$')" -eq "$N" ] || {
  echo "durable sharded cluster did not come up"; exit 1;
}

$SPACEBOUNDS loadgen "${ALGO_ARGS[@]}" \
  --open-loop --rate 500 --duration-ms 8000 --keys 1000 \
  --settle-ms 1000 --sockdir "$SOCKDIR" --json "$SHARD_JSON" &
LOADGEN=$!

sleep 2
echo "== SIGKILL sharded servers 3 and 4"
kill -9 "${PIDS[3]}" "${PIDS[4]}"
sleep 0.7
echo "== restarting sharded servers 3 and 4 over $STATEDIR"
start_server_sharded_durable 3
start_server_sharded_durable 4

wait "$LOADGEN"
echo "== sharded chaos loadgen verdict: green"
grep -q '"recoveries": 2' "$SHARD_JSON" || {
  echo "expected 2 observed recoveries in $SHARD_JSON:"; cat "$SHARD_JSON"; exit 1;
}
grep -q '"ok": true' "$SHARD_JSON" || {
  echo "sharded chaos report not ok"; cat "$SHARD_JSON"; exit 1;
}
echo "== sharded chaos phase passed"
for pid in "${PIDS[@]:-}"; do kill "$pid" 2>/dev/null || true; done
wait 2>/dev/null || true

# ---------------------------------------------------------------------
# Live chaos phase: seeded socket/disk fault campaigns over forked
# clusters — frame loss/duplication/fragmentation, a held-then-healed
# partition, torn-write crash points, and corrupted state files that
# must quarantine and recover fresh.  Green cells re-assert regularity
# and the Theorem 2 ceiling/floor under faults; the report lands in
# CHAOS_live_report.json for the CI artifact.  It runs before the
# multicore phase, whose domains gate can fail on a 2-vCPU machine and
# would then stop the script before this phase.
# ---------------------------------------------------------------------
echo "== live chaos campaign (quick)"
CHAOS_JSON=${CHAOS_JSON:-CHAOS_live_report.json}
$SPACEBOUNDS chaos --live --quick -a adaptive -f 2 -k 1 --seed 7 \
  --value-bytes 64 --live-report "$CHAOS_JSON"
grep -q '"ok": true' "$CHAOS_JSON" || {
  echo "live chaos report not ok"; cat "$CHAOS_JSON"; exit 1;
}
echo "== live chaos passed"

# ---------------------------------------------------------------------
# Multicore phase: the whole fleet in ONE process, split across event-
# loop domains (servers partitioned across domains by id, no cross-
# domain locking).
#
# First a sharded pass, checked but not timed: 8 shards per server and
# an open loop over 1000 keys on one domain per core (at least two), so
# `serve --domains N` keeps running a sharded fleet.
#
# Then the speedup gate: the same closed loop — 16 writers and 16
# readers with no think time — on one domain, then on one domain per
# core.  The closed loop drives one key, so this fleet runs unsharded.
# The gate follows the lib/parallel precedent, armed only where there
# are real cores to win: >= 4 cores must show 1.25x, 2-3 cores 1.05x,
# a single core only records.  On today's hardware the single loadgen
# process is the bottleneck, not the daemon (2 vCPUs: 9,391 ops/s on
# one domain, 9,117 on two), so this gate is expected to fail until
# loadgen gains clients that scale with the cores, such as several
# load processes on disjoint keys.
# ---------------------------------------------------------------------
CORES=$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)
echo "== multicore phase: single-process fleet, $CORES core(s)"
rm -rf "$SOCKDIR" "$STATEDIR"
mkdir -p "$SOCKDIR" "$STATEDIR"

throughput_of() {
  grep -o '"throughput_ops_s": [0-9.]*' "$1" | awk '{print $2}'
}

# $1 = domains, $2 = json, then the serve options, "--", and the
# loadgen options.
run_domains() {
  local domains=$1 json=$2 serve_args=()
  shift 2
  while [ "$1" != "--" ]; do serve_args+=("$1"); shift; done
  shift
  rm -f "$SOCKDIR"/*.sock
  $SPACEBOUNDS serve "${ALGO_ARGS[@]}" "${serve_args[@]}" --domains "$domains" \
    --sockdir "$SOCKDIR" &
  CLUSTER=$!
  for _ in $(seq 1 100); do
    up=$(ls "$SOCKDIR" 2>/dev/null | grep -c '\.sock$' || true)
    [ "$up" -eq "$N" ] && break
    sleep 0.1
  done
  $SPACEBOUNDS loadgen "${ALGO_ARGS[@]}" "$@" \
    --rto 20000 --settle-ms 500 --sockdir "$SOCKDIR" --json "$json"
  kill "$CLUSTER" 2>/dev/null || true
  wait "$CLUSTER" 2>/dev/null || true
}

SHARDED_DOMAINS=$((CORES >= 2 ? CORES : 2))
run_domains "$SHARDED_DOMAINS" BENCH_service_domains_sharded.json --shards 8 -- \
  --open-loop --rate 3000 --duration-ms 6000 --keys 1000
echo "== sharded fleet on $SHARDED_DOMAINS domains passed"

CLOSED_LOOP=(--writers 16 --writes-each 100 --readers 16 --reads-each 100)
run_domains 1 BENCH_service_domains1.json -- "${CLOSED_LOOP[@]}"
T1=$(throughput_of BENCH_service_domains1.json)
if [ "$CORES" -ge 2 ]; then
  run_domains "$CORES" BENCH_service_domainsN.json -- "${CLOSED_LOOP[@]}"
  TN=$(throughput_of BENCH_service_domainsN.json)
  if [ "$CORES" -ge 4 ]; then REQ=1.25; else REQ=1.05; fi
  echo "== domains speedup: $TN vs $T1 ops/s (gate ${REQ}x at $CORES cores)"
  awk -v tn="$TN" -v t1="$T1" -v req="$REQ" \
    'BEGIN { exit !(tn >= req * t1) }' || {
    echo "multicore speedup gate failed: $TN < $REQ x $T1"; exit 1;
  }
else
  echo "== domains speedup gate skipped (recorded $T1 ops/s; single core)"
fi
echo "== multicore phase passed"
