#!/usr/bin/env bash
# Cluster smoke test: build rtmdm-serve, rtmdm-gateway and
# rtmdm-loadgen, then prove the sharded layer's three headline claims
# end to end (docs/CLUSTER.md):
#
#   1. Scaling — the same seed-deterministic workload against 1 shard
#      and against 4 shards (each pinned to one core via GOMAXPROCS=1)
#      must speed up by at least CLUSTER_SMOKE_MIN_SCALE (default 2.5;
#      override on machines with fewer than ~5 cores). The scaling runs
#      commit 48 tasks per node, so admission analysis, not the HTTP
#      hops through the gateway, is most of the CPU a request costs.
#   2. Fairness + determinism — two fresh seeded runs with weighted
#      tenants produce byte-identical sorted per-shard admission logs,
#      and the JSON report shows the weight-3 tenant carrying more
#      traffic than the weight-1 tenant.
#   3. Chaos — a third run with seed-driven shard kills (SIGTERM →
#      snapshot → warm restart via restart_shard.sh) still produces the
#      exact same admission log.
#   4. Live resharding — a run that starts with the gateway ringed over
#      2 of 4 shards and grows to 3 then 4 via POST /v1/reshard, under a
#      deterministic lossy transport (-chaos-http), must migrate state
#      with zero lost or duplicated admissions: its admission log is
#      byte-identical to the static-4 run's.
set -euo pipefail

cd "$(dirname "$0")/.."
GO="${GO:-go}"
MIN_SCALE="${CLUSTER_SMOKE_MIN_SCALE:-2.5}"
SEED=7

workdir="$(mktemp -d)"
cleanup() {
    for f in "$workdir"/loadgen.pid "$workdir"/run-*/gateway.pid "$workdir"/run-*/shard-*.pid; do
        if [ -f "$f" ]; then
            kill "$(cat "$f")" 2>/dev/null || true
        fi
    done
    rm -rf "$workdir"
}
trap cleanup EXIT

"$GO" build -o "$workdir/rtmdm-serve" ./cmd/rtmdm-serve
"$GO" build -o "$workdir/rtmdm-gateway" ./cmd/rtmdm-gateway
"$GO" build -o "$workdir/rtmdm-loadgen" ./cmd/rtmdm-loadgen

wait_health() { # url
    for _ in $(seq 1 100); do
        curl -sf "$1/healthz" >/dev/null 2>&1 && return 0
        sleep 0.1
    done
    echo "cluster_smoke: $1 not healthy within 10s" >&2
    return 1
}

# start_cluster RUNDIR NSHARDS BASEPORT GWPORT [gateway args...]
# Each shard runs under GOMAXPROCS=1 so one shard ≈ one core and the
# scaling comparison measures shards, not scheduler luck. The per-shard
# cmd file is what restart_shard.sh re-executes on a chaos kill.
# GW_SHARDS=N (default NSHARDS) rings the gateway over only the first N
# shards — the reshard phase starts narrow and grows live.
start_cluster() {
    local rundir="$1" nshards="$2" baseport="$3" gwport="$4"
    shift 4
    local gwshards="${GW_SHARDS:-$nshards}"
    mkdir -p "$rundir"
    local urls=""
    for i in $(seq 0 $((nshards - 1))); do
        local port=$((baseport + i))
        echo "$port" >"$rundir/shard-$i.port"
        cat >"$rundir/shard-$i.cmd" <<EOF
GOMAXPROCS=1 "$workdir/rtmdm-serve" -addr 127.0.0.1:$port -workers 1 \
    -admit-window=-1ms -shard-label shard-0$i \
    -snapshot "$rundir/snap-$i.json" \
    >>"$rundir/shard-$i.log" 2>&1 &
echo \$! >"$rundir/shard-$i.pid"
EOF
        sh "$rundir/shard-$i.cmd"
        if [ "$i" -lt "$gwshards" ]; then
            urls="$urls,http://127.0.0.1:$port"
        fi
    done
    urls="${urls#,}"
    for i in $(seq 0 $((nshards - 1))); do
        wait_health "http://127.0.0.1:$((baseport + i))"
    done
    "$workdir/rtmdm-gateway" -addr "127.0.0.1:$gwport" -shards "$urls" \
        -admit-window=-1ms "$@" >>"$rundir/gateway.log" 2>&1 &
    echo $! >"$rundir/gateway.pid"
    wait_health "http://127.0.0.1:$gwport"
}

stop_cluster() { # RUNDIR
    local rundir="$1"
    for f in "$rundir"/gateway.pid "$rundir"/shard-*.pid; do
        if [ -f "$f" ]; then
            kill -TERM "$(cat "$f")" 2>/dev/null || true
        fi
    done
    for f in "$rundir"/gateway.pid "$rundir"/shard-*.pid; do
        [ -f "$f" ] || continue
        local pid
        pid="$(cat "$f")"
        for _ in $(seq 1 100); do
            kill -0 "$pid" 2>/dev/null || break
            sleep 0.1
        done
    done
}

loadgen() { # GWPORT NSHARDS extra args...
    local gwport="$1" nshards="$2"
    shift 2
    "$workdir/rtmdm-loadgen" -cluster -url "http://127.0.0.1:$gwport" \
        -cluster-shards "$nshards" -seed "$SEED" "$@"
}

echo "=== cluster smoke: scaling (1 shard vs 4 shards) ==="
scale_fill=48
start_cluster "$workdir/run-s1" 1 18210 18300
loadgen 18300 1 -cluster-fill "$scale_fill" -json "$workdir/r1.json"
stop_cluster "$workdir/run-s1"

start_cluster "$workdir/run-s4" 4 18220 18301
loadgen 18301 4 -cluster-fill "$scale_fill" -json "$workdir/r4.json"
stop_cluster "$workdir/run-s4"

rps1="$(jq .total.rps "$workdir/r1.json")"
rps4="$(jq .total.rps "$workdir/r4.json")"
scale="$(awk -v a="$rps4" -v b="$rps1" 'BEGIN { printf "%.2f", a / b }')"
echo "cluster_smoke: 1 shard ${rps1} rps, 4 shards ${rps4} rps — ${scale}x (need ${MIN_SCALE}x)"
awk -v s="$scale" -v m="$MIN_SCALE" 'BEGIN { exit !(s >= m) }' || {
    echo "cluster_smoke: scaling ${scale}x below required ${MIN_SCALE}x" >&2
    exit 1
}

echo "=== cluster smoke: determinism + tenant fairness (two seeded runs) ==="
# A longer probe schedule than the scaling runs, shared by runs a/b/c so
# their admission logs are comparable; the extra ops give the chaos run
# below time to complete at least one kill + warm restart mid-workload.
tenants="gold=3,free=1"
probes=8
start_cluster "$workdir/run-a" 4 18230 18302 -tenants "$tenants"
loadgen 18302 4 -cluster-probes "$probes" -tenants "$tenants" \
    -admit-log "$workdir/log-a" -json "$workdir/ra.json"
stop_cluster "$workdir/run-a"

start_cluster "$workdir/run-b" 4 18240 18303 -tenants "$tenants"
loadgen 18303 4 -cluster-probes "$probes" -tenants "$tenants" \
    -admit-log "$workdir/log-b"
stop_cluster "$workdir/run-b"

if ! diff -u "$workdir/log-a" "$workdir/log-b"; then
    echo "cluster_smoke: admission logs diverged between two seed=$SEED runs" >&2
    exit 1
fi
echo "cluster_smoke: admission logs byte-identical ($(wc -l <"$workdir/log-a") ops)"

gold_req="$(jq '[.tenants[] | select(.tenant == "gold") | .requests] | add' "$workdir/ra.json")"
free_req="$(jq '[.tenants[] | select(.tenant == "free") | .requests] | add' "$workdir/ra.json")"
echo "cluster_smoke: tenant traffic gold=$gold_req free=$free_req (weights 3:1)"
if [ "$gold_req" -le "$free_req" ]; then
    echo "cluster_smoke: weight-3 tenant did not out-carry weight-1 tenant" >&2
    exit 1
fi

echo "=== cluster smoke: chaos (seed-driven shard kills + warm restarts) ==="
start_cluster "$workdir/run-c" 4 18250 18304 -tenants "$tenants" \
    -retries 4 -retry-backoff 100ms -probe-interval 500ms
loadgen 18304 4 -cluster-probes "$probes" -tenants "$tenants" \
    -admit-log "$workdir/log-c" -json "$workdir/rc.json" \
    -chaos-rate 0.5 -chaos-interval 150ms \
    -chaos-cmd "CLUSTER_RUN_DIR='$workdir/run-c' ./scripts/restart_shard.sh {shard}"
stop_cluster "$workdir/run-c"

kills="$(jq '.chaos_kills // 0' "$workdir/rc.json")"
echo "cluster_smoke: chaos killed/restarted $kills shard(s)"
if [ "$kills" -lt 1 ]; then
    echo "cluster_smoke: chaos completed no kill/restart cycle — assertion vacuous" >&2
    exit 1
fi
if ! diff -u "$workdir/log-a" "$workdir/log-c"; then
    echo "cluster_smoke: chaos run diverged from the clean seeded run" >&2
    exit 1
fi
echo "cluster_smoke: chaos run byte-identical to the clean run"

echo "=== cluster smoke: live reshard 2→4 under transport chaos ==="
# Gateway starts ringed over shards 0-1 while all four serve processes
# run; the loadgen mirrors the FINAL 4-shard ring (its per-shard log
# labels must match the post-growth topology). Its transport is the
# deterministic chaos injector: dropped requests, dropped responses
# (duplicate deliveries), latency, tampered bodies, and an asymmetric
# partition window — every fault absorbed by retries and the idempotent
# admission protocol.
GW_SHARDS=2 start_cluster "$workdir/run-r" 4 18260 18305 -tenants "$tenants" \
    -retries 6 -retry-backoff 50ms -probe-interval 500ms
loadgen 18305 4 -cluster-probes "$probes" -tenants "$tenants" \
    -admit-log "$workdir/log-r" -json "$workdir/rr.json" \
    -chaos-http "drop-out=0.03,drop-in=0.03,latency=0.15,latency-ms=25,truncate=0.02,corrupt=0.02,partition=120-160:in" &
echo $! >"$workdir/loadgen.pid"

reshard() { # JSON array of shard URLs
    local code
    for _ in $(seq 1 50); do
        code="$(curl -s -o "$workdir/reshard.json" -w '%{http_code}' \
            -X POST -H 'Content-Type: application/json' \
            -d "{\"shards\": $1}" "http://127.0.0.1:18305/v1/reshard")" || code=000
        [ "$code" = "200" ] && return 0
        sleep 0.2
    done
    echo "cluster_smoke: reshard to $1 failed (last status $code): $(cat "$workdir/reshard.json")" >&2
    return 1
}

sleep 0.4 # let the workload get going before the first growth
reshard '["http://127.0.0.1:18260","http://127.0.0.1:18261","http://127.0.0.1:18262"]'
moved3="$(jq '.moved | length' "$workdir/reshard.json")"
if ! kill -0 "$(cat "$workdir/loadgen.pid")" 2>/dev/null; then
    echo "cluster_smoke: workload finished before the growth completed — live-reshard assertion vacuous" >&2
    exit 1
fi
reshard '["http://127.0.0.1:18260","http://127.0.0.1:18261","http://127.0.0.1:18262","http://127.0.0.1:18263"]'
moved4="$(jq '.moved | length' "$workdir/reshard.json")"
if ! wait "$(cat "$workdir/loadgen.pid")"; then
    echo "cluster_smoke: loadgen failed during the live reshard" >&2
    exit 1
fi
rm -f "$workdir/loadgen.pid"

echo "cluster_smoke: reshards moved $moved3 + $moved4 node(s) live"
if [ "$((moved3 + moved4))" -lt 1 ]; then
    echo "cluster_smoke: no node changed owner across 2→3→4 — assertion vacuous" >&2
    exit 1
fi
epoch="$(curl -sf "http://127.0.0.1:18305/healthz" | jq .epoch)"
if [ "$epoch" != "3" ]; then
    echo "cluster_smoke: gateway epoch $epoch after two reshards, want 3" >&2
    exit 1
fi
curl -sf "http://127.0.0.1:18305/readyz" >/dev/null || {
    echo "cluster_smoke: gateway not ready after the migrations settled" >&2
    exit 1
}
stop_cluster "$workdir/run-r"

if ! diff -u "$workdir/log-a" "$workdir/log-r"; then
    echo "cluster_smoke: live-reshard run diverged from the static-4 run (lost or duplicated admissions)" >&2
    exit 1
fi
echo "cluster_smoke: live-reshard admission log byte-identical to the static-4 run"
echo "cluster_smoke: OK"
