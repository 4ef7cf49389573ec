#!/usr/bin/env bash
# Replication smoke test: build semproxd + semproxctl, run a durable
# primary (-wal) and a follower (-follow) on loopback, push live updates
# through the primary's durable write path, wait for the follower to
# catch up (/v1/readyz flips to 200), and assert both processes serve
# byte-identical /v1/query output and agree on the LSN. All protocol
# traffic goes through semproxctl — the typed client package — so the
# smoke exercises the same wire contract (api) in-process consumers use.
set -euo pipefail
cd "$(dirname "$0")/.."
. "$(dirname "$0")/smoke_lib.sh"

PRIMARY=127.0.0.1:18091
FOLLOWER=127.0.0.1:18092
smoke_init
primary_pid=""
follower_pid=""
cleanup() {
    [ -n "$follower_pid" ] && kill "$follower_pid" 2>/dev/null || true
    [ -n "$primary_pid" ] && kill "$primary_pid" 2>/dev/null || true
    wait 2>/dev/null || true
    smoke_cleanup_tmp
}
trap cleanup EXIT

echo "== build"
go build -o "$tmp/semproxd" ./cmd/semproxd
go build -o "$tmp/semproxctl" ./cmd/semproxctl
ctl() { "$tmp/semproxctl" "$@"; }

echo "== start durable primary on $PRIMARY"
start_daemon "$logdir/replication_primary.log" "http://$PRIMARY/v1/healthz" \
    "$tmp/semproxd" -addr "$PRIMARY" -dataset linkedin -users 200 -classes college \
    -wal "$tmp/wal"
primary_pid=$daemon_pid

echo "== start follower on $FOLLOWER"
start_daemon "$logdir/replication_follower.log" "http://$FOLLOWER/v1/healthz" \
    "$tmp/semproxd" -addr "$FOLLOWER" -follow "http://$PRIMARY"
follower_pid=$daemon_pid

echo "== push live updates through the primary (typed client write path)"
for i in 1 2 3; do
    ctl -primary "http://$PRIMARY" \
        -update '{"nodes":[{"type":"user","name":"smoke-'"$i"'"}],"edges":[{"u":"smoke-'"$i"'","v":"user-1"},{"u":"smoke-'"$i"'","v":"user-2"}]}' \
        >/dev/null
done

echo "== wait for the follower to catch up (readyz 200 AND lsn 3)"
wait_http "http://$FOLLOWER/v1/readyz" 120 || {
    echo "follower /v1/readyz:" >&2
    curl -sS "http://$FOLLOWER/v1/readyz" >&2 || true
    cat "$logdir/replication_follower.log" >&2
    exit 1
}
# readyz can momentarily report 200 between polls while later updates are
# still in flight; wait until the follower has actually applied LSN 3.
caught_up=""
for _ in $(seq 1 150); do
    if [ "$(ctl -primary "http://$FOLLOWER" -stats | jq .lsn)" = 3 ]; then
        caught_up=1
        break
    fi
    sleep 0.2
done
[ -n "$caught_up" ] || {
    echo "FAIL: follower never reached LSN 3" >&2
    ctl -primary "http://$FOLLOWER" -stats >&2 || true
    cat "$logdir/replication_follower.log" >&2
    exit 1
}

echo "== compare answers byte for byte (typed client against both replicas)"
for q in user-1 user-7 smoke-2; do
    ctl -primary "http://$PRIMARY" -class college -query "$q" -k 10 >"$tmp/primary.q.json"
    ctl -primary "http://$FOLLOWER" -class college -query "$q" -k 10 >"$tmp/follower.q.json"
    cmp -s "$tmp/primary.q.json" "$tmp/follower.q.json" || {
        echo "FAIL: query for $q diverged between primary and follower" >&2
        diff "$tmp/primary.q.json" "$tmp/follower.q.json" >&2 || true
        exit 1
    }
done

p_lsn=$(ctl -primary "http://$PRIMARY" -stats | jq .lsn)
f_lsn=$(ctl -primary "http://$FOLLOWER" -stats | jq .lsn)
lag=$(curl -fsS "http://$FOLLOWER/v1/readyz" | jq .lag)
if [ "$p_lsn" != "$f_lsn" ] || [ "$p_lsn" != 3 ] || [ "$lag" != 0 ]; then
    echo "FAIL: lsn primary=$p_lsn follower=$f_lsn lag=$lag (want 3/3/0)" >&2
    exit 1
fi

echo "== a follower must refuse writes (not_primary)"
if ctl -primary "http://$FOLLOWER" -update '{"nodes":[{"type":"user","name":"x"}]}' >/dev/null 2>"$tmp/deny.err"; then
    echo "FAIL: follower accepted an update" >&2
    exit 1
fi
grep -q not_primary "$tmp/deny.err" || {
    echo "FAIL: follower denial lacked the not_primary code:" >&2
    cat "$tmp/deny.err" >&2
    exit 1
}

echo "OK: follower caught up at LSN $f_lsn with lag 0 and byte-identical answers"
