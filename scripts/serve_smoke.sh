#!/usr/bin/env bash
# serve_smoke.sh — end-to-end smoke of the online serving layer.
#
# Builds adrdedupd and adrload, boots the daemon on a random port with a
# small bootstrap, pushes 50k synthetic reports at it, and asserts:
#   - the load run finishes with zero errors and a non-zero match count
#   - the daemon's /v1/stats agrees it ingested every report
#   - SIGTERM drains gracefully and the daemon exits 0
# Before that it boots and drains a tiny daemon once with the ignored
# -workers flag, which the frozen bench/ harness still passes.
#
# The daemon runs at -cand-theta 0.8, not the library default 0.5. The
# candidate index is no longer the reason (it is appended to per batch; the
# whole run takes ~15 s on 2 cores): at 0.5 this traffic's campaign reports
# become candidates of each other, the run scores 15.0M pairs instead of 230,
# and kNN classification of that volume takes it to 5m41s — past a smoke's
# budget. What is asserted does not depend on the threshold.
set -euo pipefail

cd "$(dirname "$0")/.."
TMP="$(mktemp -d)"
DAEMON_PID=""
cleanup() {
    if [[ -n "$DAEMON_PID" ]] && kill -0 "$DAEMON_PID" 2>/dev/null; then
        kill -KILL "$DAEMON_PID" 2>/dev/null || true
    fi
    rm -rf "$TMP"
}
trap cleanup EXIT

echo "serve-smoke: building binaries"
go build -o "$TMP/adrdedupd" ./cmd/adrdedupd
go build -o "$TMP/adrload" ./cmd/adrload

# boot_daemon ARGS... starts adrdedupd on a random port and waits for its
# "adrdedupd: listening on http://HOST:PORT" stdout line, which it prints once
# the bootstrap finishes; sets DAEMON_PID and BASE_URL.
boot_daemon() {
    "$TMP/adrdedupd" -addr 127.0.0.1:0 "$@" \
        >"$TMP/daemon.out" 2>"$TMP/daemon.err" &
    DAEMON_PID=$!
    BASE_URL=""
    for _ in $(seq 1 300); do
        if ! kill -0 "$DAEMON_PID" 2>/dev/null; then
            echo "serve-smoke: daemon died during bootstrap" >&2
            cat "$TMP/daemon.err" >&2
            exit 1
        fi
        BASE_URL="$(sed -n 's/^adrdedupd: listening on \(http:.*\)$/\1/p' "$TMP/daemon.out")"
        [[ -n "$BASE_URL" ]] && break
        sleep 0.2
    done
    if [[ -z "$BASE_URL" ]]; then
        echo "serve-smoke: daemon never reported its listen address" >&2
        cat "$TMP/daemon.err" >&2
        exit 1
    fi
    echo "serve-smoke: daemon up at $BASE_URL (pid $DAEMON_PID)"
}

# drain_daemon sends SIGTERM and requires a clean exit.
drain_daemon() {
    kill -TERM "$DAEMON_PID"
    local status=0
    wait "$DAEMON_PID" || status=$?
    if [[ "$status" != "0" ]]; then
        echo "serve-smoke: FAIL: daemon exited $status after SIGTERM" >&2
        cat "$TMP/daemon.err" >&2
        exit 1
    fi
    DAEMON_PID=""
}

# -workers is ignored since the pipeline has one consumer, but the frozen
# bench/ harness still passes it: it must keep parsing and booting.
echo "serve-smoke: booting adrdedupd with the inert -workers flag"
boot_daemon -workers 2 -seed-reports 200 -seed-dups 10 -train-pairs 200
drain_daemon

echo "serve-smoke: booting adrdedupd"
boot_daemon \
    -seed-reports 1000 -seed-dups 50 -train-pairs 800 \
    -queue-depth 64 \
    -candidates prefix-index -cand-theta 0.8

echo "serve-smoke: driving 50k reports"
"$TMP/adrload" \
    -addr "$BASE_URL" \
    -count 50000 -batch-size 1000 -workers 2 \
    -report-interval 10s \
    -summary-json "$TMP/load.json" \
    | tee "$TMP/load.out"

SUMMARY="$(grep '^adrload: sent=' "$TMP/load.out")"
SENT="$(sed -n 's/.*sent=\([0-9]*\).*/\1/p' <<<"$SUMMARY")"
ERRORS="$(sed -n 's/.*errors=\([0-9]*\).*/\1/p' <<<"$SUMMARY")"
MATCHED="$(sed -n 's/.*matched=\([0-9]*\).*/\1/p' <<<"$SUMMARY")"
if [[ "$SENT" != "50000" || "$ERRORS" != "0" ]]; then
    echo "serve-smoke: FAIL: sent=$SENT errors=$ERRORS (want 50000/0)" >&2
    exit 1
fi
if [[ "$MATCHED" -le 0 ]]; then
    echo "serve-smoke: FAIL: no duplicates matched" >&2
    exit 1
fi

STATS="$(curl -fsS "$BASE_URL/v1/stats")"
echo "serve-smoke: /v1/stats: $STATS"
if ! grep -q '"ingested":50000' <<<"$STATS"; then
    echo "serve-smoke: FAIL: daemon stats disagree with the load summary" >&2
    exit 1
fi

echo "serve-smoke: draining daemon with SIGTERM"
drain_daemon

echo "serve-smoke: PASS (sent=$SENT matched=$MATCHED errors=$ERRORS)"
