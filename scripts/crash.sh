#!/bin/sh
# crash.sh — the kill-at-every-failpoint crash-recovery soak.
#
# For each site in titand's failpoint catalog (-list-failpoints), run a
# real titand with the write-ahead journal on (-journal-fsync always)
# and that site armed to SIGKILL itself, stream a one-month simulated
# console log into it, and let the kill land wherever the site lives:
# mid-append, mid-fsync, mid-rename, mid-compaction, mid-snapshot,
# mid-checkpoint, mid-replay. The daemon is then restarted with the site
# STILL armed (a kill during recovery is a crash too), and once more
# clean if that restart also died. The survivor must come up healthy, and — this is the contract —
# its /alerts must be byte-identical to a reference daemon that
# streamed exactly the first events_applied lines of the same corpus in
# one uninterrupted life: the restart state is always a prefix of the
# admitted stream, and with fsync always nothing applied is lost.
#
#   ./scripts/crash.sh                 # the full catalog
#   FAILPOINTS="serve.journal.sync" ./scripts/crash.sh   # a subset
set -eu

cd "$(dirname "$0")/.."

PORT="${CRASH_PORT:-9321}"
REF_PORT=$((PORT + 1))
# A stale listener on either port would answer the health checks in
# place of the daemons under test and silently absorb every stream.
for p in "$PORT" "$REF_PORT"; do
    if curl -sf --max-time 2 "http://127.0.0.1:$p/healthz" >/dev/null 2>&1; then
        echo "crash.sh: something is already listening on port $p; set CRASH_PORT" >&2
        exit 1
    fi
done
WORK="$(mktemp -d)"
DAEMON_PID=""
REF_PID=""
cleanup() {
    [ -n "$DAEMON_PID" ] && kill -9 "$DAEMON_PID" 2>/dev/null || true
    [ -n "$REF_PID" ] && kill -9 "$REF_PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

echo "== building titand, titansim, titanload"
go build -o "$WORK/bin/" ./cmd/titand ./cmd/titansim ./cmd/titanload

echo "== generating the one-month corpus"
"$WORK/bin/titansim" -months 1 -out "$WORK/data" >/dev/null
CORPUS="$WORK/data/console.log"
LINES=$(wc -l < "$CORPUS")
echo "   $LINES console lines"

# wait_gone PID SECS: true once the process has exited.
wait_gone() {
    i=0
    while kill -0 "$1" 2>/dev/null; do
        i=$((i + 1))
        [ "$i" -ge $(($2 * 10)) ] && return 1
        sleep 0.1
    done
    return 0
}

# wait_ready URL SECS: true once /healthz answers with status ok.
wait_ready() {
    i=0
    while :; do
        if curl -sf --max-time 2 "$1/healthz" 2>/dev/null | grep -q '"status": "ok"'; then
            return 0
        fi
        i=$((i + 1))
        [ "$i" -ge $(($2 * 10)) ] && return 1
        sleep 0.1
    done
}

# stat_field URL FIELD: extract one integer field from /stats.
stat_field() {
    curl -sf "$1/stats" | sed -n "s/.*\"$2\": \([0-9][0-9]*\).*/\1/p" | head -n 1
}

# start_titand STATEDIR LOG [FAILPOINT_SPEC]: launch titand on $PORT.
# Compaction runs every second so the segment failpoints fire while the
# stream is still in flight.
start_titand() {
    fp_flag=""
    [ -n "${3:-}" ] && fp_flag="-failpoints=$3"
    "$WORK/bin/titand" -addr "127.0.0.1:$PORT" \
        -warm-dir "$1" -journal -journal-fsync always \
        -compact-interval 1s $fp_flag >"$2" 2>&1 &
    DAEMON_PID=$!
}

FAILPOINTS="${FAILPOINTS:-$("$WORK/bin/titand" -list-failpoints)}"
FAILED=0
for fp in $FAILPOINTS; do
    # Most sites get the kill on their first hit. serve.journal.append
    # is hit before anything is applied, so a first-hit kill leaves the
    # (correct, but vacuous) empty prefix; a budget lets a few batches
    # commit so the equivalence check has something to bite on.
    case "$fp" in
        serve.journal.append) spec="$fp=kill:2000" ;;
        *) spec="$fp=kill" ;;
    esac
    echo "== failpoint $spec"
    state="$WORK/state-$fp"
    rm -rf "$state"

    # Life A: armed to die. The stream may or may not complete before
    # the kill lands; either way everything the daemon applied is in
    # the journal (fsync always) or the sealed segments.
    start_titand "$state" "$WORK/a-$fp.log" "$spec"
    wait_ready "http://127.0.0.1:$PORT" 10 || { echo "   daemon A never came up"; cat "$WORK/a-$fp.log"; FAILED=1; continue; }
    if [ "$fp" = serve.warm.replay ]; then
        # A restart after a clean drain restores the checkpoint and
        # replays nothing, so this site needs a history past the
        # checkpoint: life A takes the first half and drains (writing the
        # checkpoint), life A2 takes the rest and is killed, and life B
        # replays A2's segments and journal with the site armed.
        half=$((LINES / 2))
        head -n "$half" "$CORPUS" > "$WORK/front.log"
        tail -n +"$((half + 1))" "$CORPUS" > "$WORK/back.log"
        "$WORK/bin/titanload" -url "http://127.0.0.1:$PORT" "$WORK/front.log" >/dev/null 2>&1 || true
        sleep 2
        kill -TERM "$DAEMON_PID" 2>/dev/null || true
        wait_gone "$DAEMON_PID" 35 || { echo "   daemon A stuck after SIGTERM"; FAILED=1; kill -9 "$DAEMON_PID"; continue; }
        start_titand "$state" "$WORK/a2-$fp.log"
        wait_ready "http://127.0.0.1:$PORT" 10 || { echo "   daemon A2 never came up"; cat "$WORK/a2-$fp.log"; FAILED=1; continue; }
        "$WORK/bin/titanload" -url "http://127.0.0.1:$PORT" "$WORK/back.log" >/dev/null 2>&1 || true
        sleep 3
        kill -9 "$DAEMON_PID" 2>/dev/null || true
        wait_gone "$DAEMON_PID" 5 || true
    else
        "$WORK/bin/titanload" -url "http://127.0.0.1:$PORT" "$CORPUS" >/dev/null 2>&1 || true
        # Give the 1s compactor a chance to trip the storage failpoints,
        # then drain: the snapshot/final-seal/checkpoint sites fire on the
        # way down.
        sleep 3
        if kill -0 "$DAEMON_PID" 2>/dev/null; then
            kill -TERM "$DAEMON_PID" 2>/dev/null || true
        fi
        wait_gone "$DAEMON_PID" 35 || { echo "   daemon A stuck after SIGTERM"; FAILED=1; kill -9 "$DAEMON_PID"; continue; }
    fi

    # Life B: restart with the site still armed — a kill during
    # recovery must be recoverable too. If B dies (or never gets
    # healthy), life C restarts clean.
    start_titand "$state" "$WORK/b-$fp.log" "$spec"
    if ! wait_ready "http://127.0.0.1:$PORT" 15; then
        wait_gone "$DAEMON_PID" 20 || kill -9 "$DAEMON_PID" 2>/dev/null || true
        echo "   restart B died under the armed failpoint; restarting clean"
        start_titand "$state" "$WORK/c-$fp.log"
        wait_ready "http://127.0.0.1:$PORT" 15 || { echo "   clean restart never came up"; cat "$WORK/c-$fp.log"; FAILED=1; continue; }
    fi

    applied=$(stat_field "http://127.0.0.1:$PORT" events_applied)
    lost=$(stat_field "http://127.0.0.1:$PORT" events_lost_to_quarantine)
    if [ -z "$applied" ] || [ "$applied" -eq 0 ]; then
        echo "   survivor applied nothing"; FAILED=1
        kill -9 "$DAEMON_PID" 2>/dev/null || true; continue
    fi
    if [ "${lost:-0}" -ne 0 ]; then
        echo "   survivor lost $lost events to quarantine after a plain kill"; FAILED=1
    fi

    # Reference: the first $applied lines (one line = one event in the
    # sim corpus) streamed in one life.
    head -n "$applied" "$CORPUS" > "$WORK/prefix.log"
    "$WORK/bin/titand" -addr "127.0.0.1:$REF_PORT" >"$WORK/ref-$fp.log" 2>&1 &
    REF_PID=$!
    wait_ready "http://127.0.0.1:$REF_PORT" 10 || { echo "   reference never came up"; FAILED=1; continue; }
    "$WORK/bin/titanload" -url "http://127.0.0.1:$REF_PORT" "$WORK/prefix.log" >/dev/null

    curl -sf "http://127.0.0.1:$PORT/alerts" > "$WORK/got.alerts"
    curl -sf "http://127.0.0.1:$REF_PORT/alerts" > "$WORK/want.alerts"
    ref_applied=$(stat_field "http://127.0.0.1:$REF_PORT" events_applied)
    if [ "$ref_applied" != "$applied" ]; then
        echo "   FAIL: survivor applied $applied events, reference $ref_applied from the same prefix"
        FAILED=1
    elif ! cmp -s "$WORK/got.alerts" "$WORK/want.alerts"; then
        echo "   FAIL: /alerts diverges from the uninterrupted reference"
        FAILED=1
    else
        echo "   ok: $applied events, /alerts byte-identical after recovery"
    fi

    kill -9 "$REF_PID" 2>/dev/null || true; REF_PID=""
    kill -TERM "$DAEMON_PID" 2>/dev/null || true
    wait_gone "$DAEMON_PID" 35 || kill -9 "$DAEMON_PID" 2>/dev/null || true
    DAEMON_PID=""
done

[ "$FAILED" -eq 0 ] || { echo "crash.sh: FAILED"; exit 1; }
echo "ok"
