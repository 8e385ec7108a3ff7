#!/usr/bin/env sh
# serve-smoke: boot a real speccoord -serve scheduler, drive it with
# specsubmit the way a user would, and assert the service-level contract:
# three jobs at two priorities on a 4-rank pool, at least one preemption
# (the urgent job evicts the batch fleet to custody), every job ends done,
# and the server drains cleanly on SIGTERM.
#
# Everything runs on 127.0.0.1 with throwaway state under mktemp; the
# script is self-contained and exits non-zero on any broken assertion.
set -eu

WORK=$(mktemp -d /tmp/serve-smoke-XXXXXX)
SERVER_PID=""
cleanup() {
    [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

say() { echo "serve-smoke: $*"; }

say "building speccoord + specsubmit into $WORK"
go build -o "$WORK/speccoord" ./cmd/speccoord
go build -o "$WORK/specsubmit" ./cmd/specsubmit

"$WORK/speccoord" -serve -serve-addr 127.0.0.1:0 -pool 4 \
    -custody-dir "$WORK/custody" -state-dir "$WORK/state" \
    -timeout 120s >"$WORK/server.log" 2>&1 &
SERVER_PID=$!

# The server prints its bound address once the listener is up; poll the
# log for it (serve-addr :0 means the kernel picked the port).
URL=""
i=0
while [ -z "$URL" ]; do
    URL=$(sed -n 's/.*scheduler listening on \(http:\/\/[0-9.:]*\).*/\1/p' "$WORK/server.log" | head -1)
    [ -n "$URL" ] && break
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        say "FAIL: server never came up"; cat "$WORK/server.log"; exit 1
    fi
    kill -0 "$SERVER_PID" 2>/dev/null || { say "FAIL: server exited early"; cat "$WORK/server.log"; exit 1; }
    sleep 0.1
done
say "server up at $URL (pool 4)"

# timeout(1) needs a real binary, not a shell function, so spell the
# client invocation out.
SUB="$WORK/specsubmit"
sub() { "$SUB" -server "$URL" "$@"; }

# Job 1: the batch run — whole pool, low priority, long enough to still be
# mid-run when the urgent job lands (900 iterations had come to take well
# under the 0.1 s this script polls at; 20 000 take about a second),
# checkpointing so eviction has custody.
BATCH=$(sub -name batch -priority 1 -procs 4 -iters 20000 -checkpoint 5 | awk 'NR==1{print $1}')
say "submitted batch job $BATCH (priority 1, procs 4)"

# Job 2: same priority, queues behind the batch job.
BONUS=$(sub -name bonus -priority 1 -procs 2 -iters 120 | awk 'NR==1{print $1}')
say "submitted bonus job $BONUS (priority 1, procs 2)"

# Preemption needs the batch fleet running with full custody coverage
# before the urgent job arrives: wait for all four snapshot files.
i=0
while :; do
    n=$(ls "$WORK/custody/$BATCH/"proc-*.ckpt 2>/dev/null | wc -l)
    [ "$n" -ge 4 ] && break
    i=$((i + 1))
    if [ "$i" -gt 300 ]; then
        say "FAIL: batch custody never covered the pool ($n/4)"; cat "$WORK/server.log"; exit 1
    fi
    sleep 0.1
done
say "batch custody covers 4/4 ranks; submitting the preemptor"

# Job 3: urgent — higher priority on a full pool, so it must evict the
# batch job. -wait exits non-zero unless the job ends done.
timeout 120 "$SUB" -server "$URL" -name urgent -priority 9 -procs 2 -iters 120 -wait \
    || { say "FAIL: urgent job did not finish"; cat "$WORK/server.log"; exit 1; }
say "urgent job done"

# The batch job must resume from custody and still finish; its status line
# records the evict/resume cycle.
BATCH_OUT=$(timeout 180 "$SUB" -server "$URL" -watch "$BATCH") \
    || { say "FAIL: batch job did not finish"; cat "$WORK/server.log"; exit 1; }
echo "$BATCH_OUT" | grep -q "preemptions=" \
    || { say "FAIL: batch job was never preempted"; echo "$BATCH_OUT"; exit 1; }
echo "$BATCH_OUT" | grep -q "restores=" \
    || { say "FAIL: batch job resumed without custody restores"; echo "$BATCH_OUT"; exit 1; }
say "batch job done after preemption + custody resume"

timeout 120 "$SUB" -server "$URL" -watch "$BONUS" >/dev/null \
    || { say "FAIL: bonus job did not finish"; cat "$WORK/server.log"; exit 1; }
say "bonus job done"

# Graceful shutdown: SIGTERM drains (nothing left running) and exits 0.
kill -TERM "$SERVER_PID"
i=0
while kill -0 "$SERVER_PID" 2>/dev/null; do
    i=$((i + 1))
    if [ "$i" -gt 150 ]; then
        say "FAIL: server did not exit after SIGTERM"; cat "$WORK/server.log"; exit 1
    fi
    sleep 0.1
done
SERVER_PID=""
say "PASS: 3 jobs, 2 priorities, >=1 preemption, clean drain"
