#!/usr/bin/env bash
# stress: the timing-sensitive packages under load.
#
#   scripts/stress.sh [count=5]
#
# Runs `go test -count <count> -cpu 1,2` over the four packages that judge
# wall-clock time (inbox, realtime, distnet, sched) while two CPU-bound shell
# loops compete for the cores. The loops and the test run each get a process
# group of their own, and both groups are killed when the script exits,
# fails or is interrupted, so no process outlives it (the node processes the
# distnet and sched tests start stay in the test run's group). Nothing about
# the machine is changed. Exits with the test run's status.
set -u

COUNT=${1:-5}
PKGS="./internal/inbox ./internal/realtime ./internal/distnet ./internal/sched"

# With set -m every background job gets its own process group, whose id is
# the job's pid.
set -m
(
    while :; do :; done &
    while :; do :; done &
    wait
) &
LOAD=$!
echo "stress: go test -count $COUNT -cpu 1,2 beside 2 busy loops"
start=$(date +%s)
go test -count "$COUNT" -cpu 1,2 $PKGS &
TESTS=$!
set +m

stop() {
    kill -TERM -- "-$LOAD" "-$TESTS" 2>/dev/null
    wait
}
trap stop EXIT
trap 'exit 130' INT
trap 'exit 143' TERM

wait "$TESTS"
status=$?
echo "stress: exit $status after $(($(date +%s) - start))s"
exit $status
