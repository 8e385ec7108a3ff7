#!/usr/bin/env sh
# bench-pairs: the paired before/after measurement a performance claim rests
# on (see BENCHMARK.json and bench/README.md), for one workload.
#
#   scripts/bench_pairs.sh <parent-ref> <workload> [pairs=10] [seed=1]
#
# Builds ./bench twice — the parent's from a throwaway export of <parent-ref>
# (git archive: no worktree is registered, nothing in .git changes), the
# change's from the working tree — and runs each binary from its own checkout
# root, which is where it writes bench/out/ and, on svc-jobs, re-execs itself
# as the child nodes. Pairs alternate which side goes first; every run is
# `-trace 0 -seconds 15` (BENCH_SECONDS overrides the 15, for trying the
# script out). Prints each side's median and quartiles of the three
# end-to-end metrics, the pairs the change won (lower is better on all three;
# ties count for neither side), and failed/attempted units per side. Exits
# non-zero if any unit failed or a run printed no result.
#
# Scratch space is under ${TMPDIR:-/tmp} and removed on exit. No network.
set -eu

if [ $# -lt 2 ]; then
    echo "usage: $0 <parent-ref> <workload> [pairs=10] [seed=1]" >&2
    exit 2
fi
REF=$1
WORKLOAD=$2
PAIRS=${3:-10}
SEED=${4:-1}
SECS=${BENCH_SECONDS:-15}
METRICS="tts_s setup_s alloc_mb"

ROOT=$(git rev-parse --show-toplevel)
PARENT=$(git -C "$ROOT" rev-parse --short "$REF^{commit}")
WORK=$(mktemp -d "${TMPDIR:-/tmp}/bench-pairs-XXXXXX")
trap 'rm -rf "$WORK"' EXIT INT TERM

say() { echo "bench-pairs: $*"; }

say "building parent $PARENT and the working tree into $WORK"
mkdir "$WORK/parent"
git -C "$ROOT" archive "$PARENT" | tar -x -C "$WORK/parent"
(cd "$WORK/parent" && go build -o "$WORK/bench-parent" ./bench)
(cd "$ROOT" && go build -o "$WORK/bench-change" ./bench)

# field <json-line> <key>: the number after "key": or "key":{"value":
field() {
    printf '%s\n' "$1" | sed -n 's/.*"'"$2"'":\({"value":\)\{0,1\}\([-+0-9.eE]*\).*/\2/p'
}

BROKEN=0
# run <side> <checkout>: one benchmark run; appends each metric to
# $WORK/<side>.<metric> and the unit counts to $WORK/<side>.units.
run() {
    line=$(cd "$2" && "$WORK/bench-$1" -workload "$WORKLOAD" -trace 0 \
        -seconds "$SECS" -seed "$SEED" 2>>"$WORK/$1.log" | tail -n 1) || true
    if [ -z "$(field "$line" tts_s)" ]; then
        say "FAIL: $1 run printed no result (log: $WORK/$1.log)"
        tail -n 20 "$WORK/$1.log" >&2
        BROKEN=1
        for m in $METRICS; do echo nan >>"$WORK/$1.$m"; done
        return
    fi
    for m in $METRICS; do field "$line" "$m" >>"$WORK/$1.$m"; done
    echo "$(field "$line" failed) $(field "$line" attempted)" >>"$WORK/$1.units"
}

i=1
while [ "$i" -le "$PAIRS" ]; do
    if [ $((i % 2)) -eq 1 ]; then
        order="parent first"
        run parent "$WORK/parent"
        run change "$ROOT"
    else
        order="change first"
        run change "$ROOT"
        run parent "$WORK/parent"
    fi
    row=""
    for m in $METRICS; do
        row="$row  $m $(tail -n 1 "$WORK/parent.$m") -> $(tail -n 1 "$WORK/change.$m")"
    done
    say "pair $i/$PAIRS ($order):$row"
    i=$((i + 1))
done

# quartiles <file>: "median q1 q3" by linear interpolation between order
# statistics.
quartiles() {
    grep -v nan "$1" | sort -g | awk '
        { a[NR] = $1 }
        function q(p,  h, lo, hi) {
            h = (NR - 1) * p; lo = int(h) + 1; hi = lo < NR ? lo + 1 : NR
            return a[lo] + (h - (lo - 1)) * (a[hi] - a[lo])
        }
        END { if (NR) printf "%.6g %.6g %.6g", q(0.5), q(0.25), q(0.75); else printf "nan nan nan" }'
}

echo
say "$WORKLOAD  parent=$PARENT  pairs=$PAIRS  seed=$SEED  (-trace 0 -seconds $SECS)"
printf '%-9s %-7s %12s %12s %12s\n' metric side median q1 q3
for m in $METRICS; do
    set -- $(quartiles "$WORK/parent.$m")
    pmed=$1
    printf '%-9s %-7s %12s %12s %12s\n' "$m" parent "$1" "$2" "$3"
    set -- $(quartiles "$WORK/change.$m")
    printf '%-9s %-7s %12s %12s %12s\n' "$m" change "$1" "$2" "$3"
    paste "$WORK/parent.$m" "$WORK/change.$m" | awk -v pmed="$pmed" -v cmed="$1" '
        $1 != "nan" && $2 != "nan" { if ($2 < $1) w++; else if ($2 > $1) l++ }
        END { printf "%-9s change wins %d/%d pairs (loses %d), median %+.1f %%\n",
              "", w, NR, l, (cmed / pmed - 1) * 100 }'
done
for side in parent change; do
    awk -v side="$side" '{ f += $1; n += $2 } END { printf "failed/attempted  %-7s %d/%d\n", side, f, n; exit f > 0 }' \
        "$WORK/$side.units" || BROKEN=1
done
exit "$BROKEN"
