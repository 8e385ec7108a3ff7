# Convenience targets; everything is plain `go` underneath.

.PHONY: all build test test-short bench bench-core bench-smoke bench-pairs race golden-summary distributed fuzz-wire fuzz-checkpoint fuzz-sched fuzz-obs soak soak-short chaos-dist obs-fleet dag serve-smoke results results-ext results-check faults chaos metrics cover fmt vet lint examples loc knobs

all: build vet test

build:
	go build ./...

vet:
	go vet ./...

# Static analysis: vet always; staticcheck when installed (CI installs it,
# see .github/workflows/ci.yml).
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipped (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

test:
	go test ./...

# Skip the paper-scale regression runs.
test-short:
	go test -short ./...

# Every package under the race detector. The substrates with real
# concurrency are goroutines (realtime), OS processes over TCP (distnet,
# sched) and the inbox both wall-clock transports receive through; the rest
# run under them or beside them.
race:
	go test -race ./...

# Before regenerating a golden journal (-update-golden): each committed
# fixture beside a fresh run — bytes, final virtual time, events by kind — as
# markdown tables, the reviewable form of a fixture diff.
golden-summary:
	go test ./internal/core -run '^TestGoldenJournals$$' -golden-summary -v | grep -E '^ +\|'

# Multi-process loopback smoke: a real coordinator plus one OS process per
# node over 127.0.0.1, race-checked, and stray connections during
# membership and mesh build, which must change nothing.
distributed:
	go test -race -run 'TestLoopback|TestFourNode|Membership|MeshBuild' -timeout 120s ./internal/distnet/

# Fuzz the wire codec: truncated/corrupt/oversized frames must error,
# never panic. Then the config blob a node builds its run from: never
# panics, and what it accepts is a normalized spec every rank can build.
fuzz-wire:
	go test -run '^$$' -fuzz FuzzFrameDecode -fuzztime 30s ./internal/distnet/
	go test -run '^$$' -fuzz FuzzConfigBlob -fuzztime 30s -fuzzminimizetime 1s ./internal/distnet/

# Fuzz the SPCK snapshot decoder (the restore path): never panics, never
# over-allocates, and whatever it accepts re-encodes to the same bytes. The
# seeds are real engine snapshots of a few KB, and the fuzzing engine spends
# up to -fuzzminimizetime (default 60s) shrinking each input that finds new
# coverage — 1s keeps a short run fuzzing instead of minimizing.
fuzz-checkpoint:
	go test -run '^$$' -fuzz FuzzDecode -fuzztime 30s -fuzzminimizetime 1s ./internal/checkpoint/

# Fuzz the scheduler's two decoders of bytes it does not control — a
# submission body and the persisted queue file: never panic, never queue a
# job Submit's own checks would refuse.
fuzz-sched:
	go test -run '^$$' -fuzz FuzzSubmitBody -fuzztime 30s -fuzzminimizetime 1s ./internal/sched/
	go test -run '^$$' -fuzz FuzzLoadQueue -fuzztime 30s -fuzzminimizetime 1s ./internal/sched/

# Fuzz the Prometheus text parser, which decodes every metrics snapshot a
# fleet coordinator merges: never panics, allocates in proportion to its
# input, and what it accepts survives a write and a second parse. Then the
# fleet's decoder of pushed snapshots (FleetObs.Update): whatever it accepts
# merges into an exposition that re-parses, with no label name repeated.
fuzz-obs:
	go test -run '^$$' -fuzz FuzzParseProm -fuzztime 30s -fuzzminimizetime 1s ./internal/obs/
	go test -run '^$$' -fuzz FuzzFleetUpdate -fuzztime 30s -fuzzminimizetime 1s ./internal/distnet/

bench: bench-core
	go test -bench=. -benchmem ./...

# Engine iteration + app-kernel + wire-plane micro-benchmarks, recorded as
# a machine-readable baseline (ns/op, allocs/op) in BENCH_core.json. The
# run fails if any benchmark's allocs/op regresses above the committed
# baseline; Soak* series already in the file are preserved. -cpu 1 keeps the
# series names free of a GOMAXPROCS suffix, so the gate finds its baseline on
# any machine (the committed series were recorded that way). CoordCustody
# (coordinator event loop over a real FileStore) prints a commits/frame
# column and CheckpointPath (a live two-rank fleet checkpointing every
# iteration) a snapshot-B/op one; benchfmt reads no B/op or allocs/op past a
# custom column, so those series are recorded as timing only — their
# allocation counts depend on goroutine timing. CheckpointEncode and
# TakeCheckpoint are gated: TakeCheckpoint must read 0 allocs/op, and the
# exact version of that claim (testing.AllocsPerRun) runs first in a process
# of its own, where no other test's stragglers can allocate into the count.
BENCH_CORE_SERIES = EngineIteration|ComputeKernel|CheckEq11|LoopbackRoundTrip|LinkThroughput|WireInstrumentation|DeliveryLatency|PipelineStage|CoordCustody|CoordTeardown|CheckpointEncode|TakeCheckpoint|CheckpointPath|Inbox
BENCH_CORE_PKGS = ./internal/core ./internal/checkpoint ./internal/apps/... ./internal/nbody ./internal/distnet ./internal/pipeline ./internal/inbox
bench-core:
	go test -run '^TestTakeCheckpointZeroAlloc$$' -count=1 ./internal/core
	go test -run '^$$' -cpu 1 -bench '$(BENCH_CORE_SERIES)' -benchmem $(BENCH_CORE_PKGS) \
		| go run ./cmd/benchjson -baseline BENCH_core.json -o BENCH_core.json
	@echo "wrote BENCH_core.json"

# Every series bench-core's -bench regex names, run once: fails if a
# benchmark fails or if a name matches nothing (the regex has twice been
# found matching nothing, which makes the gate above vacuous).
bench-smoke:
	@out=$$(go test -run '^$$' -cpu 1 -bench '$(BENCH_CORE_SERIES)' -benchtime 1x $(BENCH_CORE_PKGS)) || { echo "$$out"; exit 1; }; \
	for s in $$(echo '$(BENCH_CORE_SERIES)' | tr '|' ' '); do \
		echo "$$out" | grep -q "^Benchmark[A-Za-z0-9_]*$$s" || { echo "bench-smoke: no benchmark matches $$s"; exit 1; }; \
	done; \
	echo "bench-smoke: $$(echo "$$out" | grep -c '^Benchmark') series ran, every name in the regex matched"

# Paired before/after runs of the repo benchmark (go run ./bench) on one
# workload, the evidence a performance claim needs:
#   make bench-pairs PARENT=HEAD~1 WORKLOAD=kernel-heat [PAIRS=10] [SEED=1]
PARENT ?= HEAD
PAIRS ?= 10
SEED ?= 1
bench-pairs:
	scripts/bench_pairs.sh $(PARENT) $(WORKLOAD) $(PAIRS) $(SEED)

# Wire-plane soak: 64 real OS processes under chaos (duplicates + delay
# spikes), recording throughput / latency-percentile / allocs-per-message
# series into BENCH_core.json.
soak:
	go run ./cmd/specsoak -procs 64 -iters 150 -chaos -o BENCH_core.json

# CI-sized soak: 16 processes, no baseline write — a pass/fail scale check.
soak-short:
	go run ./cmd/specsoak -procs 16 -iters 80 -chaos

# Distributed chaos gate: a real 4-process fleet under supervision, two
# seeded SIGKILLs mid-run. Victims respawn with bumped epochs, reclaim
# their ranks, restore from coordinator custody, and the final field must
# converge on the fault-free baseline. Exits non-zero on any divergence, and
# if no kill landed before the run finished (the run is sized to last a few
# seconds; the schedule starts at +0.5 s).
chaos-dist:
	go run ./cmd/specsoak -procs 4 -iters 20000 -kill 2 -kill-seed 7

# Fleet observability gate: a real 4-process cluster with the aggregated
# metrics plane and cross-process tracing on. -selfcheck fails the run if
# the merged exposition drops a rank or collides series; the trace merge
# fails if any node's journal went missing.
obs-fleet:
	go run ./cmd/speccoord -spawn -procs 4 -iters 120 -obs-push-ms 50 \
		-selfcheck -trace-out /tmp/fleet-trace.json -timeout 120s
	@echo "wrote /tmp/fleet-trace.json"

# Task-DAG smoke: a 4-process streaming pipeline over distnet (one stage
# per OS process), exact regime — the run fails unless every stage's final
# state is bit-identical to the lockstep serial reference.
dag:
	go run ./cmd/speccoord -spawn -procs 4 -app pipeline -iters 60 -fw 1 \
		-exact -verify 0 -timeout 120s

# Service smoke: a real speccoord -serve scheduler driven over HTTP with
# specsubmit — 3 jobs at 2 priorities on a 4-rank pool, at least one
# preemption with custody resume, clean SIGTERM drain.
serve-smoke:
	./scripts/serve_smoke.sh

# Regenerate the canonical paper reproduction (results_full.txt).
results:
	go run ./cmd/specbench -exp all > results_full.txt

# Regenerate the extension studies (results_ext.txt).
results-ext:
	go run ./cmd/specbench -exp ext -chart=false > results_ext.txt

# Byte-identity gate on both committed results files: regenerate them into a
# temporary directory and compare. Every engine change must pass it; a change
# that moves a number re-records with `make results results-ext` and says why.
results-check:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	go run ./cmd/specbench -exp all > "$$tmp/results_full.txt" && \
	go run ./cmd/specbench -exp ext -chart=false > "$$tmp/results_ext.txt" && \
	cmp results_full.txt "$$tmp/results_full.txt" && \
	cmp results_ext.txt "$$tmp/results_ext.txt" && \
	echo "results-check: results_full.txt and results_ext.txt are byte-identical"

# Fault-injection study: loss, delay spikes, straggler (quick configuration).
faults:
	go run ./cmd/specbench -quick -faults

# Chaos soak: seeded random processor crashes with checkpoint/rejoin
# recovery across every application. Exits non-zero on any soak failure.
chaos:
	go run ./cmd/specbench -quick -crash -chart=false

# Fault study with instrumentation: dumps a Prometheus snapshot to
# metrics.prom. specbench re-parses the written file itself and exits
# non-zero if the exposition is broken, so this target doubles as a check.
metrics:
	go run ./cmd/specbench -quick -faults -chart=false -metrics metrics.prom
	@echo "wrote metrics.prom"

cover:
	go test -cover ./...

fmt:
	gofmt -w .

# Non-test Go lines in tracked files, the count every line delta in
# ROADMAP.md and CHANGES.md is stated in, the share under bench/, and the
# assembly lines the Go count does not see.
loc:
	@echo "non-test Go: $$(git ls-files '*.go' | grep -v _test.go | xargs cat | wc -l) lines"
	@echo "  under bench/: $$(git ls-files 'bench/*.go' | grep -v _test.go | xargs cat | wc -l) lines"
	@echo "assembly (.s, not in the Go count): $$(git ls-files '*.s' | xargs cat | wc -l) lines"

# Exported fields of the eight structs a run is configured through, `A, B T`
# counted as two: the settable-value count a simplicity change states.
KNOBS = internal/core/core.go:Config internal/realtime/realtime.go:Config \
	internal/cluster/cluster.go:Config internal/sched/sched.go:Config \
	internal/distnet/spec.go:RunSpec internal/distnet/node.go:NodeConfig \
	internal/distnet/coord.go:CoordConfig \
	internal/distnet/supervise.go:SuperviseConfig
knobs:
	@total=0; for f in $(KNOBS); do \
		n=$$(awk -v t="$${f##*:}" '$$0 ~ "^type " t " struct" { s = 1; next } \
			s && /^}/ { s = 0 } \
			s && match($$0, /^\t[A-Z][A-Za-z0-9_]*(, *[A-Z][A-Za-z0-9_]*)*/) { \
				m = substr($$0, 1, RLENGTH); c += gsub(/,/, "", m) + 1 } \
			END { print c + 0 }' "$${f%%:*}") || exit 1; \
		printf '%-46s %3d\n' "$$f" "$$n"; total=$$((total + n)); \
	done; echo "settable values: $$total"

examples:
	go run ./examples/quickstart
	go run ./examples/nbody
	go run ./examples/heatspec
	go run ./examples/jacobi
	go run ./examples/pagerank
	go run ./examples/realtime
	go run ./examples/pipeline
