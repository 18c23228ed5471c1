# Reproduction of "PLUS: A Distributed Shared-Memory System" (ISCA 1990).

GO ?= go

.PHONY: all check build test race shard-oversub parent-equiv bench allocs bench-check bench-smoke all-smoke trace-smoke race-smoke scale plussim-smoke vet fmt lint experiments experiments-quick golden examples loc clean

all: check

# The default gate: everything a PR must keep green. test includes
# TestGoldenFingerprints, which pins every observed quick point's run
# fingerprint (its whole event stream and end-of-run state) and checks
# it at 1, 2 and 4 shard engines. all-smoke runs every quick sweep at
# 4 shard engines with tracing, the scale experiment's quick leg (which
# fails loudly if any sharded run diverges from its serial twin) and
# the self-validating record-store sweep among them; race-smoke runs
# the happens-before detection corpus end to end. bench-check vets and
# tests the benchmark harness, a nested module outside the root
# `go test ./...`; bench-smoke runs every Benchmark function once.
# examples runs the API demos, among them locks and prodcons, the only
# programs outside the tests that use Sleep/Wake. shard-oversub reruns
# the shard run loop's tests on one CPU. plussim-smoke runs the
# single-workload command once per workload.
check: build test race shard-oversub lint bench-check bench-smoke all-smoke trace-smoke race-smoke plussim-smoke examples

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The suite under the race detector (short mode keeps it a few minutes).
race:
	$(GO) test -race -short ./...

# The shard run loop's tests and every random-program fuzz entry run
# at more than one shard count (among them runtime replication, whose
# page-fill marks are written on the copies' own shards) on one CPU
# (GOMAXPROCS=1), where every multi-engine set oversubscribes it: a
# barrier that needs a second CPU to make progress fails here.
shard-oversub:
	GOMAXPROCS=1 $(GO) test -run 'ShardSet|Fuzz|KernelOps' ./internal/sim ./internal/core

# Byte-identical simulation against an earlier commit, field by
# field: builds plusbench and plussim from BASE (via git archive, so it
# needs the repository's history and stays out of check) and from the
# working tree, and compares the JSON rows of every quick sweep (-exp
# all, with the host-time "wall_ms" and "speedup" lines filtered out)
# and each plussim workload's -stats report at four processors, which
# pins the per-node counters of the workloads no sweep runs (prodsys,
# sor, synth). Which point moved is what the diff of
# experiments/testdata/fingerprints.quick.txt says; this says which
# field.
# Usage: make parent-equiv BASE=<rev>
PARENT_EQUIV_DIR ?= /tmp/plus-parent-equiv
PLUSSIM_WORKLOADS = sssp beam prodsys sor synth
parent-equiv:
	@test -n "$(BASE)" || { echo "usage: make parent-equiv BASE=<rev>"; exit 2; }
	@set -e; d=$(PARENT_EQUIV_DIR); rm -rf $$d; mkdir -p $$d/src; \
	git archive $(BASE) | tar -x -C $$d/src; \
	(cd $$d/src && $(GO) build -o $$d/base ./cmd/plusbench && \
		$(GO) build -o $$d/base-plussim ./cmd/plussim); \
	$(GO) build -o $$d/change ./cmd/plusbench; \
	$(GO) build -o $$d/change-plussim ./cmd/plussim; \
	for b in base change; do \
		for w in $(PLUSSIM_WORKLOADS); do \
			$$d/$$b-plussim -workload $$w -procs 4 -stats > $$d/$$b-plussim-$$w.txt; \
		done; \
		$$d/$$b -quick -exp all -json > $$d/$$b-all.raw; \
		grep -v -e '"wall_ms"' -e '"speedup"' $$d/$$b-all.raw > $$d/$$b-all.json; \
	done; \
	for f in all.json $(PLUSSIM_WORKLOADS:%=plussim-%.txt); do \
		cmp $$d/base-$$f $$d/change-$$f; \
	done; \
	rm -rf $$d; echo "parent-equiv: identical to $(BASE)"

# The full test log the repository ships with.
test-log:
	$(GO) test ./... 2>&1 | tee test_output.txt

bench:
	$(GO) test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt

# Where the benchmark's four workloads allocate: one run of each
# (BenchmarkWorkloads in bench_test.go) under a memory profile sampling
# every 512 bytes, printed as its top sites by bytes allocated
# (alloc_space). The profiles stay in ALLOCS_DIR for go tool pprof.
ALLOCS_DIR ?= /tmp/plus-allocs
ALLOCS_WORKLOADS = sssp-16x16 sssp-16x16-k2 kvserve-hotkey beam-switch
allocs:
	@mkdir -p $(ALLOCS_DIR); set -e; for w in $(ALLOCS_WORKLOADS); do \
		$(GO) test -run '^$$' -bench "^BenchmarkWorkloads$$/^$$w$$" -benchtime 1x \
			-memprofilerate 512 -memprofile $(ALLOCS_DIR)/$$w.prof \
			-o $(ALLOCS_DIR)/plus.test . >/dev/null; \
		echo "=== $$w"; \
		$(GO) tool pprof -top -nodecount 15 -sample_index=alloc_space $(ALLOCS_DIR)/$$w.prof 2>/dev/null \
			| grep -v -e "^File:" -e "^Build ID:" -e "^Type:" -e "^Time:"; \
	done

# One iteration of every Benchmark function, so none stops compiling
# or running unnoticed.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# The benchmark harness (bench/, its own module) compiles against the
# internal APIs, so a reshape there must keep it building and its
# tests passing. bench/micro.go is the only caller outside the tests
# of sim.Engine.RunLimit, sim.ShardSet.Drain, sim.Coroutine.WakeAfter
# and WaitCycles, and mesh.Mesh.AllocMsg and FreeMsg; they stay until
# the benchmark moves onto the machine's own paths.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Every quick sweep through the parallel runner at 4 shard engines with
# tracing on, so the sweeps that honor -shards exercise the
# full-featured sharded machine — contention, observers, shard engines
# together — on every check: the scale experiment's quick leg runs with
# link contention and exits nonzero if a sharded row's cycles, messages
# or relaxations diverge from the serial row's, and every record-store
# point checks its fetch-and-add op counters against the generators'
# tallies. Writes nothing into the tree; host performance is measured
# by the benchmark harness (bench/run.sh), not here.
all-smoke:
	$(GO) run ./cmd/plusbench -quick -exp all -shards 4 \
		-trace /tmp/plus-all-smoke.json >/dev/null
	@rm -f /tmp/plus-all-smoke.json

# Full sharded-engine scale sweep: Figure 2-1's workload at 8x8,
# 16x16 and 32x32 over shard counts 1..16, points run sequentially so
# wall-clock speedup is honest. Exits nonzero if any sharded row's
# elapsed cycles, messages or relaxations diverge from the serial row.
scale:
	$(GO) run ./cmd/plusbench -exp figure2-1-scale

# Quick instrumented run: exercises the structured-event layer end to
# end (plusbench reads the Chrome trace JSON it wrote back through
# encoding/json, exiting nonzero if it does not validate) and
# prints the latency histograms + stall summary to /dev/null.
trace-smoke:
	$(GO) run ./cmd/plusbench -quick -exp figure2-1 -parallel 2 \
		-trace /tmp/plus-trace-smoke.json -sample 5000 -hist >/dev/null
	@rm -f /tmp/plus-trace-smoke.json

# Happens-before race-detection smoke: runs the registered corpus
# (racy pair, fenced pair, SOR, SSSP) under the data-access event
# layer. plusbench exits nonzero iff a racy program goes undetected or
# a clean one is misflagged — either is a detector regression.
race-smoke:
	$(GO) run ./cmd/plusbench -races >/dev/null

# Every plussim workload once on 4 processors. The sssp, beam, prodsys
# and sor runs check their results against the sequential reference
# (-validate defaults on) and exit nonzero on a mismatch; synth has no
# reference and only has to run.
plussim-smoke:
	@for w in $(PLUSSIM_WORKLOADS); do \
		$(GO) run ./cmd/plussim -workload $$w -procs 4 >/dev/null || exit 1; \
	done

vet:
	$(GO) vet ./...

fmt:
	gofmt -l .

# Lint fails on any vet finding or unformatted file.
lint:
	$(GO) vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Regenerate every table and figure of the paper at full size.
experiments:
	$(GO) run ./cmd/plusbench | tee bench_results_full.txt

experiments-quick:
	$(GO) run ./cmd/plusbench -quick

# Re-pin the golden files after an intentional timing-model change.
golden:
	UPDATE_GOLDEN=1 $(GO) test ./experiments -run TestGolden

examples:
	@for e in quickstart shortestpath beamsearch locks prodcons migration parloop; do \
		echo "=== $$e ==="; $(GO) run ./examples/$$e || exit 1; \
	done

# Non-test Go lines under internal/, the size the ROADMAP tracks.
loc:
	@find internal -name '*.go' ! -name '*_test.go' | xargs cat | wc -l

clean:
	rm -f test_output.txt bench_output.txt
