# Reproduction of "PLUS: A Distributed Shared-Memory System" (ISCA 1990).

GO ?= go

.PHONY: all check build test race shard-oversub trace-equiv parent-equiv bench bench-check bench-smoke all-smoke trace-smoke race-smoke scale scale-smoke kvserve-smoke plussim-smoke vet fmt lint experiments experiments-quick golden examples loc clean

all: check

# The default gate: everything a PR must keep green. The shard
# equivalence tests ride in test/race, all-smoke's -exp all includes
# the scale experiment's quick leg (which fails loudly if any sharded
# run diverges from its serial twin), scale-smoke reruns that sweep
# full-featured (contention + tracing at 4 shards), and race-smoke
# runs the happens-before detection corpus end to end. bench-check
# vets and tests the benchmark harness, a nested module outside the
# root `go test ./...`; bench-smoke runs every Benchmark function once.
# examples runs the API demos, among them locks and prodcons, the only
# programs outside the tests that use Sleep/Wake. shard-oversub reruns
# the shard run loop's tests on one CPU. trace-equiv compares traced
# sweeps at 1, 2 and 4 shard engines byte for byte. plussim-smoke runs
# the single-workload command once per workload.
check: build test race shard-oversub trace-equiv lint bench-check bench-smoke all-smoke trace-smoke race-smoke scale-smoke kvserve-smoke plussim-smoke examples

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The suite under the race detector (short mode keeps it a few minutes).
race:
	$(GO) test -race -short ./...

# The shard run loop's tests, the shard equivalence tests and the
# kernel-ops sweep (runtime replication, whose page-fill marks are
# written on the copies' own shards) on one CPU (GOMAXPROCS=1), where
# every multi-engine set oversubscribes it: a barrier that needs a
# second CPU to make progress fails here.
shard-oversub:
	GOMAXPROCS=1 $(GO) test -run 'ShardSet|ShardEquivalence|KernelOps' ./internal/sim ./internal/core

# The sharded observer gate beyond the 4x4 fuzz: the Figure 2-1 quick
# sweep (plain and with the time-series sampler, which runs at
# barriers), the record-store sweep (link contention on), the
# link-buffer sweep (bounded buffers: admission and NACKs at
# barriers) and the crash sweep (crash, restart, failover and resync
# at barriers), traced at 1, 2 and 4 shard engines, must export
# byte-identical Chrome trace JSON. Two engines cut the mesh at one
# band boundary, four at three. The record-store ring holds every
# point's whole stream; the other sweeps' default ring keeps each
# point's last 4096 events.
trace-equiv:
	@for x in "figure2-1" "figure2-1 -sample 5000" "kvserve-sweep -trace-events 65536" "ext-linkbuf" "fault-crash"; do \
		for k in 1 2 4; do \
			$(GO) run ./cmd/plusbench -quick -exp $$x -shards $$k \
				-trace /tmp/plus-trace-equiv-$$k.json >/dev/null || exit 1; \
		done; \
		for k in 2 4; do \
			cmp /tmp/plus-trace-equiv-1.json /tmp/plus-trace-equiv-$$k.json || exit 1; \
		done; \
	done
	@rm -f /tmp/plus-trace-equiv-1.json /tmp/plus-trace-equiv-2.json /tmp/plus-trace-equiv-4.json

# Byte-identical simulation against an earlier commit, for changes
# that claim to move host speed only: builds plusbench from BASE (via
# git archive, so it needs the repository's history and stays out of
# check) and from the working tree, runs both on the same sweeps and
# compares every output byte for byte. The record-store sweep's trace
# pins every contended link reservation and wait; ext-linkbuf's JSON
# the NACKs that bounded link buffers decide; fault-crash the crash
# and failover sweeps, traced so the failover epoch's event order is
# compared as well as its rows; faults the reliability sublayer under
# loss, duplication and delay; the invalidate, pending-writes and batching
# ablations the write-invalidate, pending-depth and combining paths;
# the competitive ablation and ext-placement the per-page reference
# counters (the only sweeps that cross the competitive threshold or
# read the remote-reference profile). The ablations group (the seven
# ablation-* sweeps, ext-swdsm and ext-placement) is traced too: its
# trace names every run by its sweep point's name, which no row
# carries, and keeps each point's last 4096 events (the default ring).
# The Figure 2-1 trace and the Figure 3-1 rows pin the dispatch order
# of the two headline programs: SSSP's update fan-out and beam
# search's delayed ops and context switches; the Figure 2-1 sweep's
# -sample/-hist text pins the merged latency histograms and the stall
# summary. Figure 3-1 is traced too,
# at one to four processors with a ring of 131072 events per point
# (a one- or two-processor point fits whole; a four-processor point
# keeps at most its last 131072), so beam's writes, fences, issues and
# switches are compared event by event; the eight-processor points
# would double the leg's time. The delayed-slots
# ablation pins the stall on a full delayed-operations cache, the
# fence ablation the fence before every issue, Table 3-1 each delayed
# operation's cycles, and the race corpus's reports and annotated
# trace the order of its EvAccRMW/EvAccVerify events and its race
# marks. Last, every quick sweep's JSON rows
# (-exp all) are compared with the host-time "wall_ms" and "speedup"
# lines filtered out. Each plussim workload's -stats report at four
# processors pins the per-node counters of the workloads the sweeps
# do not run (prodsys, sor, synth) and of sssp and beam run alone.
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
		$$d/$$b -quick -exp kvserve-sweep -trace-events 65536 \
			-trace $$d/$$b-kv.json > $$d/$$b-kv.txt; \
		$$d/$$b -quick -exp figure2-1 -trace $$d/$$b-f21.json > $$d/$$b-f21.txt; \
		$$d/$$b -quick -exp figure2-1 -sample 5000 -hist > $$d/$$b-hist.txt; \
		$$d/$$b -quick -exp fault-crash -trace $$d/$$b-crash.json > $$d/$$b-crash.txt; \
		$$d/$$b -quick -exp ablations -trace $$d/$$b-abl.json > $$d/$$b-abl.txt; \
		$$d/$$b -quick -exp figure3-1 -max-procs 4 -trace-events 131072 \
			-trace $$d/$$b-f31.json > $$d/$$b-f31.txt; \
		for x in ext-linkbuf fault-crash faults ablation-invalidate \
			ablation-pending-writes ablation-batching ablation-competitive \
			ext-placement figure3-1 ablation-delayed-slots ablation-fence \
			table3-1; do \
			$$d/$$b -quick -exp $$x -json > $$d/$$b-$$x.json; \
		done; \
		$$d/$$b -races -trace $$d/$$b-races.json > $$d/$$b-races.txt; \
		$$d/$$b -quick -exp all -json > $$d/$$b-all.raw; \
		grep -v -e '"wall_ms"' -e '"speedup"' $$d/$$b-all.raw > $$d/$$b-all.json; \
	done; \
	for f in kv.json kv.txt f21.json f21.txt hist.txt crash.json crash.txt abl.json abl.txt \
		f31.json f31.txt \
		ext-linkbuf.json fault-crash.json faults.json \
		ablation-invalidate.json ablation-pending-writes.json ablation-batching.json \
		ablation-competitive.json ext-placement.json figure3-1.json \
		ablation-delayed-slots.json ablation-fence.json table3-1.json races.txt races.json \
		all.json $(PLUSSIM_WORKLOADS:%=plussim-%.txt); do \
		cmp $$d/base-$$f $$d/change-$$f; \
	done; \
	rm -rf $$d; echo "parent-equiv: identical to $(BASE)"

# The full test log the repository ships with.
test-log:
	$(GO) test ./... 2>&1 | tee test_output.txt

bench:
	$(GO) test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt

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
# tracing on, so the sweeps that honor -shards (the SSSP figures and
# the scale experiment's quick leg) exercise the full-featured sharded
# machine — contention, observers, shard engines together — on every
# check. Writes nothing into the tree; host performance is measured by
# the benchmark harness (bench/run.sh), not here.
all-smoke:
	$(GO) run ./cmd/plusbench -quick -exp all -shards 4 \
		-trace /tmp/plus-all-smoke.json >/dev/null
	@rm -f /tmp/plus-all-smoke.json

# Full-featured sharded scale smoke: the figure2-1-scale quick sweep
# with link contention and per-point tracing enabled at 4 shards. The
# sweep's equivalence check exits nonzero if the sharded row's cycles,
# messages or relaxations diverge from the serial row's, pinning the
# contention + observer gate lifts end to end.
scale-smoke:
	$(GO) run ./cmd/plusbench -quick -exp figure2-1-scale -shards 4 \
		-trace /tmp/plus-scale-smoke.json >/dev/null
	@rm -f /tmp/plus-scale-smoke.json

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

# Serving-workload smoke: the open-loop Zipfian record-store sweep's
# quick leg (4x4, skews 0 and 1.2, all three placements) at 4 shard
# engines with contention on. Every point self-validates its
# fetch-and-add op counters against the generators' tallies, so the
# target exits nonzero if the serving path loses an update.
kvserve-smoke:
	$(GO) run ./cmd/plusbench -quick -exp kvserve-sweep -shards 4 >/dev/null

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
