// Command plusbench regenerates every table and figure of the PLUS
// paper's evaluation, plus the ablation sweeps, through the
// experiments registry.
//
// Usage:
//
//	plusbench [-exp all|ablations|<name>[,<name>...]] [-quick] [-json]
//	          [-parallel N] [-shards K] [-chart] [-max-procs N] [-list]
//	          [-trace FILE] [-trace-window A:B] [-trace-events N]
//	          [-sample N] [-hist]
//	plusbench -races [-json] [-trace FILE]
//
// Every experiment is a sweep of independent simulation points run on
// a worker pool of -parallel goroutines (default GOMAXPROCS); stdout
// is byte-identical for any -parallel value. -shards K additionally
// runs each point's machine whose mesh K tiles on K shard engines —
// parallelism inside one simulation rather than across points, with
// byte-identical results either way. -json replaces the tables with
// one JSON array of {experiment, title, points, rows} objects. Host
// performance is measured by the separate benchmark harness in bench/.
//
// -trace instruments every sweep point with the structured-event
// layer and writes one Chrome trace-event JSON (load it in Perfetto or
// chrome://tracing; one track group per point, one process per node
// and per link) covering all points. -trace-window A:B keeps only
// events in cycles [A, B]; -trace-events sizes the per-point event
// ring; -sample adds time-series counters every N cycles. -hist
// prints the merged latency histograms (remote reads, write acks, RMW
// round trips, per-hop queueing) and a folded stall summary.
//
// -races runs the registered race-detection corpus (experiments.
// RacePrograms) with the data-access event layer on and prints each
// program's happens-before report in name order — deterministic and
// identical for any shard count. -json emits the outcomes as a JSON
// array instead; -trace additionally exports every corpus run as a
// Chrome trace with the detected races on a per-run annotation track.
// Exit status is non-zero iff any program misses its declared verdict
// (a racy program undetected, or a clean one misflagged).
//
// Results print to stdout; EXPERIMENTS.md records a reference run.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"plus/experiments"
	"plus/internal/sim"
	"plus/internal/stats"
)

func main() {
	exp := flag.String("exp", "all", "experiments to run: all, ablations, or comma-separated registry names (see -list)")
	quick := flag.Bool("quick", false, "shrink problem sizes for a fast run")
	maxProcs := flag.Int("max-procs", 0, "cap the processor sweep (0 = experiment default)")
	parallel := flag.Int("parallel", 0, "sweep-point worker pool size (0 = GOMAXPROCS)")
	shards := flag.Int("shards", 0, "shard engines per machine where they tile its mesh (0/1 = serial; orthogonal to -parallel)")
	jsonOut := flag.Bool("json", false, "emit rows as a JSON array instead of tables")
	chart := flag.Bool("chart", false, "render the figures as ASCII charts as well")
	list := flag.Bool("list", false, "list registered experiments and exit")
	traceOut := flag.String("trace", "", "instrument every sweep point and write a Chrome trace-event JSON to this file")
	traceWindow := flag.String("trace-window", "", "record only events in cycles A:B (empty = whole run)")
	traceEvents := flag.Int("trace-events", 0, "per-point event ring size (0 = default)")
	sample := flag.Int("sample", 0, "sample per-link utilization and per-node stalls every N cycles (0 = off)")
	hist := flag.Bool("hist", false, "print merged latency histograms and a stall summary (implies instrumentation)")
	races := flag.Bool("races", false, "run the race-detection corpus and print happens-before reports")
	flag.Parse()

	if *races {
		runRaces(*jsonOut, *traceOut)
		return
	}

	if *list {
		for _, e := range experiments.Registered() {
			fmt.Printf("%-24s %s\n", e.Name, e.Title)
		}
		return
	}

	sel, err := experiments.Select(*exp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "plusbench: %v\n", err)
		os.Exit(2)
	}
	opts := experiments.Options{Quick: *quick, MaxProcs: *maxProcs, Workers: *parallel, Shards: *shards}
	if *traceOut != "" || *hist {
		ocfg := stats.ObserveConfig{
			Events:      *traceEvents,
			SampleEvery: sim.Cycles(*sample),
		}
		if *traceWindow != "" {
			a, b, err := parseWindow(*traceWindow)
			if err != nil {
				fmt.Fprintf(os.Stderr, "plusbench: -trace-window: %v\n", err)
				os.Exit(2)
			}
			ocfg.WindowStart, ocfg.WindowEnd = a, b
		}
		opts.Observe = experiments.NewObservation(ocfg)
	}

	var results []*experiments.Result
	for _, e := range sel {
		res, err := e.Run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "plusbench: %v\n", err)
			os.Exit(1)
		}
		if *jsonOut {
			results = append(results, res)
			continue
		}
		fmt.Println(res.Table)
		if *chart && res.Chart != "" {
			fmt.Println(res.Chart)
		}
	}
	if *jsonOut {
		enc, err := json.MarshalIndent(results, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "plusbench: marshal: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(string(enc))
	}
	if opts.Observe != nil {
		writeObservation(opts.Observe, *traceOut, *hist)
	}
}

// writeObservation exports the instrumented sweep: the Chrome trace
// JSON (validated to parse after it is written) and, with -hist, the merged latency histograms plus the
// folded stall summary on stdout.
func writeObservation(ob *experiments.Observation, traceOut string, hist bool) {
	runs := ob.Runs()
	if traceOut != "" {
		writeTrace(runs, traceOut)
	}
	if hist {
		m := ob.Metrics()
		fmt.Println(m.Render())
		fmt.Println(stats.StallSummary(runs))
	}
}

// writeTrace streams runs to path as Chrome trace JSON, then reads the
// file back and validates that it parses, reporting the event count on
// stderr; any failure exits non-zero.
func writeTrace(runs []stats.ObservedRun, path string) {
	fail := func(what string, err error) {
		fmt.Fprintf(os.Stderr, "plusbench: %s: %v\n", what, err)
		os.Exit(1)
	}
	f, err := os.Create(path)
	if err != nil {
		fail("write trace", err)
	}
	w := bufio.NewWriter(f)
	if err := stats.ChromeTrace(w, runs); err != nil {
		fail("trace export", err)
	}
	if err := w.Flush(); err != nil {
		fail("write trace", err)
	}
	if err := f.Close(); err != nil {
		fail("write trace", err)
	}
	if f, err = os.Open(path); err != nil {
		fail("trace validation", err)
	}
	n, err := stats.ValidateChromeTrace(f)
	f.Close()
	if err != nil {
		fail("trace validation", err)
	}
	fmt.Fprintf(os.Stderr, "plusbench: %d trace event(s) from %d run(s) -> %s\n",
		n, len(runs), path)
}

// runRaces implements -races: run the corpus, render each report (or
// the JSON outcome array), optionally export annotated traces, and
// exit non-zero when any program misses its declared verdict.
func runRaces(jsonOut bool, traceOut string) {
	outcomes, ok, err := experiments.RunRaceCorpus()
	if err != nil {
		fmt.Fprintf(os.Stderr, "plusbench: races: %v\n", err)
		os.Exit(1)
	}
	if jsonOut {
		enc, err := json.MarshalIndent(outcomes, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "plusbench: marshal races: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(string(enc))
	} else {
		for _, o := range outcomes {
			verdict := "PASS"
			if !o.Pass {
				verdict = "FAIL"
			}
			fmt.Printf("[%s] expected %s\n%s", verdict, o.Expect, o.Report.Format())
		}
	}
	if traceOut != "" {
		runs := make([]stats.ObservedRun, 0, len(outcomes))
		for _, o := range outcomes {
			runs = append(runs, o.Trace)
		}
		writeTrace(runs, traceOut)
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "plusbench: race corpus verdict mismatch")
		os.Exit(1)
	}
}

// parseWindow parses "A:B" cycle bounds; either side may be empty
// (A defaults to 0, B to the end of the run).
func parseWindow(s string) (sim.Cycles, sim.Cycles, error) {
	lo, hi, ok := strings.Cut(s, ":")
	if !ok {
		return 0, 0, fmt.Errorf("want A:B, got %q", s)
	}
	var a, b uint64
	var err error
	if lo != "" {
		if a, err = strconv.ParseUint(lo, 10, 64); err != nil {
			return 0, 0, err
		}
	}
	if hi != "" {
		if b, err = strconv.ParseUint(hi, 10, 64); err != nil {
			return 0, 0, err
		}
	}
	if b != 0 && b < a {
		return 0, 0, fmt.Errorf("window end %d before start %d", b, a)
	}
	return sim.Cycles(a), sim.Cycles(b), nil
}
