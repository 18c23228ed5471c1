// Command bench is the simulator's benchmark: four fixed workloads
// run end to end through the apps' public Run functions, with the
// per-layer costs measured from outside the program (microbenchmarks
// of each layer's public API, an observed pass and a CPU profile).
//
// Build and run it from the repository root with
//
//	bash bench/run.sh [-workload NAME|all] [-seed N] [-seconds S] [-trace 0|1] [-out report.json]
//	bash bench/run.sh -compare OLD.json NEW.json
//
// Tracing off (the default) reports the end-to-end metrics; -trace 1
// reports the per-layer metrics instead. The last line of standard
// output is a JSON object with the keys correct, attempted, failed and
// metrics. See README.md for the workloads and how to read a report.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

func main() {
	if os.Getenv(childEnv) != "" {
		os.Exit(childMain(os.Args[1:]))
	}
	os.Exit(run(os.Args[1:], os.Stdout))
}

// run is the benchmark command; it returns the exit status.
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	names := fs.String("workload", "all", "comma-separated workloads, or all")
	seed := fs.Int64("seed", 42, "workload seed, handed to every rep")
	seconds := fs.Float64("seconds", 12, "time budget per workload, turned into a fixed rep count")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics")
	tiny := fs.Bool("tiny", false, "shrink every workload to smoke-test size")
	out := fs.String("out", "", "also write the full report as JSON to this file")
	compare := fs.Bool("compare", false, "compare two -out reports: -compare OLD.json NEW.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs OLD.json NEW.json")
			return 2
		}
		// run.sh builds the binary into .bench_build/ at the repository
		// root, beside BENCHMARK.json.
		bounds := filepath.Join(filepath.Dir(exe), "..", "BENCHMARK.json")
		worse, err := compareReports(fs.Arg(0), fs.Arg(1), bounds, stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		if worse {
			return 1
		}
		return 0
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace must be 0 or 1")
		return 2
	}
	ws := workloads
	if *names != "all" {
		ws = nil
		for _, name := range strings.Split(*names, ",") {
			w, err := workloadByName(name)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 2
			}
			ws = append(ws, w)
		}
	}
	nproc := runtime.NumCPU()
	d := &runner{
		exe:     exe,
		env:     append(os.Environ(), childEnv+"=1", "GOMAXPROCS="+strconv.Itoa(nproc)),
		seed:    *seed,
		seconds: *seconds,
		tiny:    *tiny,
		rep: &report{
			Header:    newHeader(nproc, *seed, *seconds, *trace == 1, *tiny),
			Workloads: make(map[string]*workloadReport),
		},
	}
	for _, w := range ws {
		d.rep.Workloads[w.name] = &workloadReport{Why: w.why, Metrics: make(map[string]summary)}
	}
	d.checkTable31()
	list := endToEnd
	if *trace == 1 {
		list = perLayer
		for _, w := range ws {
			d.traced(w)
		}
	} else {
		d.timed(ws)
	}

	printReport(stdout, d.rep, ws)
	if *out != "" {
		data, err := json.MarshalIndent(d.rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench: writing report:", err)
			return 2
		}
	}
	attempted, failed := d.rep.totals()
	line, err := json.Marshal(resultLine(d.rep, ws, list, attempted, failed))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if failed > 0 {
		return 1
	}
	return 0
}

type resultMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]resultMetric `json:"metrics"`
}

// resultLine builds the final JSON line. With one workload its metrics
// go under their own names; with several, as workload/metric.
func resultLine(r *report, ws []*workload, list []metricDef, attempted, failed int) result {
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]resultMetric{}}
	for _, w := range ws {
		for _, d := range list {
			s, ok := r.Workloads[w.name].Metrics[d.name]
			if !ok {
				continue
			}
			key := d.name
			if len(ws) > 1 {
				key = w.name + "/" + d.name
			}
			res.Metrics[key] = resultMetric{Value: s.Median, Unit: s.Unit}
		}
	}
	return res
}

type header struct {
	Date       string  `json:"date"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Tiny       bool    `json:"tiny,omitempty"`
	// Reps is each workload's rep count: timed reps, or profiled reps
	// when traced.
	Reps map[string]int `json:"reps"`
}

func newHeader(nproc int, seed int64, seconds float64, trace, tiny bool) header {
	return header{
		Date:       time.Now().UTC().Format(time.RFC3339),
		NProc:      nproc,
		GOMAXPROCS: nproc, // every child runs with GOMAXPROCS = nproc
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		Commit:     commit(),
		Seed:       seed,
		Seconds:    seconds,
		Trace:      trace,
		Tiny:       tiny,
		Reps:       make(map[string]int),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the source revision stamped into the binary by go build,
// or "unknown" when it was built outside a git checkout.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+modified"
	}
	return rev
}

func printReport(w io.Writer, r *report, ws []*workload) {
	h := r.Header
	mode := "end-to-end, tracing off"
	if h.Trace {
		mode = "per-layer, traced"
	}
	fmt.Fprintf(w, "PLUS simulator benchmark (%s): seed %d, %.0f s per workload, %s\n", mode, h.Seed, h.Seconds, h.Date)
	fmt.Fprintf(w, "host: nproc %d, GOMAXPROCS %d, %s, %s, commit %s\n", h.NProc, h.GOMAXPROCS, h.GoVersion, h.CPUModel, h.Commit)
	fmt.Fprintf(w, "model validation: %s; %s\n", r.Validation.Table31, r.Validation.Note)
	for _, wl := range ws {
		wr := r.Workloads[wl.name]
		fmt.Fprintf(w, "\n%s — %d reps, %d attempted, %d failed\n", wl.name, h.Reps[wl.name], wr.Attempted, wr.Failed)
		for _, f := range wr.Failures {
			fmt.Fprintf(w, "  FAILED: %s\n", f)
		}
		fmt.Fprintf(w, "  %-34s %-9s %14s %14s %14s %3s\n", "metric", "unit", "median", "q1", "q3", "n")
		for _, name := range metricOrder(wr.Metrics) {
			s := wr.Metrics[name]
			fmt.Fprintf(w, "  %-34s %-9s %14.6g %14.6g %14.6g %3d\n", name, s.Unit, s.Median, s.Q1, s.Q3, s.N)
		}
	}
}

// metricOrder lists a workload's metrics in definition order.
func metricOrder(m map[string]summary) []string {
	var names []string
	for _, list := range [][]metricDef{endToEnd, reportOnly, perLayer} {
		for _, d := range list {
			if _, ok := m[d.name]; ok {
				names = append(names, d.name)
			}
		}
	}
	return names
}
