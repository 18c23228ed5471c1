package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"reflect"
	"strconv"
	"strings"
	"time"

	"plus/experiments"
	"plus/internal/stats"
)

// childTimeout bounds one rep; a hung rep counts as failed.
const childTimeout = 120 * time.Second

// minReps is the fewest timed reps a workload gets, whatever the time
// budget: enough for a median and quartiles.
const minReps = 3

// runner runs reps as child processes of this binary, one at a time,
// and only waits while each runs.
type runner struct {
	exe     string
	env     []string
	seed    int64
	seconds float64
	tiny    bool
	rep     *report
}

type report struct {
	Header     header                     `json:"header"`
	Validation validation                 `json:"model_validation"`
	Workloads  map[string]*workloadReport `json:"workloads"`
}

type validation struct {
	OK      bool   `json:"ok"`
	Table31 string `json:"table3_1"`
	Note    string `json:"note"`
}

type workloadReport struct {
	Why       string             `json:"why"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Metrics   map[string]summary `json:"metrics"`
}

func (wr *workloadReport) fail(format string, args ...any) {
	wr.Failed++
	wr.Failures = append(wr.Failures, fmt.Sprintf(format, args...))
}

func (wr *workloadReport) put(name string, values ...float64) {
	d, ok := findDef(name)
	if !ok {
		panic("bench: undefined metric " + name)
	}
	wr.Metrics[name] = summarize(d.unit, d.kind, values)
}

// attempted and failed total the run, the Table 3-1 gate included.
func (r *report) totals() (attempted, failed int) {
	attempted, failed = 1, 0
	if !r.Validation.OK {
		failed = 1
	}
	for _, wr := range r.Workloads {
		attempted += wr.Attempted
		failed += wr.Failed
	}
	return attempted, failed
}

// repsFor turns the time budget into a fixed rep count, so every run
// of a workload with one budget does the same work, however fast the
// host is.
func (d *runner) repsFor(w *workload) int {
	return max(minReps, int(math.Round(d.seconds/w.nominal)))
}

// child runs one rep in a fresh child process and accounts for it.
func (d *runner) child(wr *workloadReport, kind string, w *workload) (*repResult, bool) {
	wr.Attempted++
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	args := []string{"-kind", kind, "-seed", strconv.FormatInt(d.seed, 10)}
	if w != nil {
		args = append(args, "-workload", w.name)
	}
	if d.tiny {
		args = append(args, "-tiny")
	}
	cmd := exec.CommandContext(ctx, d.exe, args...)
	cmd.Env = d.env
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	err := cmd.Run()
	label := kind
	if w != nil {
		label = kind + " rep of " + w.name
	}
	if err != nil {
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			err = fmt.Errorf("timed out after %v", childTimeout)
		}
		wr.fail("%s: %v", label, err)
		return nil, false
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var r repResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		wr.fail("%s: unreadable result: %v", label, err)
		return nil, false
	}
	if r.Err != "" {
		wr.fail("%s: %s", label, r.Err)
		return nil, false
	}
	return &r, true
}

// sameModel reports a divergence of got from want, where both must be
// the same simulation.
func sameModel(wr *workloadReport, what string, want, got *repResult) {
	if want != nil && got != nil && !reflect.DeepEqual(want.Out, got.Out) {
		wr.fail("%s diverged: sim_cycles %d vs %d, messages %d vs %d, digest %d vs %d",
			what, got.Out.SimCycles, want.Out.SimCycles, got.Out.Messages, want.Out.Messages,
			got.Out.Digest, want.Out.Digest)
	}
}

// checkTable31 is the model's validation gate: every delayed
// operation's measured execution cycles must equal Table 3-1's.
func (d *runner) checkTable31() {
	v := &d.rep.Validation
	v.Note = "the timing model is validated only against the paper's Table 3-1 per-operation cycle counts; " +
		"the workloads' simulated results have no reference measurement, so no accuracy figure is given for them"
	rows, err := experiments.Table31(experiments.Options{Workers: 1})
	if err != nil {
		v.Table31 = "error: " + err.Error()
		return
	}
	match := 0
	var miss []string
	for _, r := range rows {
		if r.MeasuredExec == r.PaperCycles {
			match++
		} else {
			miss = append(miss, fmt.Sprintf("%v measured %d, paper %d", r.Op, r.MeasuredExec, r.PaperCycles))
		}
	}
	v.OK = match == len(rows) && match > 0
	v.Table31 = fmt.Sprintf("%d/%d delayed operations match the paper's cycle counts", match, len(rows))
	if len(miss) > 0 {
		v.Table31 += " (" + strings.Join(miss, "; ") + ")"
	}
}

// timed runs the end-to-end protocol: every rep of every workload
// simulates the run's seed, and reps go round-robin across workloads so
// host drift hits each equally. The calibration kernel runs before the
// first rep and after every rep; each rep's host speed is the mean of
// the two calibrations around it.
func (d *runner) timed(ws []*workload) {
	results := make(map[string][]*repResult)
	rounds := 0
	for _, w := range ws {
		n := d.repsFor(w)
		d.rep.Header.Reps[w.name] = n
		rounds = max(rounds, n)
	}
	calibrate() // warm-up: grows the heap the kernel allocates into
	before := calibrate()
	for i := 0; i < rounds; i++ {
		for _, w := range ws {
			if i >= d.rep.Header.Reps[w.name] {
				continue
			}
			r, ok := d.child(d.rep.Workloads[w.name], kindPlain, w)
			after := calibrate()
			if ok {
				r.Calib = (before + after) / 2
				results[w.name] = append(results[w.name], r)
			}
			before = after
		}
	}
	for _, w := range ws {
		wr, reps := d.rep.Workloads[w.name], results[w.name]
		d.checkModel(wr, w, reps...)
		summarizeTimed(wr, reps)
	}
}

// checkModel is the determinism gate: every rep of a workload must
// simulate exactly what the first did, and a sharded workload must also
// match a rep of its serial twin.
func (d *runner) checkModel(wr *workloadReport, w *workload, reps ...*repResult) {
	if len(reps) == 0 {
		return
	}
	for i, r := range reps[1:] {
		sameModel(wr, fmt.Sprintf("rep %d", i+2), reps[0], r)
	}
	if w.twin != "" {
		ref, _ := d.child(wr, kindRef, w)
		sameModel(wr, "serial twin "+w.twin, reps[0], ref)
	}
}

// summarizeTimed reduces the timed reps to the end-to-end metrics.
func summarizeTimed(wr *workloadReport, reps []*repResult) {
	var wall, setup, cps, mps, alloc, rss, cycles, msgs, raw, calib []float64
	for _, r := range reps {
		speed := refCalib / r.Calib // host seconds → reference-host seconds
		wall = append(wall, r.Wall*speed)
		setup = append(setup, r.Setup*speed)
		cps = append(cps, float64(r.Out.SimCycles)/(r.Wall*speed))
		mps = append(mps, float64(r.Out.Messages)/(r.Wall*speed))
		raw = append(raw, r.Wall)
		calib = append(calib, r.Calib)
		alloc = append(alloc, r.AllocMB)
		rss = append(rss, r.MaxRSSMB)
		cycles = append(cycles, float64(r.Out.SimCycles))
		msgs = append(msgs, float64(r.Out.Messages))
	}
	if len(wall) > 0 {
		wr.put("wall_s", wall...)
		wr.put("setup_s", setup...)
		wr.put("sim_cycles_per_s", cps...)
		wr.put("msgs_per_s", mps...)
		wr.put("alloc_mb", alloc...)
		wr.put("max_rss_mb", rss...)
		wr.put("sim_cycles", cycles...)
		wr.put("messages", msgs...)
		wr.put("raw_wall_s", raw...)
		wr.put("calib_s", calib...)
	}
	// Every rep simulated the same latencies (checkModel), so the first
	// rep's histograms are the run's.
	if len(reps) > 0 && reps[0].Out.KV != nil {
		kv := reps[0].Out.KV
		wr.put("kv_late_frac", float64(kv.Late)/float64(kv.Ops))
		for class, h := range map[string]stats.Hist{"read": stats.Hist(kv.Read), "write": stats.Hist(kv.Write)} {
			wr.put("kv_"+class+"_p50_cycles", float64(h.Quantile(0.50)))
			wr.put("kv_"+class+"_p99_cycles", float64(h.Quantile(0.99)))
			// The highest percentile reported needs at least ten samples
			// beyond it.
			if float64(h.Count)*0.001 >= 10 {
				wr.put("kv_"+class+"_p999_cycles", float64(h.Quantile(0.999)))
			}
		}
	}
	wr.put("error_rate", float64(wr.Failed)/float64(max(wr.Attempted, 1)))
}

// traced runs the per-layer protocol for one workload: an unobserved
// rep, an observed rep, CPU-profiled reps and the microbenchmarks. Every
// rep must simulate identically — the observer and the profiler may not
// perturb the model.
func (d *runner) traced(w *workload) {
	wr := d.rep.Workloads[w.name]
	profiled := max(1, d.repsFor(w)/3)
	d.rep.Header.Reps[w.name] = profiled
	plain, _ := d.child(wr, kindPlain, w)
	obs, _ := d.child(wr, kindObserve, w)
	profs := make([]*repResult, profiled)
	for i := range profs {
		profs[i], _ = d.child(wr, kindProfile, w)
	}
	micro, _ := d.child(wr, kindMicro, nil)
	d.checkModel(wr, w, append([]*repResult{plain, obs}, profs...)...)

	shares := make(map[string][]float64)
	for _, p := range profs {
		if p == nil {
			continue
		}
		var total int64
		for _, n := range p.Samples {
			total += n
		}
		if total == 0 {
			continue
		}
		for _, l := range layers {
			shares[l] = append(shares[l], float64(p.Samples[l])/float64(total))
		}
	}
	for l, v := range shares {
		wr.put(l+".host_share", v...)
	}
	if plain != nil {
		wr.put("sim_cycles", float64(plain.Out.SimCycles))
		wr.put("messages", float64(plain.Out.Messages))
		wr.put("sim.shard_cpu_util", plain.CPU/(plain.Wall*float64(d.rep.Header.GOMAXPROCS)))
		wr.put("runtime.gc_count", float64(plain.GCs))
		wr.put("runtime.gc_pause_ms", plain.GCPauseMS)
	}
	if obs != nil {
		for name, v := range obs.Obs {
			wr.put(name, v)
		}
		if plain != nil {
			wr.put("stats.trace_overhead", obs.Wall/plain.Wall)
		}
	}
	if micro != nil {
		for name, v := range micro.Micro {
			wr.put(name, v)
		}
	}
}
