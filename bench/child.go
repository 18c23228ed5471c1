package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"plus/internal/sim"
	"plus/internal/stats"
)

// childEnv marks a process as a rep child. Every rep runs in a fresh
// child so caches, heap and processor state start empty, and the
// parent process only waits while it runs.
const childEnv = "PLUS_BENCH_CHILD"

// Rep kinds.
const (
	kindPlain   = "plain"   // set-up replay, then the timed Run
	kindProfile = "profile" // Run under the CPU profiler
	kindObserve = "observe" // Run with a stats.Observer attached
	kindRef     = "ref"     // Run the serial twin of a sharded workload
	kindMicro   = "micro"   // the per-layer microbenchmarks
)

// repResult is what a child reports on the last line of its stdout.
type repResult struct {
	Wall      float64 `json:"wall_s"`
	Setup     float64 `json:"setup_s"`
	AllocMB   float64 `json:"alloc_mb"`
	CPU       float64 `json:"cpu_s"`
	GCs       uint32  `json:"gc_count"`
	GCPauseMS float64 `json:"gc_pause_ms"`
	Out       outcome `json:"outcome"`
	// Samples is the CPU profile folded by layer (profile reps).
	Samples map[string]int64 `json:"profile_samples,omitempty"`
	// Obs holds the observed pass's per-layer figures (observe reps).
	Obs   map[string]float64 `json:"observed,omitempty"`
	Micro map[string]float64 `json:"micro,omitempty"`
	Err   string             `json:"error,omitempty"`
	// MaxRSSMB is the child's peak resident set.
	MaxRSSMB float64 `json:"max_rss_mb"`
	// Calib is the parent's calibration time around this rep (timed
	// reps only).
	Calib float64 `json:"-"`
}

// childMain runs one rep and prints its repResult; a failed rep still
// exits 0 with Err set, so only a crash or a hang reaches the parent as
// a bad exit.
func childMain(args []string) int {
	fs := flag.NewFlagSet("bench child", flag.ContinueOnError)
	kind := fs.String("kind", kindPlain, "rep kind")
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 42, "workload seed")
	tiny := fs.Bool("tiny", false, "smoke-test sizes")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var r repResult
	if *kind == kindMicro {
		var err error
		if r.Micro, err = runMicros(*tiny); err != nil {
			r.Err = err.Error()
		}
	} else if w, err := workloadByName(*name); err != nil {
		r.Err = err.Error()
	} else {
		r = runRep(*kind, w, params{seed: *seed, tiny: *tiny})
	}
	r.MaxRSSMB = peakRSSMB()
	line, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench child:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// runRep runs one rep of w in this process.
func runRep(kind string, w *workload, p params) (r repResult) {
	defer func() {
		if e := recover(); e != nil {
			r.Err = fmt.Sprintf("panic: %v", e)
		}
	}()
	switch kind {
	case kindPlain:
		runtime.GC()
		t0 := time.Now()
		if err := w.setup(p); err != nil {
			r.Err = "setup: " + err.Error()
			return r
		}
		r.Setup = time.Since(t0).Seconds()
	case kindObserve:
		p.obs = stats.NewObserver(stats.ObserveConfig{SampleEvery: observeSampleEvery})
	case kindRef:
		p.ref = true
	}

	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuSeconds()
	var prof bytes.Buffer
	if kind == kindProfile {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			r.Err = err.Error()
			return r
		}
	}
	t0 := time.Now()
	out, err := w.run(p)
	r.Wall = time.Since(t0).Seconds()
	if kind == kindProfile {
		// A short rep is re-run until the profile holds enough samples
		// to fold; full-size reps are long enough in one run.
		for err == nil && time.Since(t0) < minProfile {
			_, err = w.run(p)
		}
		pprof.StopCPUProfile()
	}
	r.CPU = cpuSeconds() - cpu0
	runtime.ReadMemStats(&ms1)
	r.AllocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
	r.GCs = ms1.NumGC - ms0.NumGC
	r.GCPauseMS = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	r.Out = out
	if err != nil {
		r.Err = err.Error()
		return r
	}
	switch kind {
	case kindProfile:
		if r.Samples, err = foldProfile(prof.Bytes()); err != nil {
			r.Err = err.Error()
		}
	case kindObserve:
		r.Obs = observedLayers(p.obs)
	}
	return r
}

// minProfile is the least host time a profiled rep covers: 50 samples
// at the profiler's 100 Hz.
const minProfile = 500 * time.Millisecond

// observeSampleEvery is the observed pass's sampler period in cycles:
// a few hundred samples over the longest workload.
const observeSampleEvery sim.Cycles = 5000

// observedLayers reduces an observer to the per-layer figures: p99s of
// the protocol latency histograms, the busiest link's utilization over
// the sampled span, and each stall class's share of processor time
// (sampler deltas integrated over nodes and time).
func observedLayers(o *stats.Observer) map[string]float64 {
	m := &o.Metrics
	out := map[string]float64{
		"mesh.hop_queue_p99_cycles":        float64(m.HopQueue.Quantile(0.99)),
		"coherence.remote_read_p99_cycles": float64(m.RemoteRead.Quantile(0.99)),
		"coherence.write_ack_p99_cycles":   float64(m.WriteAck.Quantile(0.99)),
		"coherence.rmw_round_p99_cycles":   float64(m.RMWRound.Quantile(0.99)),
	}
	var busy []float64
	var read, write, fence, verify float64
	var last sim.Cycles
	nodes := 0
	for _, s := range o.Samples() {
		span := float64(s.At - last)
		last = s.At
		if busy == nil {
			busy = make([]float64, len(s.LinkUtil))
		}
		for i, u := range s.LinkUtil {
			busy[i] += u * span
		}
		nodes = len(s.NodeBusy)
		for i := range s.NodeBusy {
			read += float64(s.NodeReadStall[i])
			write += float64(s.NodeWriteStall[i])
			fence += float64(s.NodeFenceStall[i])
			verify += float64(s.NodeVerifyStall[i])
		}
	}
	total := float64(last)
	var util float64
	for _, b := range busy {
		util = max(util, b)
	}
	frac := func(x float64) float64 {
		if total == 0 || nodes == 0 {
			return 0
		}
		return x / (total * float64(nodes))
	}
	if total > 0 {
		util /= total
	}
	out["mesh.link_util_max"] = util
	out["proc.stall_frac.read"] = frac(read)
	out["proc.stall_frac.write"] = frac(write)
	out["proc.stall_frac.fence"] = frac(fence)
	out["proc.stall_frac.verify"] = frac(verify)
	return out
}

// peakRSSMB returns this process's peak resident set in MiB: VmHWM,
// which starts afresh at exec. (getrusage's maxrss would also count the
// parent's resident set, inherited through the fork.)
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// cpuSeconds returns this process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}
