package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"

	"plus/internal/memory"
	"plus/internal/mesh"
	"plus/internal/proc"
	"plus/internal/sim"
	"plus/internal/stats"
	"plus/internal/timing"
)

// observeWorkload runs a fixed 2x2 workload mixing local and remote
// reads, writes and RMWs, optionally instrumented, under the given
// processor mode (SwitchOnSync pays a 40-cycle switch cost).
func observeWorkload(t *testing.T, obs *stats.Observer, mode proc.Mode) (*Machine, sim.Cycles) {
	t.Helper()
	cfg := DefaultConfig(2, 2)
	cfg.Observe = obs
	cfg.Mode = mode
	if mode == proc.SwitchOnSync {
		cfg.SwitchCost = 40
	}
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	data := m.Alloc(1, 1) // homed on node 1: remote for three of four nodes
	ctr := m.Alloc(2, 1)  // homed on node 2
	for p := 0; p < 4; p++ {
		p := p
		m.Spawn(mesh.NodeID(p), func(th *proc.Thread) {
			for i := 0; i < 40; i++ {
				th.Read(data + memory.VAddr((i+p)%32))
				th.Write(data+memory.VAddr((i*3+p)%32), memory.Word(uint32(i)))
				th.Verify(th.Fadd(ctr, 1))
				th.Compute(20)
			}
			th.Fence()
		})
	}
	elapsed, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	return m, elapsed
}

// TestObservedRunMatchesUnobserved pins the "observation changes
// nothing" contract in both processor modes: the same workload with
// and without an observer produces identical elapsed time, counters
// (context switches included) and message totals.
func TestObservedRunMatchesUnobserved(t *testing.T) {
	for _, tc := range []struct {
		name string
		mode proc.Mode
	}{
		{"run-to-block", proc.RunToBlock},
		{"switch-on-sync", proc.SwitchOnSync},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mPlain, ePlain := observeWorkload(t, nil, tc.mode)
			obs := stats.NewObserver(stats.ObserveConfig{SampleEvery: 1000})
			mObs, eObs := observeWorkload(t, obs, tc.mode)
			if ePlain != eObs {
				t.Fatalf("observer changed elapsed time: %d vs %d", ePlain, eObs)
			}
			if a, b := mPlain.Stats().Totals(), mObs.Stats().Totals(); a != b {
				t.Fatalf("observer changed counters:\n%+v\n%+v", a, b)
			}
			if a, b := mPlain.Stats().Messages(), mObs.Stats().Messages(); a != b {
				t.Fatalf("observer changed message count: %d vs %d", a, b)
			}
			if obs.EventCount() == 0 {
				t.Fatal("observer recorded nothing")
			}
		})
	}
}

// TestObserverAcceptance is the PR's acceptance check: an instrumented
// run must (a) export Chrome trace JSON that validates and covers
// every node and every link, (b) produce latency histograms exactly
// consistent with the stall counters (the remote-read histogram is
// observed at the single site where ReadStall accrues, so its sum is
// ReadStall + Count x RemoteReadOverhead to the cycle), and (c) carry
// time-series samples whose per-node stall deltas integrate back to
// the end-of-run totals.
func TestObserverAcceptance(t *testing.T) {
	obs := stats.NewObserver(stats.ObserveConfig{Events: 1 << 16, SampleEvery: 500})
	m, _ := observeWorkload(t, obs, proc.RunToBlock)

	var buf bytes.Buffer
	if err := stats.ChromeTrace(&buf, []stats.ObservedRun{{Name: "accept", Observer: obs}}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, err := stats.ValidateChromeTrace(bytes.NewReader(data)); err != nil {
		t.Fatalf("trace does not validate: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	tracks := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Name == "process_name" {
			if name, ok := ev.Args["name"].(string); ok {
				tracks[name] = true
			}
		}
	}
	for n := 0; n < m.Nodes(); n++ {
		if !tracks[fmt.Sprintf("accept node %d", n)] {
			t.Errorf("trace missing track for node %d", n)
		}
	}
	links := m.Mesh().LinkLabels()
	if len(links) == 0 {
		t.Fatal("no link labels on a 2x2 mesh")
	}
	for _, l := range links {
		if !tracks["accept link "+l] {
			t.Errorf("trace missing track for link %s", l)
		}
	}

	// Histogram/stall-counter cross-check, exact to the cycle.
	tot := m.Stats().Totals()
	rr := &obs.Metrics.RemoteRead
	if rr.Count == 0 {
		t.Fatal("no remote reads observed")
	}
	want := uint64(tot.ReadStall) + rr.Count*uint64(timing.RemoteReadOverhead)
	if rr.Sum != want {
		t.Errorf("remote-read histogram sum %d inconsistent with ReadStall: want %d", rr.Sum, want)
	}
	if rr.Mean() < float64(timing.RemoteReadOverhead) {
		t.Errorf("remote-read mean %.1f below the issue overhead %d", rr.Mean(), timing.RemoteReadOverhead)
	}
	if obs.Metrics.WriteAck.Count == 0 {
		t.Error("no write acks observed")
	}
	if obs.Metrics.RMWRound.Count == 0 {
		t.Error("no RMW round trips observed")
	}

	// Samples: per-interval deltas must integrate to the run totals.
	samples := obs.Samples()
	if len(samples) == 0 {
		t.Fatal("no time-series samples at SampleEvery=500")
	}
	var read, busy sim.Cycles
	for _, s := range samples {
		for n := 0; n < m.Nodes(); n++ {
			read += s.NodeReadStall[n]
			busy += s.NodeBusy[n]
		}
	}
	// The last partial interval after the final tick is not sampled, so
	// the integral is a lower bound within one interval's activity.
	if read > tot.ReadStall || busy > tot.BusyCycles {
		t.Errorf("sample integrals exceed totals: read %d/%d busy %d/%d",
			read, tot.ReadStall, busy, tot.BusyCycles)
	}
	if read == 0 {
		t.Error("samples recorded no read-stall activity")
	}
}

// TestObserverWindowOnMachine checks that a windowed observer attached
// to a machine records only in [A, B]. The window starts after the
// first touch's lazy page fault (PageFault = 2000 cycles under the
// default timing), inside the steady read loop.
func TestObserverWindowOnMachine(t *testing.T) {
	cfg := DefaultConfig(2, 1)
	obs := stats.NewObserver(stats.ObserveConfig{WindowStart: 2100, WindowEnd: 2400})
	cfg.Observe = obs
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	data := m.Alloc(1, 1)
	m.Spawn(0, func(th *proc.Thread) {
		for i := 0; i < 50; i++ {
			th.Read(data)
			th.Compute(10)
		}
	})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	evs := slices.Collect(obs.All())
	if len(evs) == 0 {
		t.Fatal("window [2100,2400] recorded nothing")
	}
	for _, e := range evs {
		if e.At < 2100 || e.At > 2400 {
			t.Fatalf("event at cycle %d outside window [2100, 2400]", e.At)
		}
	}
	if !strings.Contains(obs.Dump(), "read") {
		t.Error("observer dump missing read events")
	}
}
