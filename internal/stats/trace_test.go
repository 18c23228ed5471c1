package stats

import (
	"strings"
	"testing"

	"plus/internal/sim"
)

// The ring keeps the NEWEST events: pushing past capacity overwrites
// the oldest, and Overwritten counts the loss.
func TestObserverKeepsNewest(t *testing.T) {
	var now sim.Cycles
	o := NewObserver(ObserveConfig{Events: 4})
	o.Bind(func() sim.Cycles { return now }, TraceMeta{})
	for i := 0; i < 6; i++ {
		now = sim.Cycles(i)
		o.Emit(EvWriteIssue, 1, 0, uint64(i+1), uint64(i), 0)
	}
	evs := o.Events()
	if len(evs) != 4 {
		t.Fatalf("events = %d, want 4 (ring capacity)", len(evs))
	}
	if evs[0].At != 2 || evs[3].At != 5 {
		t.Fatalf("window = [%d, %d], want [2, 5] (newest kept)", evs[0].At, evs[3].At)
	}
	if o.Overwritten() != 2 {
		t.Fatalf("overwritten = %d, want 2", o.Overwritten())
	}
	if !strings.Contains(o.Dump(), "2 earlier event(s) overwritten") {
		t.Fatalf("dump missing overwrite note:\n%s", o.Dump())
	}
}

// Events <= 0 is the documented default, not a silent fallback.
func TestObserverDefaultRingCap(t *testing.T) {
	if got := NewObserver(ObserveConfig{}).RingCap(); got != DefaultRingEvents {
		t.Fatalf("default ring capacity = %d, want %d", got, DefaultRingEvents)
	}
	// Non-power-of-two capacities round up.
	if got := NewObserver(ObserveConfig{Events: 100}).RingCap(); got != 128 {
		t.Fatalf("ring capacity for Events 100 = %d, want 128", got)
	}
}

func TestMachineObserverNilByDefault(t *testing.T) {
	m := New(2)
	if m.Observer() != nil {
		t.Fatal("fresh machine should have no observer")
	}
	o := NewObserver(ObserveConfig{Events: 10})
	o.Bind(func() sim.Cycles { return 7 }, TraceMeta{})
	m.AttachObserver(o)
	if m.Observer() != o {
		t.Fatal("observer attach/accessor broken")
	}
	m.Observer().Emit(EvUpdate, 1, 0, 3, 9, 1)
	evs := o.Events()
	if len(evs) != 1 || evs[0].At != 7 || evs[0].Node != 1 || evs[0].Kind != EvUpdate {
		t.Fatalf("events = %+v", evs)
	}
}

func TestObserverWindow(t *testing.T) {
	o := NewObserver(ObserveConfig{Events: 16, WindowStart: 10, WindowEnd: 20})
	var now sim.Cycles
	o.Bind(func() sim.Cycles { return now }, TraceMeta{Nodes: 1})
	for _, c := range []sim.Cycles{5, 10, 15, 20, 25} {
		now = c
		o.Emit(EvReadIssue, 0, 0, 0, 0, 0)
	}
	evs := o.Events()
	if len(evs) != 3 || evs[0].At != 10 || evs[2].At != 20 {
		t.Fatalf("windowed events = %+v, want cycles 10/15/20", evs)
	}
}

func TestObserverDoubleBindPanics(t *testing.T) {
	o := NewObserver(ObserveConfig{})
	o.Bind(func() sim.Cycles { return 0 }, TraceMeta{})
	defer func() {
		if recover() == nil {
			t.Fatal("second Bind should panic")
		}
	}()
	o.Bind(func() sim.Cycles { return 0 }, TraceMeta{})
}

// CauseFor draws per-node IDs: nonzero, strictly increasing within a
// node, and never colliding across nodes.
func TestCausalIDsMonotonic(t *testing.T) {
	o := NewObserver(ObserveConfig{})
	a, b := o.CauseFor(0), o.CauseFor(0)
	if a == 0 || b <= a {
		t.Fatalf("node 0 causes = %d, %d; want nonzero and increasing", a, b)
	}
	if c := o.CauseFor(1); c == a || c == b {
		t.Fatalf("node 1 cause %d collides with node 0's %d, %d", c, a, b)
	}
}

func TestHistQuantilesAndMean(t *testing.T) {
	var h Hist
	for v := uint64(1); v <= 100; v++ {
		h.Observe(v)
	}
	if h.Count != 100 || h.Sum != 5050 || h.Max != 100 {
		t.Fatalf("count/sum/max = %d/%d/%d", h.Count, h.Sum, h.Max)
	}
	if m := h.Mean(); m != 50.5 {
		t.Fatalf("mean = %v", m)
	}
	// p50 of 1..100 lands in the [33, 64] bucket; the quantile is the
	// bucket's upper bound.
	if q := h.Quantile(0.50); q < 50 || q > 64 {
		t.Fatalf("p50 = %d, want in [50, 64]", q)
	}
	if q := h.Quantile(0.99); q < 99 || q > 100 {
		t.Fatalf("p99 = %d, want in [99, 100] (clamped to max)", q)
	}
	if q := h.Quantile(1.0); q != 100 {
		t.Fatalf("p100 = %d, want 100", q)
	}
	var zero Hist
	if zero.Quantile(0.5) != 0 || zero.Mean() != 0 {
		t.Fatal("empty hist should report zeros")
	}
}

func TestHistAddMerges(t *testing.T) {
	var a, b Hist
	a.Observe(4)
	b.Observe(1000)
	a.Add(&b)
	if a.Count != 2 || a.Sum != 1004 || a.Max != 1000 {
		t.Fatalf("merged = %+v", a)
	}
}

// Emitting with the observer attached must not allocate: the ring is
// preallocated and Event is value-typed.
func TestEmitZeroAlloc(t *testing.T) {
	o := NewObserver(ObserveConfig{Events: 1 << 10})
	var now sim.Cycles
	o.Bind(func() sim.Cycles { return now }, TraceMeta{Nodes: 4})
	allocs := testing.AllocsPerRun(1000, func() {
		now++
		o.Emit(EvWriteIssue, 2, 0, o.CauseFor(2), 0xdead, 42)
		o.Metrics.WriteAck.Observe(uint64(now))
	})
	if allocs != 0 {
		t.Fatalf("Emit+Observe allocates %.1f/op, want 0", allocs)
	}
}

func TestChromeTraceExportAndValidate(t *testing.T) {
	o := NewObserver(ObserveConfig{Events: 64})
	var now sim.Cycles
	o.Bind(func() sim.Cycles { return now }, TraceMeta{
		Nodes: 2, MeshWidth: 2, MeshHeight: 1, Links: []string{"0->1E", "1->0W"},
	})
	now = 10
	o.Emit(EvWriteIssue, 0, 0, 1, 0x40, 0)
	o.EmitAt(12, EvNetHop, 0, 0, 1, 0, 4)
	now = 30
	o.Emit(EvStallEnd, 0, StallWrite, 1, 3, 20)
	o.AddSample(Sample{At: 32, LinkUtil: []float64{0.5, 0}, LinkDepth: []sim.Cycles{4, 0},
		NodeBusy: []sim.Cycles{10, 0}})
	data, err := ChromeTrace([]ObservedRun{ObservedRunFrom("t", o)})
	if err != nil {
		t.Fatal(err)
	}
	n, err := ValidateChromeTrace(data)
	if err != nil {
		t.Fatalf("validate: %v\n%s", err, data)
	}
	// 2 nodes + 2 links with 2 metadata entries each = 8, plus 1
	// instant, 1 hop span, 1 stall span, 2 link counters, 1 node counter.
	if n < 13 {
		t.Fatalf("trace events = %d, want >= 13", n)
	}
	s := string(data)
	for _, want := range []string{"t node 0", "t node 1", "t link 0->1E", "t link 1->0W",
		"stall:write", "xfer", "displayTimeUnit"} {
		if !strings.Contains(s, want) {
			t.Fatalf("trace missing %q:\n%s", want, s)
		}
	}
	if _, err := ValidateChromeTrace([]byte(`{"traceEvents":[]}`)); err == nil {
		t.Fatal("empty trace should fail validation")
	}
	if _, err := ValidateChromeTrace([]byte(`{`)); err == nil {
		t.Fatal("malformed trace should fail validation")
	}
}

func TestStallSummary(t *testing.T) {
	o := NewObserver(ObserveConfig{Events: 16})
	o.Bind(func() sim.Cycles { return 100 }, TraceMeta{Nodes: 2})
	o.Emit(EvStallEnd, 0, StallRead, 1, 0, 60)
	o.Emit(EvStallEnd, 1, StallWrite, 2, 0, 40)
	s := StallSummary([]ObservedRun{ObservedRunFrom("r", o)})
	for _, want := range []string{"r;n0;read 60", "r;n1;write 40"} {
		if !strings.Contains(s, want) {
			t.Fatalf("summary missing %q:\n%s", want, s)
		}
	}
	if empty := StallSummary(nil); !strings.Contains(empty, "no stall events") {
		t.Fatalf("empty summary = %q", empty)
	}
}

// TestAccessEmitZeroAlloc pins the data-access event layer's hot path:
// emitting the EvAcc* stream the race detector consumes must not
// allocate, exactly like the protocol events — the layer rides the
// same preallocated ring.
func TestAccessEmitZeroAlloc(t *testing.T) {
	o := NewObserver(ObserveConfig{Events: 1 << 10, DataAccess: true})
	var now sim.Cycles
	o.Bind(func() sim.Cycles { return now }, TraceMeta{Nodes: 4})
	if !o.DataAccess() {
		t.Fatal("DataAccess not enabled")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		now++
		o.Emit(EvAccRead, 1, 0, 0, 0x40, 3<<32|7)
		o.Emit(EvAccWrite, 1, 1, 0, 0x41, 3<<32|9)
		o.Emit(EvAccRMW, 2, 1, o.CauseFor(2), 0x42, 4<<32|1)
		o.Emit(EvAccFence, 2, 0, 0, 4, 0)
	})
	if allocs != 0 {
		t.Fatalf("access emit allocates %.1f/op, want 0", allocs)
	}
}
