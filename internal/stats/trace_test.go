package stats

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"slices"
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
	evs := slices.Collect(o.All())
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
	evs := slices.Collect(o.All())
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
	evs := slices.Collect(o.All())
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
	var buf bytes.Buffer
	if err := ChromeTrace(&buf, []ObservedRun{{Name: "t", Observer: o}}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	n, err := ValidateChromeTrace(bytes.NewReader(data))
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
	for _, bad := range []string{
		`{"traceEvents":[]}`,
		`{"traceEvents":null}`,
		`{"displayTimeUnit":"ms"}`,
		`{`,
		`[]`,
		`{"traceEvents":{}}`,
		`{"traceEvents":[{"ph":"M","pid":1}]} {}`,
		`{"traceEvents":[{"ph":"M","pid":1},{"ph":"M"}]}`,
		`{"traceEvents":[{"ph":"M","pid":1},{"pid":2}]}`,
		`{"traceEvents":[{"ph":"M","pid":1},3]}`,
		`{"traceEvents":[{"ph":"M","pid":1}`,
	} {
		if _, err := ValidateChromeTrace(strings.NewReader(bad)); err == nil {
			t.Errorf("%s: passed validation", bad)
		}
	}
	if n, err := ValidateChromeTrace(strings.NewReader(
		`{"x":[1,{"y":2}],"traceEvents":[{"ph":"M","pid":1},{"ph":"i","pid":2}],"z":null}` + "\n")); n != 2 || err != nil {
		t.Errorf("valid two-event trace: %d events, %v", n, err)
	}
}

// chromeTraceWhole is the exporter as it was before it streamed: every
// event collected, then the whole file encoded in one call. It is the
// oracle for the streamed bytes.
func chromeTraceWhole(runs []ObservedRun) ([]byte, error) {
	var evs []chromeEvent
	chromeEvents(runs, func(ev chromeEvent) { evs = append(evs, ev) })
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", " ")
	err := enc.Encode(struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{evs, "ms"})
	return buf.Bytes(), err
}

// TestChromeTraceStreamsWholeEncoding compares the streamed export
// with the whole-file oracle byte for byte: on no runs, on runs with
// no tracks, on runs whose ring recorded nothing, and on runs with a
// random mix of every event kind, samples and race marks (whose labels
// and args carry the characters HTML escaping would rewrite).
func TestChromeTraceStreamsWholeEncoding(t *testing.T) {
	meta := TraceMeta{Nodes: 3, MeshWidth: 3, MeshHeight: 1,
		Links: []string{"0->1E", "1->0W", "1->2E", "2->1W"}}
	rng := rand.New(rand.NewSource(7))
	// view is a run over a fresh 512-event observer, bound to meta
	// unless it is nil.
	view := func(name string, meta *TraceMeta) ObservedRun {
		o := NewObserver(ObserveConfig{Events: 512})
		if meta != nil {
			o.Bind(nil, *meta)
		}
		return ObservedRun{Name: name, Observer: o}
	}
	busy := func() ObservedRun {
		run := view("busy <&>", &meta)
		for i := 0; i < 500; i++ {
			run.EmitAt(sim.Cycles(rng.Intn(1<<20)), EventKind(1+rng.Intn(int(evKinds)-1)),
				rng.Intn(meta.Nodes), uint8(rng.Intn(5)), rng.Uint64()>>rng.Intn(64),
				uint64(rng.Intn(6))-1, rng.Uint64()>>rng.Intn(64))
		}
		for i := 0; i < 20; i++ {
			run.AddSample(Sample{At: sim.Cycles(1000 * i),
				LinkUtil:  []float64{rng.Float64(), 0, 1.0 / 3, 1e-9},
				LinkDepth: []sim.Cycles{sim.Cycles(i), 0, 7},
				NodeBusy:  []sim.Cycles{sim.Cycles(i), 1, 2}, NodeReadStall: []sim.Cycles{3},
				NodeWriteStall: []sim.Cycles{4, 5}, NodeFenceStall: []sim.Cycles{6, 7, 8},
				NodeVerifyStall: []sim.Cycles{9}})
		}
		run.AddSample(Sample{At: 30000})
		run.Marks = []Mark{
			{Name: "race a<->b", At: 12, Args: map[string]any{"addr": "0x40 & 0x44", "n": 2, "f": 0.5}},
			{Name: "plain", At: 40},
		}
		return run
	}
	marksOnly := view("m", nil)
	marksOnly.Marks = []Mark{{Name: "x", At: 1}}
	for _, tc := range []struct {
		name string
		runs []ObservedRun
	}{
		{"no runs", nil},
		{"no tracks", []ObservedRun{view("empty", nil)}},
		{"no events", []ObservedRun{view("idle", &meta)}},
		{"marks only", []ObservedRun{marksOnly}},
		{"busy", []ObservedRun{busy(), view("idle", &meta), busy()}},
	} {
		want, err := chromeTraceWhole(tc.runs)
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := ChromeTrace(&got, tc.runs); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("%s: streamed export differs from the whole encoding:\n%s\nwant:\n%s",
				tc.name, got.Bytes(), want)
		}
	}
}

func TestStallSummary(t *testing.T) {
	o := NewObserver(ObserveConfig{Events: 16})
	o.Bind(func() sim.Cycles { return 100 }, TraceMeta{Nodes: 2})
	o.Emit(EvStallEnd, 0, StallRead, 1, 0, 60)
	o.Emit(EvStallEnd, 1, StallWrite, 2, 0, 40)
	s := StallSummary([]ObservedRun{{Name: "r", Observer: o}})
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
