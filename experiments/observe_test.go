package experiments

import (
	"bytes"
	"encoding/json"
	"maps"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"plus/internal/sim"
	"plus/internal/stats"
)

// TestObservationSerialParallelIdentical pins the exporter's
// determinism contract: the same sweep instrumented at -parallel 1 and
// -parallel 4 gives every point the same fingerprint (its whole event
// stream and end-of-run state), because every point owns a private
// observer and exports are ordered by point name, not completion
// order.
func TestObservationSerialParallelIdentical(t *testing.T) {
	fingerprints := func(workers int) map[string]uint64 {
		ob := NewObservation(stats.ObserveConfig{})
		runExp(t, "figure2-1", Options{Quick: true, MaxProcs: 2, Workers: workers, Observe: ob})
		fps := map[string]uint64{}
		for _, r := range ob.Runs() {
			if r.EventCount() == 0 {
				t.Fatalf("%s recorded no events", r.Name)
			}
			fps[r.Name] = r.Fingerprint()
		}
		return fps
	}
	serial, parallel := fingerprints(1), fingerprints(4)
	if _, ok := serial["figure 2-1 p=1 copies=1 contention=false"]; !ok || len(serial) != 3 {
		t.Fatalf("observed runs %v, want the p=1 run among 3", serial)
	}
	if !maps.Equal(serial, parallel) {
		t.Fatalf("serial and parallel fingerprints differ:\n%v\n%v", serial, parallel)
	}
}

// TestObservationChromeTraceValidates runs the instrumented quick
// Figure 2-1 sweep end to end and checks the Chrome trace export
// round-trips through encoding/json with every run represented.
func TestObservationChromeTraceValidates(t *testing.T) {
	ob := NewObservation(stats.ObserveConfig{SampleEvery: 2000})
	runExp(t, "figure2-1", Options{Quick: true, MaxProcs: 2, Workers: 2, Observe: ob})
	runs := ob.Runs()
	if len(runs) != 3 { // p=1, p=2 unreplicated, p=2 replicated
		t.Fatalf("got %d observed runs, want 3", len(runs))
	}
	var buf bytes.Buffer
	if err := stats.ChromeTrace(&buf, runs); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	n, err := stats.ValidateChromeTrace(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("trace does not validate: %v", err)
	}
	if n == 0 {
		t.Fatal("empty trace")
	}
	for _, run := range runs {
		if !strings.Contains(string(data), run.Name+" node 0") {
			t.Errorf("trace missing node track for %q", run.Name)
		}
	}
	m := ob.Metrics()
	if m.RemoteRead.Count == 0 {
		t.Error("merged metrics recorded no remote reads")
	}
	if !strings.Contains(m.Render(), "remote-read") {
		t.Error("metrics render missing remote-read row")
	}
}

// TestObservationReadsRingsInPlace fills one point's 1<<16-event ring
// and pins that Runs and Metrics read it where it lies: together they
// allocate less than the ring's bytes, so neither copies it.
func TestObservationReadsRingsInPlace(t *testing.T) {
	const events = 1 << 16
	ob := NewObservation(stats.ObserveConfig{Events: events})
	o := ob.ObserverFor("point")
	o.Bind(func() sim.Cycles { return 0 }, stats.TraceMeta{Nodes: 1})
	for i := 0; i < events; i++ {
		o.EmitAt(sim.Cycles(i), stats.EvUpdate, 0, 0, 0, uint64(i), 1)
	}
	o.Metrics.RemoteRead.Observe(42)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	runs := ob.Runs()
	m := ob.Metrics()
	runtime.ReadMemStats(&after)
	ring := uint64(events * unsafe.Sizeof(stats.Event{}))
	if got := after.TotalAlloc - before.TotalAlloc; got >= ring {
		t.Fatalf("Runs and Metrics allocated %d bytes, a ring holds %d", got, ring)
	}
	if len(runs) != 1 || runs[0].Name != "point" || m.RemoteRead.Count != 1 {
		t.Fatalf("%d runs, merged remote reads %d", len(runs), m.RemoteRead.Count)
	}
}

// TestRegistryObservedRowsMatch pins "observation changes nothing"
// across the whole registry: every experiment's rows marshal to
// identical JSON with and without a per-point observer attached.
// figure2-1-scale is exempt: its rows carry wall-clock time, and its
// instrumented leg deliberately runs full-featured (link contention
// on), which changes the simulation it reports.
func TestRegistryObservedRowsMatch(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every registered experiment twice")
	}
	rows := func(e Experiment, ob *Observation) string {
		res, err := e.Run(Options{Quick: true, MaxProcs: 2, Observe: ob})
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res.Rows)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	for _, e := range Registered() {
		if e.Name == "figure2-1-scale" {
			continue
		}
		t.Run(e.Name, func(t *testing.T) {
			plain := rows(e, nil)
			observed := rows(e, NewObservation(stats.ObserveConfig{}))
			if plain != observed {
				t.Fatalf("observer changed the rows:\nplain:    %s\nobserved: %s", plain, observed)
			}
		})
	}
}

// TestFaultRowsCarryReliability checks the reliability-sublayer
// counters ride along in the fault sweep's JSON rows (satellite of the
// observability PR: plusbench -json exposes the full counter block).
func TestFaultRowsCarryReliability(t *testing.T) {
	rows := rowsOf[FaultRow](t, "faults", Options{Quick: true})
	b, err := json.Marshal(rows)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"trans_dups", "trans_gaps", "trans_stalls", "retransmits", "transport_acks"} {
		if !strings.Contains(string(b), key) {
			t.Errorf("fault rows missing %q in JSON", key)
		}
	}
	if rows[2].Retransmits == 0 {
		t.Error("1% drop run recorded no retransmits")
	}
}
