package trace

import (
	"slices"
	"strings"
	"testing"

	"plus/internal/coherence"
	"plus/internal/stats"
)

// ev builds a synthetic stream event; At is irrelevant to the detector
// (only stream order matters), so it stays zero.
func ev(kind stats.EventKind, node int, sub uint8, cause, a, b uint64) stats.Event {
	return stats.Event{Kind: kind, Node: int16(node), Sub: sub, Cause: cause, A: a, B: b}
}

func tb(tid int, v uint32) uint64 { return uint64(tid)<<32 | uint64(v) }

// TestRacyPairFlagged: an unfenced write on one thread and a read on
// another, no synchronization at all — flagged, with both sites and
// the missing-release diagnosis, in either stream order.
func TestRacyPairFlagged(t *testing.T) {
	const x = 2048 // page 2, offset 0
	writeFirst := []stats.Event{
		ev(stats.EvAccWrite, 0, 0, 0, x, tb(0, 7)),
		ev(stats.EvAccRead, 1, 0, 0, x, tb(1, 7)),
	}
	readFirst := []stats.Event{
		ev(stats.EvAccRead, 1, 0, 0, x, tb(1, 0)),
		ev(stats.EvAccWrite, 0, 0, 0, x, tb(0, 7)),
	}
	for name, events := range map[string][]stats.Event{"write-first": writeFirst, "read-first": readFirst} {
		r := Analyze(name, slices.Values(events), 0)
		if len(r.Races) != 1 {
			t.Fatalf("%s: got %d races, want 1", name, len(r.Races))
		}
		race := r.Races[0]
		if race.Page != 2 || race.Off != 0 {
			t.Errorf("%s: race at page %d off %d, want 2/0", name, race.Page, race.Off)
		}
		kinds := race.First.Kind + "/" + race.Second.Kind
		if kinds != "write/read" && kinds != "read/write" {
			t.Errorf("%s: kinds %s", name, kinds)
		}
		if race.First.Tid == race.Second.Tid {
			t.Errorf("%s: same-thread race reported", name)
		}
		if !strings.Contains(race.Missing, "no fence") {
			t.Errorf("%s: diagnosis %q, want missing-release", name, race.Missing)
		}
	}
}

// TestMissingAcquireDiagnosis: the writer fences (release done) but the
// reader never synchronizes — still a race, diagnosed as the missing
// acquire.
func TestMissingAcquireDiagnosis(t *testing.T) {
	const x = 100
	events := []stats.Event{
		ev(stats.EvAccWrite, 0, 0, 0, x, tb(0, 1)),
		ev(stats.EvAccFence, 0, 0, 0, 0, 0),
		ev(stats.EvAccRead, 1, 0, 0, x, tb(1, 1)),
	}
	r := Analyze("t", slices.Values(events), 0)
	if len(r.Races) != 1 {
		t.Fatalf("got %d races, want 1", len(r.Races))
	}
	if !strings.Contains(r.Races[0].Missing, "never acquired") {
		t.Errorf("diagnosis %q, want missing-acquire", r.Races[0].Missing)
	}
}

// TestReleaseAcquireClean: the §3.1 release idiom — write data, fence,
// sync-write a flag; the reader sync-reads the flag then reads the
// data. No race.
func TestReleaseAcquireClean(t *testing.T) {
	const data, flag = 100, 200
	events := []stats.Event{
		ev(stats.EvAccWrite, 0, 0, 0, data, tb(0, 42)),
		ev(stats.EvAccFence, 0, 0, 0, 0, 0),
		ev(stats.EvAccWrite, 0, 1, 0, flag, tb(0, 1)), // sync-annotated release
		ev(stats.EvAccRead, 1, 1, 0, flag, tb(1, 1)),  // sync-annotated acquire
		ev(stats.EvAccRead, 1, 0, 0, data, tb(1, 42)),
	}
	r := Analyze("t", slices.Values(events), 0)
	if len(r.Races) != 0 {
		t.Fatalf("got %d races, want 0: %+v", len(r.Races), r.Races)
	}
	if r.SyncWords != 1 {
		t.Errorf("SyncWords = %d, want 1", r.SyncWords)
	}
	// Without the fence the same shape must be flagged: the release
	// write publishes only fenced knowledge.
	unfenced := []stats.Event{
		ev(stats.EvAccWrite, 0, 0, 0, data, tb(0, 42)),
		ev(stats.EvAccWrite, 0, 1, 0, flag, tb(0, 1)),
		ev(stats.EvAccRead, 1, 1, 0, flag, tb(1, 1)),
		ev(stats.EvAccRead, 1, 0, 0, data, tb(1, 42)),
	}
	if r := Analyze("t", slices.Values(unfenced), 0); len(r.Races) != 1 {
		t.Fatalf("unfenced: got %d races, want 1", len(r.Races))
	}
}

// TestRMWChainClean: the producer fences then fadds a flag; the
// consumer's own fadd executes later at the master and its Verify
// acquires the producer's release. No race on the data word.
func TestRMWChainClean(t *testing.T) {
	const data, flag = 100, 200
	fadd := uint8(coherence.OpFadd)
	events := []stats.Event{
		ev(stats.EvAccWrite, 0, 0, 0, data, tb(0, 42)),
		ev(stats.EvAccFence, 0, 0, 0, 0, 0),
		ev(stats.EvAccRMW, 0, fadd, 11, flag, tb(0, 1)), // producer fadd issue
		ev(stats.EvRMWExec, 0, fadd, 11, 0, 1),          // exec at master
		ev(stats.EvAccRMW, 1, fadd, 22, flag, tb(1, 0)), // consumer fadd issue
		ev(stats.EvRMWExec, 0, fadd, 22, 0, 1),          // serialized after producer's
		ev(stats.EvAccVerify, 1, 0, 22, 1, 1),           // consumer sees 1 → acquires
		ev(stats.EvAccRead, 1, 0, 0, data, tb(1, 42)),
	}
	r := Analyze("t", slices.Values(events), 0)
	if len(r.Races) != 0 {
		t.Fatalf("got %d races, want 0: %+v", len(r.Races), r.Races)
	}
}

// TestDelayedReadDoesNotRelease: a delayed read (OpDelayedRead) must
// not deposit its issuer's clocks into the word — it mutates nothing,
// so a later acquirer learns nothing from it.
func TestDelayedReadDoesNotRelease(t *testing.T) {
	const data, flag = 100, 200
	dread := uint8(coherence.OpDelayedRead)
	fadd := uint8(coherence.OpFadd)
	events := []stats.Event{
		ev(stats.EvAccWrite, 0, 0, 0, data, tb(0, 42)),
		ev(stats.EvAccFence, 0, 0, 0, 0, 0),
		ev(stats.EvAccRMW, 0, dread, 11, flag, 0), // read-only op on the flag
		ev(stats.EvRMWExec, 0, dread, 11, 0, 0),
		ev(stats.EvAccRMW, 1, fadd, 22, flag, tb(1, 0)),
		ev(stats.EvRMWExec, 0, fadd, 22, 0, 1),
		ev(stats.EvAccVerify, 1, 0, 22, 0, 0),
		ev(stats.EvAccRead, 1, 0, 0, data, tb(1, 42)),
	}
	r := Analyze("t", slices.Values(events), 0)
	if len(r.Races) != 1 {
		t.Fatalf("got %d races, want 1 (delayed read must not release)", len(r.Races))
	}
}

// TestWakeTransfersReleasedKnowledge: fence + wake orders the sleeper
// after the waker's fenced writes; without the fence it does not.
func TestWakeTransfersReleasedKnowledge(t *testing.T) {
	const data = 100
	fenced := []stats.Event{
		ev(stats.EvAccWrite, 0, 0, 0, data, tb(0, 1)),
		ev(stats.EvAccFence, 0, 0, 0, 0, 0),
		ev(stats.EvAccWake, 0, 0, 0, 0, 1), // t0 wakes t1
		ev(stats.EvAccSleep, 1, 0, 0, 1, 0),
		ev(stats.EvAccRead, 1, 0, 0, data, tb(1, 1)),
	}
	if r := Analyze("t", slices.Values(fenced), 0); len(r.Races) != 0 {
		t.Fatalf("fenced: got %d races, want 0: %+v", len(r.Races), r.Races)
	}
	unfenced := []stats.Event{
		ev(stats.EvAccWrite, 0, 0, 0, data, tb(0, 1)),
		ev(stats.EvAccWake, 0, 0, 0, 0, 1),
		ev(stats.EvAccSleep, 1, 0, 0, 1, 0),
		ev(stats.EvAccRead, 1, 0, 0, data, tb(1, 1)),
	}
	if r := Analyze("t", slices.Values(unfenced), 0); len(r.Races) != 1 {
		t.Fatalf("unfenced: got %d races, want 1", len(r.Races))
	}
}

// TestSyncWordExempt: plain accesses to a word that is RMW-targeted
// anywhere in the stream are synchronization traffic (spin loops), not
// reportable data races.
func TestSyncWordExempt(t *testing.T) {
	const w = 300
	fadd := uint8(coherence.OpFadd)
	events := []stats.Event{
		ev(stats.EvAccWrite, 0, 0, 0, w, tb(0, 1)),   // plain write...
		ev(stats.EvAccRead, 1, 0, 0, w, tb(1, 1)),    // ...and plain read,
		ev(stats.EvAccRMW, 2, fadd, 33, w, tb(2, 1)), // but the word is RMW-targeted
	}
	r := Analyze("t", slices.Values(events), 0)
	if len(r.Races) != 0 {
		t.Fatalf("got %d races on a sync word, want 0", len(r.Races))
	}
}

// TestDedup: a racy pair hammered in a loop is reported once.
func TestDedup(t *testing.T) {
	const x = 100
	var events []stats.Event
	for i := 0; i < 10; i++ {
		events = append(events,
			ev(stats.EvAccWrite, 0, 0, 0, x, tb(0, uint32(i))),
			ev(stats.EvAccRead, 1, 0, 0, x, tb(1, uint32(i))),
		)
	}
	r := Analyze("t", slices.Values(events), 0)
	// write/read and read/write orderings are distinct pairs; the loop
	// produces both but each only once.
	if len(r.Races) > 2 {
		t.Fatalf("got %d races, want ≤2 after dedup", len(r.Races))
	}
}

// TestWriteWriteRace: two unsynchronized writers.
func TestWriteWriteRace(t *testing.T) {
	const x = 100
	events := []stats.Event{
		ev(stats.EvAccWrite, 0, 0, 0, x, tb(0, 1)),
		ev(stats.EvAccWrite, 1, 0, 0, x, tb(1, 2)),
	}
	r := Analyze("t", slices.Values(events), 0)
	if len(r.Races) != 1 {
		t.Fatalf("got %d races, want 1", len(r.Races))
	}
	if r.Races[0].First.Kind != "write" || r.Races[0].Second.Kind != "write" {
		t.Errorf("kinds %s/%s, want write/write", r.Races[0].First.Kind, r.Races[0].Second.Kind)
	}
}

// TestSameThreadClean: program order alone orders same-thread accesses.
func TestSameThreadClean(t *testing.T) {
	const x = 100
	events := []stats.Event{
		ev(stats.EvAccWrite, 0, 0, 0, x, tb(0, 1)),
		ev(stats.EvAccRead, 0, 0, 0, x, tb(0, 1)),
		ev(stats.EvAccWrite, 0, 0, 0, x, tb(0, 2)),
	}
	if r := Analyze("t", slices.Values(events), 0); len(r.Races) != 0 {
		t.Fatalf("got %d races, want 0", len(r.Races))
	}
}

// TestDroppedPropagates: ring overwrites surface on the report.
func TestDroppedPropagates(t *testing.T) {
	r := Analyze("t", slices.Values([]stats.Event{}), 17)
	if r.Dropped != 17 {
		t.Fatalf("Dropped = %d, want 17", r.Dropped)
	}
}

// TestReportDeterminism: the same stream analyzes to the same report.
func TestReportDeterminism(t *testing.T) {
	const x, y = 100, 1124
	var events []stats.Event
	for i := 0; i < 4; i++ {
		events = append(events,
			ev(stats.EvAccWrite, 0, 0, 0, x, tb(0, uint32(i))),
			ev(stats.EvAccRead, 1, 0, 0, x, tb(1, uint32(i))),
			ev(stats.EvAccWrite, 2, 0, 0, y, tb(2, uint32(i))),
			ev(stats.EvAccWrite, 3, 0, 0, y, tb(3, uint32(i))),
		)
	}
	a := Analyze("t", slices.Values(events), 0).Format()
	for i := 0; i < 3; i++ {
		if b := Analyze("t", slices.Values(events), 0).Format(); a != b {
			t.Fatalf("nondeterministic report:\n%s\nvs\n%s", a, b)
		}
	}
}
