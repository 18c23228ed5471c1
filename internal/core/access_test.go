package core

import (
	"strings"
	"testing"

	"plus/internal/proc"
	"plus/internal/stats"
)

// accessKinds is the data-access event vocabulary, for filtering.
func isAccessEvent(k stats.EventKind) bool {
	switch k {
	case stats.EvAccRead, stats.EvAccWrite, stats.EvAccRMW, stats.EvAccVerify,
		stats.EvAccFence, stats.EvAccSpawn, stats.EvAccWake, stats.EvAccSleep,
		stats.EvAccExit, stats.EvAccMap:
		return true
	}
	return false
}

// TestDataAccessOffIsInvisible pins the gating contract: an observer
// with DataAccess off records not a single EvAcc* event, and its
// protocol-event stream is byte-identical to one recorded with
// DataAccess on — the access layer only ever ADDS events, it never
// reorders, retimes or perturbs anything else. Elapsed time and
// counters match the unobserved run in all three configurations.
func TestDataAccessOffIsInvisible(t *testing.T) {
	mPlain, ePlain := observeWorkload(t, nil, proc.RunToBlock)

	off := stats.NewObserver(stats.ObserveConfig{Events: 1 << 18})
	mOff, eOff := observeWorkload(t, off, proc.RunToBlock)

	on := stats.NewObserver(stats.ObserveConfig{Events: 1 << 18, DataAccess: true})
	mOn, eOn := observeWorkload(t, on, proc.RunToBlock)

	if ePlain != eOff || ePlain != eOn {
		t.Fatalf("elapsed differs: plain %d, off %d, on %d", ePlain, eOff, eOn)
	}
	if a, b, c := mPlain.Stats().Totals(), mOff.Stats().Totals(), mOn.Stats().Totals(); a != b || a != c {
		t.Fatalf("counters differ:\nplain %+v\noff   %+v\non    %+v", a, b, c)
	}
	if a, b, c := mPlain.Stats().Messages(), mOff.Stats().Messages(), mOn.Stats().Messages(); a != b || a != c {
		t.Fatalf("message counts differ: %d / %d / %d", a, b, c)
	}

	var offDump, onProtocolDump strings.Builder
	accessSeen := 0
	for e := range off.All() {
		if isAccessEvent(e.Kind) {
			t.Fatalf("DataAccess off recorded %v", e.Kind)
		}
		offDump.WriteString(e.String())
		offDump.WriteByte('\n')
	}
	for e := range on.All() {
		if isAccessEvent(e.Kind) {
			accessSeen++
			continue
		}
		onProtocolDump.WriteString(e.String())
		onProtocolDump.WriteByte('\n')
	}
	if accessSeen == 0 {
		t.Fatal("DataAccess on recorded no access events")
	}
	if offDump.String() != onProtocolDump.String() {
		t.Fatal("protocol event stream differs between DataAccess off and on")
	}
}

// TestAccessEventCoverage pins that every access-event kind the
// detector consumes is actually emitted by the machine: reads, writes,
// RMW issue/verify, fence completion, spawn, wake, sleep, exit, and
// page-mapping installs.
func TestAccessEventCoverage(t *testing.T) {
	obs := stats.NewObserver(stats.ObserveConfig{Events: 1 << 16, DataAccess: true})
	cfg := DefaultConfig(2, 1)
	cfg.Observe = obs
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	data := m.Alloc(0, 1)
	var sleeper *proc.Thread
	sleeper = m.Spawn(0, func(th *proc.Thread) {
		th.Sleep()
		th.Read(data)
	})
	m.Spawn(1, func(th *proc.Thread) {
		th.Write(data, 5)
		th.Fence()
		th.Verify(th.Fadd(data+1, 1))
		th.Wake(sleeper)
	})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	seen := map[stats.EventKind]bool{}
	for e := range obs.All() {
		seen[e.Kind] = true
	}
	for _, k := range []stats.EventKind{
		stats.EvAccRead, stats.EvAccWrite, stats.EvAccRMW, stats.EvAccVerify,
		stats.EvAccFence, stats.EvAccSpawn, stats.EvAccWake, stats.EvAccSleep,
		stats.EvAccExit, stats.EvAccMap,
	} {
		if !seen[k] {
			t.Errorf("no %v event recorded", k)
		}
	}
}
