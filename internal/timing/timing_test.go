package timing

import "testing"

func TestDefaultMatchesPaperConstants(t *testing.T) {
	if CycleNs != 40 {
		t.Errorf("cycle = %d ns, want 40 (25 MHz)", CycleNs)
	}
	if DelayedIssue != 25 {
		t.Errorf("delayed issue = %d, want 25", DelayedIssue)
	}
	if ResultRead != 10 {
		t.Errorf("result read = %d, want 10", ResultRead)
	}
	if RemoteReadOverhead != 32 {
		t.Errorf("remote read overhead = %d, want 32", RemoteReadOverhead)
	}
	if RMWSimple != 39 || RMWComplex != 52 {
		t.Errorf("RMW costs = %d/%d, want 39/52", RMWSimple, RMWComplex)
	}
	tm := Default()
	if tm.MaxPendingWrites != 8 || tm.MaxDelayedOps != 8 {
		t.Errorf("outstanding limits = %d/%d, want 8/8", tm.MaxPendingWrites, tm.MaxDelayedOps)
	}
	if CacheLineFill != 15 {
		t.Errorf("line fill = %d, want 15", CacheLineFill)
	}
}

func TestValidate(t *testing.T) {
	tm := Default()
	if err := tm.Validate(); err != nil {
		t.Fatalf("default invalid: %v", err)
	}
	bad := tm
	bad.MaxPendingWrites = 0
	if bad.Validate() == nil {
		t.Error("MaxPendingWrites=0 accepted")
	}
	bad = tm
	bad.MaxDelayedOps = 0
	if bad.Validate() == nil {
		t.Error("MaxDelayedOps=0 accepted")
	}
	bad = tm
	bad.MaxBatchWrites = 0
	if bad.Validate() == nil {
		t.Error("MaxBatchWrites=0 accepted")
	}
}
