package core

import (
	"fmt"

	"plus/internal/coherence"
	"plus/internal/kernel"
	"plus/internal/memory"
)

// InvariantChecker validates the machine's coherence structures at
// runtime: the single-master and copy-list-chain invariants always, and
// replica convergence (every copy byte-identical) whenever the machine
// is quiescent. It promotes the checks the protocol fuzz tests perform
// after a run into something a faulty-network run can execute
// periodically — a retransmit bug that briefly forks the copy-list or
// loses an update is caught near the cycle it happens, not as a
// mysterious wrong answer millions of cycles later.
//
// Enabled via Config.CheckInvariants; runs every Config.InvariantPeriod
// cycles while events remain, plus once at the end of Run.
type InvariantChecker struct {
	kern *kernel.Kernel
	cms  []*coherence.CM
	// skipConvergence disables the replica-convergence check (invalidate
	// mode: replicas legitimately hold stale words).
	skipConvergence bool

	// Checks counts structure checks performed; ConvergenceChecks counts
	// how many of those found the machine quiescent and compared replica
	// contents too.
	Checks            uint64
	ConvergenceChecks uint64
}

// CheckStructure validates the replication structures of every page:
// each copy's hardware master pointer names the head of the kernel's
// copy-list, and the hardware next-copy pointers chain through the list
// in exactly the kernel's order, terminating in nil — which also rules
// out cycles and forks.
func (ic *InvariantChecker) CheckStructure() error {
	for vp := memory.VPage(0); int(vp) < ic.kern.PageCount(); vp++ {
		list := ic.kern.CopyList(vp)
		if len(list) == 0 {
			return fmt.Errorf("invariant: page %d has an empty copy-list", vp)
		}
		master := list[0]
		for i, g := range list {
			cm := ic.cms[g.Node]
			if cm.Down() {
				// Frozen pre-crash tables awaiting the restart's wipe:
				// the kernel's copy-list is authoritative.
				continue
			}
			m, ok := cm.Master(g.Page)
			if !ok {
				return fmt.Errorf("invariant: page %d copy %d: node %d has no master entry for frame %d", vp, i, g.Node, g.Page)
			}
			if m != master {
				return fmt.Errorf("invariant: page %d copy %d: node %d master %v != list head %v", vp, i, g.Node, m, master)
			}
			next, ok := cm.Next(g.Page)
			if !ok {
				return fmt.Errorf("invariant: page %d copy %d: node %d has no next-copy entry for frame %d", vp, i, g.Node, g.Page)
			}
			want := memory.NilGPage
			if i+1 < len(list) {
				want = list[i+1]
			}
			if next != want {
				return fmt.Errorf("invariant: page %d copy %d: node %d next %v != %v (copy-list order broken)", vp, i, g.Node, next, want)
			}
		}
	}
	return nil
}

// Quiescent reports whether no protocol activity is in flight: every
// pending-writes cache is empty, every delayed operation has its
// result, every write-combine buffer is empty, every retransmit queue
// has drained, and no background page copy is travelling. Only then
// must replicas have converged. Note a flushed-but-unacked batch needs
// no special case: each of its N words still holds its own
// pending-writes entry, so PendingCount already reports N.
func (ic *InvariantChecker) Quiescent() bool {
	for _, cm := range ic.cms {
		if cm.PendingCount() != 0 || cm.UnresolvedSlots() != 0 ||
			cm.BufferedWrites() != 0 || !cm.TransportIdle() {
			return false
		}
	}
	return ic.kern.CopiesInFlight() == 0
}

// CheckConvergence verifies every copy of every page holds identical
// contents. Valid only at quiescence.
func (ic *InvariantChecker) CheckConvergence() error {
	return ic.kern.CheckCoherent()
}

// Check runs the structure check, plus the convergence check when the
// machine happens to be quiescent.
func (ic *InvariantChecker) Check() error {
	ic.Checks++
	if err := ic.CheckStructure(); err != nil {
		return err
	}
	if ic.skipConvergence || !ic.Quiescent() {
		return nil
	}
	ic.ConvergenceChecks++
	return ic.CheckConvergence()
}
