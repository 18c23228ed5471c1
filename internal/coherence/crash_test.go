package coherence

import (
	"testing"

	"plus/internal/memory"
	"plus/internal/mesh"
)

// TestStaleSlotToken delivers a delayed-operation reply whose token no
// longer names a live operation: its slot was freed by Verify, or
// reused by a later operation under a new generation. On a run without
// a crash script that is a protocol fault and panics; on a run with one
// (where re-issued operations make late replies legitimate) the reply
// is dropped and counted in StaleAcks, leaving the reused slot intact.
func TestStaleSlotToken(t *testing.T) {
	for _, crashy := range []bool{false, true} {
		for _, reused := range []bool{false, true} {
			var r *rig
			if crashy {
				// A crash scheduled long after the run ends: it arms crash
				// tolerance without ever taking the node down.
				r = newFaultyRig(t, 2, 1, mesh.FaultConfig{Crashes: []mesh.CrashEvent{{Node: 0, At: 1 << 40, Duration: 1}}})
			} else {
				r = newRig(t, 2, 1)
			}
			frames := r.page(0)
			g := GAddr{0, frames[0], 0}
			cm := r.cms[1]
			slot := -1
			cm.RMW(OpFadd, g, 1, func(s int) { slot = s })
			stale := cm.slotToken(slot)
			r.eng.Run()
			cm.Verify(slot, func(memory.Word) {})
			if reused {
				cm.RMW(OpFadd, g, 1, func(s int) { slot = s })
				if cm.slotToken(slot)&0xffff != stale&0xffff {
					t.Fatalf("second operation took slot %d, want the freed one", slot)
				}
			}
			reply := r.cms[0].newMsg(kRMWReply, 1, stale)
			reply.Val = 99
			r.cms[0].send(1, reply)
			panicked := func() (p bool) {
				defer func() { p = recover() != nil }()
				r.eng.Run()
				return false
			}()
			if panicked != !crashy {
				t.Fatalf("crash script %v, slot reused %v: stale reply panicked=%v", crashy, reused, panicked)
			}
			if !crashy {
				continue
			}
			if r.st.StaleAcks != 1 {
				t.Fatalf("slot reused %v: StaleAcks = %d, want 1", reused, r.st.StaleAcks)
			}
			if reused {
				var got memory.Word
				cm.Verify(slot, func(v memory.Word) { got = v })
				if got != 1 {
					t.Fatalf("reused slot holds %d, want the second fetch-and-add's old value 1", got)
				}
			}
		}
	}
}
