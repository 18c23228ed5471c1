package kernel

import (
	"fmt"
	"strings"
	"testing"

	"plus/internal/cache"
	"plus/internal/coherence"
	"plus/internal/memory"
	"plus/internal/mesh"
	"plus/internal/mmu"
	"plus/internal/sim"
	"plus/internal/stats"
	"plus/internal/timing"
)

type rig struct {
	eng  *sim.Engine
	net  *mesh.Mesh
	st   *stats.Machine
	mems []*memory.Memory
	cms  []*coherence.CM
	tbls []*mmu.Table
	k    *Kernel
}

func newRig(t *testing.T, w, h int) *rig {
	t.Helper()
	return newFaultRig(t, w, h, mesh.FaultConfig{})
}

// newFaultRig is newRig on a mesh with the given fault model; with a
// crash script it arms every CM's crash recovery with the kernel, as
// the machine does.
func newFaultRig(t *testing.T, w, h int, f mesh.FaultConfig) *rig {
	t.Helper()
	eng := sim.NewEngine()
	cfg := mesh.DefaultConfig(w, h)
	cfg.Faults = f
	net := mesh.New(eng, cfg)
	tm := timing.Default()
	st := stats.New(w * h)
	r := &rig{eng: eng, net: net, st: st}
	for i := 0; i < w*h; i++ {
		mem := memory.New()
		ca := cache.New()
		r.mems = append(r.mems, mem)
		r.cms = append(r.cms, coherence.New(mesh.NodeID(i), eng, net, mem, ca, tm, st))
		r.tbls = append(r.tbls, mmu.New())
	}
	r.k = New(eng, net, r.cms, r.mems, r.tbls, st)
	if len(f.Crashes) > 0 {
		for _, cm := range r.cms {
			cm.ArmCrashRecovery(r.k)
		}
	}
	return r
}

func TestAllocPageInstallsMasterTables(t *testing.T) {
	r := newRig(t, 2, 2)
	vp := r.k.AllocPage(2)
	list := r.k.CopyList(vp)
	if len(list) != 1 || list[0].Node != 2 {
		t.Fatalf("copy list = %v", list)
	}
	m, ok := r.cms[2].Master(list[0].Page)
	if !ok || m != list[0] {
		t.Fatalf("master table: %v %v", m, ok)
	}
	nx, ok := r.cms[2].Next(list[0].Page)
	if !ok || !nx.IsNil() {
		t.Fatalf("next table: %v %v", nx, ok)
	}
	if g, ok := r.tbls[2].Lookup(vp); !ok || g != list[0] {
		t.Fatal("home mapping not installed eagerly")
	}
}

func TestAllocPagesConsecutive(t *testing.T) {
	r := newRig(t, 2, 1)
	base := r.k.AllocPages(0, 3)
	for i := memory.VPage(0); i < 3; i++ {
		if len(r.k.CopyList(base+i)) != 1 {
			t.Fatalf("page %d not allocated", base+i)
		}
	}
}

func TestResolveClosestCopy(t *testing.T) {
	r := newRig(t, 4, 1)
	vp := r.k.AllocPage(3)
	r.k.ReplicateNow(vp, 1)
	g, err := r.k.Resolve(0, vp)
	if err != nil {
		t.Fatal(err)
	}
	if g.Node != 1 {
		t.Fatalf("node 0 resolved to node %d, want 1 (closest)", g.Node)
	}
	// A node holding a copy resolves to itself.
	g, _ = r.k.Resolve(3, vp)
	if g.Node != 3 {
		t.Fatalf("node 3 resolved to %d, want itself", g.Node)
	}
	if _, err := r.k.Resolve(0, 999); err == nil {
		t.Fatal("unmapped page resolved")
	}
}

func TestReplicateNowCopiesData(t *testing.T) {
	r := newRig(t, 2, 1)
	vp := r.k.AllocPage(0)
	master := r.k.CopyList(vp)[0]
	for i := uint32(0); i < 10; i++ {
		r.mems[0].Write(master.Page, i, memory.Word(100+i))
	}
	r.k.ReplicateNow(vp, 1)
	list := r.k.CopyList(vp)
	if len(list) != 2 || list[1].Node != 1 {
		t.Fatalf("copy list = %v", list)
	}
	for i := uint32(0); i < 10; i++ {
		if got := r.mems[1].Read(list[1].Page, i); got != memory.Word(100+i) {
			t.Fatalf("replica word %d = %d", i, got)
		}
	}
	// Chain wiring: master.next = replica, replica.next = nil.
	nx, _ := r.cms[0].Next(master.Page)
	if nx != list[1] {
		t.Fatalf("master next = %v", nx)
	}
	nx, _ = r.cms[1].Next(list[1].Page)
	if !nx.IsNil() {
		t.Fatalf("replica next = %v", nx)
	}
	// Idempotent.
	r.k.ReplicateNow(vp, 1)
	if len(r.k.CopyList(vp)) != 2 {
		t.Fatal("duplicate replica created")
	}
}

func TestCopyListOrderingMinimizesPath(t *testing.T) {
	// 4x1 mesh, master at node 0. Replicate on 3 then 1: nearest
	// insertion should give 0→1→3, not 0→3→1.
	r := newRig(t, 4, 1)
	vp := r.k.AllocPage(0)
	r.k.ReplicateNow(vp, 3)
	r.k.ReplicateNow(vp, 1)
	nodes := r.k.CopyNodes(vp)
	want := []mesh.NodeID{0, 1, 3}
	for i := range want {
		if nodes[i] != want[i] {
			t.Fatalf("copy list order %v, want %v", nodes, want)
		}
	}
}

func TestWriteThroughReplicatedPageEndToEnd(t *testing.T) {
	r := newRig(t, 4, 1)
	vp := r.k.AllocPage(0)
	r.k.ReplicateNow(vp, 2)
	// Resolve node 2's view and write through its local copy.
	g2, _ := r.k.Resolve(2, vp)
	r.cms[2].Write(coherence.At(g2, 5), 42, func() {})
	r.eng.Run()
	if err := r.k.CheckCoherent(); err != nil {
		t.Fatal(err)
	}
	if got := r.k.Peek(memory.VPage(vp).Base() + 5); got != 42 {
		t.Fatalf("Peek = %d", got)
	}
}

func TestBackgroundReplicateOverlapsWrites(t *testing.T) {
	// Link-then-copy: writes issued while the bulk copy is in flight
	// must be reflected in the new copy when everything settles.
	r := newRig(t, 4, 1)
	vp := r.k.AllocPage(0)
	master := r.k.CopyList(vp)[0]
	for i := uint32(0); i < memory.PageWords; i++ {
		r.mems[0].Write(master.Page, i, memory.Word(i))
	}
	done := false
	r.k.Replicate(vp, 2, func() { done = true })
	// Concurrent writes through the master while the copy is in flight.
	for i := uint32(0); i < 50; i++ {
		off := i * 3 % memory.PageWords
		r.cms[0].Write(coherence.At(master, off), memory.Word(7777+i), func() {})
	}
	r.eng.Run()
	if !done {
		t.Fatal("replicate completion never fired")
	}
	if err := r.k.CheckCoherent(); err != nil {
		t.Fatal(err)
	}
	if g, ok := r.tbls[2].Lookup(vp); !ok || g.Node != 2 {
		t.Fatal("node 2 mapping not switched to local copy")
	}
}

// TestReplicateSourcesFilledCopy replicates one page onto nodes 2 and
// 3 of a 4x1 row at the same instant. Nearest insertion would link 3
// after 2, whose own page copy is still travelling; a copy's source
// must instead be one that holds the page. The test tracks which
// copies hold it (the master, then each whose done has fired) and
// checks every new copy's predecessor, its PageCopy source, against
// that set. Writes through the master overlap both copies and must
// reach them.
func TestReplicateSourcesFilledCopy(t *testing.T) {
	r := newRig(t, 4, 1)
	vp := r.k.AllocPage(0)
	master := r.k.CopyList(vp)[0]
	for i := uint32(0); i < memory.PageWords; i++ {
		r.mems[0].Write(master.Page, i, memory.Word(i+1))
	}
	filled := map[mesh.NodeID]bool{0: true}
	for _, n := range []mesh.NodeID{2, 3} {
		r.k.Replicate(vp, n, func() { filled[n] = true })
		list := r.k.CopyList(vp)
		idx := r.k.copyIndex(vp, n)
		if src := list[idx-1].Node; !filled[src] {
			t.Fatalf("copy-list %v: node %d copies the page from node %d, whose own copy has not landed", list, n, src)
		}
	}
	for i := uint32(0); i < 50; i++ {
		off := i * 7 % memory.PageWords
		r.cms[0].Write(coherence.At(master, off), memory.Word(9000+i), func() {})
	}
	r.eng.Run()
	if !filled[2] || !filled[3] {
		t.Fatalf("replicate completions: %v", filled)
	}
	if n := r.k.CopiesInFlight(); n != 0 {
		t.Fatalf("%d copies in flight after the run", n)
	}
	if err := r.k.CheckCoherent(); err != nil {
		t.Fatal(err)
	}
}

// TestResyncWaitsForFillingPredecessor crashes a copy whose chain
// predecessor is still filling: on a 5x1 row, page 0 has copies on
// nodes 0, 1, 3 and 4, and a background replication links node 2
// after node 1. At that instant node 3 crashes and fails over, so the
// resync hop that restores node 4 has node 2, whose own copy has not
// landed, as its predecessor. The hop must wait for that fill rather
// than ship node 2's empty frame.
func TestResyncWaitsForFillingPredecessor(t *testing.T) {
	r := newFaultRig(t, 5, 1, mesh.FaultConfig{Crashes: []mesh.CrashEvent{{Node: 3, At: 0, Duration: 1 << 40}}})
	vp := r.k.AllocPage(0)
	master := r.k.CopyList(vp)[0]
	for i := uint32(0); i < memory.PageWords; i++ {
		r.mems[0].Write(master.Page, i, memory.Word(i+1))
	}
	for _, n := range []mesh.NodeID{1, 3, 4} {
		r.k.ReplicateNow(vp, n)
	}
	r.k.Replicate(vp, 2, nil)
	if got := r.k.CopyNodes(vp); fmt.Sprint(got) != "[0 1 2 3 4]" {
		t.Fatalf("copy-list %v, want node 2 linked after node 1", got)
	}
	r.cms[3].Crash()
	r.k.MarkDown(3, r.eng.Now())
	r.k.FailNode(3)
	r.eng.Run()
	if n := r.k.CopiesInFlight(); n != 0 {
		t.Fatalf("%d copies in flight after the run", n)
	}
	if err := r.k.CheckCoherent(); err != nil {
		t.Fatal(err)
	}
}

func TestPokePeekAllCopies(t *testing.T) {
	r := newRig(t, 2, 1)
	vp := r.k.AllocPage(0)
	r.k.ReplicateNow(vp, 1)
	va := memory.VPage(vp).Base() + 9
	r.k.Poke(va, 1234)
	if r.k.Peek(va) != 1234 {
		t.Fatal("Peek after Poke mismatch")
	}
	for _, g := range r.k.CopyList(vp) {
		if r.mems[g.Node].Read(g.Page, 9) != 1234 {
			t.Fatalf("copy on node %d not poked", g.Node)
		}
	}
}

func TestDeleteCopyMiddleOfList(t *testing.T) {
	r := newRig(t, 4, 1)
	vp := r.k.AllocPage(0)
	r.k.ReplicateNow(vp, 1)
	r.k.ReplicateNow(vp, 2)
	r.k.DeleteCopy(vp, 1)
	nodes := r.k.CopyNodes(vp)
	if len(nodes) != 2 || nodes[0] != 0 || nodes[1] != 2 {
		t.Fatalf("copy nodes after delete = %v", nodes)
	}
	// Writes still propagate 0→2 after the splice.
	g0 := r.k.CopyList(vp)[0]
	r.cms[0].Write(coherence.At(g0, 1), 5, func() {})
	r.eng.Run()
	if err := r.k.CheckCoherent(); err != nil {
		t.Fatal(err)
	}
	// Node 1's table entry was shot down and refaults elsewhere.
	if _, ok := r.tbls[1].Lookup(vp); ok {
		t.Fatal("deleted copy still mapped on node 1")
	}
}

func TestDeleteMasterPromotesNext(t *testing.T) {
	r := newRig(t, 4, 1)
	vp := r.k.AllocPage(0)
	r.k.ReplicateNow(vp, 1)
	r.k.ReplicateNow(vp, 2)
	r.k.DeleteCopy(vp, 0)
	nodes := r.k.CopyNodes(vp)
	if nodes[0] != 1 {
		t.Fatalf("new master = %d, want 1", nodes[0])
	}
	// Every remaining copy's master pointer was rewritten; a write via
	// node 2 must start at node 1 and reach both copies.
	g2, _ := r.k.Resolve(2, vp)
	r.cms[2].Write(coherence.At(g2, 0), 77, func() {})
	r.eng.Run()
	if err := r.k.CheckCoherent(); err != nil {
		t.Fatal(err)
	}
	if r.k.Peek(memory.VPage(vp).Base()) != 77 {
		t.Fatal("write lost after master promotion")
	}
}

func TestDeleteOnlyCopyPanics(t *testing.T) {
	r := newRig(t, 2, 1)
	vp := r.k.AllocPage(0)
	defer func() {
		if recover() == nil {
			t.Error("deleting the only copy did not panic")
		}
	}()
	r.k.DeleteCopy(vp, 0)
}

func TestDeleteDuringWritesPanics(t *testing.T) {
	r := newRig(t, 2, 1)
	vp := r.k.AllocPage(0)
	r.k.ReplicateNow(vp, 1)
	g := r.k.CopyList(vp)[0]
	r.cms[0].Write(coherence.At(g, 0), 1, func() {})
	defer func() {
		if recover() == nil {
			t.Error("DeleteCopy with writes in flight did not panic")
		}
	}()
	r.k.DeleteCopy(vp, 1)
}

func TestMigrate(t *testing.T) {
	r := newRig(t, 4, 1)
	vp := r.k.AllocPage(0)
	r.k.Poke(memory.VPage(vp).Base()+3, 66)
	r.k.Migrate(vp, 0, 3)
	nodes := r.k.CopyNodes(vp)
	if len(nodes) != 1 || nodes[0] != 3 {
		t.Fatalf("post-migration nodes = %v", nodes)
	}
	if r.k.Peek(memory.VPage(vp).Base()+3) != 66 {
		t.Fatal("data lost in migration")
	}
}

func TestCompetitiveReplication(t *testing.T) {
	r := newRig(t, 4, 1)
	r.k.SetCompetitiveThreshold(10)
	vp := r.k.AllocPage(3)
	for i := 0; i < 9; i++ {
		r.k.NoteRemoteRef(0, vp)
	}
	if r.k.HasCopy(vp, 0) {
		t.Fatal("replicated below threshold")
	}
	if r.k.RefCount(0, vp) != 9 {
		t.Fatalf("ref count = %d", r.k.RefCount(0, vp))
	}
	r.k.NoteRemoteRef(0, vp) // crosses threshold
	r.eng.Run()              // background copy completes
	if !r.k.HasCopy(vp, 0) {
		t.Fatal("threshold crossing did not replicate")
	}
	if r.k.Replications != 1 {
		t.Fatalf("replications = %d", r.k.Replications)
	}
	// Counter reset after successful replication; further local refs
	// don't re-trigger.
	r.k.NoteRemoteRef(0, vp)
	r.eng.Run()
	if len(r.k.CopyList(vp)) != 2 {
		t.Fatal("duplicate competitive replication")
	}
}

func TestCompetitiveDisabledByDefault(t *testing.T) {
	r := newRig(t, 2, 1)
	vp := r.k.AllocPage(1)
	for i := 0; i < 1000; i++ {
		r.k.NoteRemoteRef(0, vp)
	}
	if r.k.HasCopy(vp, 0) {
		t.Fatal("replication happened with threshold 0")
	}
	// The hardware counters run unconditionally (§2.4); only the
	// replication policy is off.
	if r.k.RefCount(0, vp) != 1000 {
		t.Fatalf("counter = %d, want 1000", r.k.RefCount(0, vp))
	}
	prof := r.k.RemoteRefProfile()
	if prof[vp][0] != 1000 {
		t.Fatalf("profile = %v", prof)
	}
}

func TestCheckCoherentDetectsDivergence(t *testing.T) {
	r := newRig(t, 2, 1)
	vp := r.k.AllocPage(0)
	r.k.ReplicateNow(vp, 1)
	list := r.k.CopyList(vp)
	r.mems[1].Write(list[1].Page, 4, 999) // corrupt the replica
	if err := r.k.CheckCoherent(); err == nil {
		t.Fatal("divergence not detected")
	}
}

// TestCheckCoherentChunkPresence compares frames whose copies hold
// different chunks: a chunk only one side holds is compared with
// zeros, and the report names the word exactly as for dense frames.
func TestCheckCoherentChunkPresence(t *testing.T) {
	for _, tc := range []struct {
		name string
		node int // the copy that holds the extra chunk
		off  uint32
		v    memory.Word
		want string
	}{
		{"replica lacks master's chunk", 0, 100, 5, "kernel: page 0 word 100: master(n0)=0x5 copy(n1)=0x0"},
		{"master lacks replica's chunk", 1, 700, 0x80000009, "kernel: page 0 word 700: master(n0)=0x0 copy(n1)=0x80000009"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, 2, 1)
			vp := r.k.AllocPage(0)
			r.k.ReplicateNow(vp, 1)
			list := r.k.CopyList(vp)
			// A chunk written back to zero equals one never written.
			r.mems[1-tc.node].Write(list[1-tc.node].Page, 900, 3)
			r.mems[1-tc.node].Write(list[1-tc.node].Page, 900, 0)
			if err := r.k.CheckCoherent(); err != nil {
				t.Fatalf("zeroed chunk reported: %v", err)
			}
			r.mems[tc.node].Write(list[tc.node].Page, tc.off, tc.v)
			err := r.k.CheckCoherent()
			if err == nil || err.Error() != tc.want {
				t.Fatalf("err = %v, want %q", err, tc.want)
			}
		})
	}
}

// TestCheckCoherentNamesLowestPage pins the report's determinism: with
// several pages diverged, every call names the lowest one.
func TestCheckCoherentNamesLowestPage(t *testing.T) {
	r := newRig(t, 2, 1)
	var vps []memory.VPage
	for i := 0; i < 8; i++ {
		vp := r.k.AllocPage(0)
		r.k.ReplicateNow(vp, 1)
		vps = append(vps, vp)
	}
	for _, vp := range []memory.VPage{vps[6], vps[3]} {
		r.mems[1].Write(r.k.CopyList(vp)[1].Page, 4, 999)
	}
	want := fmt.Sprintf("kernel: page %d word 4:", vps[3])
	for i := 0; i < 50; i++ {
		err := r.k.CheckCoherent()
		if err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Fatalf("call %d: err = %v, want it to name page %d", i, err, vps[3])
		}
	}
}
