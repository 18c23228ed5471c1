package coherence

import (
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"

	"plus/internal/memory"
)

func freshPage() []memory.Word { return make([]memory.Word, memory.PageWords) }

// execPage runs exec against a memory frame holding page and applies
// the returned writes to page, as the master's applyWrites does.
func execPage(op Op, page []memory.Word, off uint32, operand memory.Word, maxQueue int) (memory.Word, []wordWrite) {
	m := memory.New()
	f := m.AllocFrame()
	m.Install(f, page)
	old, ws := exec(op, m, f, off, operand, maxQueue, nil)
	for _, w := range ws {
		page[w.Off] = w.Val
	}
	return old, ws
}

// execInPlace is the operation semantics written the direct way: it
// mutates the master page in place as it goes. TestExecMatchesInPlace
// holds exec, which only reads and returns its writes, to it.
func execInPlace(op Op, page []memory.Word, off uint32, operand memory.Word, maxQueue int) (memory.Word, []wordWrite) {
	off &= memory.OffMask
	old := page[off]
	switch op {
	case OpXchng:
		page[off] = operand
		return old, []wordWrite{{Off: off, Val: operand}}
	case OpCondXchng:
		if old&memory.TopBit != 0 {
			page[off] = operand
			return old, []wordWrite{{Off: off, Val: operand}}
		}
		return old, nil
	case OpFadd:
		nv := memory.Word(uint32(old) + uint32(operand))
		page[off] = nv
		return old, []wordWrite{{Off: off, Val: nv}}
	case OpFetchSet:
		nv := old | memory.TopBit
		page[off] = nv
		return old, []wordWrite{{Off: off, Val: nv}}
	case OpQueue:
		tail := uint32(page[off]) % uint32(maxQueue)
		slot := page[tail]
		if slot&memory.TopBit != 0 {
			return slot, nil
		}
		nv := operand | memory.TopBit
		page[tail] = nv
		nt := memory.Word((tail + 1) % uint32(maxQueue))
		page[off] = nt
		return slot, []wordWrite{{Off: tail, Val: nv}, {Off: off, Val: nt}}
	case OpDequeue:
		head := uint32(page[off]) % uint32(maxQueue)
		slot := page[head]
		if slot&memory.TopBit == 0 {
			return slot, nil
		}
		nv := slot &^ memory.TopBit
		page[head] = nv
		nh := memory.Word((head + 1) % uint32(maxQueue))
		page[off] = nh
		return slot, []wordWrite{{Off: head, Val: nv}, {Off: off, Val: nh}}
	case OpMinXchng:
		if uint32(operand) < uint32(old) {
			page[off] = operand
			return old, []wordWrite{{Off: off, Val: operand}}
		}
		return old, nil
	case OpDelayedRead:
		return old, nil
	default:
		panic("coherence: unknown op")
	}
}

// TestExecMatchesInPlace drives every operation over random sparse
// pages and checks that applying exec's writes to the master frame
// leaves exactly the page the in-place oracle leaves, with the same
// returned value and the same write vector (the one the replicas
// apply). Queue and dequeue run with the index word pointing at
// itself, at an occupied slot (full queue) and at a free one (empty).
func TestExecMatchesInPlace(t *testing.T) {
	rng := rand.New(rand.NewPCG(37, 1))
	word := func() memory.Word {
		switch rng.IntN(4) {
		case 0:
			return 0
		case 1:
			return memory.Word(rng.IntN(8))
		case 2:
			return memory.TopBit | memory.Word(rng.IntN(8))
		default:
			return memory.Word(rng.Uint32())
		}
	}
	for iter := 0; iter < 4000; iter++ {
		op := Op(iter % int(opCount))
		maxQueue := []int{4, 16, 512, memory.PageWords}[rng.IntN(4)]
		page := freshPage()
		for range rng.IntN(48) {
			page[rng.IntN(memory.PageWords)] = word()
		}
		off := uint32(rng.IntN(2 * memory.PageWords)) // wrapped offsets too
		o := off & memory.OffMask
		if op == OpQueue || op == OpDequeue {
			switch rng.IntN(4) {
			case 0: // the index word is its own slot
				o = uint32(rng.IntN(maxQueue))
				off = o
				page[o] = memory.Word(o + uint32(maxQueue*rng.IntN(3)))
			case 1: // full queue / nonempty dequeue
				page[o] = memory.Word(rng.IntN(maxQueue))
				page[page[o]] |= memory.TopBit
			case 2: // free slot / empty dequeue
				page[o] = memory.Word(rng.IntN(maxQueue))
				page[page[o]] &^= memory.TopBit
			}
		}
		operand := word()
		want := slices.Clone(page)
		wantOld, wantWs := execInPlace(op, want, off, operand, maxQueue)

		m := memory.New()
		f := m.AllocFrame()
		m.Install(f, page)
		old, ws := exec(op, m, f, off, operand, maxQueue, nil)
		for _, w := range ws {
			m.Write(f, w.Off, w.Val)
		}
		if old != wantOld || !slices.Equal(ws, wantWs) {
			t.Fatalf("iter %d %v off %d: got (%#x, %v), oracle (%#x, %v)", iter, op, off, old, ws, wantOld, wantWs)
		}
		if got := m.Snapshot(f, nil); !slices.Equal(got, want) {
			t.Fatalf("iter %d %v off %d: master page differs from the oracle's", iter, op, off)
		}
	}
}

func TestOpStrings(t *testing.T) {
	want := map[Op]string{
		OpXchng:       "xchng",
		OpCondXchng:   "cond-xchng",
		OpFadd:        "fetch-and-add",
		OpFetchSet:    "fetch-and-set",
		OpQueue:       "queue",
		OpDequeue:     "dequeue",
		OpMinXchng:    "min-xchng",
		OpDelayedRead: "delayed-read",
	}
	for op, s := range want {
		if op.String() != s {
			t.Errorf("%d.String() = %q, want %q", op, op.String(), s)
		}
	}
	if Op(99).String() != "op(?)" {
		t.Errorf("out-of-range op string = %q", Op(99).String())
	}
}

func TestOpsListsTable3_1(t *testing.T) {
	ops := Ops()
	if len(ops) != 8 {
		t.Fatalf("Table 3-1 has 8 delayed operations, Ops() returned %d", len(ops))
	}
}

func TestExecCyclesTable3_1(t *testing.T) {
	want := map[Op]uint64{
		OpXchng: 39, OpCondXchng: 39, OpFadd: 39, OpFetchSet: 39, OpDelayedRead: 39,
		OpQueue: 52, OpDequeue: 52, OpMinXchng: 52,
	}
	for op, w := range want {
		if got := uint64(op.ExecCycles()); got != w {
			t.Errorf("%v execution = %d cycles, want %d", op, got, w)
		}
	}
}

// Property: xchng is its own inverse — two exchanges restore memory.
func TestXchngInverseProperty(t *testing.T) {
	f := func(init, v memory.Word, off uint16) bool {
		p := freshPage()
		o := uint32(off) & memory.OffMask
		p[o] = init
		old1, _ := execPage(OpXchng, p, o, v, 512)
		old2, _ := execPage(OpXchng, p, o, old1, 512)
		return old1 == init && old2 == v && p[o] == init
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: fetch-and-add of a then b equals a single add of a+b.
func TestFaddAssociativityProperty(t *testing.T) {
	f := func(init, a, b memory.Word) bool {
		p1, p2 := freshPage(), freshPage()
		p1[0], p2[0] = init, init
		execPage(OpFadd, p1, 0, a, 512)
		execPage(OpFadd, p1, 0, b, 512)
		execPage(OpFadd, p2, 0, memory.Word(uint32(a)+uint32(b)), 512)
		return p1[0] == p2[0]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: fetch-and-set is idempotent and always leaves the top bit.
func TestFetchSetProperty(t *testing.T) {
	f := func(init memory.Word) bool {
		p := freshPage()
		p[0] = init
		old, ws := execPage(OpFetchSet, p, 0, 0, 512)
		if old != init || p[0]&memory.TopBit == 0 {
			return false
		}
		if p[0] != init|memory.TopBit {
			return false
		}
		_ = ws
		old2, _ := execPage(OpFetchSet, p, 0, 0, 512)
		return old2&memory.TopBit != 0 && p[0] == init|memory.TopBit
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: min-xchng computes the running minimum of any sequence.
func TestMinXchngRunningMinimumProperty(t *testing.T) {
	f := func(vals []uint32) bool {
		p := freshPage()
		p[0] = memory.Word(^uint32(0)) // +inf
		min := ^uint32(0)
		for _, v := range vals {
			v &= 0x7fffffff
			execPage(OpMinXchng, p, 0, memory.Word(v), 512)
			if v < min {
				min = v
			}
		}
		return uint32(p[0]) == min
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: any interleaving of queue/dequeue preserves FIFO order of
// the successfully enqueued values.
func TestQueueFIFOProperty(t *testing.T) {
	const qsz = 16
	f := func(ops []bool, seed uint32) bool {
		p := freshPage()
		tailCtl, headCtl := uint32(qsz), uint32(qsz+1)
		var model []memory.Word
		next := memory.Word(seed & 0xffff)
		for _, isEnq := range ops {
			if isEnq {
				old, _ := execPage(OpQueue, p, tailCtl, next, qsz)
				if old&memory.TopBit == 0 { // success
					model = append(model, next)
				} else if len(model) != qsz {
					return false // reported full when it was not
				}
				next++
			} else {
				old, _ := execPage(OpDequeue, p, headCtl, 0, qsz)
				if old&memory.TopBit != 0 { // success
					if len(model) == 0 {
						return false // dequeued from empty
					}
					if old&^memory.TopBit != model[0] {
						return false // FIFO violated
					}
					model = model[1:]
				} else if len(model) != 0 {
					return false // reported empty when it was not
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: delayed-read never modifies memory.
func TestDelayedReadPureProperty(t *testing.T) {
	f := func(init memory.Word, off uint16) bool {
		p := freshPage()
		o := uint32(off) & memory.OffMask
		p[o] = init
		old, ws := execPage(OpDelayedRead, p, o, 12345, 512)
		return old == init && len(ws) == 0 && p[o] == init
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: applying exec's write vector to a second page replays the
// exact mutation the operation makes at the master — this is what keeps replicated copies coherent.
func TestWriteVectorReplaysMutationProperty(t *testing.T) {
	ops := []Op{OpXchng, OpCondXchng, OpFadd, OpFetchSet, OpQueue, OpDequeue, OpMinXchng, OpDelayedRead}
	f := func(opIdx uint8, init [4]memory.Word, operand memory.Word) bool {
		op := ops[int(opIdx)%len(ops)]
		master, replica := freshPage(), freshPage()
		for i, v := range init {
			master[i] = v
			replica[i] = v
		}
		// Queue control words for queue/dequeue.
		master[512], replica[512] = 1, 1
		master[513], replica[513] = 1, 1
		_, ws := execPage(op, slices.Clone(master), 513, operand, 512)
		execInPlace(op, master, 513, operand, 512)
		for _, w := range ws {
			replica[w.Off] = w.Val
		}
		for i := range master {
			if master[i] != replica[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestCondXchngWritesWhenTopBitSet(t *testing.T) {
	p := freshPage()
	p[0] = memory.TopBit | 5
	old, ws := execPage(OpCondXchng, p, 0, 9, 512)
	if old != memory.TopBit|5 {
		t.Fatalf("old = %#x", old)
	}
	if p[0] != 9 || len(ws) != 1 {
		t.Fatalf("p[0] = %#x, writes = %v", p[0], ws)
	}
}

func TestGAddrHelpers(t *testing.T) {
	g := At(memory.GPage{Node: 3, Page: 7}, 5000)
	if g.Off != 5000&memory.OffMask {
		t.Fatalf("offset not masked: %d", g.Off)
	}
	if g.GPage() != (memory.GPage{Node: 3, Page: 7}) {
		t.Fatal("GPage round trip failed")
	}
	if g.String() == "" {
		t.Fatal("empty String")
	}
}
