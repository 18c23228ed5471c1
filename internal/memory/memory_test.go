package memory

import (
	"math/rand/v2"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
)

func TestAddressArithmetic(t *testing.T) {
	a := VAddr(5*PageWords + 17)
	if a.Page() != 5 {
		t.Fatalf("page = %d, want 5", a.Page())
	}
	if a.Offset() != 17 {
		t.Fatalf("offset = %d, want 17", a.Offset())
	}
	if VPage(5).Base()+17 != a {
		t.Fatalf("Base+offset round trip failed")
	}
	if VPage(5).Base() != VAddr(5*PageWords) {
		t.Fatalf("Base = %d", VPage(5).Base())
	}
}

func TestAddressRoundTripProperty(t *testing.T) {
	f := func(raw uint32) bool {
		a := VAddr(raw)
		return a.Page().Base()+VAddr(a.Offset()) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMemoryReadWrite(t *testing.T) {
	m := New()
	p := m.AllocFrame()
	if m.Read(p, 0) != 0 {
		t.Fatal("fresh frame not zeroed")
	}
	m.Write(p, 42, 0xdeadbeef)
	if got := m.Read(p, 42); got != 0xdeadbeef {
		t.Fatalf("read back %#x", got)
	}
	// Offsets wrap within the page rather than corrupting neighbours.
	m.Write(p, PageWords+1, 7)
	if got := m.Read(p, 1); got != 7 {
		t.Fatalf("wrapped write: got %#x", got)
	}
}

func TestMultipleFramesIndependent(t *testing.T) {
	m := New()
	a := m.AllocFrame()
	b := m.AllocFrame()
	if a == b {
		t.Fatal("AllocFrame returned duplicate index")
	}
	m.Write(a, 0, 1)
	m.Write(b, 0, 2)
	if m.Read(a, 0) != 1 || m.Read(b, 0) != 2 {
		t.Fatal("frames share storage")
	}
	if m.Frames() != 2 {
		t.Fatalf("Frames = %d", m.Frames())
	}
}

func TestGPageNil(t *testing.T) {
	if !NilGPage.IsNil() {
		t.Fatal("NilGPage.IsNil() = false")
	}
	g := GPage{Node: 0, Page: 0}
	if g.IsNil() {
		t.Fatal("real page reported nil")
	}
	if NilGPage.String() != "gpage(nil)" {
		t.Fatalf("String = %q", NilGPage.String())
	}
	if g.String() != "gpage(n0:p0)" {
		t.Fatalf("String = %q", g.String())
	}
}

// TestMemoryMatchesDenseReference runs random sequences of every frame
// operation across two memories and compares each frame, after every
// operation, with a dense reference holding whole pages.
func TestMemoryMatchesDenseReference(t *testing.T) {
	const frames = 6
	rng := rand.New(rand.NewPCG(64, 16))
	mems := [2]*Memory{New(), New()}
	var ref [2][][]Word
	for i, m := range mems {
		for range frames {
			m.AllocFrame()
			ref[i] = append(ref[i], make([]Word, PageWords))
		}
	}
	word := func() Word {
		if rng.IntN(3) == 0 {
			return 0
		}
		return Word(rng.Uint32() | 1)
	}
	image := func() []Word {
		img := make([]Word, PageWords)
		switch rng.IntN(3) {
		case 0: // all zero
		case 1: // a few chunks touched
			for range 1 + rng.IntN(40) {
				img[rng.IntN(PageWords)] = word()
			}
		default: // every chunk touched
			for j := range img {
				img[j] = word()
			}
		}
		return img
	}
	for step := 0; step < 3000; step++ {
		a, b := rng.IntN(2), rng.IntN(2)
		p, q := PPage(rng.IntN(frames)), PPage(rng.IntN(frames))
		off := uint32(rng.IntN(2 * PageWords)) // wrapped offsets too
		switch op := rng.IntN(6); op {
		case 0, 1:
			v := word()
			mems[a].Write(p, off, v)
			ref[a][p][off&OffMask] = v
		case 2:
			if got, want := mems[a].Read(p, off), ref[a][p][off&OffMask]; got != want {
				t.Fatalf("step %d: Read(%d, %d) = %#x, want %#x", step, p, off, got, want)
			}
		case 3:
			prefix := []Word{7, 8, 9}
			got := mems[a].Snapshot(p, slices.Clone(prefix))
			if !slices.Equal(got[:3], prefix) || !slices.Equal(got[3:], ref[a][p]) {
				t.Fatalf("step %d: Snapshot(%d) differs from the reference page", step, p)
			}
		case 4:
			img := image()
			mems[a].Install(p, img)
			copy(ref[a][p], img)
			for i, c := range mems[a].frames[p] {
				if c != nil && *c == zeroChunk {
					t.Fatalf("step %d: Install left all-zero chunk %d present", step, i)
				}
			}
		case 5:
			mems[a].CopyFrame(p, mems[b], q)
			copy(ref[a][p], ref[b][q])
		}
		if off, x, y, ok := mems[a].FirstDiff(p, mems[b], q); ok != !slices.Equal(ref[a][p], ref[b][q]) ||
			ok && (x != ref[a][p][off] || y != ref[b][q][off] || !slices.Equal(ref[a][p][:off], ref[b][q][:off]) || x == y) {
			t.Fatalf("step %d: FirstDiff = (%d, %#x, %#x, %v) disagrees with the reference", step, off, x, y, ok)
		}
		for i, m := range mems {
			for f := range frames {
				for w := range uint32(PageWords) {
					if got, want := m.Read(PPage(f), w), ref[i][f][w]; got != want {
						t.Fatalf("step %d: memory %d frame %d word %d = %#x, want %#x", step, i, f, w, got, want)
					}
				}
			}
		}
	}
}

func chunksHeld(m *Memory, p PPage) int {
	n := 0
	for _, c := range m.frames[p] {
		if c != nil {
			n++
		}
	}
	return n
}

// TestFrameAllocations pins what a frame costs: one 128-byte
// allocation, its chunk pointers (with the frame table's room already
// there), no storage until a nonzero word is written, and nothing
// allocated to read it, to write a zero into it or to snapshot it into
// a warmed buffer.
func TestFrameAllocations(t *testing.T) {
	const frames = 1000
	m := New()
	m.frames = make([]*frame, 0, frames+1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range frames {
		m.AllocFrame()
	}
	runtime.ReadMemStats(&after)
	if n, b := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc; n != frames || b != 128*frames {
		t.Errorf("%d frames: %d allocations of %d bytes, want one of 128 bytes each", frames, n, b)
	}
	p := m.AllocFrame()
	if n := testing.AllocsPerRun(100, func() { m.Read(p, 17) }); n != 0 {
		t.Errorf("Read of an untouched frame: %.0f allocations", n)
	}
	if n := testing.AllocsPerRun(100, func() { m.Write(p, 300, 0) }); n != 0 {
		t.Errorf("zero Write to an absent chunk: %.0f allocations", n)
	}
	if n := chunksHeld(m, p); n != 0 {
		t.Fatalf("never-written frame holds %d chunks", n)
	}
	m.Write(p, 5, 1)
	buf := m.Snapshot(p, nil)
	if n := testing.AllocsPerRun(100, func() { buf = m.Snapshot(p, buf[:0]) }); n != 0 {
		t.Errorf("Snapshot into a warmed buffer: %.0f allocations", n)
	}
	if n := chunksHeld(m, p); n != 1 {
		t.Fatalf("frame with one written word holds %d chunks", n)
	}
}
