package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"plus/internal/memory"
	"plus/internal/timing"
)

func TestReadMissThenHit(t *testing.T) {
	tm := timing.Default()
	c := New(tm)
	if cost := c.Read(0, 0); cost != tm.CacheLineFill {
		t.Fatalf("cold read cost %d, want %d", cost, tm.CacheLineFill)
	}
	if cost := c.Read(0, 0); cost != tm.CacheHit {
		t.Fatalf("warm read cost %d, want %d", cost, tm.CacheHit)
	}
	// Same line, different word: hit.
	if cost := c.Read(0, 3); cost != tm.CacheHit {
		t.Fatalf("same-line read cost %d, want hit", cost)
	}
	// Next line: miss.
	if cost := c.Read(0, 4); cost != tm.CacheLineFill {
		t.Fatalf("next-line read cost %d, want miss", cost)
	}
}

// A frame is 256 lines, so the 2,048 slots wrap every 8 frames: the
// same offset in frames 8 apart maps to one slot.
func TestDirectMappedConflict(t *testing.T) {
	tm := timing.Default()
	c := New(tm)
	c.Read(1, 40)
	if cost := c.Read(9, 40); cost != tm.CacheLineFill {
		t.Fatalf("frame 9 hit on frame 1's line (cost %d)", cost)
	}
	if cost := c.Read(1, 40); cost != tm.CacheLineFill {
		t.Fatalf("conflict victim still cached (cost %d)", cost)
	}
	// Frames 7 apart land in different slots: both stay resident.
	c.Read(8, 40)
	if cost := c.Read(1, 40); cost != tm.CacheHit {
		t.Fatalf("frame 8 evicted frame 1's line (cost %d)", cost)
	}
}

func TestFramesDoNotAlias(t *testing.T) {
	tm := timing.Default()
	c := New(tm)
	c.Read(1, 0)
	if cost := c.Read(2, 0); cost != tm.CacheLineFill {
		t.Fatal("different frames aliased to the same tag")
	}
}

// Property: random reads over a few dozen frames cost exactly what a
// reference direct-mapped tag map of the paper's geometry (8,192
// words, 4-word lines) says.
func TestReadMatchesReferenceTags(t *testing.T) {
	tm := timing.Default()
	c := New(tm)
	ref := map[uint64]uint64{} // slot -> resident global line
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200000; i++ {
		p := memory.PPage(rng.Intn(40))
		off := uint32(rng.Intn(memory.PageWords))
		line := (uint64(p)*memory.PageWords + uint64(off)) / 4
		want := tm.CacheLineFill
		if got, ok := ref[line%2048]; ok && got == line {
			want = tm.CacheHit
		}
		ref[line%2048] = line
		if cost := c.Read(p, off); cost != want {
			t.Fatalf("read %d (frame %d, offset %d) cost %d, want %d", i, p, off, cost, want)
		}
	}
}

func TestHitRatioProperty(t *testing.T) {
	// Property: reading any address twice in a row always hits the
	// second time, for arbitrary frame/offset.
	tm := timing.Default()
	c := New(tm)
	f := func(frame uint8, off uint16) bool {
		p := memory.PPage(frame)
		o := uint32(off)
		c.Read(p, o)
		return c.Read(p, o) == tm.CacheHit
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// The cache takes no configuration: it always has the paper's 2,048
// slots.
func TestZeroConfigDefaults(t *testing.T) {
	c := New(timing.Default())
	if len(c.tags) != 8192/4 {
		t.Fatalf("cache has %d slots", len(c.tags))
	}
}
