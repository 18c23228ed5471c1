package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"plus/internal/memory"
	"plus/internal/timing"
)

func TestReadMissThenHit(t *testing.T) {
	c := New()
	if cost := c.Read(0, 0); cost != timing.CacheLineFill {
		t.Fatalf("cold read cost %d, want %d", cost, timing.CacheLineFill)
	}
	if cost := c.Read(0, 0); cost != timing.CacheHit {
		t.Fatalf("warm read cost %d, want %d", cost, timing.CacheHit)
	}
	// Same line, different word: hit.
	if cost := c.Read(0, 3); cost != timing.CacheHit {
		t.Fatalf("same-line read cost %d, want hit", cost)
	}
	// Next line: miss.
	if cost := c.Read(0, 4); cost != timing.CacheLineFill {
		t.Fatalf("next-line read cost %d, want miss", cost)
	}
}

// A frame is 256 lines, so the 2,048 slots wrap every 8 frames: the
// same offset in frames 8 apart maps to one slot.
func TestDirectMappedConflict(t *testing.T) {
	c := New()
	c.Read(1, 40)
	if cost := c.Read(9, 40); cost != timing.CacheLineFill {
		t.Fatalf("frame 9 hit on frame 1's line (cost %d)", cost)
	}
	if cost := c.Read(1, 40); cost != timing.CacheLineFill {
		t.Fatalf("conflict victim still cached (cost %d)", cost)
	}
	// Frames 7 apart land in different slots: both stay resident.
	c.Read(8, 40)
	if cost := c.Read(1, 40); cost != timing.CacheHit {
		t.Fatalf("frame 8 evicted frame 1's line (cost %d)", cost)
	}
}

func TestFramesDoNotAlias(t *testing.T) {
	c := New()
	c.Read(1, 0)
	if cost := c.Read(2, 0); cost != timing.CacheLineFill {
		t.Fatal("different frames aliased to the same tag")
	}
}

// Property: random reads and drops over a few dozen frames cost
// exactly what a reference direct-mapped tag map of the paper's
// geometry (8,192 words, 4-word lines) holding full 64-bit line
// numbers says. The first pool is 40 frames below 40; the second
// spreads up to 2^20 as frames 0 and 8·2^k (and the same plus 3),
// which share their slots and differ only in one bit above the slot
// index, so a tag that dropped any of those bits would alias them.
func TestReadMatchesReferenceTags(t *testing.T) {
	dense := make([]memory.PPage, 40)
	for i := range dense {
		dense[i] = memory.PPage(i)
	}
	var spread []memory.PPage
	for k := -1; k < 18; k++ {
		f := memory.PPage(0)
		if k >= 0 {
			f = 8 << k
		}
		spread = append(spread, f, f+3)
	}
	for pool, frames := range [][]memory.PPage{dense, spread} {
		c := New()
		ref := map[uint64]uint64{} // slot -> resident global line
		rng := rand.New(rand.NewSource(int64(pool + 1)))
		for i := 0; i < 200000; i++ {
			p := frames[rng.Intn(len(frames))]
			off := uint32(rng.Intn(memory.PageWords))
			line := (uint64(p)*memory.PageWords + uint64(off)) / 4
			if rng.Intn(16) == 0 {
				if got, ok := ref[line%2048]; ok && got == line {
					delete(ref, line%2048)
				}
				c.Drop(p, off)
				continue
			}
			want := timing.CacheLineFill
			if got, ok := ref[line%2048]; ok && got == line {
				want = timing.CacheHit
			}
			ref[line%2048] = line
			if cost := c.Read(p, off); cost != want {
				t.Fatalf("pool %d: read %d (frame %d, offset %d) cost %d, want %d",
					pool, i, p, off, cost, want)
			}
		}
	}
}

func TestHitRatioProperty(t *testing.T) {
	// Property: reading any address twice in a row always hits the
	// second time, for arbitrary frame/offset.
	c := New()
	f := func(frame uint8, off uint16) bool {
		p := memory.PPage(frame)
		o := uint32(off)
		c.Read(p, o)
		return c.Read(p, o) == timing.CacheHit
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// The cache takes no configuration: once read, it always has the
// paper's 2,048 slots.
func TestZeroConfigDefaults(t *testing.T) {
	c := New()
	c.Read(0, 0)
	if len(c.tags) != 8192/4 {
		t.Fatalf("cache has %d slots", len(c.tags))
	}
}

// A cache allocates its tags on its first read and never again: a
// Drop before any read allocates nothing and leaves it empty, and the
// tags it then allocates price a miss and a hit as before.
func TestCacheAllocatesOnFirstRead(t *testing.T) {
	c := New()
	if n := testing.AllocsPerRun(100, func() { c.Drop(3, 17) }); n != 0 {
		t.Fatalf("Drop on a fresh cache: %v allocs", n)
	}
	if c.tags != nil {
		t.Fatalf("Drop on a fresh cache allocated %d tags", len(c.tags))
	}
	// AllocsPerRun warms up with one call, so each call reads its own
	// fresh cache.
	fresh := []*Cache{New(), New()}
	k := 0
	if n := testing.AllocsPerRun(1, func() { fresh[k].Read(0, 0); k++ }); n != 1 {
		t.Fatalf("first read: %v allocs, want 1", n)
	}
	if cost := c.Read(3, 17); cost != timing.CacheLineFill {
		t.Fatalf("first read cost %d, want %d", cost, timing.CacheLineFill)
	}
	if cost := c.Read(3, 17); cost != timing.CacheHit {
		t.Fatalf("second read cost %d, want %d", cost, timing.CacheHit)
	}
	if n := testing.AllocsPerRun(100, func() { c.Read(3, 17); c.Read(11, 17); c.Drop(3, 17) }); n != 0 {
		t.Fatalf("later reads and drops: %v allocs", n)
	}
}

// Drop empties the slot of the line holding the word, and only when
// that line is the one cached there.
func TestDropInvalidatesLine(t *testing.T) {
	c := New()
	c.Read(0, 5)
	c.Drop(8, 5) // frame 8's line maps to the same slot but is not cached
	if cost := c.Read(0, 6); cost != timing.CacheHit {
		t.Fatalf("read after dropping another line cost %d, want hit", cost)
	}
	c.Drop(0, 4)
	if cost := c.Read(0, 7); cost != timing.CacheLineFill {
		t.Fatalf("read after Drop cost %d, want a line fill", cost)
	}
}
