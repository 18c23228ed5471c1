// Package cache models the per-processor cache of a PLUS node: 32 KB
// (8,192 words) on the M88000 of the paper's implementation, direct
// mapped in 4-word lines.
//
// Only local-memory reads go through this cache; remote accesses are
// handled by the coherence manager over the network. §2.3 of the
// paper caches replicated pages write-through and has a bus snoop keep
// cached lines current when the coherence manager writes local memory;
// both leave every valid line's tag in place, so neither changes what
// a read costs. A processor write costs only its issue time, so the
// model keeps only what a read is charged: one tag per line slot.
// Most nodes of a run never read their local memory, so a cache
// allocates its 8 KB of tags on its first read.
//
// Data always lives in memory.Memory; the cache holds no words.
package cache

import (
	"plus/internal/memory"
	"plus/internal/sim"
	"plus/internal/timing"
)

// The paper's geometry: 8,192 words in 4-word lines.
const (
	lineWords = 4
	slots     = 8192 / lineWords
)

// Cache is a direct-mapped tag array over one node's physical memory.
type Cache struct {
	// tags[i] is 1 + the line number bits above the slot index of the
	// line held in slot i (line/slots + 1), or 0 when the slot is
	// empty. A frame number is an int32, so a line number has at most
	// 31+PageShift-2 bits and its tag fits 32. Nil, every slot empty,
	// until the first Read.
	tags []uint32
}

// New builds an empty cache. It allocates no tags.
func New() *Cache { return &Cache{} }

// Read models a processor load from local memory and returns its cost
// in cycles: a hit costs CacheHit; a miss fills the line's slot and
// costs CacheLineFill.
func (c *Cache) Read(p memory.PPage, off uint32) sim.Cycles {
	if c.tags == nil {
		c.tags = make([]uint32, slots)
	}
	tag, s := c.slot(p, off)
	if *s == tag {
		return timing.CacheHit
	}
	*s = tag
	return timing.CacheLineFill
}

// Drop invalidates the line holding word off of frame p, if the cache
// holds it, so the next read of any word in that line misses. A cache
// never read holds nothing, and Drop leaves it unallocated.
func (c *Cache) Drop(p memory.PPage, off uint32) {
	if c.tags == nil {
		return
	}
	if tag, s := c.slot(p, off); *s == tag {
		*s = 0
	}
}

// slot returns the tag of the line holding word off of frame p and the
// slot that line maps to.
func (c *Cache) slot(p memory.PPage, off uint32) (uint32, *uint32) {
	ln := (uint64(p)<<memory.PageShift | uint64(off&memory.OffMask)) / lineWords
	return uint32(ln/slots) + 1, &c.tags[ln%slots]
}
