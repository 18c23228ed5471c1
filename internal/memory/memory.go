// Package memory models per-node physical memory and defines the
// fundamental address and word types shared across the machine.
//
// PLUS memory is word-grained: the unit of replication is a 4 KB page
// (1024 32-bit words, matching the off-the-shelf CPU's MMU), but the
// unit of access and coherence is one 32-bit word. All addresses in
// this codebase are word addresses, not byte addresses.
package memory

import (
	"fmt"

	"plus/internal/node"
)

// PageShift and PageWords define the 4 KB page: 2^10 words of 4 bytes.
const (
	PageShift = 10
	PageWords = 1 << PageShift
	OffMask   = PageWords - 1
)

// Word is the 32-bit memory word, the unit of access and coherence.
// Several delayed operations treat the top bit as a hardware flag
// (fetch-and-set, queue, dequeue, cond-xchng).
type Word uint32

// TopBit is the hardware flag bit used by queue/dequeue/fetch-and-set
// and tested by cond-xchng.
const TopBit Word = 0x80000000

// VAddr is a word-grained virtual address. All nodes share one virtual
// address space (PLUS runs a single multithreaded process).
type VAddr uint32

// VPage is a virtual page number.
type VPage uint32

// Page returns the virtual page containing the address.
func (a VAddr) Page() VPage { return VPage(a >> PageShift) }

// Offset returns the word offset within the page.
func (a VAddr) Offset() uint32 { return uint32(a) & OffMask }

// Base returns the first address of the page.
func (p VPage) Base() VAddr { return VAddr(uint32(p) << PageShift) }

// PPage is a physical page (frame) index within one node's memory.
type PPage int32

// GPage is a global physical page address: the <node-id, page-id> pair
// generated directly by the memory-mapping hardware (§2.3). Node is
// node.ID, which mesh.NodeID aliases.
type GPage struct {
	Node node.ID
	Page PPage
}

// NilGPage marks "no page" (e.g. end of a copy-list).
var NilGPage = GPage{Node: -1, Page: -1}

// IsNil reports whether g is the nil page.
func (g GPage) IsNil() bool { return g == NilGPage }

func (g GPage) String() string {
	if g.IsNil() {
		return "gpage(nil)"
	}
	return fmt.Sprintf("gpage(n%d:p%d)", g.Node, g.Page)
}

// A frame keeps its page as frameChunks chunks of chunkWords words,
// each allocated on the first nonzero write into it. PLUS replicates
// whole pages, but a replica mostly holds the few words a program
// touched (a distance, a queue slot, a lock, a counter). 64 words keeps
// a touched word's neighbourhood small while the chunk table stays
// 128 bytes per frame.
const (
	chunkShift  = 6
	chunkWords  = 1 << chunkShift
	chunkMask   = chunkWords - 1
	frameChunks = PageWords / chunkWords
)

type chunk [chunkWords]Word

// frame is one page frame: chunk i holds words i*chunkWords onwards,
// and an absent (nil) chunk reads as zeros.
type frame [frameChunks]*chunk

// zeroChunk stands in for an absent chunk wherever its words are read
// in bulk.
var zeroChunk chunk

// Memory is one node's local memory: its page frames, each allocated
// on its own (128 bytes of chunk pointers), so growing the frame table
// copies pointers, not frames. In PLUS the local memory serves both as
// main memory and as the replica store for pages homed elsewhere.
type Memory struct {
	frames []*frame
}

// New returns an empty memory; frames are allocated on demand.
func New() *Memory { return &Memory{} }

// AllocFrame adds a zeroed page frame and returns its index. The frame
// holds no storage until a nonzero word is written to it.
func (m *Memory) AllocFrame() PPage {
	m.frames = append(m.frames, new(frame))
	return PPage(len(m.frames) - 1)
}

// Frames returns the number of allocated frames.
func (m *Memory) Frames() int { return len(m.frames) }

// Read returns the word at offset off of frame p.
func (m *Memory) Read(p PPage, off uint32) Word {
	off &= OffMask
	c := m.frames[p][off>>chunkShift]
	if c == nil {
		return 0
	}
	return c[off&chunkMask]
}

// Write stores v at offset off of frame p. A zero written to an absent
// chunk allocates nothing.
func (m *Memory) Write(p PPage, off uint32, v Word) {
	off &= OffMask
	f := m.frames[p]
	c := f[off>>chunkShift]
	if c == nil {
		if v == 0 {
			return
		}
		c = new(chunk)
		f[off>>chunkShift] = c
	}
	c[off&chunkMask] = v
}

// Snapshot appends the PageWords-word image of frame p to dst and
// returns the extended slice: the page-copy engine's outgoing data.
func (m *Memory) Snapshot(p PPage, dst []Word) []Word {
	for _, c := range m.frames[p] {
		if c == nil {
			c = &zeroChunk
		}
		dst = append(dst, c[:]...)
	}
	return dst
}

// Install sets frame p to the page image img (PageWords words, as
// Snapshot produces), leaving every all-zero chunk absent.
func (m *Memory) Install(p PPage, img []Word) {
	f := m.frames[p]
	for i := range f {
		src := (*chunk)(img[i*chunkWords:])
		if *src == zeroChunk {
			src = nil
		}
		f.set(i, src)
	}
}

// CopyFrame sets frame p to the contents of frame sp of src, chunk by
// chunk; chunks absent from the source end up absent here.
func (m *Memory) CopyFrame(p PPage, src *Memory, sp PPage) {
	f := m.frames[p]
	for i, c := range src.frames[sp] {
		f.set(i, c)
	}
}

// set makes chunk i of f a copy of src, or absent when src is nil.
func (f *frame) set(i int, src *chunk) {
	switch {
	case src == nil:
		f[i] = nil
	case f[i] == nil:
		c := *src
		f[i] = &c
	default:
		*f[i] = *src
	}
}

// FirstDiff compares frame p with frame q of o and returns the lowest
// offset where they differ and the two words there; ok is false when
// the frames hold the same page. An absent chunk equals a zero chunk.
func (m *Memory) FirstDiff(p PPage, o *Memory, q PPage) (off uint32, a, b Word, ok bool) {
	f, g := m.frames[p], o.frames[q]
	for i := range f {
		ca, cb := f[i], g[i]
		if ca == nil {
			ca = &zeroChunk
		}
		if cb == nil {
			cb = &zeroChunk
		}
		if *ca == *cb {
			continue
		}
		for j := range ca {
			if ca[j] != cb[j] {
				return uint32(i*chunkWords + j), ca[j], cb[j], true
			}
		}
	}
	return 0, 0, 0, false
}
