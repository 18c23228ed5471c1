package coherence

import (
	"encoding/json"

	"plus/internal/memory"
	"plus/internal/sim"
	"plus/internal/timing"
)

// Op identifies one of PLUS's interlocked read-modify-write memory
// operations (Table 3-1). Like writes, these take effect at every copy
// of the addressed location, beginning at the master; the master also
// returns the old memory contents to the originating node's
// delayed-operations cache.
type Op int

const (
	// OpXchng returns the current value and writes the operand.
	OpXchng Op = iota
	// OpCondXchng returns the current value; if its top bit is set,
	// writes the operand.
	OpCondXchng
	// OpFadd returns the current value and increments memory by the
	// operand (two's-complement signed add).
	OpFadd
	// OpFetchSet returns the current value and sets the top bit.
	OpFetchSet
	// OpQueue enqueues: the addressed location holds the offset (in the
	// addressed page) of the queue tail. Returns the current word at
	// the tail; if its top bit is clear, writes the operand there with
	// the top bit set and advances the offset modulo MaxQueueSize.
	OpQueue
	// OpDequeue dequeues: the addressed location holds the offset of
	// the queue head. Returns the current word at the head; if its top
	// bit is set, clears the slot's top bit and advances the offset
	// modulo MaxQueueSize.
	OpDequeue
	// OpMinXchng returns the current value and stores the operand if it
	// is smaller (unsigned compare).
	OpMinXchng
	// OpDelayedRead returns the current value without modification;
	// an asynchronous remote read for latency hiding.
	OpDelayedRead

	opCount
)

var opNames = [...]string{
	OpXchng:       "xchng",
	OpCondXchng:   "cond-xchng",
	OpFadd:        "fetch-and-add",
	OpFetchSet:    "fetch-and-set",
	OpQueue:       "queue",
	OpDequeue:     "dequeue",
	OpMinXchng:    "min-xchng",
	OpDelayedRead: "delayed-read",
}

func (o Op) String() string {
	if o < 0 || int(o) >= len(opNames) {
		return "op(?)"
	}
	return opNames[o]
}

// MarshalJSON emits the operation's Table 3-1 name, so experiment
// rows serialize as "fetch-and-add" rather than an opaque ordinal.
func (o Op) MarshalJSON() ([]byte, error) {
	return json.Marshal(o.String())
}

// Ops lists every delayed operation in Table 3-1 order.
func Ops() []Op {
	ops := make([]Op, opCount)
	for i := range ops {
		ops[i] = Op(i)
	}
	return ops
}

// ExecCycles returns the coherence manager's execution time for the
// operation: Table 3-1 gives 39 cycles for the simple word operations
// and 52 for the queue operations and min-xchng.
func (o Op) ExecCycles() sim.Cycles {
	switch o {
	case OpQueue, OpDequeue, OpMinXchng:
		return timing.RMWComplex
	default:
		return timing.RMWSimple
	}
}

// IsRead reports whether the operation modifies no memory.
func (o Op) IsRead() bool { return o == OpDelayedRead }

// exec performs op atomically against the master copy, frame p of
// mem, and returns the value sent back to the originator plus the word
// writes that carry the modification. It only reads: the master
// applies the writes through applyWrites like every other copy, which
// is exact because no operation reads a word after writing it (a queue
// index equal to off is read before either write). maxQueue is the
// hardware queue wrap modulus. The writes are appended to buf
// (typically the pooled message's recycled Writes slice) so the hot
// path allocates nothing once capacities warm up; operations that
// modify no memory return buf unchanged (length 0 when the caller
// passed an empty buffer).
func exec(op Op, mem *memory.Memory, p memory.PPage, off uint32, operand memory.Word, maxQueue int, buf []wordWrite) (memory.Word, []wordWrite) {
	off &= memory.OffMask
	old := mem.Read(p, off)
	switch op {
	case OpXchng:
		return old, append(buf, wordWrite{Off: off, Val: operand})
	case OpCondXchng:
		if old&memory.TopBit != 0 {
			return old, append(buf, wordWrite{Off: off, Val: operand})
		}
		return old, buf
	case OpFadd:
		return old, append(buf, wordWrite{Off: off, Val: memory.Word(uint32(old) + uint32(operand))})
	case OpFetchSet:
		return old, append(buf, wordWrite{Off: off, Val: old | memory.TopBit})
	case OpQueue:
		tail := uint32(old) % uint32(maxQueue)
		slot := mem.Read(p, tail)
		if slot&memory.TopBit != 0 {
			return slot, buf // queue full: slot still occupied
		}
		nt := memory.Word((tail + 1) % uint32(maxQueue))
		return slot, append(buf, wordWrite{Off: tail, Val: operand | memory.TopBit}, wordWrite{Off: off, Val: nt})
	case OpDequeue:
		head := uint32(old) % uint32(maxQueue)
		slot := mem.Read(p, head)
		if slot&memory.TopBit == 0 {
			return slot, buf // queue empty: slot not occupied
		}
		nh := memory.Word((head + 1) % uint32(maxQueue))
		return slot, append(buf, wordWrite{Off: head, Val: slot &^ memory.TopBit}, wordWrite{Off: off, Val: nh})
	case OpMinXchng:
		if uint32(operand) < uint32(old) {
			return old, append(buf, wordWrite{Off: off, Val: operand})
		}
		return old, buf
	case OpDelayedRead:
		return old, buf
	default:
		panic("coherence: unknown op")
	}
}
