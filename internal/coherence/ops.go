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

// exec applies op atomically to the master copy stored in page (the
// backing slice of the master's frame) and returns the value sent back
// to the originator plus the word writes to propagate to the other
// copies. maxQueue is the hardware queue wrap modulus. The writes are
// appended to buf (typically the pooled message's recycled Writes
// slice) so the hot path allocates nothing once capacities warm up;
// operations that modify no memory return buf unchanged (length 0 when
// the caller passed an empty buffer).
func exec(op Op, page []memory.Word, off uint32, operand memory.Word, maxQueue int, buf []wordWrite) (memory.Word, []wordWrite) {
	off &= memory.OffMask
	old := page[off]
	switch op {
	case OpXchng:
		page[off] = operand
		return old, append(buf, wordWrite{Off: off, Val: operand})
	case OpCondXchng:
		if old&memory.TopBit != 0 {
			page[off] = operand
			return old, append(buf, wordWrite{Off: off, Val: operand})
		}
		return old, buf
	case OpFadd:
		nv := memory.Word(uint32(old) + uint32(operand))
		page[off] = nv
		return old, append(buf, wordWrite{Off: off, Val: nv})
	case OpFetchSet:
		nv := old | memory.TopBit
		page[off] = nv
		return old, append(buf, wordWrite{Off: off, Val: nv})
	case OpQueue:
		tail := uint32(page[off]) % uint32(maxQueue)
		slot := page[tail]
		if slot&memory.TopBit != 0 {
			return slot, buf // queue full: slot still occupied
		}
		nv := operand | memory.TopBit
		page[tail] = nv
		nt := memory.Word((tail + 1) % uint32(maxQueue))
		page[off] = nt
		return slot, append(buf, wordWrite{Off: tail, Val: nv}, wordWrite{Off: off, Val: nt})
	case OpDequeue:
		head := uint32(page[off]) % uint32(maxQueue)
		slot := page[head]
		if slot&memory.TopBit == 0 {
			return slot, buf // queue empty: slot not occupied
		}
		nv := slot &^ memory.TopBit
		page[head] = nv
		nh := memory.Word((head + 1) % uint32(maxQueue))
		page[off] = nh
		return slot, append(buf, wordWrite{Off: head, Val: nv}, wordWrite{Off: off, Val: nh})
	case OpMinXchng:
		if uint32(operand) < uint32(old) {
			page[off] = operand
			return old, append(buf, wordWrite{Off: off, Val: operand})
		}
		return old, buf
	case OpDelayedRead:
		return old, buf
	default:
		panic("coherence: unknown op")
	}
}
