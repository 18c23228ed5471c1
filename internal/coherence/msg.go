package coherence

import (
	"plus/internal/mesh"
)

// Coherence-protocol message kinds, carried in mesh.Msg.Kind. Field
// usage per kind matches the comments; unused mesh.Msg fields are
// zero. Messages are pooled: every sender draws from the mesh
// free-list (or forwards the message in hand) and the final consumer
// — the originator on ack/reply, the last copy on a completed update
// — recycles it.
const (
	// kReadReq asks the addressed node to read a word of its copy.
	kReadReq uint8 = iota
	// kReadReply returns the word to the requesting processor.
	kReadReply
	// kWriteReq carries one or more word writes (the Writes vector; a
	// combined batch when write combining is on, a single word
	// otherwise) toward the master copy. The addressed node performs
	// them if it holds the master, else forwards the message.
	kWriteReq
	// kUpdate propagates committed word writes down the copy-list.
	kUpdate
	// kAck is the completion acknowledgement sent by the last copy in
	// the copy-list to the originating processor's coherence manager.
	kAck
	// kRMWReq carries a delayed operation toward the master copy.
	kRMWReq
	// kRMWReply returns the old memory contents from the master to the
	// originator's delayed-operations cache. Complete marks a reply
	// that also finishes the operation (the master was the only/last
	// copy, so no separate ack follows).
	kRMWReply
	// kPageCopy carries a whole-page snapshot from a copy-list
	// predecessor to a newly linked replica.
	kPageCopy
	// kTAck is the reliability sublayer's cumulative transport
	// acknowledgement (unreliable-network mode only; see transport.go).
	// Seq carries the highest in-order sequence number received from
	// the acked peer. Transport acks are themselves unsequenced — loss
	// is recovered by the sender's retransmit timer and the receiver
	// re-acking duplicates.
	kTAck
	// kWake carries a wake_up() (Table 3-2) to the sleeper's node. ID is
	// the target thread's machine-wide ID.
	kWake
)

// wordWrite is one word modified by a write or RMW, propagated down
// the copy-list verbatim so every copy applies identical values in
// identical order (general coherence). It aliases the wire type so
// update payloads travel in the pooled message without copying.
type wordWrite = mesh.WordWrite

// flits returns the message size in link flits (one flit = one 32-bit
// word plus routing overhead folded into the base latency).
func flits(m *mesh.Msg) int {
	switch m.Kind {
	case kReadReq:
		return 2 // address
	case kReadReply:
		return 2 // id + data
	case kWriteReq:
		return 1 + 2*len(m.Writes) // address + (offset, data) per word
	case kUpdate:
		return 2 + 2*len(m.Writes)
	case kAck:
		return 1
	case kRMWReq:
		return 3 // address + operand (+ op encoded in header)
	case kRMWReply:
		return 2
	case kPageCopy:
		return 2 + len(m.Data)
	case kTAck, kWake:
		return 1
	default:
		return 1
	}
}
