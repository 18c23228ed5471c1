// Package trace turns the structured event stream (internal/stats)
// into a correctness observatory: a vector-clock happens-before race
// detector over the data-access event layer (EvAcc*), in the style of
// Butelle & Coti's race-detection model for coherent distributed
// memory, with ordering edges derived from the PLUS protocol's
// guarantees (fence completion, delayed-operation atomicity at the
// master, per-word write serialization, explicit wake/sleep).
//
// The detector is strictly offline and post-hoc: it consumes the
// merged, deterministically ordered event stream an Observer recorded
// (serial emission order — identical for any shard count) and never
// touches the simulation. See DESIGN.md §15 for the event vocabulary,
// the edge rules, which protocol guarantee each edge encodes, and the
// soundness/completeness limits.
//
// The model in brief:
//
//   - Every word is individually atomic in PLUS (32-bit accesses
//     through the coherence protocol; all writes to a word serialize
//     at its master — general coherence). A "race" therefore never
//     means a torn value; it means two conflicting accesses to an
//     ordinary (data) word unordered by the synchronization order,
//     i.e. a violation of the data-race-free discipline under which
//     PLUS's weak write ordering is transparent (§2.1, §2.3).
//   - A word is a synchronization word if any delayed operation
//     targets it, or any access to it is sync-annotated
//     (Thread.ReadSync/WriteSync — the psync constructs annotate
//     their spin words). Conflicts on synchronization words are not
//     reported; instead they generate the ordering edges.
//   - Each thread T carries a vector clock C_T (its knowledge) and a
//     release clock R_T — the snapshot of C_T at T's last fence
//     completion. R_T is what other threads may learn of T through
//     memory: PLUS only guarantees a write is visible everywhere once
//     a fence covering it has completed.
//   - Release: a write (plain or RMW modification) to a sync word w
//     merges R_T plus the write's own timestamp into w's release
//     record rel[w]. Acquire: a read of w merges rel[w] into the
//     reader's C_T; an RMW on w acquires rel[w] as of its execution
//     at the master, delivered to the issuer at Verify. Wake merges
//     the waker's R_T into the sleeper at Sleep-return.
package trace

import (
	"fmt"
	"iter"
	"sort"

	"plus/internal/coherence"
	"plus/internal/memory"
	"plus/internal/stats"
)

// vclock is a dense vector clock indexed by thread slot.
type vclock []uint32

func (v *vclock) at(i int) uint32 {
	if i < len(*v) {
		return (*v)[i]
	}
	return 0
}

func (v *vclock) grow(n int) {
	for len(*v) < n {
		*v = append(*v, 0)
	}
}

func (v *vclock) join(o vclock) {
	v.grow(len(o))
	for i, c := range o {
		if c > (*v)[i] {
			(*v)[i] = c
		}
	}
}

func (v *vclock) set(i int, c uint32) {
	v.grow(i + 1)
	if c > (*v)[i] {
		(*v)[i] = c
	}
}

func (v vclock) clone() vclock { return append(vclock(nil), v...) }

// Site is one access site of a reported race.
type Site struct {
	Tid   int    `json:"tid"`
	Node  int    `json:"node"`
	Kind  string `json:"kind"` // "read", "write" or "rmw"
	At    uint64 `json:"at"`   // cycle
	Value uint32 `json:"value"`
	Index int    `json:"event"` // index into the analyzed stream
}

// Race is one unsynchronized conflicting pair on an ordinary word.
// First is the earlier access in the deterministic stream order.
type Race struct {
	Page   uint32 `json:"page"`
	Off    uint32 `json:"off"`
	First  Site   `json:"first"`
	Second Site   `json:"second"`
	// Missing names the shortest missing synchronization step: the
	// release (a fence on the first thread) if none covered the first
	// access, otherwise the acquire (a sync chain into the second).
	Missing string `json:"missing"`
}

// Report is one run's race-detection result.
type Report struct {
	Name      string `json:"name"`
	Threads   int    `json:"threads"`
	Accesses  uint64 `json:"accesses"`
	Words     int    `json:"words"`
	SyncWords int    `json:"sync_words"`
	// Dropped counts ring-overwritten events: when nonzero the stream
	// is incomplete and the analysis unsound (size the ring up).
	Dropped uint64 `json:"dropped"`
	Races   []Race `json:"races"`
}

// access is the detector's record of a data access for later pairing.
type access struct {
	tid   int
	slot  int // dense thread slot
	clk   uint32
	node  int
	at    uint64
	value uint32
	index int
	write bool
	rmw   bool
}

func (a access) site() Site {
	kind := "read"
	if a.rmw {
		kind = "rmw"
	} else if a.write {
		kind = "write"
	}
	return Site{Tid: a.tid, Node: a.node, Kind: kind, At: a.at, Value: a.value, Index: a.index}
}

// wordState is the per-(page,offset) detector state.
type wordState struct {
	rel       vclock         // release record (sync words)
	lastWrite *access        // last write (ordinary words)
	readers   map[int]access // last read per thread slot since the last write
}

// thread is one application thread's clocks.
type thread struct {
	c vclock // knowledge
	r vclock // release snapshot (last fence completion)
}

// rmwRec pairs a delayed operation's issue with its master execution.
type rmwRec struct {
	word    uint64
	deposit vclock // issuer's R at issue + the access timestamp
	mutates bool
	acq     vclock // rel[word] snapshot at execution; acquired at Verify
}

// Detector runs the happens-before analysis over one event stream.
type Detector struct {
	name    string
	slots   map[int]int // tid -> dense slot
	tids    []int       // slot -> tid
	threads []*thread
	words   map[uint64]*wordState
	sync    map[uint64]bool
	rmws    map[uint64]*rmwRec // by causal ID
	wake    map[int]vclock     // pending wake joins by tid
	seen    map[raceKey]bool
	report  *Report
}

// raceKey dedups reported pairs: one report per (word, thread pair,
// access kinds) — repeated instances of the same racy pair (a loop)
// collapse to their first occurrence.
type raceKey struct {
	word       uint64
	tidA, tidB int
	wrA, wrB   bool
}

// Analyze runs the detector over a recorded stream. dropped is the
// ring's overwritten-event count (Observer.Overwritten): nonzero means
// the stream is truncated and the result carries the Dropped flag.
// The detector walks events twice, so the sequence must yield the same
// stream each time, as Observer.All does.
func Analyze(name string, events iter.Seq[stats.Event], dropped uint64) *Report {
	d := &Detector{
		name:  name,
		slots: make(map[int]int),
		words: make(map[uint64]*wordState),
		sync:  make(map[uint64]bool),
		rmws:  make(map[uint64]*rmwRec),
		wake:  make(map[int]vclock),
		seen:  make(map[raceKey]bool),
		report: &Report{
			Name:    name,
			Dropped: dropped,
			Races:   []Race{},
		},
	}
	// Pass 1: classify words. A word is a synchronization word when any
	// delayed operation targets it or any access is sync-annotated.
	for e := range events {
		switch e.Kind {
		case stats.EvAccRMW:
			d.sync[e.A] = true
		case stats.EvAccRead, stats.EvAccWrite:
			if e.Sub == 1 {
				d.sync[e.A] = true
			}
		}
	}
	// Pass 2: vector clocks in stream order (the serial emission
	// order, deterministic and identical for any shard count).
	i := 0
	for e := range events {
		d.step(i, &e)
		i++
	}
	d.report.Threads = len(d.threads)
	d.report.Words = len(d.words)
	for w := range d.words {
		if d.sync[w] {
			d.report.SyncWords++
		}
	}
	// Stable presentation order: by word, then stream position. The
	// discovery order is already deterministic; this sort only groups
	// races by location for the reader.
	sort.SliceStable(d.report.Races, func(a, b int) bool {
		ra, rb := &d.report.Races[a], &d.report.Races[b]
		if ra.Page != rb.Page {
			return ra.Page < rb.Page
		}
		if ra.Off != rb.Off {
			return ra.Off < rb.Off
		}
		return ra.Second.Index < rb.Second.Index
	})
	return d.report
}

// slotFor interns a thread id.
func (d *Detector) slotFor(tid int) int {
	if s, ok := d.slots[tid]; ok {
		return s
	}
	s := len(d.threads)
	d.slots[tid] = s
	d.tids = append(d.tids, tid)
	d.threads = append(d.threads, &thread{})
	return s
}

func (d *Detector) wordFor(w uint64) *wordState {
	ws, ok := d.words[w]
	if !ok {
		ws = &wordState{readers: make(map[int]access)}
		d.words[w] = ws
	}
	return ws
}

// tick advances a thread's own component and returns the new access
// timestamp.
func (d *Detector) tick(slot int) uint32 {
	t := d.threads[slot]
	c := t.c.at(slot) + 1
	t.c.set(slot, c)
	return c
}

func tidOf(b uint64) int    { return int(b >> 32) }
func valOf(b uint64) uint32 { return uint32(b) }

func (d *Detector) step(index int, e *stats.Event) {
	switch e.Kind {
	case stats.EvAccRead:
		tid := tidOf(e.B)
		slot := d.slotFor(tid)
		clk := d.tick(slot)
		d.report.Accesses++
		a := access{tid: tid, slot: slot, clk: clk, node: int(e.Node),
			at: uint64(e.At), value: valOf(e.B), index: index}
		if d.sync[e.A] {
			// Acquire: the read observes the word's committed write
			// history (general coherence serializes every write to the
			// word in the same order at every copy).
			d.threads[slot].c.join(d.wordFor(e.A).rel)
			return
		}
		ws := d.wordFor(e.A)
		d.checkWrite(e.A, ws, a)
		ws.readers[slot] = a

	case stats.EvAccWrite:
		tid := tidOf(e.B)
		slot := d.slotFor(tid)
		clk := d.tick(slot)
		d.report.Accesses++
		a := access{tid: tid, slot: slot, clk: clk, node: int(e.Node),
			at: uint64(e.At), value: valOf(e.B), index: index, write: true}
		ws := d.wordFor(e.A)
		if d.sync[e.A] {
			// Release: publish R_T — everything the writer has fenced,
			// and nothing more. Crucially the write's own timestamp is
			// NOT deposited: PLUS's weak ordering lets writes to
			// different words reorder, so observing the release write
			// does not imply the writer's earlier unfenced writes are
			// visible. (The release write itself needs no ordering
			// record because sync words are exempt from reporting.)
			ws.rel.join(d.threads[slot].r)
			return
		}
		d.checkWrite(e.A, ws, a)
		d.checkReaders(e.A, ws, a)
		w := a
		ws.lastWrite = &w
		for k := range ws.readers {
			delete(ws.readers, k)
		}

	case stats.EvAccRMW:
		tid := tidOf(e.B)
		slot := d.slotFor(tid)
		d.tick(slot)
		d.report.Accesses++
		if e.Cause == 0 {
			return // untraced issue (windowed stream); no pairing
		}
		// The deposit is R_T only — like a release write, a delayed
		// operation publishes the issuer's fenced knowledge, not its
		// program order (weak ordering, see the EvAccWrite case).
		d.rmws[e.Cause] = &rmwRec{
			word:    e.A,
			deposit: d.threads[slot].r.clone(),
			mutates: !coherence.Op(e.Sub).IsRead(),
		}

	case stats.EvRMWExec:
		// Master-side serialization point: the operation joins the
		// word's release record (mutating ops deposit; every op
		// snapshots what it observed, delivered at Verify).
		rec, ok := d.rmws[e.Cause]
		if !ok {
			return
		}
		ws := d.wordFor(rec.word)
		if rec.mutates {
			ws.rel.join(rec.deposit)
		}
		rec.acq = ws.rel.clone()

	case stats.EvAccVerify:
		tid := int(e.A)
		slot := d.slotFor(tid)
		if rec, ok := d.rmws[e.Cause]; ok && rec.acq != nil {
			d.threads[slot].c.join(rec.acq)
		}

	case stats.EvAccFence:
		slot := d.slotFor(int(e.A))
		t := d.threads[slot]
		t.r = t.c.clone()

	case stats.EvAccWake:
		// The waker's released knowledge transfers to the sleeper —
		// and only that: Wake does not flush the waker's outstanding
		// writes, so un-fenced knowledge must not transfer.
		slot := d.slotFor(int(e.A))
		target := int(e.B)
		vc := d.wake[target]
		vc.join(d.threads[slot].r)
		d.wake[target] = vc

	case stats.EvAccSleep:
		tid := int(e.A)
		slot := d.slotFor(tid)
		if vc, ok := d.wake[tid]; ok {
			d.threads[slot].c.join(vc)
		}
	}
}

// checkWrite reports a race between the word's last write and access a.
func (d *Detector) checkWrite(word uint64, ws *wordState, a access) {
	lw := ws.lastWrite
	if lw == nil || lw.slot == a.slot {
		return
	}
	if lw.clk <= d.threads[a.slot].c.at(lw.slot) {
		return // ordered
	}
	d.record(word, *lw, a)
}

// checkReaders reports races between outstanding reads and write a.
func (d *Detector) checkReaders(word uint64, ws *wordState, a access) {
	// Deterministic order over the map: by slot.
	slots := make([]int, 0, len(ws.readers))
	for s := range ws.readers {
		slots = append(slots, s)
	}
	sort.Ints(slots)
	for _, s := range slots {
		r := ws.readers[s]
		if r.slot == a.slot {
			continue
		}
		if r.clk <= d.threads[a.slot].c.at(r.slot) {
			continue
		}
		d.record(word, r, a)
	}
}

// record files one race, deduplicated by (word, thread pair, kinds),
// with the shortest-missing-sync diagnosis.
func (d *Detector) record(word uint64, first, second access) {
	key := raceKey{word: word, tidA: first.tid, tidB: second.tid,
		wrA: first.write, wrB: second.write}
	if d.seen[key] {
		return
	}
	d.seen[key] = true
	missing := fmt.Sprintf(
		"no fence on t%d after its %s: the access was never released (§2.3 — a write is only globally visible once a covering fence completes)",
		first.tid, first.site().Kind)
	if first.clk <= d.threads[first.slot].r.at(first.slot) {
		missing = fmt.Sprintf(
			"released by t%d's fence but never acquired by t%d: no sync chain (RMW verify, sync-read of a released word, or wake) orders t%d after it",
			first.tid, second.tid, second.tid)
	}
	va := memory.VAddr(uint32(word))
	d.report.Races = append(d.report.Races, Race{
		Page:    uint32(va.Page()),
		Off:     va.Offset(),
		First:   first.site(),
		Second:  second.site(),
		Missing: missing,
	})
}
