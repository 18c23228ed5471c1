package stats

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"plus/internal/sim"
)

// ObservedRun names one machine's observer for the exporters, which
// read its ring, samples, histograms and topology in place: a view,
// not a copy.
type ObservedRun struct {
	Name string
	*Observer
	// Marks are named annotations pinned to cycles, rendered on a
	// dedicated per-run track (only present when non-empty, so
	// unannotated exports are unchanged). Analysis layers above stats —
	// e.g. the race detector — attach their findings here without stats
	// needing to know about them.
	Marks []Mark
}

// Mark is one annotation: an instant with a label and free-form args.
type Mark struct {
	Name string         `json:"name"`
	At   sim.Cycles     `json:"at"`
	Args map[string]any `json:"args,omitempty"`
}

// cycleMicros converts simulator cycles to trace microseconds: the
// paper's PLUS node runs at 25 MHz, so one cycle is 40 ns.
const cycleMicros = 0.04

// chromeEvent is one entry of the Chrome trace-event JSON format
// (loadable in Perfetto and chrome://tracing).
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid,omitempty"`
	S    string         `json:"s,omitempty"`
	Cat  string         `json:"cat,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// ChromeTrace writes runs to w as Chrome trace-event JSON: one process
// track per node and per directed link (every node and link gets a
// metadata entry even if it saw no traffic), stall spans and protocol
// instants on node tracks, link-occupancy spans on link tracks, and
// counter series from the time-series samples. Events stream out one
// at a time, so the export holds one event's encoding, not the file;
// the bytes are those of encoding the whole traceEvents array at once
// with a one-space indent and HTML escaping off. Wrap a file in a
// bufio.Writer: each event is its own Write.
func ChromeTrace(w io.Writer, runs []ObservedRun) error {
	// Each event is encoded with the prefix its depth in the file gives
	// it, so the pieces concatenate to the indented whole.
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false) // keep "0->1E" link labels readable
	enc.SetIndent("  ", " ")
	const head = "{\n \"traceEvents\": "
	events := 0
	var err error
	chromeEvents(runs, func(ev chromeEvent) {
		if err != nil {
			return
		}
		buf.Reset()
		if events == 0 {
			buf.WriteString(head + "[\n  ")
		} else {
			buf.WriteString(",\n  ")
		}
		events++
		if err = enc.Encode(ev); err == nil {
			_, err = w.Write(buf.Bytes()[:buf.Len()-1]) // Encode ends with a newline
		}
	})
	if err != nil {
		return err
	}
	tail := "\n ]"
	if events == 0 {
		tail = head + "null" // as a nil array encodes
	}
	_, err = io.WriteString(w, tail+",\n \"displayTimeUnit\": \"ms\"\n}\n")
	return err
}

// chromeEvents calls emit for each trace event of runs, in file order.
func chromeEvents(runs []ObservedRun, emit func(chromeEvent)) {
	base := 1
	for _, run := range runs {
		meta := run.Meta()
		nodes := meta.Nodes
		links := len(meta.Links)
		nodePid := func(n int) int { return base + n }
		linkPid := func(l int) int { return base + nodes + l }

		// Metadata: name and order every track up front so the export
		// covers the whole topology even where nothing happened.
		for n := 0; n < nodes; n++ {
			emit(chromeEvent{Name: "process_name", Ph: "M", Pid: nodePid(n),
				Args: map[string]any{"name": fmt.Sprintf("%s node %d", run.Name, n)}})
			emit(chromeEvent{Name: "process_sort_index", Ph: "M", Pid: nodePid(n),
				Args: map[string]any{"sort_index": nodePid(n)}})
		}
		for l := 0; l < links; l++ {
			emit(chromeEvent{Name: "process_name", Ph: "M", Pid: linkPid(l),
				Args: map[string]any{"name": fmt.Sprintf("%s link %s", run.Name, meta.Links[l])}})
			emit(chromeEvent{Name: "process_sort_index", Ph: "M", Pid: linkPid(l),
				Args: map[string]any{"sort_index": linkPid(l)}})
		}

		for e := range run.All() {
			ts := float64(e.At) * cycleMicros
			switch e.Kind {
			case EvStallEnd:
				// Begin/end are paired by construction (B is the stall
				// length), so the end event alone reconstructs the span —
				// robust against the ring overwriting the begin.
				dur := float64(e.B) * cycleMicros
				emit(chromeEvent{
					Name: "stall:" + StallClassName(e.Sub), Ph: "X",
					Ts: ts - dur, Dur: dur,
					Pid: nodePid(int(e.Node)), Tid: int(e.A) + 1, Cat: "stall",
					Args: map[string]any{"cycles": e.B, "thread": e.A},
				})
			case EvStallBegin:
				// Rendered via the matching EvStallEnd.
			case EvNetHop:
				l := int(e.A)
				if l >= 0 && l < links {
					emit(chromeEvent{
						Name: "xfer", Ph: "X", Ts: ts, Dur: float64(e.B) * cycleMicros,
						Pid: linkPid(l), Tid: 1, Cat: "net",
						Args: map[string]any{"cause": e.Cause, "occupancy": e.B},
					})
				}
			default:
				cat := "protocol"
				switch e.Kind {
				case EvNetInject, EvNetDeliver, EvNetNack, EvNetDrop, EvNetDup, EvNetDelay:
					cat = "net"
				case EvRetransmit, EvBackoff:
					cat = "transport"
				case EvDispatch:
					cat = "sched"
				}
				emit(chromeEvent{
					Name: e.Kind.String(), Ph: "i", Ts: ts, S: "t",
					Pid: nodePid(int(e.Node)), Tid: 1, Cat: cat,
					Args: map[string]any{"cause": e.Cause, "a": e.A, "b": e.B, "sub": e.Sub},
				})
			}
		}

		for _, s := range run.Samples() {
			ts := float64(s.At) * cycleMicros
			for l, u := range s.LinkUtil {
				if l >= links {
					break
				}
				args := map[string]any{"util": u}
				if l < len(s.LinkDepth) {
					args["depth"] = s.LinkDepth[l]
				}
				emit(chromeEvent{
					Name: "link", Ph: "C", Ts: ts, Pid: linkPid(l), Args: args,
				})
			}
			for n := 0; n < nodes; n++ {
				args := map[string]any{}
				if n < len(s.NodeBusy) {
					args["busy"] = s.NodeBusy[n]
				}
				if n < len(s.NodeReadStall) {
					args["read_stall"] = s.NodeReadStall[n]
				}
				if n < len(s.NodeWriteStall) {
					args["write_stall"] = s.NodeWriteStall[n]
				}
				if n < len(s.NodeFenceStall) {
					args["fence_stall"] = s.NodeFenceStall[n]
				}
				if n < len(s.NodeVerifyStall) {
					args["verify_stall"] = s.NodeVerifyStall[n]
				}
				if len(args) > 0 {
					emit(chromeEvent{
						Name: "cycles", Ph: "C", Ts: ts, Pid: nodePid(n), Args: args,
					})
				}
			}
		}

		// Annotation track: marks ride the reserved pid slot after the
		// links, so annotated and unannotated exports number node and
		// link tracks identically.
		if len(run.Marks) > 0 {
			markPid := base + nodes + links
			emit(chromeEvent{Name: "process_name", Ph: "M", Pid: markPid,
				Args: map[string]any{"name": run.Name + " races"}})
			emit(chromeEvent{Name: "process_sort_index", Ph: "M", Pid: markPid,
				Args: map[string]any{"sort_index": markPid}})
			for _, mk := range run.Marks {
				emit(chromeEvent{
					Name: mk.Name, Ph: "i", Ts: float64(mk.At) * cycleMicros, S: "p",
					Pid: markPid, Tid: 1, Cat: "race", Args: mk.Args,
				})
			}
		}

		base += nodes + links + 1
	}
}

// ValidateChromeTrace reads trace JSON from r, decoding one
// traceEvents element at a time, and returns the number of trace
// events, rejecting empty or malformed input: the file must be one
// JSON object whose traceEvents array is non-empty and whose every
// element has a ph and a pid. plusbench runs this on every -trace
// export (and `make trace-smoke` on a known-good run).
func ValidateChromeTrace(r io.Reader) (int, error) {
	dec := json.NewDecoder(r)
	bad := func(err error) (int, error) {
		return 0, fmt.Errorf("chrome trace does not parse: %w", err)
	}
	delim := func(want json.Delim) error {
		tok, err := dec.Token()
		if err == nil && tok != want {
			err = fmt.Errorf("found %v where %v belongs", tok, want)
		}
		return err
	}
	if err := delim('{'); err != nil {
		return bad(err)
	}
	n := 0
	for dec.More() {
		key, err := dec.Token()
		if err != nil {
			return bad(err)
		}
		if key != "traceEvents" {
			var skip json.RawMessage
			if err := dec.Decode(&skip); err != nil {
				return bad(err)
			}
			continue
		}
		if err := delim('['); err != nil {
			return bad(err)
		}
		for ; dec.More(); n++ {
			// Only presence is checked, so the two fields are kept raw
			// and the rest is scanned without being built.
			var ev struct {
				Ph  json.RawMessage `json:"ph"`
				Pid json.RawMessage `json:"pid"`
			}
			if err := dec.Decode(&ev); err != nil {
				return bad(err)
			}
			if ev.Ph == nil {
				return 0, fmt.Errorf("traceEvents[%d] missing ph", n)
			}
			if ev.Pid == nil {
				return 0, fmt.Errorf("traceEvents[%d] missing pid", n)
			}
		}
		if err := delim(']'); err != nil {
			return bad(err)
		}
	}
	if err := delim('}'); err != nil {
		return bad(err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return bad(fmt.Errorf("data after the trace object"))
	}
	if n == 0 {
		return 0, fmt.Errorf("chrome trace has no traceEvents")
	}
	return n, nil
}
