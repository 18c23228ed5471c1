package stats

import (
	"bytes"
	"encoding/json"
	"fmt"

	"plus/internal/sim"
)

// ObservedRun packages one machine's observability output for the
// exporters: the event stream, samples, histograms, and the topology
// they refer to.
type ObservedRun struct {
	Name    string    `json:"name"`
	Meta    TraceMeta `json:"meta"`
	Events  []Event   `json:"-"`
	Samples []Sample  `json:"samples,omitempty"`
	Metrics Metrics   `json:"metrics"`
	// Marks are named annotations pinned to cycles, rendered on a
	// dedicated per-run track (only present when non-empty, so
	// unannotated exports are unchanged). Analysis layers above stats —
	// e.g. the race detector — attach their findings here without stats
	// needing to know about them.
	Marks []Mark `json:"marks,omitempty"`
}

// Mark is one annotation: an instant with a label and free-form args.
type Mark struct {
	Name string         `json:"name"`
	At   sim.Cycles     `json:"at"`
	Args map[string]any `json:"args,omitempty"`
}

// ObservedRunFrom snapshots an observer into an exportable run record.
func ObservedRunFrom(name string, o *Observer) ObservedRun {
	return ObservedRun{
		Name:    name,
		Meta:    o.Meta(),
		Events:  o.Events(),
		Samples: o.Samples(),
		Metrics: o.Metrics,
	}
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

type chromeTraceFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// ChromeTrace renders runs as Chrome trace-event JSON: one process
// track per node and per directed link (every node and link gets a
// metadata entry even if it saw no traffic), stall spans and protocol
// instants on node tracks, link-occupancy spans on link tracks, and
// counter series from the time-series samples.
func ChromeTrace(runs []ObservedRun) ([]byte, error) {
	var evs []chromeEvent
	base := 1
	for _, run := range runs {
		nodes := run.Meta.Nodes
		links := len(run.Meta.Links)
		nodePid := func(n int) int { return base + n }
		linkPid := func(l int) int { return base + nodes + l }

		// Metadata: name and order every track up front so the export
		// covers the whole topology even where nothing happened.
		for n := 0; n < nodes; n++ {
			evs = append(evs,
				chromeEvent{Name: "process_name", Ph: "M", Pid: nodePid(n),
					Args: map[string]any{"name": fmt.Sprintf("%s node %d", run.Name, n)}},
				chromeEvent{Name: "process_sort_index", Ph: "M", Pid: nodePid(n),
					Args: map[string]any{"sort_index": nodePid(n)}})
		}
		for l := 0; l < links; l++ {
			evs = append(evs,
				chromeEvent{Name: "process_name", Ph: "M", Pid: linkPid(l),
					Args: map[string]any{"name": fmt.Sprintf("%s link %s", run.Name, run.Meta.Links[l])}},
				chromeEvent{Name: "process_sort_index", Ph: "M", Pid: linkPid(l),
					Args: map[string]any{"sort_index": linkPid(l)}})
		}

		for _, e := range run.Events {
			ts := float64(e.At) * cycleMicros
			switch e.Kind {
			case EvStallEnd:
				// Begin/end are paired by construction (B is the stall
				// length), so the end event alone reconstructs the span —
				// robust against the ring overwriting the begin.
				dur := float64(e.B) * cycleMicros
				evs = append(evs, chromeEvent{
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
					evs = append(evs, chromeEvent{
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
				evs = append(evs, chromeEvent{
					Name: e.Kind.String(), Ph: "i", Ts: ts, S: "t",
					Pid: nodePid(int(e.Node)), Tid: 1, Cat: cat,
					Args: map[string]any{"cause": e.Cause, "a": e.A, "b": e.B, "sub": e.Sub},
				})
			}
		}

		for _, s := range run.Samples {
			ts := float64(s.At) * cycleMicros
			for l, u := range s.LinkUtil {
				if l >= links {
					break
				}
				args := map[string]any{"util": u}
				if l < len(s.LinkDepth) {
					args["depth"] = s.LinkDepth[l]
				}
				evs = append(evs, chromeEvent{
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
					evs = append(evs, chromeEvent{
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
			evs = append(evs,
				chromeEvent{Name: "process_name", Ph: "M", Pid: markPid,
					Args: map[string]any{"name": run.Name + " races"}},
				chromeEvent{Name: "process_sort_index", Ph: "M", Pid: markPid,
					Args: map[string]any{"sort_index": markPid}})
			for _, mk := range run.Marks {
				evs = append(evs, chromeEvent{
					Name: mk.Name, Ph: "i", Ts: float64(mk.At) * cycleMicros, S: "p",
					Pid: markPid, Tid: 1, Cat: "race", Args: mk.Args,
				})
			}
		}

		base += nodes + links + 1
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false) // keep "0->1E" link labels readable
	enc.SetIndent("", " ")
	if err := enc.Encode(chromeTraceFile{TraceEvents: evs, DisplayTimeUnit: "ms"}); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// ValidateChromeTrace round-trips trace JSON through encoding/json and
// returns the number of trace events, rejecting empty or malformed
// files. plusbench runs this on every -trace export (and `make
// trace-smoke` on a known-good run).
func ValidateChromeTrace(data []byte) (int, error) {
	var f struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return 0, fmt.Errorf("chrome trace does not parse: %w", err)
	}
	if len(f.TraceEvents) == 0 {
		return 0, fmt.Errorf("chrome trace has no traceEvents")
	}
	for i, ev := range f.TraceEvents {
		if _, ok := ev["ph"]; !ok {
			return 0, fmt.Errorf("traceEvents[%d] missing ph", i)
		}
		if _, ok := ev["pid"]; !ok {
			return 0, fmt.Errorf("traceEvents[%d] missing pid", i)
		}
	}
	return len(f.TraceEvents), nil
}
