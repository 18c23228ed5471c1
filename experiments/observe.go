// Observation plumbs the structured-event layer (internal/stats)
// through the sweep runner: one fresh Observer per sweep point,
// collected under the point's name so exports are ordered by name —
// independent of worker scheduling — and serial and parallel sweeps
// emit byte-identical traces.
package experiments

import (
	"slices"
	"strings"
	"sync"

	"plus/internal/core"
	"plus/internal/stats"
)

// Observation instruments a sweep: every point that consults it gets a
// private stats.Observer built from Config, registered under the
// point's name. A nil *Observation is valid everywhere and means
// "observation off" — the sweep runs exactly as before, with every hot
// path allocation-free.
type Observation struct {
	// Config is the per-point observer template (ring size, trace
	// window, sample interval, engine events).
	Config stats.ObserveConfig

	mu   sync.Mutex
	runs map[string]*stats.Observer
}

// NewObservation returns an empty collector building observers from
// cfg.
func NewObservation(cfg stats.ObserveConfig) *Observation {
	return &Observation{Config: cfg}
}

// ObserverFor creates, registers and returns a fresh observer for the
// named sweep point (nil when observation is off). Safe for concurrent
// use by the worker pool; point names must be unique, which the sweep
// builders guarantee.
func (ob *Observation) ObserverFor(name string) *stats.Observer {
	if ob == nil {
		return nil
	}
	o := stats.NewObserver(ob.Config)
	ob.mu.Lock()
	if ob.runs == nil {
		ob.runs = make(map[string]*stats.Observer)
	}
	ob.runs[name] = o
	ob.mu.Unlock()
	return o
}

// Attach instruments a machine config in place with a fresh observer
// for the named point; a nil Observation is a no-op.
func (ob *Observation) Attach(cfg *core.Config, name string) {
	if ob == nil {
		return
	}
	cfg.Observe = ob.ObserverFor(name)
}

// MachineFor returns a default machine config on a w x h mesh, carrying
// a fresh observer for the named point when observation is on: the
// apps' Machine override field, on which a point sets its knobs.
func (ob *Observation) MachineFor(name string, w, h int) *core.Config {
	cfg := core.DefaultConfig(w, h)
	ob.Attach(&cfg, name)
	return &cfg
}

// Runs returns one ObservedRun per instrumented point, sorted by point
// name: the order depends only on the sweep's point set, never on
// worker scheduling, so -parallel 1 and -parallel N export identical
// traces. Each run is a view of its point's observer; no ring is
// copied. Call after the sweep completes.
func (ob *Observation) Runs() []stats.ObservedRun {
	if ob == nil {
		return nil
	}
	ob.mu.Lock()
	defer ob.mu.Unlock()
	out := make([]stats.ObservedRun, 0, len(ob.runs))
	for name, o := range ob.runs {
		out = append(out, stats.ObservedRun{Name: name, Observer: o})
	}
	slices.SortFunc(out, func(a, b stats.ObservedRun) int { return strings.Compare(a.Name, b.Name) })
	return out
}

// Metrics merges every instrumented point's latency histograms.
func (ob *Observation) Metrics() stats.Metrics {
	var m stats.Metrics
	for _, r := range ob.Runs() {
		m.Add(&r.Metrics)
	}
	return m
}
