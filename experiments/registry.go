package experiments

import (
	"fmt"
	"strings"
)

// Result is the uniform outcome of one registered experiment: the
// typed rows (marshaled verbatim by `plusbench -json`), the rendered
// table, the optional ASCII chart, and the number of sweep points the
// runner executed. Everything in it is deterministic except the scale
// experiment's wall-clock columns.
type Result struct {
	Name   string `json:"experiment"`
	Title  string `json:"title"`
	Points int    `json:"points"`
	// Shards is the effective shard count the sweep's points ran with
	// (1 = serial engines), so archived JSON rows record which engine
	// mode produced them. Points whose mesh the count does not tile
	// fall back to serial individually; the scale experiment sweeps
	// shard counts per-row (see ScaleRow.Shards).
	Shards int    `json:"shards"`
	Rows   any    `json:"rows"`
	Table  string `json:"-"`
	Chart  string `json:"-"`
}

// Experiment is one registered sweep: a stable name for -exp, a title
// for listings, and the uniform entry point every experiment shares.
type Experiment struct {
	Name  string
	Title string
	Run   func(Options) (*Result, error)
}

// newExperiment wires a typed point-sweep experiment into the uniform
// registry shape: build points, run them on the worker pool, post-
// process rows (nil post = identity), render through the shared
// renderer.
func newExperiment[T any](name, title string,
	points func(Options) []Point[T],
	post func([]T) []T,
	format func([]T) string,
	chart func([]T) string) Experiment {
	return Experiment{
		Name:  name,
		Title: title,
		Run: func(o Options) (*Result, error) {
			pts := points(o)
			rows, err := RunPoints(pts, o.Workers)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			if post != nil {
				rows = post(rows)
			}
			res := &Result{Name: name, Title: title, Points: len(pts),
				Shards: o.EffectiveShards(), Rows: rows, Table: format(rows)}
			if chart != nil {
				res.Chart = chart(rows)
			}
			return res, nil
		},
	}
}

// registry lists every experiment in `-exp all` order. It is built
// once at init and never mutated, so concurrent Runs are safe.
var registry = []Experiment{
	newExperiment("table2-1", "Table 2-1: effect of replication on messages",
		table21Points, nil, FormatTable21, nil),
	newExperiment("figure2-1", "Figure 2-1: SSSP efficiency & utilization vs processors",
		func(o Options) []Point[Fig21Point] { return figure21Points(o, false) },
		fillFig21Efficiency, FormatFigure21, ChartFigure21),
	newExperiment("figure2-1-contention", "Figure 2-1 under link contention (8x8 mesh, 64 procs)",
		func(o Options) []Point[Fig21Point] { return figure21Points(o, true) },
		fillFig21Efficiency, FormatFigure21Contention, ChartFigure21),
	newExperiment("table3-1", "Table 3-1: delayed-operation execution cycles",
		table31Points, nil, FormatTable31, nil),
	newExperiment("figure3-1", "Figure 3-1: beam-search efficiency by synchronization style",
		figure31Points, fillFig31Efficiency, FormatFigure31, ChartFigure31),
	newExperiment("costs", "Section 3.1 cost anatomy vs hop distance",
		costsPoints, nil, FormatCosts, nil),
	ablationExperiment("ablation-fence", "Ablation: explicit fence vs fence-at-every-sync", fenceSweep.points),
	ablationExperiment("ablation-invalidate", "Ablation: write-update vs write-invalidate", invalidateSweep.points),
	ablationExperiment("ablation-pending-writes", "Ablation: pending-writes cache depth", pendingWritesPoints),
	ablationExperiment("ablation-delayed-slots", "Ablation: delayed-operations cache depth", delayedSlotsPoints),
	ablationExperiment("ablation-contention", "Ablation: network contention model", contentionSweep.points),
	ablationExperiment("ablation-competitive", "Ablation: competitive replication threshold", competitiveSweep.points),
	ablationExperiment("ablation-batching", "Ablation: write-combining depth (MaxBatchWrites)", batchingSweep.points),
	ablationExperiment("ext-swdsm", "Extension: PLUS vs software shared virtual memory (§4)", swdsmPoints),
	placementExperiment("ext-placement", "Extension: profile-guided placement (§2.4 second mode)"),
	newExperiment("faults", "Fault sweep: SSSP under message loss, duplication & delay",
		faultPoints, fillFaultSlowdown, FormatFaultSweep, nil),
	newExperiment("fault-crash", "Fault-crash sweep: node crashes with replicated-master failover",
		crashPoints, fillCrashSlowdown, FormatFaultCrash, nil),
	scaleExperiment(),
	newExperiment("ext-linkbuf", "Extension: link-buffer depth vs backpressure (8x8, contention)",
		linkbufPoints, fillLinkbufSlowdown, FormatLinkbuf, nil),
	newExperiment("kvserve-sweep", "Serving workload: Zipfian record store tail latency (skew x mesh x placement)",
		kvservePoints, nil, FormatKvserve, nil),
}

// ablationExperiment builds a registry entry for a sweep whose rows
// are AblationRows rendered under the experiment's title.
func ablationExperiment(name, title string, points func(Options) []Point[AblationRow]) Experiment {
	return newExperiment(name, title, points, nil,
		func(rows []AblationRow) string { return FormatAblation(title, rows) }, nil)
}

// placementExperiment wires the profile-guided placement pipeline in
// as a single sweep point: run 2 consumes run 1's reference counters,
// so its two rows cannot be independent points.
func placementExperiment(name, title string) Experiment {
	return Experiment{
		Name:  name,
		Title: title,
		Run: func(o Options) (*Result, error) {
			rows, err := profilePlacement(o)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			return &Result{Name: name, Title: title, Points: 1,
				Shards: o.EffectiveShards(), Rows: rows,
				Table: FormatAblation(title, rows)}, nil
		},
	}
}

// ablationGroup is the `-exp ablations` alias: the six design-decision
// sweeps plus the two extension experiments, as the old plusbench ran.
var ablationGroup = []string{
	"ablation-fence", "ablation-invalidate", "ablation-pending-writes",
	"ablation-delayed-slots", "ablation-contention", "ablation-competitive",
	"ablation-batching", "ext-swdsm", "ext-placement",
}

// Registered returns every experiment in `-exp all` order.
func Registered() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	return out
}

// Lookup finds a registered experiment by name.
func Lookup(name string) (Experiment, bool) {
	for _, e := range registry {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// Select resolves a -exp spec — "all", the "ablations" group, a single
// name, or a comma-separated list — to experiments in registry order
// for "all"/"ablations" and spec order otherwise.
func Select(spec string) ([]Experiment, error) {
	var out []Experiment
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		switch name {
		case "":
			continue
		case "all":
			out = append(out, Registered()...)
		case "ablations":
			for _, n := range ablationGroup {
				e, _ := Lookup(n)
				out = append(out, e)
			}
		default:
			e, ok := Lookup(name)
			if !ok {
				return nil, fmt.Errorf("unknown experiment %q (run -list for the registry)", name)
			}
			out = append(out, e)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty experiment selection %q", spec)
	}
	return out, nil
}
