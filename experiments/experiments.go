// Package experiments regenerates every table and figure of the PLUS
// paper's evaluation, plus the ablations called out in DESIGN.md.
//
// Every experiment is expressed as a sweep of Points — independent
// single-threaded simulations — executed by RunPoints on a bounded
// worker pool and rendered through one shared table renderer. The
// registry in registry.go is the one way to run any of them
// (Lookup(name).Run): cmd/plusbench, the tests and the benchmarks all
// go through it and read the same typed rows. Serial and parallel
// executions are byte-identical by construction: each point builds a
// private machine (its own sim.Engine) and results return in point
// order.
package experiments

import (
	"fmt"

	"plus/apps/beam"
	"plus/apps/sssp"
	"plus/internal/core"
	"plus/internal/sim"
)

// machine returns a sweep point's machine config: a default config on
// a w x h mesh, carrying a fresh observer for the named point when
// observing and Options.Shards when the count tiles the mesh. Every
// sweep builds its machines here, so every sweep honours Shards; a
// point whose mesh the count does not tile runs serially. Contention,
// observation, faults and kernel ops are shard-aware (see
// internal/core.Config.Shards), so none forces a point serial.
func (o Options) machine(name string, w, h int) *core.Config {
	mc := core.DefaultConfig(w, h)
	mc.Observe = o.Observe.ObserverFor(name)
	if o.Shards > 1 && o.Shards <= w*h && (w*h)%o.Shards == 0 {
		mc.Shards = o.Shards
	}
	return &mc
}

// meshFor returns a near-square mesh holding at least p nodes.
func meshFor(p int) (w, h int) {
	switch {
	case p <= 1:
		return 1, 1
	case p <= 2:
		return 2, 1
	case p <= 4:
		return 2, 2
	case p <= 8:
		return 4, 2
	case p <= 16:
		return 4, 4
	case p <= 32:
		return 8, 4
	default:
		return 8, 8
	}
}

// --- Table 2-1: Effect of Replication on Messages ----------------------

// Table21Row is one replication level of Table 2-1.
type Table21Row struct {
	Copies      int        `json:"copies"`
	ReadRatio   float64    `json:"read_ratio"`   // reads local/remote
	WriteRatio  float64    `json:"write_ratio"`  // writes local/remote
	UpdateRatio float64    `json:"update_ratio"` // total messages / update messages
	Messages    uint64     `json:"messages"`
	Updates     uint64     `json:"updates"`
	Elapsed     sim.Cycles `json:"elapsed_cycles"`
}

// table21Points builds the five replication levels of Table 2-1 (the
// paper's "the 16-processor case of Figure 2-1"): SSSP on 16
// processors at copies 1..5.
func table21Points(o Options) []Point[Table21Row] {
	vertices := 1024
	if o.Quick {
		vertices = 256
	}
	var pts []Point[Table21Row]
	for copies := 1; copies <= 5; copies++ {
		name := fmt.Sprintf("table 2-1 copies=%d", copies)
		pts = append(pts, Point[Table21Row]{
			Name: name,
			Run: func() (Table21Row, error) {
				res, err := sssp.Run(sssp.Config{
					MeshW: 4, MeshH: 4, Procs: 16,
					Vertices: vertices, Degree: 4, Seed: 42,
					Copies: copies, Validate: true,
					Machine: o.machine(name, 4, 4),
				})
				if err != nil {
					return Table21Row{}, err
				}
				return Table21Row{
					Copies:      copies,
					ReadRatio:   res.ReadRatio,
					WriteRatio:  res.WriteRatio,
					UpdateRatio: res.UpdateRatio,
					Messages:    res.Messages,
					Updates:     res.Updates,
					Elapsed:     res.Elapsed,
				}, nil
			},
		})
	}
	return pts
}

// FormatTable21 renders rows like the paper's Table 2-1.
func FormatTable21(rows []Table21Row) string {
	return renderTable("Table 2-1: Effect of Replication on Messages (SSSP, 16 procs)",
		[]col{{"Copies", -8}, {"Reads L/R", 12}, {"Writes L/R", 12},
			{"Total/Upd", 12}, {"Messages", 10}, {"Elapsed", 10}},
		cells(rows, func(r Table21Row) []string {
			upd := "-"
			if r.Updates > 0 {
				upd = fmt.Sprintf("%.2f", r.UpdateRatio)
			}
			return []string{
				fmt.Sprint(r.Copies),
				fmt.Sprintf("%.2f", r.ReadRatio),
				fmt.Sprintf("%.2f", r.WriteRatio),
				upd,
				fmt.Sprint(r.Messages),
				fmt.Sprint(r.Elapsed),
			}
		}))
}

// --- Figure 2-1: SSSP efficiency & utilization vs processors -----------

// Fig21Point is one (processors, replication) sample.
type Fig21Point struct {
	Procs       int        `json:"procs"`
	Replicated  bool       `json:"replicated"`
	Copies      int        `json:"copies"`
	Elapsed     sim.Cycles `json:"elapsed_cycles"`
	Efficiency  float64    `json:"efficiency"`
	Utilization float64    `json:"utilization"`
}

// figure21Points sweeps processors with and without replication; with
// contention it is the ROADMAP's Figure 2-1-style contention-on sweep
// (NetContention, 8x8 mesh at the full 64 processors). Efficiency is
// filled in afterwards by fillFig21Efficiency from the p=1 point of
// the same sweep, so the normalization base shares the contention
// setting.
func figure21Points(o Options, contention bool) []Point[Fig21Point] {
	vertices := 1024
	maxP := o.MaxProcs
	if maxP == 0 {
		maxP = 64
	}
	if o.Quick {
		vertices = 256
		if o.MaxProcs == 0 {
			maxP = 16
		}
	}
	var pts []Point[Fig21Point]
	for _, p := range []int{1, 2, 4, 8, 16, 32, 64} {
		if p > maxP {
			break
		}
		for _, repl := range []bool{false, true} {
			copies := 1
			if repl {
				copies = p
				if copies > 4 {
					copies = 4
				}
			}
			if p == 1 && repl {
				continue // replication is meaningless on one node
			}
			name := fmt.Sprintf("figure 2-1 p=%d copies=%d contention=%v", p, copies, contention)
			pts = append(pts, Point[Fig21Point]{
				Name: name,
				Run: func() (Fig21Point, error) {
					w, h := meshFor(p)
					mc := o.machine(name, w, h)
					mc.NetContention = contention
					res, err := sssp.Run(sssp.Config{
						MeshW: w, MeshH: h, Procs: p,
						Vertices: vertices, Degree: 4, Seed: 42,
						Copies: copies, Validate: true,
						Machine: mc,
					})
					if err != nil {
						return Fig21Point{}, err
					}
					return Fig21Point{
						Procs:       p,
						Replicated:  repl,
						Copies:      copies,
						Elapsed:     res.Elapsed,
						Utilization: res.Utilization,
					}, nil
				},
			})
		}
	}
	return pts
}

// fillFig21Efficiency computes T(1)/(P·T(P)) against the sweep's own
// unreplicated single-processor point, exactly as the serial driver
// measured its baseline with a separate identical run.
func fillFig21Efficiency(pts []Fig21Point) []Fig21Point {
	var t1 float64
	for _, p := range pts {
		if p.Procs == 1 && !p.Replicated {
			t1 = float64(p.Elapsed)
			break
		}
	}
	for i := range pts {
		pts[i].Efficiency = t1 / (float64(pts[i].Procs) * float64(pts[i].Elapsed))
	}
	return pts
}

func formatFig21(title string, pts []Fig21Point) string {
	return renderTable(title,
		[]col{{"Procs", -6}, {"Replication", -12}, {"Copies", -7},
			{"Elapsed", 12}, {"Efficiency", 12}, {"Utilization", 12}},
		cells(pts, func(p Fig21Point) []string {
			mode := "none"
			if p.Replicated {
				mode = "replicated"
			}
			return []string{
				fmt.Sprint(p.Procs), mode, fmt.Sprint(p.Copies),
				fmt.Sprint(p.Elapsed),
				fmt.Sprintf("%.3f", p.Efficiency),
				fmt.Sprintf("%.3f", p.Utilization),
			}
		}))
}

// FormatFigure21 renders the two curves of Figure 2-1 as a table.
func FormatFigure21(pts []Fig21Point) string {
	return formatFig21("Figure 2-1: SSSP efficiency and utilization vs processors", pts)
}

// FormatFigure21Contention renders the contention-on sweep.
func FormatFigure21Contention(pts []Fig21Point) string {
	return formatFig21("Figure 2-1 under link contention: SSSP efficiency and utilization vs processors", pts)
}

// --- Figure 3-1: beam search efficiency by synchronization style -------

// Fig31Point is one (processors, style) sample.
type Fig31Point struct {
	Procs      int        `json:"procs"`
	Label      string     `json:"style"`
	Elapsed    sim.Cycles `json:"elapsed_cycles"`
	Efficiency float64    `json:"efficiency"`
}

type fig31Style struct {
	label string
	style beam.Style
	cost  sim.Cycles
}

func fig31Styles() []fig31Style {
	return []fig31Style{
		{"blocking", beam.Blocking, 0},
		{"delayed", beam.Delayed, 0},
		{"cs-16", beam.ContextSwitch, 16},
		{"cs-40", beam.ContextSwitch, 40},
		{"cs-140", beam.ContextSwitch, 140},
	}
}

// figure31Points sweeps beam search over processors for the five
// curves of Figure 3-1: blocking synchronization, delayed operations,
// and context switching at 16/40/140 cycles.
func figure31Points(o Options) []Point[Fig31Point] {
	layers, states := 32, 96
	maxP := o.MaxProcs
	if maxP == 0 {
		maxP = 64
	}
	if o.Quick {
		layers, states = 16, 48
		if o.MaxProcs == 0 {
			maxP = 8
		}
	}
	var pts []Point[Fig31Point]
	for _, p := range []int{1, 2, 4, 8, 16, 32, 64} {
		if p > maxP {
			break
		}
		for _, st := range fig31Styles() {
			name := fmt.Sprintf("figure 3-1 p=%d %s", p, st.label)
			pts = append(pts, Point[Fig31Point]{
				Name: name,
				Run: func() (Fig31Point, error) {
					w, h := meshFor(p)
					res, err := beam.Run(beam.Config{
						MeshW: w, MeshH: h, Procs: p,
						Layers: layers, States: states, Branch: 3,
						Style: st.style, SwitchCost: st.cost,
						Validate: true,
						Machine:  o.machine(name, w, h),
					})
					if err != nil {
						return Fig31Point{}, err
					}
					return Fig31Point{Procs: p, Label: st.label, Elapsed: res.Elapsed}, nil
				},
			})
		}
	}
	return pts
}

// fillFig31Efficiency normalizes every curve to the blocking
// single-processor point, as the paper normalizes to the sequential
// execution.
func fillFig31Efficiency(pts []Fig31Point) []Fig31Point {
	var t1 float64
	for _, p := range pts {
		if p.Procs == 1 && p.Label == "blocking" {
			t1 = float64(p.Elapsed)
			break
		}
	}
	for i := range pts {
		pts[i].Efficiency = t1 / (float64(pts[i].Procs) * float64(pts[i].Elapsed))
	}
	return pts
}

// FormatFigure31 renders the five curves of Figure 3-1.
func FormatFigure31(pts []Fig31Point) string {
	return renderTable("Figure 3-1: Beam search efficiency vs processors by sync style",
		[]col{{"Procs", -6}, {"Style", -10}, {"Elapsed", 12}, {"Efficiency", 12}},
		cells(pts, func(p Fig31Point) []string {
			return []string{
				fmt.Sprint(p.Procs), p.Label,
				fmt.Sprint(p.Elapsed), fmt.Sprintf("%.3f", p.Efficiency),
			}
		}))
}

// --- Ablations ----------------------------------------------------------

// AblationRow is one configuration of an ablation sweep.
type AblationRow struct {
	Label    string     `json:"label"`
	Elapsed  sim.Cycles `json:"elapsed_cycles"`
	Messages uint64     `json:"messages"`
	Extra    string     `json:"notes,omitempty"`
}

// FormatAblation renders a sweep.
func FormatAblation(title string, rows []AblationRow) string {
	return renderTable(title,
		[]col{{"Config", -28}, {"Elapsed", 12}, {"Messages", 10}, {"Notes", -1}},
		cells(rows, func(r AblationRow) []string {
			return []string{r.Label, fmt.Sprint(r.Elapsed), fmt.Sprint(r.Messages), r.Extra}
		}))
}
