package experiments

import (
	"fmt"

	"plus/apps/sssp"
	"plus/internal/mesh"
	"plus/internal/sim"
)

// LinkbufRow is one router-buffer depth of the backpressure sweep:
// SSSP on the full 8x8 mesh with link contention on, bounded per-link
// buffers bouncing overflow back to senders as NACKs, and the
// reliability sublayer absorbing the stalls. Sweeping the depth down
// from unlimited locates the knee where bounded buffering starts to
// cost real time.
type LinkbufRow struct {
	BufFlits    int        `json:"buf_flits"` // 0 = unlimited buffering
	Elapsed     sim.Cycles `json:"elapsed_cycles"`
	Messages    uint64     `json:"messages"`
	Nacked      uint64     `json:"nacked"`
	TransStalls uint64     `json:"trans_stalls"`
	QueueWait   sim.Cycles `json:"queue_wait"`
	// Slowdown is Elapsed / Elapsed(unlimited).
	Slowdown float64 `json:"slowdown"`
}

// linkbufPoints sweeps the per-link buffer bound under contention.
func linkbufPoints(o Options) []Point[LinkbufRow] {
	vertices := 2048
	depths := []int{0, 64, 32, 16, 8, 4, 2}
	if o.Quick {
		vertices = 256
		depths = []int{0, 16, 4}
	}
	var pts []Point[LinkbufRow]
	for _, d := range depths {
		name := fmt.Sprintf("linkbuf flits=%d", d)
		pts = append(pts, Point[LinkbufRow]{
			Name: name,
			Run: func() (LinkbufRow, error) {
				mcfg := o.machine(name, 8, 8)
				mcfg.NetContention = true
				mcfg.Faults = mesh.FaultConfig{LinkBufFlits: d}
				res, err := sssp.Run(sssp.Config{
					MeshW: 8, MeshH: 8, Procs: 64,
					Vertices: vertices, Degree: 4, Seed: 42,
					Copies: 4, Validate: true,
					Machine: mcfg,
				})
				if err != nil {
					return LinkbufRow{}, err
				}
				return LinkbufRow{
					BufFlits:    d,
					Elapsed:     res.Elapsed,
					Messages:    res.Messages,
					Nacked:      res.Net.Nacked,
					TransStalls: res.Reliability.TransStalls,
					QueueWait:   res.Net.QueueWait,
				}, nil
			},
		})
	}
	return pts
}

// fillLinkbufSlowdown normalizes elapsed time against the unlimited-
// buffer row of the same sweep.
func fillLinkbufSlowdown(rows []LinkbufRow) []LinkbufRow {
	var base sim.Cycles
	for _, r := range rows {
		if r.BufFlits == 0 {
			base = r.Elapsed
		}
	}
	if base == 0 {
		return rows
	}
	for i := range rows {
		rows[i].Slowdown = float64(rows[i].Elapsed) / float64(base)
	}
	return rows
}

// FormatLinkbuf renders the backpressure sweep.
func FormatLinkbuf(rows []LinkbufRow) string {
	return renderTable(
		"Link-buffer depth vs backpressure: SSSP, 8x8 mesh, contention on (0 = unlimited)",
		[]col{{"BufFlits", -9}, {"Elapsed", 12}, {"Messages", 10}, {"NACKs", 9},
			{"Stalls", 9}, {"QueueWait", 11}, {"Slowdown", 9}},
		cells(rows, func(r LinkbufRow) []string {
			return []string{
				fmt.Sprint(r.BufFlits),
				fmt.Sprint(r.Elapsed),
				fmt.Sprint(r.Messages),
				fmt.Sprint(r.Nacked),
				fmt.Sprint(r.TransStalls),
				fmt.Sprint(r.QueueWait),
				fmt.Sprintf("%.3f", r.Slowdown),
			}
		}))
}
