package experiments

import (
	"fmt"

	"plus/apps/sssp"
	"plus/internal/mesh"
	"plus/internal/sim"
)

// --- Fault sweep: protocol robustness under an unreliable network ------

// FaultRow is one fault-mix sample of the fault sweep: the Figure 2-1
// workload (replicated SSSP) re-run with the deterministic fault
// injector losing, duplicating or delaying a fraction of all network
// messages, every fault repaired by the reliability sublayer. The
// sweep covers the 4x4/16-processor machine across drop rates and the
// 8x8/64-processor machine across drop/dup/delay mixes.
type FaultRow struct {
	// Mesh labels the machine ("4x4" or "8x8").
	Mesh string `json:"mesh"`
	// DropPct, DupPct and DelayPct are the loss, duplication and delay
	// rates in percent.
	DropPct  float64 `json:"drop_pct"`
	DupPct   float64 `json:"dup_pct"`
	DelayPct float64 `json:"delay_pct"`
	// Elapsed is the run time in cycles; Slowdown normalizes it to the
	// fault-free run on the same mesh.
	Elapsed  sim.Cycles `json:"elapsed_cycles"`
	Slowdown float64    `json:"slowdown"`
	// Messages counts protocol messages (transport acks included);
	// Dropped, Retransmits and TransportAcks are the fault/repair
	// tallies behind the slowdown.
	Messages      uint64 `json:"messages"`
	Dropped       uint64 `json:"dropped"`
	Retransmits   uint64 `json:"retransmits"`
	TransportAcks uint64 `json:"transport_acks"`
	// TransDups, TransGaps and TransStalls detail the reliability
	// sublayer's duplicate-drop, gap-drop and back-pressure activity
	// (JSON rows only; the rendered table keeps its shape).
	TransDups   uint64 `json:"trans_dups"`
	TransGaps   uint64 `json:"trans_gaps"`
	TransStalls uint64 `json:"trans_stalls"`
}

// faultMix is one injector configuration of the sweep: a mesh size and
// a drop/dup/delay mix.
type faultMix struct {
	w, h  int
	procs int
	f     mesh.FaultConfig
}

// faultPoints runs SSSP across fault mixes, with the runtime invariant
// checker verifying the protocol's coherence structures throughout:
// the 4x4/16-processor replicated Figure 2-1 point across message drop
// rates 0, 0.1 %, 1 % and 5 %, then the 8x8/64-processor machine
// under drop/dup/delay mixes, where four times the nodes and
// longer paths give every fault class more protocol state to corrupt.
// Each run validates its distances against Dijkstra, so a row in the
// output is end-to-end evidence the protocol survived that mix.
// Slowdown is normalized afterwards by fillFaultSlowdown against the
// sweep's own fault-free point on the same mesh.
func faultPoints(o Options) []Point[FaultRow] {
	vertices := 1024
	if o.Quick {
		vertices = 256
	}
	var mixes []faultMix
	for _, rate := range []float64{0, 0.001, 0.01, 0.05} {
		mixes = append(mixes, faultMix{4, 4, 16, mesh.FaultConfig{Seed: 7, DropRate: rate}})
	}
	for _, f := range []mesh.FaultConfig{
		{},
		{Seed: 7, DropRate: 0.01},
		{Seed: 7, DupRate: 0.05, DelayRate: 0.10, DelayMax: 300},
		{Seed: 7, DropRate: 0.01, DupRate: 0.02, DelayRate: 0.05, DelayMax: 300},
	} {
		mixes = append(mixes, faultMix{8, 8, 64, f})
	}
	var pts []Point[FaultRow]
	for _, mx := range mixes {
		meshLabel := fmt.Sprintf("%dx%d", mx.w, mx.h)
		name := fmt.Sprintf("fault sweep %s drop=%g dup=%g delay=%g",
			meshLabel, mx.f.DropRate, mx.f.DupRate, mx.f.DelayRate)
		pts = append(pts, Point[FaultRow]{
			Name: name,
			Run: func() (FaultRow, error) {
				mcfg := o.machine(name, mx.w, mx.h)
				if mx.f.Enabled() {
					mcfg.Faults = mx.f
					mcfg.CheckInvariants = true
				}
				res, err := sssp.Run(sssp.Config{
					MeshW: mx.w, MeshH: mx.h, Procs: mx.procs,
					Vertices: vertices, Degree: 4, Seed: 42,
					Copies: 4, Validate: true,
					Machine: mcfg,
				})
				if err != nil {
					return FaultRow{}, err
				}
				return FaultRow{
					Mesh:          meshLabel,
					DropPct:       mx.f.DropRate * 100,
					DupPct:        mx.f.DupRate * 100,
					DelayPct:      mx.f.DelayRate * 100,
					Elapsed:       res.Elapsed,
					Messages:      res.Messages,
					Dropped:       res.Net.Dropped,
					Retransmits:   res.Retransmits,
					TransportAcks: res.TransportAcks,
					TransDups:     res.Reliability.TransDups,
					TransGaps:     res.Reliability.TransGaps,
					TransStalls:   res.Reliability.TransStalls,
				}, nil
			},
		})
	}
	return pts
}

// fillFaultSlowdown normalizes every row to the sweep's fault-free row
// on the same mesh (slowdown 1.0 when no fault-free row was requested
// for that mesh).
func fillFaultSlowdown(rows []FaultRow) []FaultRow {
	base := map[string]sim.Cycles{}
	for _, r := range rows {
		if r.DropPct == 0 && r.DupPct == 0 && r.DelayPct == 0 {
			base[r.Mesh] = r.Elapsed
		}
	}
	for i := range rows {
		rows[i].Slowdown = 1.0
		if b := base[rows[i].Mesh]; b > 0 {
			rows[i].Slowdown = float64(rows[i].Elapsed) / float64(b)
		}
	}
	return rows
}

// FormatFaultSweep renders the sweep as a table.
func FormatFaultSweep(rows []FaultRow) string {
	return renderTable("Fault sweep: SSSP (4 copies) under message loss, duplication & delay",
		[]col{{"Mesh", -6}, {"Drop%", 7}, {"Dup%", 6}, {"Delay%", 7}, {"Elapsed", 12},
			{"Slowdown", 10}, {"Messages", 10}, {"Dropped", 9}, {"Retransmits", 12}, {"TAcks", 10}},
		cells(rows, func(r FaultRow) []string {
			return []string{
				r.Mesh,
				fmt.Sprintf("%.2f", r.DropPct),
				fmt.Sprintf("%.2f", r.DupPct),
				fmt.Sprintf("%.2f", r.DelayPct),
				fmt.Sprint(r.Elapsed),
				fmt.Sprintf("%.2f", r.Slowdown),
				fmt.Sprint(r.Messages),
				fmt.Sprint(r.Dropped),
				fmt.Sprint(r.Retransmits),
				fmt.Sprint(r.TransportAcks),
			}
		}))
}
