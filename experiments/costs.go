package experiments

import (
	"fmt"

	"plus/internal/coherence"
	"plus/internal/core"
	"plus/internal/memory"
	"plus/internal/mesh"
	"plus/internal/proc"
	"plus/internal/sim"
	"plus/internal/timing"
)

// --- Table 3-1: delayed-operation execution cycles ----------------------

// Table31Row is one delayed operation's measured cost decomposition.
type Table31Row struct {
	Op           coherence.Op `json:"op"`
	PaperCycles  sim.Cycles   `json:"paper_cycles"`    // Table 3-1's execution-cycles column
	MeasuredExec sim.Cycles   `json:"measured_cycles"` // recovered from an end-to-end measurement
	EndToEnd     sim.Cycles   `json:"end_to_end"`      // full blocking issue→verify time, 1 hop
}

// table31Points measures every delayed operation between adjacent
// nodes and recovers the coherence manager's execution time by
// subtracting the documented issue, network and result-read
// components — verifying the implementation charges exactly the
// paper's 39/52 cycles.
func table31Points(o Options) []Point[Table31Row] {
	var pts []Point[Table31Row]
	for _, op := range coherence.Ops() {
		name := fmt.Sprintf("table 3-1 %v", op)
		pts = append(pts, Point[Table31Row]{
			Name: name,
			Run: func() (Table31Row, error) {
				m, err := core.NewMachine(*o.machine(name, 2, 1))
				if err != nil {
					return Table31Row{}, err
				}
				target := m.Alloc(1, 1) // master on the remote node
				// Queue ops address a control word holding an offset.
				va := target
				if op == coherence.OpQueue || op == coherence.OpDequeue {
					va = target + memory.VAddr(timing.MaxQueueSize)
				}
				// Dequeue needs an occupied slot to pop.
				if op == coherence.OpDequeue {
					m.Poke(target, memory.TopBit|7)
				}
				var elapsed sim.Cycles
				m.Spawn(0, func(t *proc.Thread) {
					t.Read(target) // fault the mapping in before timing
					start := t.Now()
					t.Verify(t.Issue(op, va, 1))
					elapsed = t.Now() - start
				})
				if _, err := m.Run(); err != nil {
					return Table31Row{}, err
				}
				oneWay := m.Mesh().Latency(0, 1)
				overheads := timing.DelayedIssue + 2*oneWay + timing.CMProcess + timing.ResultRead
				return Table31Row{
					Op:           op,
					PaperCycles:  op.ExecCycles(),
					MeasuredExec: elapsed - overheads,
					EndToEnd:     elapsed,
				}, nil
			},
		})
	}
	return pts
}

// Table31 measures the cost of every delayed operation (Table 3-1).
func Table31(o Options) ([]Table31Row, error) {
	return RunPoints(table31Points(o), o.Workers)
}

// FormatTable31 renders the measurement against the paper's numbers.
func FormatTable31(rows []Table31Row) string {
	return renderTable("Table 3-1: delayed-operation execution cycles (adjacent nodes)",
		[]col{{"Operation", -16}, {"Paper", 8}, {"Measured", 10}, {"EndToEnd", 10}},
		cells(rows, func(r Table31Row) []string {
			return []string{
				r.Op.String(), fmt.Sprint(r.PaperCycles),
				fmt.Sprint(r.MeasuredExec), fmt.Sprint(r.EndToEnd),
			}
		}))
}

// --- §3.1 cost anatomy: latency vs hop distance -------------------------

// CostRow is one hop-distance sample of the §3.1 cost anatomy.
type CostRow struct {
	Hops       int        `json:"hops"`
	RemoteRead sim.Cycles `json:"remote_read"` // blocking read: "32 cycles plus round trip"
	BlockFadd  sim.Cycles `json:"block_fadd"`  // blocking fetch-and-add end to end
	RoundTrip  sim.Cycles `json:"round_trip"`  // 24 cycles adjacent, +4 per extra hop
}

// costsPoints measures remote-read and blocking-fadd latency at
// increasing hop distance on an 8x1 mesh, reproducing the paper's
// "round trip ... about 24 cycles; each extra hop adds 4 cycles" and
// "remote read is about 32 cycles plus the round-trip delay".
func costsPoints(o Options) []Point[CostRow] {
	var pts []Point[CostRow]
	for hops := 1; hops <= 7; hops++ {
		name := fmt.Sprintf("costs hops=%d", hops)
		pts = append(pts, Point[CostRow]{
			Name: name,
			Run: func() (CostRow, error) {
				m, err := core.NewMachine(*o.machine(name, 8, 1))
				if err != nil {
					return CostRow{}, err
				}
				dst := mesh.NodeID(hops)
				data := m.Alloc(dst, 1)
				var readT, faddT sim.Cycles
				m.Spawn(0, func(t *proc.Thread) {
					t.Read(data) // fault the mapping in before timing
					s := t.Now()
					t.Read(data)
					readT = t.Now() - s
					s = t.Now()
					t.FaddSync(data, 1)
					faddT = t.Now() - s
				})
				if _, err := m.Run(); err != nil {
					return CostRow{}, err
				}
				rt := m.Mesh().Latency(0, dst) * 2
				return CostRow{Hops: hops, RemoteRead: readT, BlockFadd: faddT, RoundTrip: rt}, nil
			},
		})
	}
	return pts
}

// FormatCosts renders the hop sweep.
func FormatCosts(rows []CostRow) string {
	return renderTable("Section 3.1 cost anatomy vs hop distance (8x1 mesh)",
		[]col{{"Hops", -6}, {"RoundTrip", 12}, {"RemoteRead", 12}, {"BlockFadd", 12}},
		cells(rows, func(r CostRow) []string {
			return []string{
				fmt.Sprint(r.Hops), fmt.Sprint(r.RoundTrip),
				fmt.Sprint(r.RemoteRead), fmt.Sprint(r.BlockFadd),
			}
		}))
}
