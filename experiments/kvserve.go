package experiments

import (
	"fmt"

	"plus/apps/kvserve"
	"plus/internal/sim"
)

// --- kvserve sweep: skew x mesh x placement tail latency ----------------

// KvRow is one point of the serving-workload sweep: the multi-tenant
// record store under open-loop Zipfian traffic, reporting tail latency
// for reads and writes separately. The axes are key skew (s = 0
// uniform → 1.2 heavily hot-keyed), mesh size, and static placement
// policy; the contention model is on, so hot-key convergence shows up
// as queueing at the hot master and the replicated-hot rows measure
// how much of the write tail the read-spreading buys back.
type KvRow struct {
	Mesh      string  `json:"mesh"`
	Skew      float64 `json:"skew"`
	Placement string  `json:"placement"`

	Elapsed sim.Cycles `json:"elapsed_cycles"`
	Ops     uint64     `json:"ops"`
	// Late counts ops whose frontend was behind its arrival schedule —
	// the open-loop backlog signal.
	Late uint64 `json:"late"`

	ReadP50   uint64  `json:"read_p50"`
	ReadP95   uint64  `json:"read_p95"`
	ReadP99   uint64  `json:"read_p99"`
	ReadMean  float64 `json:"read_mean"`
	WriteP50  uint64  `json:"write_p50"`
	WriteP95  uint64  `json:"write_p95"`
	WriteP99  uint64  `json:"write_p99"`
	WriteMean float64 `json:"write_mean"`

	Messages uint64 `json:"messages"`
	Updates  uint64 `json:"updates"`
	// Checksum digests the final record + counter image; the shard
	// equivalence tests pin it byte-identical across engine counts.
	Checksum uint64 `json:"checksum"`
}

// kvMesh is one machine size of the sweep.
type kvMesh struct{ w, h int }

// kvserveConfig builds the workload configuration for one sweep point.
// Sizes are fixed across skews and placements on a given mesh so rows
// differ only by the axis under study.
func kvserveConfig(m kvMesh, skew float64, placement string, quick bool) kvserve.Config {
	ops := 256
	if quick {
		ops = 96
	}
	return kvserve.Config{
		MeshW: m.w, MeshH: m.h,
		OpsPerNode: ops,
		Skew:       skew,
		Placement:  placement,
		// Replicated-hot: the Zipf-hottest pages are the first pages of
		// the record block; 4 pages x 4 spread copies covers the head
		// of the distribution without flooding updates (§2.5).
		HotPages:  4,
		HotCopies: 4,
		Validate:  true,
	}
}

// kvservePoints builds the sweep: skew {0, 0.9, 1.2} x mesh {4x4, 8x8,
// 16x16} x placement {master-local, striped, replicated-hot}; quick
// keeps the 4x4 mesh and the two extreme skews (18 rows full, 6 quick).
func kvservePoints(o Options) []Point[KvRow] {
	meshes := []kvMesh{{4, 4}, {8, 8}, {16, 16}}
	skews := []float64{0, 0.9, 1.2}
	if o.Quick {
		meshes = meshes[:1]
		skews = []float64{0, 1.2}
	}
	var pts []Point[KvRow]
	for _, mm := range meshes {
		for _, skew := range skews {
			for _, placement := range []string{kvserve.MasterLocal, kvserve.Striped, kvserve.ReplicatedHot} {
				meshLabel := fmt.Sprintf("%dx%d", mm.w, mm.h)
				name := fmt.Sprintf("kvserve %s s=%g %s", meshLabel, skew, placement)
				pts = append(pts, Point[KvRow]{
					Name: name,
					Run: func() (KvRow, error) {
						mc := o.machine(name, mm.w, mm.h)
						// Queueing at the hot master IS the measurement;
						// without the contention model the tail barely moves.
						mc.NetContention = true
						cfg := kvserveConfig(mm, skew, placement, o.Quick)
						cfg.Machine = mc
						res, err := kvserve.Run(cfg)
						if err != nil {
							return KvRow{}, err
						}
						return KvRow{
							Mesh: meshLabel, Skew: skew, Placement: placement,
							Elapsed: res.Elapsed, Ops: res.Ops, Late: res.Late,
							ReadP50: res.ReadLat.Quantile(0.50), ReadP95: res.ReadLat.Quantile(0.95),
							ReadP99: res.ReadLat.Quantile(0.99), ReadMean: res.ReadLat.Mean(),
							WriteP50: res.WriteLat.Quantile(0.50), WriteP95: res.WriteLat.Quantile(0.95),
							WriteP99: res.WriteLat.Quantile(0.99), WriteMean: res.WriteLat.Mean(),
							Messages: res.Messages, Updates: res.Updates, Checksum: res.Checksum,
						}, nil
					},
				})
			}
		}
	}
	return pts
}

// FormatKvserve renders the sweep as a table.
func FormatKvserve(rows []KvRow) string {
	return renderTable("Serving workload: open-loop Zipfian record store, tail latency by skew x placement",
		[]col{{"Mesh", -6}, {"Skew", 5}, {"Placement", -15}, {"Elapsed", 9}, {"Ops", 7}, {"Late", 6},
			{"Rp50", 6}, {"Rp95", 6}, {"Rp99", 6}, {"Wp50", 6}, {"Wp95", 7}, {"Wp99", 7}, {"Msgs", 8}},
		cells(rows, func(r KvRow) []string {
			return []string{
				r.Mesh,
				fmt.Sprintf("%.1f", r.Skew),
				r.Placement,
				fmt.Sprint(r.Elapsed),
				fmt.Sprint(r.Ops),
				fmt.Sprint(r.Late),
				fmt.Sprint(r.ReadP50),
				fmt.Sprint(r.ReadP95),
				fmt.Sprint(r.ReadP99),
				fmt.Sprint(r.WriteP50),
				fmt.Sprint(r.WriteP95),
				fmt.Sprint(r.WriteP99),
				fmt.Sprint(r.Messages),
			}
		}))
}
