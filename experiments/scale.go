package experiments

import (
	"fmt"
	"time"

	"plus/apps/sssp"
	"plus/internal/sim"
)

// ScaleRow is one (mesh, shard count) sample of the sharded-engine
// scale experiment: the Figure 2-1 replicated SSSP workload grown to
// large meshes, run on K shard engines. Every shard count executes the
// byte-identical simulation — Elapsed, Messages and Relaxations are
// required to match the K=1 row of the same mesh, and the sweep fails
// loudly if they do not — so WallMS isolates pure wall-clock speedup
// from parallelizing the event loop.
type ScaleRow struct {
	MeshW       int        `json:"mesh_w"`
	MeshH       int        `json:"mesh_h"`
	Procs       int        `json:"procs"`
	Vertices    int        `json:"vertices"`
	Shards      int        `json:"shards"`
	Elapsed     sim.Cycles `json:"elapsed_cycles"`
	Messages    uint64     `json:"messages"`
	Relaxations uint64     `json:"relaxations"`
	WallMS      float64    `json:"wall_ms"`
	// Speedup is wall(shards=1) / wall(this row) for the same mesh.
	Speedup float64 `json:"speedup"`
}

// scaleMeshes returns the swept (mesh, vertices, shard counts) tuples.
// Quick keeps one mesh small enough for make check; the full sweep
// runs the 32x32 (1024-processor) mesh the serial engine cannot touch
// in reasonable time on one core.
func scaleMeshes(o Options) []struct {
	w, h, vertices int
	shards         []int
} {
	type m = struct {
		w, h, vertices int
		shards         []int
	}
	shards := []int{1, 2, 4, 8, 16}
	if o.Shards > 1 {
		shards = []int{1, o.Shards}
	}
	if o.Quick {
		return []m{{8, 8, 512, shards}}
	}
	return []m{
		{8, 8, 2048, shards},
		{16, 16, 4096, shards},
		{32, 32, 8192, shards},
	}
}

// scalePoints builds the sweep. Each point measures its own wall time.
func scalePoints(o Options) []Point[ScaleRow] {
	var pts []Point[ScaleRow]
	for _, mesh := range scaleMeshes(o) {
		for _, k := range mesh.shards {
			procs := mesh.w * mesh.h
			if k > procs || procs%k != 0 {
				continue
			}
			name := fmt.Sprintf("scale %dx%d shards=%d", mesh.w, mesh.h, k)
			pts = append(pts, Point[ScaleRow]{
				Name: name,
				Run: func() (ScaleRow, error) {
					// An instrumented sweep runs the full-featured
					// machine — link contention on, a per-point observer
					// attached — so the serial-vs-sharded equivalence
					// check below also pins the contention and observer
					// gate lifts at SSSP scale (make check runs this
					// quick at -shards 4 with tracing).
					mc := o.machine(name, mesh.w, mesh.h)
					mc.Shards = k
					mc.NetContention = o.Observe != nil
					start := time.Now()
					res, err := sssp.Run(sssp.Config{
						MeshW: mesh.w, MeshH: mesh.h, Procs: procs,
						Vertices: mesh.vertices, Degree: 4, Seed: 42,
						Copies: 4, Validate: true,
						Machine: mc,
					})
					if err != nil {
						return ScaleRow{}, err
					}
					return ScaleRow{
						MeshW: mesh.w, MeshH: mesh.h, Procs: procs,
						Vertices:    mesh.vertices,
						Shards:      k,
						Elapsed:     res.Elapsed,
						Messages:    res.Messages,
						Relaxations: res.Relaxations,
						WallMS:      float64(time.Since(start).Microseconds()) / 1000,
					}, nil
				},
			})
		}
	}
	return pts
}

// checkScaleEquivalence verifies that every shard count of a mesh
// reproduced the serial row exactly, and fills Speedup from the serial
// row's wall time.
func checkScaleEquivalence(rows []ScaleRow) ([]ScaleRow, error) {
	type key struct{ w, h int }
	base := map[key]ScaleRow{}
	for _, r := range rows {
		if r.Shards == 1 {
			base[key{r.MeshW, r.MeshH}] = r
		}
	}
	for i, r := range rows {
		b, ok := base[key{r.MeshW, r.MeshH}]
		if !ok {
			continue
		}
		if r.Elapsed != b.Elapsed || r.Messages != b.Messages || r.Relaxations != b.Relaxations {
			return nil, fmt.Errorf("scale: %dx%d shards=%d diverged from serial: elapsed %d/%d messages %d/%d relaxations %d/%d",
				r.MeshW, r.MeshH, r.Shards, r.Elapsed, b.Elapsed, r.Messages, b.Messages, r.Relaxations, b.Relaxations)
		}
		if r.WallMS > 0 {
			rows[i].Speedup = b.WallMS / r.WallMS
		}
	}
	return rows, nil
}

// scaleExperiment wires the sweep in bespoke rather than through
// newExperiment: the points must run sequentially — each sharded point
// already uses one OS thread per shard, and wall-clock speedup is
// meaningless with other points co-running — and the post step can
// fail (serial/sharded divergence is an error, not a row).
func scaleExperiment() Experiment {
	const name = "figure2-1-scale"
	const title = "Sharded engine scale: SSSP wall-clock speedup vs shards (identical simulations)"
	return Experiment{
		Name:  name,
		Title: title,
		Run: func(o Options) (*Result, error) {
			pts := scalePoints(o)
			rows, err := RunPoints(pts, 1)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			rows, err = checkScaleEquivalence(rows)
			if err != nil {
				return nil, err
			}
			return &Result{Name: name, Title: title, Points: len(pts),
				Shards: o.EffectiveShards(), Rows: rows,
				Table: FormatScale(rows)}, nil
		},
	}
}

// FormatScale renders the scale sweep. The printed table carries only
// the deterministic simulation columns — stdout must stay
// byte-identical run to run, the repo's hard invariant — so the
// wall-clock measurements (wall_ms, speedup) live only in the -json
// rows.
func FormatScale(rows []ScaleRow) string {
	return renderTable(
		"Sharded engine scale: identical simulations per shard count (wall-clock in -json)",
		[]col{{"Mesh", -7}, {"Procs", 6}, {"Vertices", 9}, {"Shards", 7},
			{"Elapsed", 12}, {"Messages", 10}, {"Relaxations", 12}},
		cells(rows, func(r ScaleRow) []string {
			return []string{
				fmt.Sprintf("%dx%d", r.MeshW, r.MeshH),
				fmt.Sprint(r.Procs),
				fmt.Sprint(r.Vertices),
				fmt.Sprint(r.Shards),
				fmt.Sprint(r.Elapsed),
				fmt.Sprint(r.Messages),
				fmt.Sprint(r.Relaxations),
			}
		}))
}
