// Command plussim runs one workload on a simulated PLUS machine and
// prints timing and traffic statistics.
//
// Usage:
//
//	plussim -workload sssp    [-procs 16] [-copies 3] [-vertices 1024]
//	plussim -workload beam    [-procs 16] [-style delayed|blocking|cs] [-switch-cost 40]
//	plussim -workload prodsys [-procs 8]  [-facts 1024] [-rules 2048]
//	plussim -workload synth   [-procs 8]  [-local 70] [-writes 30]
//
// Every run is deterministic for a given -seed.
package main

import (
	"flag"
	"fmt"
	"os"

	"plus/apps/beam"
	"plus/apps/prodsys"
	"plus/apps/sor"
	"plus/apps/sssp"
	"plus/apps/synth"
	"plus/internal/sim"
	"plus/internal/timing"
)

func main() {
	var (
		workload = flag.String("workload", "sssp", "sssp, beam, prodsys, sor or synth")
		procs    = flag.Int("procs", 16, "participating processors")
		meshW    = flag.Int("mesh-w", 0, "mesh width (default: fits procs)")
		meshH    = flag.Int("mesh-h", 0, "mesh height")
		seed     = flag.Int64("seed", 42, "deterministic seed")
		copies   = flag.Int("copies", 1, "replication level for shared data")
		validate = flag.Bool("validate", true, "check against the sequential reference")
		stats    = flag.Bool("stats", false, "print the per-node counter report")

		vertices = flag.Int("vertices", 1024, "sssp: graph vertices")
		degree   = flag.Int("degree", 4, "sssp: average out-degree")

		layers     = flag.Int("layers", 24, "beam: HMM layers")
		states     = flag.Int("states", 64, "beam: states per layer")
		style      = flag.String("style", "delayed", "beam: blocking, delayed or cs")
		switchCost = flag.Uint64("switch-cost", 40, "beam: context-switch cost for -style cs")
		beamWidth  = flag.Uint64("beam", 0, "beam: pruning width (0 = exact search)")

		facts = flag.Int("facts", 1024, "prodsys: working-memory size")
		rules = flag.Int("rules", 2048, "prodsys: rule count")

		grid  = flag.Int("grid", 64, "sor: grid side")
		iters = flag.Int("iters", 4, "sor: red+black sweeps")
		halos = flag.Bool("halos", true, "sor: replicate boundary pages")

		ops   = flag.Int("ops", 500, "synth: references per processor")
		local = flag.Int("local", 70, "synth: %% local references")
		wfrac = flag.Int("writes", 30, "synth: %% writes")
	)
	flag.Parse()

	w, h := *meshW, *meshH
	if w == 0 || h == 0 {
		w, h = meshFor(*procs)
	}

	switch *workload {
	case "sssp":
		res, err := sssp.Run(sssp.Config{
			MeshW: w, MeshH: h, Procs: *procs,
			Vertices: *vertices, Degree: *degree, Seed: *seed,
			Copies: *copies, Validate: *validate,
		})
		fail(err)
		fmt.Printf("sssp: %d procs, %d vertices, %d copies\n", *procs, *vertices, *copies)
		fmt.Printf("  elapsed      %d cycles (%.2f ms at 25 MHz)\n", res.Elapsed, ms(res.Elapsed))
		fmt.Printf("  utilization  %.3f\n", res.Utilization)
		fmt.Printf("  relaxations  %d\n", res.Relaxations)
		fmt.Printf("  reads  L/R   %.2f\n", res.ReadRatio)
		fmt.Printf("  writes L/R   %.2f\n", res.WriteRatio)
		fmt.Printf("  messages     %d (%d updates, total/update %.2f)\n", res.Messages, res.Updates, res.UpdateRatio)
		if *stats {
			fmt.Print("\n", res.Report)
		}
	case "beam":
		st := beam.Delayed
		var cost sim.Cycles
		switch *style {
		case "blocking":
			st = beam.Blocking
		case "delayed":
			st = beam.Delayed
		case "cs":
			st = beam.ContextSwitch
			cost = sim.Cycles(*switchCost)
		default:
			fail(fmt.Errorf("unknown beam style %q", *style))
		}
		validateBeam := *validate && *beamWidth == 0 // pruning is approximate
		res, err := beam.Run(beam.Config{
			MeshW: w, MeshH: h, Procs: *procs,
			Layers: *layers, States: *states, Branch: 3,
			Style: st, SwitchCost: cost, Beam: uint32(*beamWidth),
			Validate: validateBeam,
		})
		fail(err)
		fmt.Printf("beam: %d procs, %dx%d lattice, style %s\n", *procs, *layers, *states, st)
		fmt.Printf("  elapsed      %d cycles (%.2f ms at 25 MHz)\n", res.Elapsed, ms(res.Elapsed))
		fmt.Printf("  utilization  %.3f\n", res.Utilization)
		fmt.Printf("  processed    %d vertices (%d pruned)\n", res.Processed, res.Pruned)
		if *stats {
			fmt.Print("\n", res.Report)
		}
	case "prodsys":
		res, err := prodsys.Run(prodsys.Config{
			MeshW: w, MeshH: h, Procs: *procs,
			Facts: *facts, Rules: *rules, Seed: *seed,
			Copies: *copies, Validate: *validate,
		})
		fail(err)
		fmt.Printf("prodsys: %d procs, %d facts, %d rules\n", *procs, *facts, *rules)
		fmt.Printf("  elapsed      %d cycles (%.2f ms at 25 MHz)\n", res.Elapsed, ms(res.Elapsed))
		fmt.Printf("  utilization  %.3f\n", res.Utilization)
		fmt.Printf("  fired        %d rules, %d facts derived\n", res.Fired, res.Derived)
		if *stats {
			fmt.Print("\n", res.Report)
		}
	case "sor":
		res, err := sor.Run(sor.Config{
			MeshW: w, MeshH: h, Procs: *procs,
			N: *grid, Iters: *iters,
			ReplicateBoundaries: *halos, Validate: *validate,
		})
		fail(err)
		fmt.Printf("sor: %d procs, %dx%d grid, %d sweeps, halos=%v\n", *procs, *grid, *grid, *iters, *halos)
		fmt.Printf("  elapsed      %d cycles (%.2f ms at 25 MHz)\n", res.Elapsed, ms(res.Elapsed))
		fmt.Printf("  utilization  %.3f\n", res.Utilization)
		fmt.Printf("  updates      %d stencil applications\n", res.Updates)
		if *stats {
			fmt.Print("\n", res.Report)
		}
	case "synth":
		res, err := synth.Run(synth.Config{
			MeshW: w, MeshH: h, Procs: *procs,
			OpsPerProc: *ops, LocalFrac: *local, WriteFrac: *wfrac, Seed: *seed,
			Copies: *copies,
		})
		fail(err)
		fmt.Printf("synth: %d procs, %d ops each, %d%% local, %d%% writes\n", *procs, *ops, *local, *wfrac)
		fmt.Printf("  elapsed      %d cycles (%.2f ms at 25 MHz)\n", res.Elapsed, ms(res.Elapsed))
		fmt.Printf("  utilization  %.3f\n", res.Utilization)
		fmt.Printf("  throughput   %.4f refs/cycle\n", res.Throughput)
		fmt.Printf("  messages     %d (%d updates)\n", res.Messages, res.Updates)
		if *stats {
			fmt.Print("\n", res.Report)
		}
	default:
		fail(fmt.Errorf("unknown workload %q", *workload))
	}
}

func ms(c sim.Cycles) float64 { return float64(c) * timing.CycleNs / 1e6 }

func meshFor(p int) (int, int) {
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

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "plussim:", err)
		os.Exit(1)
	}
}
