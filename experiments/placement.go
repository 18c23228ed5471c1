package experiments

import (
	"fmt"

	"plus/internal/core"
	"plus/internal/memory"
	"plus/internal/mesh"
	"plus/internal/proc"
	"plus/placement"
)

// placementWorkload builds a deterministic machine with deliberately
// poor initial placement: every page homed on the far corner, each
// used intensely by two near-corner nodes with a light write mix.
func placementWorkload(ops int, o Options, name string) (*core.Machine, error) {
	m, err := core.NewMachine(*o.machine(name, 4, 2))
	if err != nil {
		return nil, err
	}
	const pages = 4
	bases := make([]memory.VAddr, pages)
	for i := range bases {
		bases[i] = m.Alloc(7, 1) // all homed on node 7
	}
	for n := 0; n < 6; n++ {
		pg := bases[n%pages]
		m.Spawn(mesh.NodeID(n), func(t *proc.Thread) {
			for i := 0; i < ops; i++ {
				t.Read(pg + memory.VAddr((n*31+i)%256))
				if i%8 == 0 {
					t.Write(pg+memory.VAddr(uint32(n)), memory.Word(uint32(i)))
				}
				t.Compute(60)
			}
			t.Fence()
		})
	}
	return m, nil
}

// profilePlacement measures §2.4's second placement mode:
// "If the access pattern is not data dependent, it can be measured
// during one run of the application and the results of the
// measurement used to optimally allocate memory in subsequent runs."
// Run 1 executes with every page mis-homed and leaves the hardware
// reference counters populated; the placement package turns them into
// a migrate+replicate plan; run 2 executes the identical workload
// under the plan.
//
// Unlike every other experiment this one is a two-stage pipeline —
// run 2 consumes run 1's counters — so it registers as a single sweep
// point rather than a parallel point set.
func profilePlacement(o Options) ([]AblationRow, error) {
	ops := 400
	if o.Quick {
		ops = 120
	}
	m1, err := placementWorkload(ops, o, "ext placement run 1 naive")
	if err != nil {
		return nil, err
	}
	e1, err := m1.Run()
	if err != nil {
		return nil, err
	}
	plan := placement.Compute(m1, placement.Options{})

	m2, err := placementWorkload(ops, o, "ext placement run 2 profiled")
	if err != nil {
		return nil, err
	}
	if err := placement.Apply(m2, plan); err != nil {
		return nil, err
	}
	e2, err := m2.Run()
	if err != nil {
		return nil, err
	}
	return []AblationRow{
		{
			Label: "run 1: naive placement", Elapsed: e1, Messages: m1.Stats().Messages(),
			Extra: fmt.Sprintf("remote reads %d", m1.Stats().Totals().RemoteReads),
		},
		{
			Label: "run 2: profile-guided", Elapsed: e2, Messages: m2.Stats().Messages(),
			Extra: fmt.Sprintf("remote reads %d, plan touched %d page(s)",
				m2.Stats().Totals().RemoteReads, plan.Pages()),
		},
	}, nil
}
