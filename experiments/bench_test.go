package experiments

import "testing"

// BenchmarkFigure21Quick times the Figure 2-1 quick regeneration — the
// end-to-end hot path of the whole simulator (engine, mesh, coherence,
// kernel, workload) — with allocation reporting. This is the benchmark
// the event/message-plumbing refactor is measured against.
func BenchmarkFigure21Quick(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runExp(b, "figure2-1", Options{Quick: true, MaxProcs: 8})
	}
}

// BenchmarkTable21Quick times the Table 2-1 quick regeneration (the
// replication sweep used by the golden and determinism tests).
func BenchmarkTable21Quick(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runExp(b, "table2-1", Options{Quick: true})
	}
}
