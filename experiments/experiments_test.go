package experiments

import (
	"strings"
	"testing"
)

func TestTable21Shape(t *testing.T) {
	rows := rowsOf[Table21Row](t, "table2-1", Options{Quick: true})
	if len(rows) != 5 {
		t.Fatalf("got %d rows", len(rows))
	}
	// Paper trends: reads local/remote rises with copies; writes
	// local/remote falls; total/update falls; update count rises.
	if rows[4].ReadRatio <= rows[0].ReadRatio {
		t.Errorf("read ratio: %.2f (1 copy) -> %.2f (5 copies), want rising",
			rows[0].ReadRatio, rows[4].ReadRatio)
	}
	if rows[4].WriteRatio >= rows[0].WriteRatio {
		t.Errorf("write ratio: %.2f -> %.2f, want falling",
			rows[0].WriteRatio, rows[4].WriteRatio)
	}
	if rows[1].Updates == 0 || rows[4].Updates <= rows[1].Updates {
		t.Errorf("updates: %d (2 copies) -> %d (5 copies), want rising",
			rows[1].Updates, rows[4].Updates)
	}
	if rows[4].UpdateRatio >= rows[1].UpdateRatio {
		t.Errorf("total/update ratio: %.2f -> %.2f, want falling",
			rows[1].UpdateRatio, rows[4].UpdateRatio)
	}
	out := FormatTable21(rows)
	if !strings.Contains(out, "Table 2-1") {
		t.Error("format missing title")
	}
}

func TestFigure21Shape(t *testing.T) {
	pts := rowsOf[Fig21Point](t, "figure2-1", Options{Quick: true})
	find := func(p int, repl bool) Fig21Point {
		for _, pt := range pts {
			if pt.Procs == p && pt.Replicated == repl {
				return pt
			}
		}
		t.Fatalf("missing point p=%d repl=%v", p, repl)
		return Fig21Point{}
	}
	// Replication beats no replication at 8 and 16 processors.
	for _, p := range []int{8, 16} {
		none, repl := find(p, false), find(p, true)
		if repl.Efficiency <= none.Efficiency {
			t.Errorf("p=%d: replicated efficiency %.3f <= unreplicated %.3f",
				p, repl.Efficiency, none.Efficiency)
		}
	}
	// Single-processor efficiency is 1 by construction.
	if e := find(1, false).Efficiency; e < 0.999 || e > 1.001 {
		t.Errorf("p=1 efficiency = %.3f", e)
	}
	if !strings.Contains(FormatFigure21(pts), "Figure 2-1") {
		t.Error("format missing title")
	}
}

func TestFigure31Shape(t *testing.T) {
	pts := rowsOf[Fig31Point](t, "figure3-1", Options{Quick: true})
	at := func(p int, label string) Fig31Point {
		for _, pt := range pts {
			if pt.Procs == p && pt.Label == label {
				return pt
			}
		}
		t.Fatalf("missing %s @ %d", label, p)
		return Fig31Point{}
	}
	// Paper orderings at 8 processors: delayed beats blocking; cs-16
	// beats cs-40 beats cs-140; cs-140 is the worst of everything.
	p := 8
	if at(p, "delayed").Efficiency <= at(p, "blocking").Efficiency {
		t.Errorf("delayed (%.3f) not better than blocking (%.3f)",
			at(p, "delayed").Efficiency, at(p, "blocking").Efficiency)
	}
	if !(at(p, "cs-16").Efficiency > at(p, "cs-40").Efficiency &&
		at(p, "cs-40").Efficiency > at(p, "cs-140").Efficiency) {
		t.Errorf("context-switch cost ordering violated: 16=%.3f 40=%.3f 140=%.3f",
			at(p, "cs-16").Efficiency, at(p, "cs-40").Efficiency, at(p, "cs-140").Efficiency)
	}
	if at(p, "delayed").Efficiency <= at(p, "cs-140").Efficiency {
		t.Error("delayed ops lost to 140-cycle context switching")
	}
	if !strings.Contains(FormatFigure31(pts), "Figure 3-1") {
		t.Error("format missing title")
	}
}

func TestTable31MatchesPaper(t *testing.T) {
	rows, err := Table31(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("got %d ops", len(rows))
	}
	for _, r := range rows {
		if r.MeasuredExec != r.PaperCycles {
			t.Errorf("%v: measured %d cycles, paper says %d", r.Op, r.MeasuredExec, r.PaperCycles)
		}
	}
	if !strings.Contains(FormatTable31(rows), "Table 3-1") {
		t.Error("format missing title")
	}
}

func TestSection31Costs(t *testing.T) {
	rows := rowsOf[CostRow](t, "costs", Options{})
	// Paper: adjacent round trip 24, +4 per extra hop; remote read =
	// 32 + round trip (+ our documented CM service time).
	if rows[0].RoundTrip != 24 {
		t.Errorf("adjacent round trip = %d", rows[0].RoundTrip)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].RoundTrip-rows[i-1].RoundTrip != 4 {
			t.Errorf("hop %d round trip delta = %d, want 4", i+1, rows[i].RoundTrip-rows[i-1].RoundTrip)
		}
		if rows[i].RemoteRead <= rows[i-1].RemoteRead {
			t.Error("remote read latency not increasing with distance")
		}
	}
	// Remote read = 32 + RT + CMProcess(8).
	if rows[0].RemoteRead != 32+24+8 {
		t.Errorf("adjacent remote read = %d, want 64", rows[0].RemoteRead)
	}
	if !strings.Contains(FormatCosts(rows), "cost anatomy") {
		t.Error("format missing title")
	}
}

func TestAblations(t *testing.T) {
	quick := Options{Quick: true}
	fence := rowsOf[AblationRow](t, "ablation-fence", quick)
	if fence[1].Elapsed <= fence[0].Elapsed {
		t.Errorf("fence-at-every-sync (%d) not slower than explicit fences (%d)",
			fence[1].Elapsed, fence[0].Elapsed)
	}

	pw := rowsOf[AblationRow](t, "ablation-pending-writes", quick)
	if pw[0].Elapsed <= pw[3].Elapsed {
		t.Errorf("depth-1 pending writes (%d) not slower than depth-8 (%d)",
			pw[0].Elapsed, pw[3].Elapsed)
	}

	slots := rowsOf[AblationRow](t, "ablation-delayed-slots", quick)
	if len(slots) != 5 {
		t.Fatalf("slot sweep rows = %d", len(slots))
	}
	// One slot serializes every round trip; 8 slots (the hardware's
	// choice) pipeline the whole burst; 16 adds nothing.
	if !(slots[0].Elapsed > slots[3].Elapsed && slots[3].Elapsed == slots[4].Elapsed) {
		t.Errorf("slot depth curve wrong: %d ... %d, %d",
			slots[0].Elapsed, slots[3].Elapsed, slots[4].Elapsed)
	}

	inval := rowsOf[AblationRow](t, "ablation-invalidate", quick)
	if inval[1].Elapsed <= inval[0].Elapsed {
		t.Errorf("write-invalidate (%d) not slower than write-update (%d) on the read-mostly load",
			inval[1].Elapsed, inval[0].Elapsed)
	}
	if inval[0].Extra == inval[1].Extra {
		t.Error("invalidate run recorded no invalidations")
	}

	cont := rowsOf[AblationRow](t, "ablation-contention", quick)
	if cont[1].Elapsed < cont[0].Elapsed {
		t.Error("contended network faster than ideal")
	}

	comp := rowsOf[AblationRow](t, "ablation-competitive", quick)
	// Competitive replication at a sane threshold beats static
	// placement on this read-heavy, badly placed load.
	if comp[1].Elapsed >= comp[0].Elapsed {
		t.Errorf("competitive thr=16 (%d) not faster than static (%d)",
			comp[1].Elapsed, comp[0].Elapsed)
	}
	out := FormatAblation("x", comp)
	if !strings.Contains(out, "static placement") {
		t.Error("format missing rows")
	}

	svm := rowsOf[AblationRow](t, "ext-swdsm", quick)
	// The §4 claim: page-grain software DSM pays orders of magnitude
	// for fine-grain sharing that PLUS handles in hardware.
	if svm[1].Elapsed < 20*svm[0].Elapsed {
		t.Errorf("software SVM (%d) not dramatically slower than PLUS (%d)",
			svm[1].Elapsed, svm[0].Elapsed)
	}

	prof := rowsOf[AblationRow](t, "ext-placement", quick)
	// §2.4's measured-then-reallocated mode: the second run must win.
	if prof[1].Elapsed >= prof[0].Elapsed {
		t.Errorf("profile-guided run (%d) not faster than naive (%d)",
			prof[1].Elapsed, prof[0].Elapsed)
	}
}

func TestAblationBatching(t *testing.T) {
	rows := rowsOf[AblationRow](t, "ablation-batching", Options{Quick: true})
	if len(rows) != 5 {
		t.Fatalf("batching sweep rows = %d, want 5", len(rows))
	}
	// The acceptance criterion: coalescing cuts the message count on the
	// write-heavy load, monotonically from off to the deepest buffer.
	if rows[4].Messages >= rows[0].Messages {
		t.Errorf("depth-16 messages (%d) not below combining-off (%d)",
			rows[4].Messages, rows[0].Messages)
	}
	if rows[0].Extra == rows[4].Extra {
		t.Error("deep-combining run coalesced nothing")
	}
	if !strings.Contains(rows[0].Extra, "coalesced 0") {
		t.Errorf("combining-off row coalesced writes: %s", rows[0].Extra)
	}
}
