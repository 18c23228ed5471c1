package experiments

import (
	"testing"
)

// TestRaceCorpus is the directed-corpus pin: the racy pair is flagged
// (both sites, right threads, right words), and the fenced pair, the
// queue lock, SOR and SSSP come out clean — no false negatives, no
// false positives.
func TestRaceCorpus(t *testing.T) {
	outcomes, ok, err := RunRaceCorpus()
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("corpus verdict: not ok")
	}
	byName := map[string]RaceOutcome{}
	for _, o := range outcomes {
		byName[o.Program] = o
		if !o.Pass {
			t.Errorf("%s: expected %s, got %d race(s) (dropped %d)",
				o.Program, o.Expect, len(o.Report.Races), o.Report.Dropped)
		}
	}
	racy := byName["racy-pair"].Report
	if racy == nil || len(racy.Races) != 2 {
		t.Fatalf("racy-pair: got %+v, want exactly 2 races (one per word)", racy)
	}
	for _, r := range racy.Races {
		if r.First.Kind != "write" || r.Second.Kind != "read" {
			t.Errorf("racy-pair: kinds %s/%s, want write/read", r.First.Kind, r.Second.Kind)
		}
		if r.First.Tid == r.Second.Tid {
			t.Errorf("racy-pair: both sites on t%d", r.First.Tid)
		}
		if r.Missing == "" {
			t.Error("racy-pair: no missing-sync diagnosis")
		}
	}
	// The two races are the two consecutive words of the data page.
	if racy.Races[0].Page != racy.Races[1].Page ||
		racy.Races[0].Off+1 != racy.Races[1].Off {
		t.Errorf("racy-pair: sites at page/off %d/%d and %d/%d, want consecutive words",
			racy.Races[0].Page, racy.Races[0].Off, racy.Races[1].Page, racy.Races[1].Off)
	}
}

// TestRaceKvserveUnsyncCounters is the serving-workload directed pin:
// the clean variant aggregates per-tenant op counters with
// fetch-and-add and must come out silent, while the unsynchronized
// read-modify-write variant must be flagged at both sites of the lost
// update — the torn write→read pair and the overwriting write→write
// pair, on the counter page, between distinct frontends.
func TestRaceKvserveUnsyncCounters(t *testing.T) {
	byName := map[string]RaceProgram{}
	for _, p := range RacePrograms() {
		byName[p.Name] = p
	}
	clean, err := RaceReportFor(byName["kvserve"], 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(clean.Races) != 0 || clean.Dropped != 0 {
		t.Fatalf("kvserve (synchronized): %d race(s), dropped %d — want silence", len(clean.Races), clean.Dropped)
	}
	rep, err := RaceReportFor(byName["kvserve-unsync"], 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Races) == 0 {
		t.Fatal("kvserve-unsync: lost-update race undetected")
	}
	// Layout: 8 one-page tenants on pages 0..7, counters on page 8.
	const counterPage = 8
	var writeRead, writeWrite bool
	for _, r := range rep.Races {
		if r.Page != counterPage {
			t.Errorf("race at page %d offset %d — records are synchronized, only counter words (page %d) may race",
				r.Page, r.Off, counterPage)
		}
		if r.First.Tid == r.Second.Tid {
			t.Errorf("race pair on one thread t%d", r.First.Tid)
		}
		if r.First.Kind != "write" {
			t.Errorf("first site is a %s, want the unreleased write", r.First.Kind)
		}
		if r.Missing == "" {
			t.Error("race missing the missing-sync diagnosis")
		}
		switch r.Second.Kind {
		case "read":
			writeRead = true
		case "write":
			writeWrite = true
		}
	}
	if !writeRead || !writeWrite {
		t.Fatalf("lost update flagged at one site only: write→read=%v write→write=%v", writeRead, writeWrite)
	}
}

// TestRaceReportShardEquivalence pins that race reports are
// byte-identical between the serial engine and sharded runs at every
// supported tiling: the merged event stream preserves serial emission
// order, so the detector — a pure function of the stream — cannot
// tell the difference.
func TestRaceReportShardEquivalence(t *testing.T) {
	for _, p := range RacePrograms() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			serial, err := RaceReportFor(p, 0)
			if err != nil {
				t.Fatal(err)
			}
			want := serial.Format()
			wantJSON, err := serial.JSON()
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []int{2, 4, 8} {
				rep, err := RaceReportFor(p, k)
				if err != nil {
					t.Fatalf("shards=%d: %v", k, err)
				}
				if got := rep.Format(); got != want {
					t.Errorf("shards=%d: report differs from serial\nserial:\n%s\nsharded:\n%s", k, want, got)
				}
				gotJSON, err := rep.JSON()
				if err != nil {
					t.Fatal(err)
				}
				if string(gotJSON) != string(wantJSON) {
					t.Errorf("shards=%d: JSON differs from serial", k)
				}
			}
		})
	}
}
