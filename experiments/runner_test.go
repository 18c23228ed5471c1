package experiments

import (
	"encoding/json"
	"errors"
	"fmt"
	"testing"

	"plus/apps/sssp"
)

// TestRunPointsOrder pins the runner's determinism contract: results
// come back in point order for any pool size, including pools larger
// than the point count.
func TestRunPointsOrder(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 16, 100} {
		pts := make([]Point[int], 37)
		for i := range pts {
			i := i
			pts[i] = Point[int]{Name: fmt.Sprintf("p%d", i), Run: func() (int, error) { return i * i, nil }}
		}
		got, err := RunPoints(pts, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: point %d returned %d", workers, i, v)
			}
		}
	}
}

// TestRunPointsFirstErrorWins pins deterministic error reporting: no
// matter which worker hits its error first in wall-clock time, the
// error returned is the failing point earliest in point order, wrapped
// with that point's name.
func TestRunPointsFirstErrorWins(t *testing.T) {
	sentinel := errors.New("boom")
	for _, workers := range []int{1, 4} {
		var pts []Point[int]
		for i := 0; i < 8; i++ {
			i := i
			pts = append(pts, Point[int]{
				Name: fmt.Sprintf("point-%d", i),
				Run: func() (int, error) {
					if i == 3 || i == 6 {
						return 0, sentinel
					}
					return i, nil
				},
			})
		}
		_, err := RunPoints(pts, workers)
		if !errors.Is(err, sentinel) {
			t.Fatalf("workers=%d: err = %v, want wrapped sentinel", workers, err)
		}
		if want := "point-3: boom"; err.Error() != want {
			t.Fatalf("workers=%d: err = %q, want %q", workers, err.Error(), want)
		}
	}
}

// TestSerialParallelEquivalence is the framework's core guarantee:
// for a quick sweep, a serial run (-parallel 1) and a parallel run
// produce byte-identical formatted tables and byte-identical JSON
// rows.
func TestSerialParallelEquivalence(t *testing.T) {
	for _, name := range []string{"table2-1", "figure2-1", "faults"} {
		e, ok := Lookup(name)
		if !ok {
			t.Fatalf("experiment %q not registered", name)
		}
		o := Options{Quick: true, MaxProcs: 8}
		o.Workers = 1
		serial, err := e.Run(o)
		if err != nil {
			t.Fatal(err)
		}
		o.Workers = 4
		parallel, err := e.Run(o)
		if err != nil {
			t.Fatal(err)
		}
		if serial.Table != parallel.Table {
			t.Errorf("%s: tables diverge between -parallel 1 and 4:\n--- serial ---\n%s\n--- parallel ---\n%s",
				name, serial.Table, parallel.Table)
		}
		js, err := json.Marshal(serial)
		if err != nil {
			t.Fatal(err)
		}
		jp, err := json.Marshal(parallel)
		if err != nil {
			t.Fatal(err)
		}
		if string(js) != string(jp) {
			t.Errorf("%s: JSON diverges between -parallel 1 and 4:\n%s\nvs\n%s", name, js, jp)
		}
	}
}

// TestParallelEnginesRace runs 8 full simulations (a fresh sim.Engine
// and machine per point) on 8 workers. Under `go test -race` this
// pins that no package-level mutable state — message pools, event
// heaps, stats, RNGs — is shared across concurrently running engines.
func TestParallelEnginesRace(t *testing.T) {
	pts := make([]Point[uint64], 8)
	for i := range pts {
		i := i
		pts[i] = Point[uint64]{
			Name: fmt.Sprintf("race sssp %d", i),
			Run: func() (uint64, error) {
				res, err := sssp.Run(sssp.Config{
					MeshW: 4, MeshH: 2, Procs: 8,
					Vertices: 128, Degree: 4, Seed: int64(42 + i%2),
					Copies: 1 + i%4, Validate: true,
				})
				if err != nil {
					return 0, err
				}
				return res.Messages, nil
			},
		}
	}
	first, err := RunPoints(pts, 8)
	if err != nil {
		t.Fatal(err)
	}
	// And the parallel results must equal a serial re-run point for
	// point.
	second, err := RunPoints(pts, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range first {
		if first[i] != second[i] {
			t.Errorf("point %d: parallel %d != serial %d", i, first[i], second[i])
		}
	}
}

// TestSelect covers the -exp spec grammar.
func TestSelect(t *testing.T) {
	all, err := Select("all")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(Registered()) {
		t.Fatalf("all selected %d of %d", len(all), len(Registered()))
	}
	abl, err := Select("ablations")
	if err != nil {
		t.Fatal(err)
	}
	if len(abl) != 9 {
		t.Fatalf("ablations selected %d experiments", len(abl))
	}
	pair, err := Select("costs,table3-1")
	if err != nil {
		t.Fatal(err)
	}
	if len(pair) != 2 || pair[0].Name != "costs" || pair[1].Name != "table3-1" {
		t.Fatalf("comma list wrong: %+v", pair)
	}
	if _, err := Select("no-such-experiment"); err == nil {
		t.Fatal("unknown name accepted")
	}
	if _, err := Select(""); err == nil {
		t.Fatal("empty spec accepted")
	}
}
