package experiments

import (
	"os"
	"path/filepath"
	"testing"
)

// Golden tests pin the deterministic simulation down to the cycle:
// any change to the timing model, protocol state machines, scheduling
// order or workload generation shows up as a golden diff. They run
// through the registry, so they also pin the shared table renderer
// every experiment now formats with. Regenerate intentionally with:
//
//	UPDATE_GOLDEN=1 go test ./experiments -run TestGolden
var update = os.Getenv("UPDATE_GOLDEN") == "1"

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with UPDATE_GOLDEN=1 to create): %v", path, err)
	}
	if string(want) != got {
		t.Errorf("golden mismatch for %s.\n--- want ---\n%s\n--- got ---\n%s", name, want, got)
	}
}

// runExp executes a registered experiment through the registry, the
// one entry point plusbench uses too.
func runExp(t testing.TB, name string, o Options) *Result {
	t.Helper()
	e, ok := Lookup(name)
	if !ok {
		t.Fatalf("experiment %q not registered", name)
	}
	res, err := e.Run(o)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// rowsOf runs a registered experiment and returns its typed rows.
func rowsOf[T any](t testing.TB, name string, o Options) []T {
	t.Helper()
	return runExp(t, name, o).Rows.([]T)
}

// goldenRun executes a registered experiment and returns its rendered
// table.
func goldenRun(t *testing.T, name string, o Options) string {
	t.Helper()
	return runExp(t, name, o).Table
}

func TestGoldenTable21(t *testing.T) {
	checkGolden(t, "table2-1.quick", goldenRun(t, "table2-1", Options{Quick: true}))
}

func TestGoldenTable31(t *testing.T) {
	checkGolden(t, "table3-1", goldenRun(t, "table3-1", Options{}))
}

func TestGoldenCosts(t *testing.T) {
	checkGolden(t, "costs", goldenRun(t, "costs", Options{}))
}

func TestGoldenFigure21(t *testing.T) {
	checkGolden(t, "figure2-1.quick", goldenRun(t, "figure2-1", Options{Quick: true, MaxProcs: 8}))
}

func TestGoldenFigure21Contention(t *testing.T) {
	checkGolden(t, "figure2-1-contention.quick",
		goldenRun(t, "figure2-1-contention", Options{Quick: true, MaxProcs: 8}))
}

func TestGoldenFaultCrash(t *testing.T) {
	checkGolden(t, "fault-crash.quick", goldenRun(t, "fault-crash", Options{Quick: true}))
}

func TestGoldenKvserve(t *testing.T) {
	checkGolden(t, "kvserve-sweep.quick", goldenRun(t, "kvserve-sweep", Options{Quick: true}))
}

func TestGoldenFigure31(t *testing.T) {
	checkGolden(t, "figure3-1.quick", goldenRun(t, "figure3-1", Options{Quick: true}))
}

// TestGoldenAblations pins every ablation-* table at Quick size.
func TestGoldenAblations(t *testing.T) {
	for _, name := range []string{
		"ablation-fence", "ablation-invalidate", "ablation-pending-writes",
		"ablation-delayed-slots", "ablation-contention", "ablation-competitive",
		"ablation-batching",
	} {
		t.Run(name, func(t *testing.T) {
			checkGolden(t, name+".quick", goldenRun(t, name, Options{Quick: true}))
		})
	}
}
