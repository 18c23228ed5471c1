package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary serve as the benchmark's rep child, so
// the smoke test drives the real child-process protocol.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(childMain(os.Args[1:]))
	}
	os.Exit(m.Run())
}

const benchmarkJSON = "../BENCHMARK.json"

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// Expected values are statistics.quantiles(xs, n=4) and the median.
	for _, c := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{7}, 7, 7, 7},
		{[]float64{2, 1}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 4, 2, 8}, 1.5, 4, 9},
	} {
		q1, med, q3 := quartiles(c.xs)
		if q1 != c.q1 || med != c.med || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v, %v", c.xs, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
}

// pb is a minimal protobuf writer for synthetic profiles.
type pb struct{ bytes.Buffer }

func (b *pb) varint(num int, v uint64) {
	b.Write(binary.AppendUvarint(nil, uint64(num)<<3))
	b.Write(binary.AppendUvarint(nil, v))
}

func (b *pb) bytes(num int, data []byte) {
	b.Write(binary.AppendUvarint(nil, uint64(num)<<3|2))
	b.Write(binary.AppendUvarint(nil, uint64(len(data))))
	b.Write(data)
}

func (b *pb) packed(num int, vs ...uint64) {
	var p []byte
	for _, v := range vs {
		p = binary.AppendUvarint(p, v)
	}
	b.bytes(num, p)
}

func TestFoldProfileInnermostPlusFrame(t *testing.T) {
	names := []string{"",
		"runtime.chansend",                    // 1
		"plus/internal/sim.(*Coroutine).Park", // 2
		"plus/apps/sssp.(*workspace).process", // 3
		"runtime.mallocgc",                    // 4
		"plus/internal/mesh.(*Mesh).route",    // 5, inlined into 6
		"plus/internal/coherence.(*CM).send",  // 6
		"plus/internal/sim.MergeByTag[go.shape.struct { plus/internal/stats.ev }]", // 7
		"plus/work.(*Pool).getScan",           // 8
		"plus/internal/memory.(*Memory).Read", // 9
	}
	var prof pb
	for i := 1; i < len(names); i++ {
		var fn pb
		fn.varint(1, uint64(i)) // function i is named by string i
		fn.varint(2, uint64(i))
		prof.bytes(5, fn.Bytes())
	}
	addLoc := func(id uint64, fns ...uint64) { // fns innermost first
		var loc pb
		loc.varint(1, id)
		for _, f := range fns {
			var line pb
			line.varint(1, f)
			loc.bytes(4, line.Bytes())
		}
		prof.bytes(4, loc.Bytes())
	}
	for _, i := range []uint64{1, 2, 3, 4, 7, 8, 9} {
		addLoc(i, i)
	}
	addLoc(5, 5, 6) // the mesh frame inlined into coherence
	sample := func(count uint64, locs ...uint64) {
		var s pb
		if len(locs) == 1 {
			s.varint(1, locs[0]) // unpacked encoding
		} else {
			s.packed(1, locs...)
		}
		s.packed(2, count, count*1e7)
		prof.bytes(2, s.Bytes())
	}
	sample(3, 1, 2, 3) // chansend ← sim Park ← sssp: the sim frame is innermost
	sample(2, 4)       // no plus/ frame at all
	sample(5, 4, 5)    // malloc ← inlined mesh ← coherence: mesh wins
	sample(7, 7, 3)    // generic instance whose type argument names stats
	sample(11, 4, 8)   // work pool counts as the apps layer
	sample(13, 9, 3)   // a plus/ package that is not a layer
	for _, s := range names {
		prof.bytes(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(prof.Bytes())
	zw.Close()

	got, err := foldProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"sim": 3 + 7, "runtime": 2, "mesh": 5, "apps": 11, "other": 13}
	if len(got) != len(want) {
		t.Errorf("fold = %v, want %v", got, want)
	}
	for l, n := range want {
		if got[l] != n {
			t.Errorf("layer %s: %d samples, want %d (fold %v)", l, got[l], n, got)
		}
	}
	if _, err := foldProfile([]byte("not a profile")); err == nil {
		t.Error("garbage accepted as a profile")
	}
}

func loadBenchmarkJSON(t *testing.T) *benchmarkFile {
	t.Helper()
	f, err := loadBenchmarkFile(benchmarkJSON)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestBenchmarkJSONMatchesCode(t *testing.T) {
	f := loadBenchmarkJSON(t)
	for _, c := range []struct {
		file []benchmarkMetric
		code []metricDef
	}{{f.EndToEnd, endToEnd}, {f.PerLayer, perLayer}} {
		if len(c.file) != len(c.code) {
			t.Errorf("BENCHMARK.json lists %d metrics, the code %d", len(c.file), len(c.code))
			continue
		}
		for i, m := range c.file {
			d := c.code[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("metric %d: BENCHMARK.json %s/%s/%s, code %s/%s/%s", i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
			}
		}
	}
	data, err := os.ReadFile(benchmarkJSON)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name, Why string
		} `json:"workloads"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", doc.Paths)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, w.Name, workloads[i].name)
		}
	}
}

// runBench runs the command in-process and returns its final JSON line.
func runBench(t *testing.T, args ...string) (result, string) {
	t.Helper()
	var out bytes.Buffer
	if code := run(args, &out); code != 0 {
		t.Fatalf("bench %v exited %d:\n%s", args, code, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, lines[len(lines)-1])
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("result %+v:\n%s", res, out.String())
	}
	return res, out.String()
}

// TestSmokeEveryMetric runs all four workloads at tiny size, traced and
// untraced, and checks that every metric BENCHMARK.json names is
// emitted for every workload with its unit, and that a report compares
// clean against itself.
func TestSmokeEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark's child processes")
	}
	f := loadBenchmarkJSON(t)
	dir := t.TempDir()
	for _, c := range []struct {
		trace string
		want  []benchmarkMetric
	}{{"0", f.EndToEnd}, {"1", f.PerLayer}} {
		out := filepath.Join(dir, "report"+c.trace+".json")
		res, _ := runBench(t, "-tiny", "-seconds", "0", "-trace", c.trace, "-out", out)
		for _, w := range workloads {
			for _, m := range c.want {
				got, ok := res.Metrics[w.name+"/"+m.Name]
				if !ok {
					t.Errorf("trace %s: %s/%s not emitted", c.trace, w.name, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("trace %s: %s/%s unit %q, want %q", c.trace, w.name, m.Name, got.Unit, m.Unit)
				}
			}
		}
		var cmp bytes.Buffer
		worse, err := compareReports(out, out, benchmarkJSON, &cmp)
		if err != nil || worse || strings.Contains(cmp.String(), "worse") {
			t.Errorf("report compared against itself: worse=%v err=%v\n%s", worse, err, cmp.String())
		}
	}
	r, err := loadReport(filepath.Join(dir, "report0.json"))
	if err != nil {
		t.Fatal(err)
	}
	kv := r.Workloads["kvserve-hotkey"].Metrics
	for _, d := range reportOnly {
		// Tiny runs hold too few samples for a p99.9.
		if _, ok := kv[d.name]; !ok && !strings.HasSuffix(d.name, "p999_cycles") {
			t.Errorf("kvserve-hotkey report lacks %s", d.name)
		}
	}
}

func TestVerdict(t *testing.T) {
	s := func(values ...float64) summary { return summarize("s", "host", values) }
	for _, c := range []struct {
		old, new summary
		bound    float64
		lower    bool
		want     string
	}{
		{s(10, 10, 10), s(10, 10, 10), 0.1, true, "unchanged"},
		{s(10, 10, 10), s(10.5, 10.5, 10.5), 0.1, true, "unchanged"},
		{s(10, 10, 10), s(12, 12, 12), 0.1, true, "worse"},
		{s(10, 10, 10), s(12, 12, 12), 0.1, false, "better"},
		{s(10, 10, 10), s(8, 8, 8), 0.1, true, "better"},
		{s(5, 10, 15), s(11, 12, 13), 0.1, true, "unresolved"},
		{s(10, 11, 12), s(2, 3, 9), 0.1, true, "better"}, // noisy, but every new run wins
		{summarize("c", "model", []float64{7}), summarize("c", "model", []float64{7.5}), 0, true, "worse"},
	} {
		if got := verdict(c.old, c.new, c.bound, c.lower); got != c.want {
			t.Errorf("verdict(%v → %v, bound %v, lower %v) = %s, want %s",
				c.old.Values, c.new.Values, c.bound, c.lower, got, c.want)
		}
	}
}

// TestCompareModelMetricsBySeed checks that model metrics must match
// exactly between reports of one seed and carry no verdict between
// reports of different seeds, while host metrics keep their bound.
func TestCompareModelMetricsBySeed(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, seed int64, cycles, wall float64) string {
		r := report{Header: header{Seed: seed}, Workloads: map[string]*workloadReport{
			"w": {Metrics: map[string]summary{
				"sim_cycles":   summarize("cycles", "model", []float64{cycles}),
				"kv_late_frac": summarize("fraction", "model", []float64{cycles / 1e6}),
				"wall_s":       summarize("s", "host", []float64{wall, wall, wall}),
			}},
		}}
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", 1, 1000, 2)
	for _, c := range []struct {
		name      string
		seed      int64
		cycles    float64
		wall      float64
		wantWorse bool
	}{
		{"same seed, same model", 1, 1000, 2, false},
		{"same seed, model moved", 1, 1001, 2, true},
		{"other seed, model differs", 2, 1100, 2, false},
		{"other seed, host regressed", 2, 1100, 3, true},
	} {
		var out bytes.Buffer
		worse, err := compareReports(base, write("new.json", c.seed, c.cycles, c.wall), benchmarkJSON, &out)
		if err != nil {
			t.Fatal(err)
		}
		if worse != c.wantWorse {
			t.Errorf("%s: worse = %v, want %v\n%s", c.name, worse, c.wantWorse, out.String())
		}
	}
}
