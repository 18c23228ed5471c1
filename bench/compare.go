package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// compareReports prints one row per workload and metric present in
// both reports, with both medians and quartiles and a verdict, and
// reports whether any verdict is "worse". Bounds come from the
// end_to_end list of the BENCHMARK.json at boundsPath. Model metrics of
// two reports that simulated the same seed must match exactly; at
// different seeds they, like the per-layer costs, are shown without a
// verdict.
func compareReports(oldPath, newPath, boundsPath string, w io.Writer) (bool, error) {
	old, err := loadReport(oldPath)
	if err != nil {
		return false, err
	}
	cur, err := loadReport(newPath)
	if err != nil {
		return false, err
	}
	bounds, err := loadBounds(boundsPath)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "old: %s  commit %s  seed %d  nproc %d\n", oldPath, old.Header.Commit, old.Header.Seed, old.Header.NProc)
	fmt.Fprintf(w, "new: %s  commit %s  seed %d  nproc %d\n", newPath, cur.Header.Commit, cur.Header.Seed, cur.Header.NProc)
	fmt.Fprintf(w, "%-16s %-34s %-9s %30s %30s %9s  %s\n", "workload", "metric", "unit",
		"old median [q1, q3]", "new median [q1, q3]", "change", "verdict")
	var names []string
	for name := range cur.Workloads {
		if _, ok := old.Workloads[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	worse := false
	for _, name := range names {
		ow, nw := old.Workloads[name], cur.Workloads[name]
		sameSeed := old.Header.Seed == cur.Header.Seed && old.Header.Tiny == cur.Header.Tiny
		for _, m := range metricOrder(nw.Metrics) {
			o, ok := ow.Metrics[m]
			if !ok {
				continue
			}
			n := nw.Metrics[m]
			def, _ := findDef(m)
			bound, gated := bounds[m]
			if def.kind == "model" {
				bound, gated = 0, sameSeed
			}
			v := "-"
			if gated {
				v = verdict(o, n, bound, def.better == "lower")
			}
			worse = worse || v == "worse"
			change := "-"
			if o.Median != 0 {
				change = fmt.Sprintf("%.2f%%", 100*(n.Median-o.Median)/math.Abs(o.Median))
			}
			fmt.Fprintf(w, "%-16s %-34s %-9s %30s %30s %9s  %s\n", name, m, n.Unit,
				quartileCell(o), quartileCell(n), change, v)
		}
	}
	return worse, nil
}

func quartileCell(s summary) string {
	return fmt.Sprintf("%.5g [%.5g, %.5g]", s.Median, s.Q1, s.Q3)
}

// verdict classifies the move from o to n against a relative bound.
// When either side's quartile spread exceeds the bound the move cannot
// be resolved, unless every new value beats every old one.
func verdict(o, n summary, bound float64, lowerBetter bool) string {
	if o.Median == n.Median {
		return "unchanged"
	}
	rel := math.Inf(1) // share by which n is worse than o
	if o.Median != 0 {
		rel = (n.Median - o.Median) / math.Abs(o.Median)
	}
	if !lowerBetter {
		rel = -rel
	}
	if bound > 0 && math.Max(o.spread(), n.spread()) > bound {
		if beatsAll(n.Values, o.Values, lowerBetter) {
			return "better"
		}
		return "unresolved"
	}
	switch {
	case rel > bound:
		return "worse"
	case rel < -bound:
		return "better"
	}
	return "unchanged"
}

// beatsAll reports whether every value of a is better than every value
// of b.
func beatsAll(a, b []float64, lowerBetter bool) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	for _, x := range a {
		for _, y := range b {
			if lowerBetter && x >= y || !lowerBetter && x <= y {
				return false
			}
		}
	}
	return true
}

func loadReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// benchmarkFile is the part of BENCHMARK.json the benchmark reads.
type benchmarkFile struct {
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func loadBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// loadBounds returns the regression bound of every end-to-end metric.
func loadBounds(path string) (map[string]float64, error) {
	f, err := loadBenchmarkFile(path)
	if err != nil {
		return nil, err
	}
	bounds := make(map[string]float64, len(f.EndToEnd))
	for _, m := range f.EndToEnd {
		if m.Bound == nil {
			return nil, fmt.Errorf("%s: end_to_end metric %s has no bound", path, m.Name)
		}
		bounds[m.Name] = *m.Bound
	}
	return bounds, nil
}
