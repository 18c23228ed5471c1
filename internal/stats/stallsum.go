package stats

import (
	"fmt"
	"sort"
	"strings"
)

// StallSummary renders a flamegraph-style folded-stack summary of the
// stall events in the given runs: one line per
// `run;node;stall-class cycles`, sorted, plus per-class totals. The
// folded lines paste directly into any flamegraph renderer; the totals
// give a quick text answer to "where did the cycles go".
func StallSummary(runs []ObservedRun) string {
	folded := map[string]uint64{}
	classTotal := map[string]uint64{}
	var total uint64
	for _, run := range runs {
		for e := range run.All() {
			if e.Kind != EvStallEnd {
				continue
			}
			cls := StallClassName(e.Sub)
			key := fmt.Sprintf("%s;n%d;%s", run.Name, e.Node, cls)
			folded[key] += e.B
			classTotal[cls] += e.B
			total += e.B
		}
	}
	var b strings.Builder
	b.WriteString("stall summary (folded stacks: run;node;class cycles)\n")
	if total == 0 {
		b.WriteString("  (no stall events recorded)\n")
		return b.String()
	}
	keys := make([]string, 0, len(folded))
	for k := range folded {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "%s %d\n", k, folded[k])
	}
	b.WriteString("totals:\n")
	classes := make([]string, 0, len(classTotal))
	for c := range classTotal {
		classes = append(classes, c)
	}
	sort.Slice(classes, func(i, j int) bool { return classTotal[classes[i]] > classTotal[classes[j]] })
	for _, c := range classes {
		fmt.Fprintf(&b, "  %-8s %12d cycles (%5.1f%%)\n",
			c, classTotal[c], 100*float64(classTotal[c])/float64(total))
	}
	return b.String()
}
