package experiments

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"strings"
	"sync"
	"testing"

	"plus/internal/stats"
)

// TestGoldenFingerprints pins the whole observed behaviour of the quick
// registry in testdata/fingerprints.quick.txt, one line per fact:
//   - every observed point's run fingerprint (stats.Observer.Fingerprint:
//     its whole event stream, then its elapsed cycles, counters,
//     histograms, samples and memory images), under "experiment/point";
//   - a hash of each experiment's JSON rows, with the scale sweep's
//     host-time columns zeroed;
//   - each race-corpus program's fingerprint and a hash of its report.
//
// A behaviour change regenerates the file (make golden), and its diff
// names every point that moved. The sweeps also run at 2 and 4 shard
// engines, alongside the serial one: every point both runs hold must
// keep its serial fingerprint. Rows are compared at one shard count
// only, since Result.Shards records it.
func TestGoldenFingerprints(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the observed quick registry three times")
	}
	shards := []int{1, 2, 4}
	sweeps, errs := make([][]observedSweep, len(shards)), make([]error, len(shards))
	var wg sync.WaitGroup
	for i, k := range shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sweeps[i], errs[i] = observedSweeps(k)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	serial := map[string]uint64{}
	for _, s := range sweeps[0] {
		for _, r := range s.runs {
			serial[s.res.Name+"/"+r.Name] = r.Fingerprint()
			fmt.Fprintf(&b, "%s/%s %016x\n", s.res.Name, r.Name, r.Fingerprint())
		}
		if rows, ok := s.res.Rows.([]ScaleRow); ok {
			for i := range rows {
				rows[i].WallMS, rows[i].Speedup = 0, 0
			}
		}
		fmt.Fprintf(&b, "%s rows %016x\n", s.res.Name, hashOf(t, s.res.Rows, ""))
	}
	outcomes, _, err := RunRaceCorpus()
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range outcomes {
		fmt.Fprintf(&b, "races/%s %016x report %016x\n",
			o.Program, o.Trace.Fingerprint(), hashOf(t, o, o.Report.Format()))
	}
	checkTestdata(t, "fingerprints.quick.txt", b.String())

	for i, k := range shards[1:] {
		shared := 0
		for _, s := range sweeps[i+1] {
			for _, r := range s.runs {
				name := s.res.Name + "/" + r.Name
				if want, ok := serial[name]; ok {
					shared++
					if fp := r.Fingerprint(); fp != want {
						t.Errorf("shards=%d: %s fingerprint %016x, serial %016x", k, name, fp, want)
					}
				}
			}
		}
		if shared == 0 {
			t.Errorf("shards=%d: no point shared with the serial sweep", k)
		}
		t.Logf("shards=%d: %d of %d serial points shared", k, shared, len(serial))
	}
}

// observedSweep is one registered experiment's result and its observed
// runs in point-name order.
type observedSweep struct {
	res  *Result
	runs []stats.ObservedRun
}

// observedSweeps runs the registered experiments at quick size on the
// given shard count, each point observed with a 5000-cycle sampler.
func observedSweeps(shards int) ([]observedSweep, error) {
	var out []observedSweep
	for _, e := range Registered() {
		ob := NewObservation(stats.ObserveConfig{SampleEvery: 5000})
		res, err := e.Run(Options{Quick: true, Shards: shards, Observe: ob})
		if err != nil {
			return nil, fmt.Errorf("shards=%d: %w", shards, err)
		}
		out = append(out, observedSweep{res, ob.Runs()})
	}
	return out, nil
}

// hashOf returns the FNV-1a hash of v's JSON followed by text.
func hashOf(t *testing.T, v any, text string) uint64 {
	t.Helper()
	js, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(js)
	h.Write([]byte(text))
	return h.Sum64()
}
