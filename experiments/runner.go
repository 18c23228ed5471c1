package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Options are the uniform knobs every experiment understands. The zero
// value is a full-size serial-defaulted run.
type Options struct {
	// Quick shrinks problem sizes for fast test runs.
	Quick bool
	// MaxProcs caps processor sweeps (0 = experiment default).
	MaxProcs int
	// Workers bounds the sweep worker pool (<=0 = GOMAXPROCS). Results
	// are byte-identical for any value: every point is an independent
	// simulation and rows always come back in point order.
	Workers int
	// Shards runs each point's machine on that many shard engines: every
	// sweep builds its machines through Options.machine, and the scale
	// experiment then sweeps {1, Shards} instead of its default shard
	// list. Results are byte-identical to serial runs; the knob trades
	// wall-clock time inside one point, orthogonally to Workers, which
	// runs independent points concurrently. 0 or 1 = serial points;
	// points whose mesh the count does not tile fall back to serial
	// individually.
	Shards int
	// Observe, when non-nil, instruments every sweep point with a
	// structured-event observer (one per point; see observe.go). Nil
	// keeps all simulation hot paths allocation-free.
	Observe *Observation
}

// EffectiveShards resolves Shards to the per-point engine count
// recorded in every Result (1 = serial).
func (o Options) EffectiveShards() int {
	if o.Shards > 1 {
		return o.Shards
	}
	return 1
}

// Point is one independent simulation of a sweep: a name for error
// reporting (and the point's trace run name), and a closure that
// builds a fresh machine (its own sim.Engine), runs it, and returns
// one result. Run must not share mutable state with any other
// point — RunPoints executes points concurrently.
type Point[T any] struct {
	Name string
	Run  func() (T, error)
}

// RunPoints executes the points on a bounded worker pool and returns
// their results in point order. Each worker goroutine pulls the next
// unclaimed point, so every point runs exactly once on exactly one
// goroutine, one worker included; because points are independent
// single-threaded simulations, serial (workers=1) and parallel runs
// produce identical results. The first error in point order wins (also deterministic —
// every point runs to completion regardless of other points' errors).
func RunPoints[T any](pts []Point[T], workers int) ([]T, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(pts) {
		workers = len(pts)
	}
	results := make([]T, len(pts))
	errs := make([]error, len(pts))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(pts) {
					return
				}
				results[i], errs[i] = pts[i].Run()
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("%s: %w", pts[i].Name, err)
		}
	}
	return results, nil
}
