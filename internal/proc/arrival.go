// Open-loop arrival schedules. A closed-loop workload (every app
// before kvserve) issues its next operation as soon as the previous
// one finishes, so the offered load adapts to the system and tail
// latency is invisible. A serving workload is open-loop: requests
// arrive on a schedule fixed before the run, the frontend sleeps
// until each arrival, and an op's latency is measured from its
// *scheduled* arrival to its completion — so a backlog behind a slow
// op correctly inflates the tail instead of throttling the source.
package proc

import (
	"math/rand"

	"plus/internal/sim"
)

// Arrivals generates a deterministic Poisson arrival schedule:
// exponential inter-arrival gaps with the given mean (in cycles),
// drawn from a seeded rng owned by the caller. One per frontend
// thread; the schedule depends only on the seed and draw count, never
// on simulated time, which is what keeps open-loop runs byte-identical
// across shard counts.
type Arrivals struct {
	rng  *rand.Rand
	mean float64
	at   float64
}

// NewArrivals builds a schedule starting at cycle 0 with the given
// mean inter-arrival gap. mean must be positive.
func NewArrivals(rng *rand.Rand, mean float64) *Arrivals {
	if mean <= 0 {
		panic("proc: arrival schedule needs a positive mean gap")
	}
	return &Arrivals{rng: rng, mean: mean}
}

// Next returns the next arrival timestamp. Timestamps are
// nondecreasing and strictly advance by an Exp(mean) gap per call.
func (a *Arrivals) Next() sim.Cycles {
	a.at += a.mean * a.rng.ExpFloat64()
	return sim.Cycles(a.at)
}

// IdleUntil advances the thread to cycle `at` without accruing useful
// processor time (the wait is the frontend pacing itself, not work).
// If `at` is already past — the frontend is running behind its
// arrival schedule — it returns immediately with the lateness;
// otherwise it returns 0. A plain timed wait, with no Sleep/Wake: the
// clock read waits for the body's earlier calls (Now), the wait itself
// queues like Compute.
func (t *Thread) IdleUntil(at sim.Cycles) sim.Cycles {
	now := t.Now()
	if at <= now {
		return now - at
	}
	t.BeginIdle()
	t.Compute(at - now)
	t.EndIdle()
	return 0
}
