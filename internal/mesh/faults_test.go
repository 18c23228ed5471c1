package mesh

import (
	"testing"

	"plus/internal/sim"
	"plus/internal/stats"
)

func faultyConfig(w, h int, f FaultConfig) Config {
	cfg := DefaultConfig(w, h)
	cfg.Faults = f
	return cfg
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"zero geometry", Config{Width: 0, Height: 4}},
		{"negative buffer", faultyConfig(2, 2, FaultConfig{LinkBufFlits: -1})},
		{"buffers without contention", faultyConfig(2, 2, FaultConfig{LinkBufFlits: 4})},
		{"delay without bound", faultyConfig(2, 2, FaultConfig{DelayRate: 0.1})},
		{"drop rate above 1", faultyConfig(2, 2, FaultConfig{DropRate: 1.5})},
		{"negative dup rate", faultyConfig(2, 2, FaultConfig{DupRate: -0.1})},
	}
	for _, c := range cases {
		if err := c.cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", c.name, c.cfg)
		}
	}
	good := faultyConfig(2, 2, FaultConfig{Seed: 1, DropRate: 0.5, DupRate: 0.5, DelayRate: 0.5, DelayMax: 100})
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

// faultTally is what a fault run did: the mesh's counters plus the
// injections, duplicates and delays its observer saw.
type faultTally struct {
	Stats
	Injected, Duplicated, Delayed int
}

// runFaultTraffic drives a fixed traffic pattern through a faulty mesh
// and returns the resulting tally. Receivers recycle everything.
func runFaultTraffic(t *testing.T, f FaultConfig) faultTally {
	t.Helper()
	eng := sim.NewEngine()
	m := New(eng, faultyConfig(4, 4, f))
	o := stats.NewObserver(stats.ObserveConfig{Events: 1 << 16})
	o.Bind(eng.Now, stats.TraceMeta{})
	m.SetObservers([]*stats.Observer{o})
	for n := NodeID(0); int(n) < m.Nodes(); n++ {
		m.Attach(n, PortFunc(func(p *Msg) { m.FreeMsg(p) }))
	}
	for i := 0; i < 500; i++ {
		src := NodeID(i % m.Nodes())
		dst := NodeID((i * 7) % m.Nodes())
		if src == dst {
			dst = (dst + 1) % NodeID(m.Nodes())
		}
		m.Send(src, dst, 1+i%4, m.AllocMsg())
		if i%10 == 0 {
			eng.Run()
		}
	}
	eng.Run()
	if live := m.LiveMsgs(); live != 0 {
		t.Fatalf("pool imbalance: %d messages live after drain", live)
	}
	if o.Overwritten() != 0 {
		t.Fatalf("ring overwrote %d events", o.Overwritten())
	}
	tally := faultTally{Stats: m.Stats()}
	for e := range o.All() {
		switch e.Kind {
		case stats.EvNetInject:
			tally.Injected++
		case stats.EvNetDup:
			tally.Duplicated++
		case stats.EvNetDelay:
			tally.Delayed++
		}
	}
	return tally
}

// TestFaultDeterminism pins that the same seed replays the same fault
// sequence (identical tallies) and that a different seed diverges, and —
// via runFaultTraffic's pool check — that drops and dups neither leak
// nor double-free pooled messages.
func TestFaultDeterminism(t *testing.T) {
	f := FaultConfig{Seed: 11, DropRate: 0.1, DupRate: 0.05, DelayRate: 0.1, DelayMax: 50}
	a := runFaultTraffic(t, f)
	b := runFaultTraffic(t, f)
	if a != b {
		t.Fatalf("same seed, different tallies:\n%+v\n%+v", a, b)
	}
	if a.Dropped == 0 || a.Duplicated == 0 || a.Delayed == 0 {
		t.Fatalf("fault injection inactive: %+v", a)
	}
	f.Seed = 12
	c := runFaultTraffic(t, f)
	if a == c {
		t.Fatalf("different seeds produced identical tallies: %+v", a)
	}
}

func TestFaultsOffIsExactlyReliable(t *testing.T) {
	a := runFaultTraffic(t, FaultConfig{})
	if a.Dropped != 0 || a.Duplicated != 0 || a.Delayed != 0 || a.Nacked != 0 {
		t.Fatalf("fault counters nonzero with the model off: %+v", a)
	}
	if a.Injected != 500 {
		t.Fatalf("sent 500, the observer saw %d injections", a.Injected)
	}
}

func TestDoubleFreePanics(t *testing.T) {
	_, m := newTestMesh(2, 2, false)
	ms := m.AllocMsg()
	m.FreeMsg(ms)
	defer func() {
		if recover() == nil {
			t.Error("double FreeMsg did not panic")
		}
	}()
	m.FreeMsg(ms)
}

func TestSendPanicsHaveContext(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	eng, m := newTestMesh(2, 2, false)
	m.Attach(0, PortFunc(func(p *Msg) {}))
	mustPanic("out-of-range dst", func() { m.Send(0, 99, 1, m.AllocMsg()) })
	mustPanic("out-of-range src", func() { m.Send(-1, 0, 1, m.AllocMsg()) })
	mustPanic("unattached dst", func() { m.Send(0, 1, 1, m.AllocMsg()) })
	mustPanic("out-of-range attach", func() { m.Attach(7, PortFunc(func(p *Msg) {})) })
	mustPanic("nil port", func() { m.Attach(1, nil) })
	_ = eng
}

// TestBackpressureNacks floods one link past its bounded buffer and
// checks that overflowing messages bounce back to the sender with
// Nacked set while admitted traffic still arrives.
func TestBackpressureNacks(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig(4, 1)
	cfg.Contention = true
	cfg.Faults.LinkBufFlits = 8
	m := New(eng, cfg)
	delivered, nacked := 0, 0
	m.Attach(0, PortFunc(func(p *Msg) {
		if !p.Nacked {
			t.Errorf("node 0 received a non-NACK delivery")
		}
		nacked++
		m.FreeMsg(p)
	}))
	for n := NodeID(1); int(n) < m.Nodes(); n++ {
		m.Attach(n, PortFunc(func(p *Msg) {
			if p.Nacked {
				t.Errorf("node %d received a NACK meant for the sender", p.Dst)
			}
			delivered++
			m.FreeMsg(p)
		}))
	}
	// 16-flit messages over node 0's single east link: each occupies it
	// for 32 cycles, so the backlog passes 8 flits (16 cycles) quickly.
	for i := 0; i < 12; i++ {
		m.Send(0, 3, 16, m.AllocMsg())
	}
	eng.Run()
	if nacked == 0 {
		t.Fatal("no messages bounced despite a full link buffer")
	}
	if delivered == 0 {
		t.Fatal("no messages admitted at all")
	}
	if got := m.Stats().Nacked; got != uint64(nacked) {
		t.Fatalf("stats.Nacked = %d, bounced %d", got, nacked)
	}
	if delivered+nacked != 12 {
		t.Fatalf("delivered %d + nacked %d != 12 sent", delivered, nacked)
	}
	if live := m.LiveMsgs(); live != 0 {
		t.Fatalf("pool imbalance: %d messages live after drain", live)
	}
}

// TestSendAllocFreeWithFaults pins the faulty send path — drop, dup
// (pooled clone), delay, NACK bounce — at zero allocations once the
// pool is warm, like TestSendAllocFree does for the reliable path.
func TestSendAllocFreeWithFaults(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig(4, 4)
	cfg.Contention = true
	cfg.Faults = FaultConfig{Seed: 3, DropRate: 0.2, DupRate: 0.2, DelayRate: 0.2, DelayMax: 64, LinkBufFlits: 64}
	m := New(eng, cfg)
	drain := PortFunc(func(p *Msg) { m.FreeMsg(p) })
	for n := NodeID(0); int(n) < m.Nodes(); n++ {
		m.Attach(n, drain)
	}
	for i := 0; i < 256; i++ {
		m.Send(0, NodeID(1+i%15), 4, m.AllocMsg())
	}
	eng.Run()
	avg := testing.AllocsPerRun(50, func() {
		for i := 0; i < 16; i++ {
			m.Send(NodeID(i%4), NodeID(15-i%4), 4, m.AllocMsg())
		}
		eng.Run()
	})
	if avg != 0 {
		t.Fatalf("faulty send path allocates %v objects per run, want 0", avg)
	}
	if live := m.LiveMsgs(); live != 0 {
		t.Fatalf("pool imbalance: %d messages live after drain", live)
	}
}
