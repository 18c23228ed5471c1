package par

import (
	"testing"

	"plus/internal/core"
	"plus/internal/memory"
	"plus/internal/proc"
	"plus/internal/sim"
)

func newMachine(t *testing.T, w, h int) *core.Machine {
	t.Helper()
	m, err := core.NewMachine(core.DefaultConfig(w, h))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestForCoversRangeOnce(t *testing.T) {
	m := newMachine(t, 2, 2)
	out := m.Alloc(0, 1)
	For(m, Nodes(4), 100, func(th *proc.Thread, i int) {
		th.Verify(th.Fadd(out+memory.VAddr(i%1024), 1))
	})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if got := m.Peek(out + memory.VAddr(i)); got != 1 {
			t.Fatalf("index %d visited %d times", i, got)
		}
	}
}

func TestForBarrierBeforeReturn(t *testing.T) {
	// All iterations' writes must be globally visible when Run returns
	// (the loop fences and barriers).
	m := newMachine(t, 2, 2)
	data := m.Alloc(0, 1)
	m.Replicate(data, 3)
	For(m, Nodes(4), 64, func(th *proc.Thread, i int) {
		th.Write(data+memory.VAddr(i), memory.Word(uint32(i*i)))
	})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if err := m.Kernel().CheckCoherent(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if got := m.Peek(data + memory.VAddr(i)); got != memory.Word(uint32(i*i)) {
			t.Fatalf("data[%d] = %d", i, got)
		}
	}
}

func TestForDynamicBalancesIrregularWork(t *testing.T) {
	// Iteration costs are wildly skewed; dynamic scheduling should
	// finish much faster than static blocks.
	cost := func(i int) sim.Cycles {
		if i < 8 {
			return 20000 // a few huge iterations at the front
		}
		return 50
	}
	run := func(dynamic bool) sim.Cycles {
		m := newMachine(t, 2, 2)
		body := func(th *proc.Thread, i int) { th.Compute(cost(i)) }
		if dynamic {
			ForDynamic(m, Nodes(4), 64, 2, body)
		} else {
			For(m, Nodes(4), 64, body)
		}
		el, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return el
	}
	static := run(false)
	dynamic := run(true)
	if dynamic >= static {
		t.Fatalf("dynamic (%d) not faster than static (%d) on skewed work", dynamic, static)
	}
}

func TestForDynamicCoversRange(t *testing.T) {
	m := newMachine(t, 2, 2)
	visited := make([]int, 77)
	ForDynamic(m, Nodes(4), 77, 3, func(th *proc.Thread, i int) {
		visited[i]++
		th.Compute(30)
	})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range visited {
		if v != 1 {
			t.Fatalf("iteration %d ran %d times", i, v)
		}
	}
}

func TestReduceSum(t *testing.T) {
	m := newMachine(t, 2, 2)
	acc := Reduce(m, Nodes(4), 100, func(th *proc.Thread, i int) int32 {
		th.Compute(10)
		return int32(i)
	})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got := int32(m.Peek(acc)); got != 99*100/2 {
		t.Fatalf("sum = %d", got)
	}
}

func TestValidation(t *testing.T) {
	m := newMachine(t, 2, 1)
	for _, f := range []func(){
		func() { For(m, nil, 10, nil) },
		func() { ForDynamic(m, nil, 10, 1, nil) },
		func() { Reduce(m, nil, 10, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("empty processor set accepted")
				}
			}()
			f()
		}()
	}
}
