package sim

import (
	"strings"
	"testing"
)

func TestCoroutineBasic(t *testing.T) {
	e := NewEngine()
	var marks []Cycles
	co := NewCoroutine(e, "t", func(co *Coroutine) {
		marks = append(marks, e.Now())
		co.WaitCycles(10)
		marks = append(marks, e.Now())
		co.WaitCycles(5)
		marks = append(marks, e.Now())
	})
	co.WakeAfter(3)
	e.Run()
	want := []Cycles{3, 13, 18}
	if len(marks) != len(want) {
		t.Fatalf("marks = %v, want %v", marks, want)
	}
	for i := range want {
		if marks[i] != want[i] {
			t.Fatalf("marks = %v, want %v", marks, want)
		}
	}
	if !co.Done() {
		t.Fatal("coroutine not done after Run")
	}
}

func TestCoroutineParkWake(t *testing.T) {
	e := NewEngine()
	var resumedAt Cycles
	co := NewCoroutine(e, "sleeper", func(co *Coroutine) {
		co.Park()
		resumedAt = e.Now()
	})
	co.WakeAfter(0)
	runAfter(e, 100, func() { co.WakeAfter(7) })
	e.Run()
	if resumedAt != 107 {
		t.Fatalf("resumed at %d, want 107", resumedAt)
	}
}

func TestCoroutineInterleaving(t *testing.T) {
	// Two coroutines with different periods must interleave in strict
	// virtual-time order, never concurrently.
	e := NewEngine()
	var order []string
	running := false
	body := func(name string, period Cycles, n int) func(*Coroutine) {
		return func(co *Coroutine) {
			for i := 0; i < n; i++ {
				if running {
					t.Error("two coroutines running at once")
				}
				running = true
				order = append(order, name)
				running = false
				co.WaitCycles(period)
			}
		}
	}
	a := NewCoroutine(e, "a", body("a", 10, 3))
	b := NewCoroutine(e, "b", body("b", 4, 5))
	a.WakeAfter(0)
	b.WakeAfter(0)
	e.Run()
	// a runs at 0,10,20; b at 0,4,8,12,16. Ties break by schedule order
	// (a woken first at t=0).
	want := []string{"a", "b", "b", "b", "a", "b", "b", "a"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestCoroutineDoubleWakePanics(t *testing.T) {
	e := NewEngine()
	co := NewCoroutine(e, "t", func(co *Coroutine) { co.Park() })
	co.WakeAfter(5)
	defer func() {
		if recover() == nil {
			t.Error("double wake did not panic")
		}
	}()
	co.WakeAfter(5)
}

func TestCoroutineWakeFinishedPanics(t *testing.T) {
	e := NewEngine()
	co := NewCoroutine(e, "t", func(co *Coroutine) {})
	co.WakeAfter(0)
	e.Run()
	if !co.Done() {
		t.Fatal("not done")
	}
	defer func() {
		if recover() == nil {
			t.Error("waking a finished coroutine did not panic")
		}
	}()
	co.WakeAfter(0)
}

func TestManyCoroutinesDeterministic(t *testing.T) {
	run := func() []int {
		e := NewEngine()
		var out []int
		for i := 0; i < 50; i++ {
			i := i
			co := NewCoroutine(e, "w", func(co *Coroutine) {
				co.WaitCycles(Cycles(i % 7))
				out = append(out, i)
				co.WaitCycles(Cycles(i % 3))
				out = append(out, -i)
			})
			co.WakeAfter(Cycles(i % 5))
		}
		e.Run()
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) || len(a) != 100 {
		t.Fatalf("lengths: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// explode is a coroutine body that panics after one wait, so the panic
// happens on a resumed coroutine rather than on its first slice.
func explode(co *Coroutine) {
	co.WaitCycles(3)
	panic("boom")
}

// TestCoroutinePanicSurfacesAtRun pins that a panic in a coroutine's
// body is recoverable at the engine's Run, and that the value names
// the coroutine and keeps the stack of the body where it happened.
func TestCoroutinePanicSurfacesAtRun(t *testing.T) {
	e := NewEngine()
	NewCoroutine(e, "victim", explode).WakeAfter(0)
	var got any
	func() {
		defer func() { got = recover() }()
		e.Run()
	}()
	p, ok := got.(*CoroutinePanic)
	if !ok {
		t.Fatalf("recovered %T %v, want *CoroutinePanic", got, got)
	}
	if p.Label != "victim" || p.Value != "boom" {
		t.Fatalf("panic = {%q, %v}, want {victim, boom}", p.Label, p.Value)
	}
	if !strings.Contains(string(p.Stack), "sim.explode") {
		t.Fatalf("panic stack has no frame of the body:\n%s", p.Stack)
	}
	if msg := p.Error(); !strings.Contains(msg, "victim") || !strings.Contains(msg, "boom") {
		t.Fatalf("panic message %q does not name the coroutine and value", msg)
	}
}
