package main

import (
	"math"
	"time"
)

// refCalib is calibrate's result on the reference host, a 2-vCPU Intel
// Xeon at GOMAXPROCS 2 under light load. Host-time metrics are rescaled
// to that host's speed: a rep's seconds are multiplied by refCalib over
// the calibration measured around it.
const refCalib = 0.15

// calibrate times a fixed host workload that stands in for the
// simulator's mix of work — integer compute, goroutine handoffs over
// unbuffered channels, and heap allocation with pointer chasing — and
// returns the faster of two timings in seconds. Its code never changes
// with the simulator, so its duration tracks only how fast the shared
// host runs at the moment: on the reference host, simulator reps slow
// down with it at a correlation of about 0.8 while neighbours' load
// comes and goes.
func calibrate() float64 {
	best := math.Inf(1)
	for i := 0; i < 2; i++ {
		t := time.Now()
		calibCompute(30_000_000)
		calibHandoff(100_000)
		calibAlloc(250_000, 2)
		best = min(best, time.Since(t).Seconds())
	}
	return best
}

var calibSink uint64

func calibCompute(n int) {
	x := uint64(1)
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibSink += x
}

// calibHandoff passes control between two goroutines n times each way,
// as coroutine resume and park do.
func calibHandoff(n int) {
	a, b := make(chan struct{}), make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			<-a
			b <- struct{}{}
		}
	}()
	for i := 0; i < n; i++ {
		a <- struct{}{}
		<-b
	}
	<-done
}

type calibNode struct {
	next *calibNode
	val  [6]uint64
}

// calibAlloc builds a linked list and a map over it, then walks both.
func calibAlloc(n, rounds int) {
	for r := 0; r < rounds; r++ {
		var head *calibNode
		m := make(map[uint64]*calibNode)
		for i := 0; i < n; i++ {
			head = &calibNode{next: head}
			head.val[0] = uint64(i)
			if i%4 == 0 {
				m[uint64(i)*2654435761] = head
			}
		}
		var s uint64
		for p := head; p != nil; p = p.next {
			s += p.val[0]
		}
		for k := range m {
			s += k
		}
		calibSink += s
	}
}
