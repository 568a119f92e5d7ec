// Package sim provides a small deterministic discrete-event simulation
// kernel used by the Blue Gene/P machine model (internal/bgpsim).
//
// The kernel keeps a priority queue of timestamped events and a simulated
// clock. Events scheduled for the same instant fire in the order they were
// scheduled, which makes every simulation run fully deterministic.
//
// Processes are goroutine-backed bodies started with Spawn that block
// with Proc.Hold, Proc.HoldUntil and Proc.WaitSignal, and acquire
// Resource capacity in FIFO order. Exactly one process runs at a time;
// control is handed back and forth between the kernel and the running
// process, so no locking is needed inside process bodies.
//
// Time is measured in seconds as float64. Simulations in this repository
// span microseconds to minutes, well inside float64's exact range for the
// required resolution.
package sim

import (
	"container/heap"
	"fmt"
)

// Kernel is a discrete-event simulator instance. The zero value is not
// usable; create kernels with NewKernel.
type Kernel struct {
	now   float64
	queue eventHeap
	seq   int64

	yield chan struct{} // handed a token whenever a process parks or exits
}

// NewKernel returns a kernel with the clock at zero and no pending events.
func NewKernel() *Kernel {
	return &Kernel{yield: make(chan struct{})}
}

// Now returns the current simulated time in seconds.
func (k *Kernel) Now() float64 { return k.now }

// event is a scheduled closure.
type event struct {
	at  float64
	seq int64
	fn  func()
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// At schedules fn to run at absolute simulated time t. Scheduling in the
// past panics: it would silently reorder causality.
func (k *Kernel) At(t float64, fn func()) {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling event at %g before now %g", t, k.now))
	}
	k.seq++
	heap.Push(&k.queue, event{at: t, seq: k.seq, fn: fn})
}

// After schedules fn to run d seconds from now. Negative d panics.
func (k *Kernel) After(d float64, fn func()) { k.At(k.now+d, fn) }

// Run fires events in timestamp order until the event queue is empty,
// and returns the final simulated time.
func (k *Kernel) Run() float64 {
	for len(k.queue) > 0 {
		e := heap.Pop(&k.queue).(event)
		k.now = e.at
		e.fn()
	}
	return k.now
}
