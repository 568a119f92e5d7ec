package sim

import "fmt"

// Proc is a simulated process: a goroutine that runs in lockstep with the
// kernel. At any instant at most one process executes; a process runs
// until it blocks in Hold, HoldUntil, or WaitSignal (or returns), at which
// point control returns to the kernel's event loop.
type Proc struct {
	k      *Kernel
	resume chan struct{}
}

// Now returns the current simulated time.
func (p *Proc) Now() float64 { return p.k.now }

// Spawn creates a process that will begin executing body at the current
// simulated time (after already-scheduled events for this instant fire).
func (k *Kernel) Spawn(body func(p *Proc)) {
	p := &Proc{k: k, resume: make(chan struct{})}
	go func() {
		<-p.resume // wait for the kernel to start us
		body(p)
		k.yield <- struct{}{} // final handoff: we are done
	}()
	k.After(0, func() { p.run() })
}

// run transfers control to the process and waits for it to park or exit.
// It must only be called from within the kernel's event loop.
func (p *Proc) run() {
	p.resume <- struct{}{}
	<-p.k.yield
}

// park returns control to the kernel and blocks until the process is
// resumed by a subsequent event.
func (p *Proc) park() {
	p.k.yield <- struct{}{}
	<-p.resume
}

// Hold suspends the process for d simulated seconds.
func (p *Proc) Hold(d float64) {
	if d < 0 {
		panic(fmt.Sprintf("sim: Hold(%g) with negative duration", d))
	}
	p.k.After(d, func() { p.run() })
	p.park()
}

// HoldUntil suspends the process until absolute simulated time t. If t is
// in the past the process continues immediately (after pending events at
// the current instant).
func (p *Proc) HoldUntil(t float64) {
	if t < p.k.now {
		t = p.k.now
	}
	p.k.At(t, func() { p.run() })
	p.park()
}

// Signal is a broadcast wakeup point for processes. The zero value is
// ready to use. Fire wakes every waiter; waiters that start waiting after
// a Fire wait for the next one.
type Signal struct {
	waiters []*Proc
}

// WaitSignal blocks the process until s.Fire is called.
func (p *Proc) WaitSignal(s *Signal) {
	s.waiters = append(s.waiters, p)
	p.park()
}

// Fire wakes all processes currently waiting on s, in wait order, at the
// current simulated time.
func (s *Signal) Fire(k *Kernel) {
	ws := s.waiters
	s.waiters = nil
	for _, w := range ws {
		k.After(0, func() { w.run() })
	}
}
