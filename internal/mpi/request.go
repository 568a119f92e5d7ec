package mpi

import "repro/internal/trace"

// Request tracks the completion of a non-blocking operation, like
// MPI_Request. Requests are created by Isend/Irecv and completed by the
// runtime; Wait blocks until completion and Test polls without blocking.
// A request has no lock of its own: the mailbox lock of the rank that
// made it guards all of its state, and its waiter sleeps on that
// mailbox's condition variable.
//
// Errors detected at delivery time (message truncation, world abort
// after a rank panic) are stored on the request and surfaced as a panic
// in the waiter's goroutine — the MPI convention that receive-side
// errors belong to the receiver.
//
// Completed requests may optionally be handed back to their own rank's
// mailbox with Reclaim, so steady-state communication loops (the halo
// exchange of internal/core) run without per-message allocation.
type Request struct {
	done bool
	src  int
	tag  int
	n    int
	err  error

	// arriveAt is the message's modeled virtual arrival time under the
	// network model (0 when no model is armed, for send requests, and
	// for free self-sends). Wait advances the waiter's virtual clock to
	// it; Test refuses to report completion before the waiter's clock
	// has caught up with it.
	arriveAt int64

	// Posted-receive matching state: the source, tag and buffer a
	// message must match while the request sits in mailbox.posted.
	prSrc, prTag int
	buf          []float64

	// owner is the world rank that posted the request, ctx and epoch the
	// context and fault-tolerance epoch it was posted in: written before
	// the request is published, read by matching, failure revocation and
	// the timeout diagnostics.
	owner int
	ctx   uint64
	epoch int

	// w is the world whose mailbox of rank owner guards the request and
	// takes it back on Reclaim.
	w *World
}

// getRequest pops a reusable request from the mailbox's free list, or
// allocates one for world w. Caller holds m.mu. The returned request is
// reset and exclusively owned by the caller.
//
//gpaw:hotpath
func (m *mailbox) getRequest(w *World) *Request {
	if n := len(m.reqFree); n > 0 {
		r := m.reqFree[n-1]
		m.reqFree[n-1] = nil
		m.reqFree = m.reqFree[:n-1]
		r.reset()
		return r
	}
	//lint:ignore hotpathalloc pool miss: Reclaim returns the request to the rank's free list, so a repeating pattern stops missing
	return &Request{w: w}
}

// reset prepares a pooled request for reuse. Caller holds its mailbox
// lock.
//
//gpaw:hotpath
func (r *Request) reset() {
	r.done = false
	r.src, r.tag, r.n = 0, 0, 0
	r.arriveAt = 0
	r.err = nil
	r.prSrc, r.prTag = 0, 0
	r.buf = nil
	r.owner, r.ctx, r.epoch = 0, 0, 0
}

// Reclaim returns completed requests to the free list of the mailbox of
// the rank that made them, for reuse by that rank's later Isend/Irecv
// calls. A request must only be reclaimed after Wait (or Waitall)
// returned it, and must not be touched afterwards — a later operation
// of the same rank may hand the object out again. Nil entries are
// ignored. Reclaiming is optional (unreclaimed requests are simply
// garbage collected); hot exchange loops use it to stay allocation-free
// in steady state.
//
//gpaw:hotpath
func Reclaim(reqs ...*Request) {
	for _, r := range reqs {
		if r == nil {
			continue
		}
		box := r.w.boxes[r.owner]
		box.mu.Lock()
		r.buf = nil // do not retain the receive buffer past reclaim
		//lint:ignore hotpathalloc append into the rank's free list; capacity is warm after the first reclaim cycle
		box.reqFree = append(box.reqFree, r)
		box.mu.Unlock()
	}
}

// completeErr marks the request done, possibly with a delivery error.
// Caller holds the owner's mailbox lock and wakes its waiters.
func (r *Request) completeErr(src, tag, n int, err error) {
	r.done = true
	r.src, r.tag, r.n = src, tag, n
	r.err = err
}

// Wait blocks until the operation completes and returns the message
// source, tag and value count (sends report their own rank and length).
// Delivery errors panic in the caller, to be recovered by Run. When the
// world has an operation timeout set (World.SetOpTimeout), a wait
// exceeding it panics with a *TimeoutError carrying the world-wide
// pending-receive dump instead of blocking forever. Under a network
// model, Wait additionally advances the waiter's virtual clock to the
// message's modeled arrival time; that jump takes no wall time, so a
// slow modeled network can never masquerade as a deadlock.
//
//gpaw:hotpath
func (r *Request) Wait() (src, tag, n int) {
	// Traced waits become timeline spans whose virtual duration covers
	// the clock jump to the message's modeled arrival; the peer, tag
	// and size are only known at completion, so they are stamped then.
	if w := r.w; w.trcOn.Load() {
		if rk := w.traceRankFor(r.owner); rk != nil {
			sp := rk.BeginComm("mpi.wait", trace.KindWait, -1, -1, 0)
			src, tag, n = r.wait()
			sp.EndComm(src, tag, int64(n)*8)
			return src, tag, n
		}
	}
	return r.wait()
}

//gpaw:hotpath
func (r *Request) wait() (src, tag, n int) {
	// Wait is an MPI-call boundary of its own (engine code calls it on
	// standalone requests, outside any Comm entry point), so it does its
	// own compute accrual — otherwise wall time spent blocked here would
	// be mistaken for compute by the next accrual.
	w, owner := r.w, r.owner
	modeled := w.netOn.Load()
	if modeled {
		w.netEnter(owner)
	}
	box := w.boxes[owner]
	box.mu.Lock()
	if !r.done {
		deadline := w.opDeadline()
		for !r.done {
			box.sleep(w, owner, r.prSrc, r.prTag, deadline)
		}
	}
	if r.err != nil {
		box.mu.Unlock()
		panic(r.err)
	}
	src, tag, n = r.src, r.tag, r.n
	arrive := r.arriveAt
	box.mu.Unlock()
	if modeled {
		w.advanceTo(owner, arrive)
		w.netExit(owner)
	}
	return src, tag, n
}

// Test reports whether the operation has completed, without blocking —
// the poll the split-phase overlap protocol uses to check for early
// message arrival between interior work items. A true result means a
// subsequent Wait returns immediately (under a network model: without
// advancing the waiter's clock, because Test only reports completion
// once the clock has already caught up with the message's modeled
// arrival — the eager transport's early physical delivery is never
// mistaken for modeled arrival).
//
//gpaw:hotpath
func (r *Request) Test() bool {
	w, owner := r.w, r.owner
	box := w.boxes[owner]
	box.mu.Lock()
	done, arrive, err := r.done, r.arriveAt, r.err
	box.mu.Unlock()
	if !w.netOn.Load() {
		return done
	}
	// Polling is an MPI-call boundary too: accrue the compute done since
	// the last boundary, so an overlap loop that polls between interior
	// work items advances its clock toward the arrival.
	w.netEnter(owner)
	defer w.netExit(owner)
	return done && (err != nil || w.virtReached(owner, arrive))
}

// Waitall blocks until every request completes. Nil entries are
// ignored, matching MPI_REQUEST_NULL. The variadic form spreads over a
// request slice: Waitall(reqs...).
//
//gpaw:hotpath
func Waitall(reqs ...*Request) {
	for _, r := range reqs {
		if r != nil {
			r.Wait()
		}
	}
}

// Testall reports whether every request has completed, without
// blocking. Nil entries are ignored.
//
//gpaw:hotpath
func Testall(reqs ...*Request) bool {
	for _, r := range reqs {
		if r != nil && !r.Test() {
			return false
		}
	}
	return true
}
