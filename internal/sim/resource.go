package sim

// Resource models a FIFO server with a single service channel: a
// shared-memory transfer engine or a lock. Work items are served
// strictly in arrival order; each occupies the resource for its service
// duration. The zero value is free at time zero.
//
// Because service is non-preemptive FIFO, the completion time of a
// request arriving at time t with service duration d is
//
//	finish = max(t, availableAt) + d
//
// which lets Resource hand out completion times without needing a queue
// of parked processes: callers that must block simply HoldUntil the
// returned finish time. This keeps simulations with millions of message
// events cheap (no goroutine parking per message).
type Resource struct {
	availableAt float64 // earliest time the server is free
}

// Reserve enqueues a service request of duration d arriving at time `at`
// and returns the time service completes. It never blocks; callers that
// need to wait use Proc.HoldUntil on the result.
func (r *Resource) Reserve(at, d float64) (finish float64) {
	finish = max(at, r.availableAt) + d
	r.availableAt = finish
	return finish
}

// Use blocks the process until the resource has served a request of
// duration d issued at the current simulated time, and returns the
// completion time.
func (p *Proc) Use(r *Resource, d float64) float64 {
	finish := r.Reserve(p.k.now, d)
	p.HoldUntil(finish)
	return finish
}

// Counter accumulates a quantity (bytes, messages, ...) during a
// simulation. The zero value is ready to use.
type Counter struct {
	total float64
}

// Add accumulates v.
func (c *Counter) Add(v float64) { c.total += v }

// Total returns the accumulated sum.
func (c *Counter) Total() float64 { return c.total }
