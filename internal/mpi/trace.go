package mpi

import (
	"repro/internal/trace"
)

// Tracing integration. A trace.Tracer armed on the world turns every
// MPI operation into a timeline event: point-to-point sends (peer,
// tag, bytes), blocking waits (with the modeled virtual jump to the
// message's arrival), collectives, and fault/recovery milestones. The
// solvers above add nested compute regions through the same per-rank
// handles (Comm.TraceRank). Everything is gated on one atomic load —
// a world without a tracer, or with a disabled one, pays a load and a
// branch per emission site and nothing else, and the transport's
// zero-allocation steady state is preserved (spans are value tokens
// into preallocated rings).
//
// Arm the tracer before the ranks start, like the network model:
//
//	w := mpi.NewWorld(n, mpi.ThreadSingle)
//	w.SetNetModel(m)         // optional: virtual timestamps
//	w.SetTracer(tr)
//	err := w.Run(body)
//
// Tracing observes clocks and copies event structs; it never reorders
// communication, matching or arithmetic, so traced results are
// bit-identical to untraced ones (asserted in internal/gpaw's tests).

// SetTracer arms an event tracer on the world. The tracer must have at
// least one rank track per world rank. Under a network model the
// tracer's virtual clock reads the per-rank modeled clocks, so traces
// of NoComputeWall runs are deterministic. Call before any traffic.
func (w *World) SetTracer(t *trace.Tracer) {
	if t == nil {
		return
	}
	if t.Ranks() < w.size {
		panic("mpi: tracer has fewer rank tracks than the world has ranks")
	}
	w.tracer = t
	t.SetVirtualClock(func(rank int) int64 {
		if !w.netOn.Load() || rank >= w.size {
			return 0
		}
		return int64(w.VirtualTime(rank))
	})
	w.trcOn.Store(true)
}

// Tracer returns the armed tracer, or nil.
func (w *World) Tracer() *trace.Tracer {
	if !w.trcOn.Load() {
		return nil
	}
	return w.tracer
}

// Run spawns the world's ranks executing body and waits for them all —
// Run/RunWithFaults/RunModeled as a method, for worlds that need
// arming (SetNetModel, SetTracer, SetFaultPlan) before the ranks
// start. The world must be fresh: no prior traffic.
func (w *World) Run(body func(c *Comm)) error { return w.runRanks(body) }

// SetFaultPlan arms a fault-injection plan on the world (what
// RunWithFaults does internally), so plans compose with SetNetModel
// and SetTracer through World.Run. nil is a no-op.
func (w *World) SetFaultPlan(plan *FaultPlan) {
	if plan != nil {
		w.installPlan(plan)
	}
}

// TraceRank returns the caller's per-rank trace handle, or nil when
// tracing is off — the hook the halo-exchange engine and the solvers
// use to add compute regions and halo-exchange phases to the timeline.
// The nil path is one atomic load; all handle methods no-op on nil.
func (c *Comm) TraceRank() *trace.Rank { return c.traceRank() }

func (c *Comm) traceRank() *trace.Rank {
	w := c.world
	if !w.trcOn.Load() {
		return nil
	}
	t := w.tracer
	if t == nil || !t.Enabled() {
		return nil
	}
	return t.Rank(c.group[c.rank])
}

// traceRankFor is the world-level equivalent for code that has no
// communicator at hand (failure revocation).
func (w *World) traceRankFor(rank int) *trace.Rank {
	if !w.trcOn.Load() {
		return nil
	}
	t := w.tracer
	if t == nil || !t.Enabled() {
		return nil
	}
	return t.Rank(rank)
}
