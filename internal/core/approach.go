// Package core implements the paper's contribution: the distributed
// finite-difference operation of GPAW with the Blue Gene/P optimizations —
// asynchronous halo exchange in all three dimensions at once, double
// buffering across real-space grids, message batching with ramp-up, and
// the four programming approaches compared in the paper (flat original,
// flat optimized, hybrid multiple, hybrid master-only). An Engine is
// built for one approach, and that approach alone selects its exchange
// schedule; there are no separate exchange switches.
//
// The schedule is one function, Schedule: it orders the posts, waits and
// compute of a set of grids through the three actions of a Steps value.
// The engine's Steps run them on the in-process MPI runtime
// (internal/mpi) with real arithmetic; all four approaches are verified
// to produce results identical to a sequential reference. The Blue
// Gene/P performance model in internal/bgpsim prices the same Schedule
// at full machine scale, so the schedule it times is the one the engine
// runs.
package core

import "fmt"

// Approach identifies one of the paper's four programming approaches
// (section VI).
type Approach int

const (
	// FlatOriginal is GPAW's original flat MPI code: one MPI process per
	// CPU core (BGP virtual mode), serialized dimension-by-dimension
	// blocking halo exchange, no batching, no overlap.
	FlatOriginal Approach = iota
	// FlatOptimized keeps one process per core but applies all section-V
	// optimizations: async exchange, double buffering, batching.
	FlatOptimized
	// HybridMultiple runs one MPI process per node with one thread per
	// core; every thread performs its own communication (MPI
	// THREAD_MULTIPLE). Whole grids are divided among threads, so thread
	// synchronization is a single constant-cost join.
	HybridMultiple
	// HybridMasterOnly runs one process per node with one thread per
	// core, but only the master thread communicates (MPI THREAD_SINGLE).
	// Each grid's computation is fork-joined across the threads, so the
	// synchronization cost grows with the number of grids.
	HybridMasterOnly
)

// Approaches lists all four approaches in presentation order.
var Approaches = []Approach{FlatOriginal, FlatOptimized, HybridMultiple, HybridMasterOnly}

// String implements fmt.Stringer with the paper's names.
func (a Approach) String() string {
	switch a {
	case FlatOriginal:
		return "Flat original"
	case FlatOptimized:
		return "Flat optimized"
	case HybridMultiple:
		return "Hybrid multiple"
	case HybridMasterOnly:
		return "Hybrid master-only"
	}
	return fmt.Sprintf("Approach(%d)", int(a))
}

// Hybrid reports whether the approach runs one process per node with
// threads, rather than one process per core.
func (a Approach) Hybrid() bool { return a == HybridMultiple || a == HybridMasterOnly }

// Options configures an Engine. The approach alone fixes the halo
// exchange schedule: FlatOriginal exchanges dimension by dimension,
// blocking on each (section IV.A); every other approach starts all three
// dimensions at once and double-buffers across batches (section V).
type Options struct {
	// Approach is the programming approach the engine is built for.
	Approach Approach
	// BatchSize is the number of grids whose surface points are packed
	// into each message; 1 disables batching.
	BatchSize int
	// BatchRamp halves the first batch so computation starts sooner
	// (section V's ramp-up, e.g. 128 reduced to 64 initially).
	BatchRamp bool
	// Threads is the number of compute threads per process for the
	// hybrid approaches; flat approaches ignore it.
	Threads int
}

// OptionsFor returns the canonical options the paper uses for an
// approach, with the given batch size (clamped to >= 1) and threads per
// node.
func OptionsFor(a Approach, batch, threads int) Options {
	if batch < 1 {
		batch = 1
	}
	switch a {
	case FlatOriginal:
		return Options{Approach: a, BatchSize: 1, Threads: 1}
	case FlatOptimized:
		return Options{Approach: a, BatchSize: batch, Threads: 1}
	case HybridMultiple, HybridMasterOnly:
		return Options{Approach: a, BatchSize: batch, Threads: threads}
	}
	panic(fmt.Sprintf("core: unknown approach %d", int(a)))
}

// validate checks option consistency.
func (o Options) validate() error {
	if o.BatchSize < 1 {
		return fmt.Errorf("core: batch size %d < 1", o.BatchSize)
	}
	if o.Threads < 1 {
		return fmt.Errorf("core: threads %d < 1", o.Threads)
	}
	return nil
}
