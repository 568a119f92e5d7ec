// Package trace is the runtime's observability layer: a low-overhead,
// per-rank event recorder the MPI transport and the distributed solvers
// emit into. It answers the question the source paper's whole argument
// rests on — where does the time go? — by splitting every run into
// comm spans (sends, waits, collectives, halo exchanges) and nested
// compute regions (trace-region names like "poisson.cg" or
// "pblas.summa"), each stamped with both a wall clock and, when the
// calibrated network model is armed, the rank's virtual clock.
//
// Design constraints, in order:
//
//   - Off by default, near-zero cost when off. Producers hold a *Rank
//     handle that is nil when tracing is disarmed; every emission
//     method no-ops on a nil receiver, so the disabled path is a single
//     atomic load at the call site that fetches the handle.
//   - Zero allocation in the steady state. Events are value structs
//     appended into a preallocated per-rank ring; Span is a value
//     token; names are static strings. When the ring fills, the oldest
//     events are overwritten (drops-oldest) and a counter records how
//     many were lost — tracing never grows memory without bound and
//     never stalls a solver.
//   - Deterministic timelines under the net model. Each event carries
//     virtual timestamps read from the per-rank virtual clocks of
//     mpi.NetModel, so a NoComputeWall run produces the same timeline
//     bit-for-bit on any machine, and a simulated 64- or 4096-rank run
//     yields a readable, causally ordered trace.
//   - Safe under -race and fault injection. Per-rank rings are mutex
//     guarded (MULTIPLE-mode threads of one rank share a ring); a rank
//     dying mid-span merely leaves that span unclosed.
//   - One clock per view. The recorder keeps events and nothing else:
//     every number an export reports is read off the events under the
//     clock the caller picks, so a wall profile of a modeled run holds
//     wall times only and a virtual one virtual times only.
//   - Must not perturb results. Tracing reads clocks and copies
//     structs; it never reorders communication or arithmetic, and the
//     test suite asserts traced and untraced solver outputs are
//     bitwise identical.
//
// Three consumers, three exports:
//
//   - WriteChromeTrace emits Chrome trace-event JSON (one track per
//     rank, wall or virtual clock) loadable in Perfetto / chrome://tracing.
//   - Profile aggregates per-phase statistics — count, total/max/self
//     time, bytes, %comm vs %compute — and the overlap efficiency
//     (hidden wait / total wait) that quantifies how much of the halo
//     latency the split-phase solvers actually hid, derived from the
//     halo-exchange engine's halo.post/halo.wait spans; Table renders it,
//     JSON serializes it as an expvar-style snapshot for a service to
//     poll.
//   - WriteTimeline renders a small indented per-rank span tree for
//     annotated examples and quick terminal inspection.
//
// Wiring: build a Tracer sized to the world, arm it with
// mpi.World.SetTracer before the ranks start, and pass solvers their
// comm as usual — the transport, the halo-exchange engine and the
// gpaw/pblas solvers all discover the tracer through the communicator
// (Comm.TraceRank) and need no other plumbing.
package trace
