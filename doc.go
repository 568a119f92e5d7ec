// Package repro reproduces "GPAW optimized for Blue Gene/P using hybrid
// programming" (Kristensen, Happe, Vinter — IPDPS 2009) as a
// self-contained Go library.
//
// The repository contains:
//
//   - internal/core — the paper's contribution: GPAW's distributed
//     finite-difference operation with asynchronous halo exchange,
//     double buffering, message batching, and the four programming
//     approaches (flat original/optimized, hybrid multiple/master-only),
//     running on a real in-process MPI runtime with bitwise verification.
//     The exchange is split-phase, and scheduled in one place: the
//     engine's batch loop (Engine.Run) posts every receive and send up
//     front, calls the solver's compute callback on the halo-free deep
//     interior while the messages travel, completes the exchange and
//     calls it again on the one-radius boundary shell
//     (communication/computation overlap, the paper's headline
//     optimization). A periodic dimension the process grid does not
//     divide sends nothing: each grid wraps its own faces into its
//     halos when the exchange completes (grid.WrapHalos). Exchange
//     state is pooled on the engine, requests are recycled into the mpi
//     world and faces that arrive early wait in pooled mailbox buffers,
//     so the steady-state loop is allocation-free whichever side
//     arrives first: receives posted before their faces
//     (TestOverlapExchangeZeroAlloc, two ranks trading x faces) and
//     faces arriving before their receives
//     (TestSkewedExchangeAllocationFree, eight ranks with one delayed).
//   - internal/mpi — that runtime: goroutine ranks, MPI matching
//     semantics, collectives, Cartesian topologies, thread modes,
//     non-blocking requests with Wait/Waitall/Test polling, a
//     zero-copy fast path that delivers a send straight into an
//     already-posted receive buffer, and pooled eager buffers for a
//     send that arrives first; warmed collectives allocate nothing per
//     call (TestCollectivesAllocationFree). The runtime carries a ULFM-style
//     failure model (fault.go): World.SetFaultPlan injects deterministic,
//     seedable rank kills (FaultPlan: die after the k-th operation,
//     optional seeded delay jitter); a death revokes the communication
//     epoch so every survivor's pending or future operation on the
//     failed world completes with a typed *ErrRankFailed rather than
//     hanging; survivors converge on the membership with Comm.Agree
//     (world-frozen round results) and rebuild with Comm.Shrink, whose
//     epoch-stamped matching walls off all pre-failure traffic. A
//     configurable operation timeout (World.SetOpTimeout) bounds every
//     blocking receive and probe, backstopping the detector with a
//     world-wide pending-receive dump.
//   - internal/bgpsim — a calibrated discrete-event model of Blue
//     Gene/P (Table I constants, torus links, DMA, mesh partitions)
//     that prices core.Schedule, the engine's own exchange schedule,
//     at up to 16 384 cores and regenerates every figure of the
//     paper's evaluation. It and the live runtime's
//     virtual-time network model (mpi.World.SetNetModel) are one cost
//     model: one parameter set (mpi.NetParams, embedded in
//     bgpsim.Params) and one pricing of an inter-node message,
//     mpi.NetParams.Inject — a serialized DMA slot, then the message's
//     own outgoing link of six, then latency per hop — so on a torus
//     the two agree to the nanosecond on the paper's exchange.
//   - internal/grid, internal/stencil — real-space grids with halos and
//     the 13-point finite-difference operator (Fornberg coefficients),
//     plus the shared-memory parallel execution engine: a persistent
//     worker pool with cache-blocked plane/tile work splitting, fused
//     stencil+BLAS-1 kernels (apply-with-dot, residual, smooth, the
//     three-term recurrence step of a polynomial filter) that cut the
//     memory passes of a solver iteration roughly in half, fused single-sweep grid primitives, and a traffic counter
//     that makes the savings observable (the grid.traffic_passes_per_op
//     and stencil.* ledger rows of `bash benchmark/run.sh --trace 1`).
//     A sweep is (fusion, region): every kernel is written once and
//     covers the Region of the Operator view it is called on (shell.go,
//     Operator.Over): the deep-interior box [R, N-R)³ reads no halo and
//     runs while the exchange is in flight, the at-most-six-block
//     boundary shell (two x slabs, two y strips, two z strips) runs
//     after — covering every point exactly once (fuzz-verified) with
//     reductions through exact accumulators, so Interior then Shell is
//     bit-identical to the Full sweep.
//   - internal/gpaw, internal/linalg — a miniature real-space DFT stack
//     (Poisson, Kohn–Sham eigensolver, SCF) providing the workload
//     context GPAW gives the kernel. The Hartree solve is conjugate
//     gradients preconditioned with one multigrid V-cycle — the paper's
//     operation: reduction-free, halo-overlapped sweeps — started
//     from the potential the SCF carries from step to step and run only
//     as far as the density has converged: to 0.01 × the step's density
//     residual, clamped to [1e-8, 1e-2]. The eigensolver is
//     Chebyshev-filtered subspace iteration: a pass is a degree-8
//     polynomial of H applied to every state — eight back-to-back
//     halo-overlapped H·psi sweeps with no reduction between them —
//     then one subspace step (overlap and Hamiltonian matrices in one
//     assembly, Cholesky-reduce, diagonalize, one rotation); the SCF
//     runs one pass per step and carries one unoccupied guard state
//     that bounds the filter. Each algorithm is written once, on
//     a Dist context (dist.go) that runs it rank-parallel over an MPI
//     Cartesian process grid with halo exchange through internal/core's
//     overlap protocol, realizing the paper's four programming
//     approaches at the solver level (per-rank worker pools inside MPI
//     ranks); every solver is built on a Dist, and a serial run is the
//     one-rank instance, which SelfDist builds over mpi.Self. The hot
//     iteration loops — Poisson CG, its V-cycle's smoother and
//     residual, the eigensolver's Hamiltonian application including the
//     band-parallel path — run split-phase in every approach except
//     flat original, which keeps the serialized exchange as the
//     differential baseline; overlapped and serialized runs are
//     bit-identical (dist_overlap_test.go sweeps ranks x approaches x
//     boundaries x threads). No solver path funnels through a single
//     node: multigrid levels too coarse for the full process grid are
//     redistributed onto shrunken sub-communicator grids
//     (grid.NewDecompOrFallback shapes + grid.RedistPlan) with the
//     remaining ranks parked until prolongation. Band parallelization
//     (bands.go) adds the second axis of GPAW's Blue Gene/P scaling: a
//     bands x domain 2D layout splits the wave-functions across band
//     groups, each group broadcasts its whole slice through the band
//     communicator once per gather and owns the subspace-matrix columns
//     and rotated states of its slice, and the eigensolver/SCF reproduce
//     the one-rank results bit for bit for every bands x domain split
//     (internal/gpaw/bands_test.go). The solver layer is fault
//     tolerant: the SCF writes gather-free, CRC64-checksummed
//     checkpoints (checkpoint.go — one data-only shard per rank and one
//     manifest per step, the step's only header, committed atomically:
//     the system, the writers' process grid and band groups, which
//     place every shard's box (grid.Decomp) and band slice
//     (topology.Split), every shard's CRC64, and a CRC64 of its own;
//     restore re-tiles onto any process grid or band layout, each rank
//     fetching only the shards that meet its own, and ends in one
//     world-agreed verdict), and RunSCFFT (ft.go) turns a rank failure
//     into Agree/Shrink recovery onto the survivor grid, the
//     topology.DecomposeGrid layout of the largest survivor count the
//     halo allows, with resume from the last checkpoint; exact reductions make the
//     recovered energies, eigenvalues, iteration counts and fields
//     bit-identical to the fault-free run (chaos_test.go kills every
//     combination of victim and checkpointed iteration to prove it).
//   - internal/pblas — a SUMMA/Cholesky library the benchmark ledger
//     probes (pblas.summa_us, pblas.cholesky_us) and no solver calls:
//     block-cyclic distributed matrices over a 2D process grid built
//     from mpi.Comm.Split row/column sub-communicators (worked out
//     locally, with no message), SUMMA matrix
//     multiplication and a blocked Cholesky, each bit-identical to its
//     replicated internal/linalg counterpart for every grid shape and
//     block size (ascending-k panel broadcasts reproduce the serial
//     rounding sequence exactly). The solver's m x m subspace step runs
//     replicated internal/linalg on every rank.
//   - internal/detsum — exact, order-independent float64 summation: a
//     Kulisch-style superaccumulator of 68 int64 bins into which each
//     value's mantissa is deposited by integer shifts and adds, a row at
//     a time (AddSlice/AddMulSlice). The dot sweeps (MulRows) buffer
//     their products in blocks of 512 and split each block into a few
//     exact float64 sums by error-free extraction (Rump, Ogita and
//     Oishi, SIAM J. Sci. Comput. 31(1), 2008; AVX2 on amd64), which
//     alone are deposited (the detsum.* ledger rows of
//     `bash benchmark/run.sh --trace 1` price it against a plain dot).
//     Every reduction in the
//     solver stack accumulates through it, which makes dot products,
//     norms and sums bit-identical for every thread count, rank count
//     and process-grid shape — the determinism contract the cross-rank
//     differential test harness (internal/gpaw/dist_test.go) asserts:
//     SCF total energies are equal bit for bit on 1/2/4/8 ranks for all
//     four approaches, and equal to the recorded bits of
//     internal/gpaw/testdata/serial_golden.json.
//   - internal/bench — replays of the paper's evaluation on the
//     internal/bgpsim model: Table I, Figures 2, 5, 6, 7 and the
//     ablations, printed by cmd/gpawsim. The live runtime is measured
//     only by `bash benchmark/run.sh` and asserted only by package
//     tests.
//
// See README.md for a tour, and benchmark/README.md for the benchmark
// and its per-layer ledger.
package repro
