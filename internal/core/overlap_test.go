package core

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/stencil"
	"repro/internal/topology"
)

// Split-phase halo exchange tests: an overlapped Run must install
// exactly the halos the blocking Exchange installs, for every layout,
// boundary condition and option set, with the Interior compute ahead of
// that installation — and the steady-state loop must not allocate.

// noCompute is the compute callback of a Run that only exchanges.
func noCompute(Batch, stencil.Region) {}

// overlapEngine builds a per-rank engine over the given layout.
func overlapEngine(c *mpi.Comm, global, procs topology.Dims, periodic bool, opts Options) *Engine {
	dec, err := grid.NewDecomp(global, procs, 2)
	if err != nil {
		panic(err)
	}
	cart := c.CartCreate(procs, [3]bool{periodic, periodic, periodic}, true)
	eng, err := NewEngine(cart, dec, stencil.Laplacian(2, 1), periodic, opts)
	if err != nil {
		panic(err)
	}
	return eng
}

// fillLocal seeds a rank's grids with a deterministic global-index field.
func fillLocal(dec *grid.Decomp, coord topology.Coord, gs []*grid.Grid) {
	off := dec.Offset(coord)
	for gi, g := range gs {
		gi := gi
		g.FillFunc(func(i, j, k int) float64 {
			return float64(gi*1000000+(off[0]+i)*10000+(off[1]+j)*100+(off[2]+k)) + 0.5
		})
	}
}

// TestOverlappedRunMatchesExchange: for several layouts, both boundary
// conditions and both option sets, an overlapped Run must leave every
// halo cell bitwise equal to what the blocking Exchange produces.
func TestOverlappedRunMatchesExchange(t *testing.T) {
	global := topology.Dims{12, 10, 8}
	layouts := []topology.Dims{{1, 1, 1}, {2, 1, 1}, {1, 2, 2}, {2, 2, 2}, {1, 1, 4}}
	for _, procs := range layouts {
		for _, periodic := range []bool{false, true} {
			for _, opts := range []Options{
				OptionsFor(FlatOptimized, 2, 1),
				OptionsFor(FlatOriginal, 1, 1), // serialized: no non-blocking window
			} {
				opts := opts
				err := runRanks(procs.Count(), mpi.ThreadSingle, func(c *mpi.Comm) {
					eng := overlapEngine(c, global, procs, periodic, opts)
					defer eng.Close()
					coord := eng.Coord()
					dec, _ := grid.NewDecomp(global, procs, 2)
					mk := func() []*grid.Grid {
						gs := []*grid.Grid{eng.NewLocalGrid(), eng.NewLocalGrid(), eng.NewLocalGrid()}
						fillLocal(dec, coord, gs)
						return gs
					}
					want := mk()
					eng.Exchange(want)
					got := mk()
					eng.Run(got, true, noCompute)
					for gi := range got {
						// Compare the full allocation, halos included.
						wd, gd := want[gi].Data(), got[gi].Data()
						for i := range wd {
							if wd[i] != gd[i] {
								t.Errorf("procs %v periodic %v opts %+v grid %d: halo deviates at flat index %d (%g != %g)",
									procs, periodic, opts, gi, i, gd[i], wd[i])
								return
							}
						}
					}
				})
				if err != nil {
					t.Fatalf("procs %v: %v", procs, err)
				}
			}
		}
	}
}

// TestSplitExchangeInteriorDuringFlight: the Interior compute of an
// overlapped Run happens while the exchange is in flight — the grid's
// halos are still exactly as they were before the Run — and with the
// Shell compute after it reproduces the exchange-then-full-apply result
// bitwise (the protocol the distributed solvers run).
func TestSplitExchangeInteriorDuringFlight(t *testing.T) {
	global := topology.Dims{12, 12, 12}
	op := stencil.Laplacian(2, 0.7)
	for _, procs := range []topology.Dims{{2, 1, 1}, {2, 2, 1}, {1, 2, 2}} {
		for _, periodic := range []bool{false, true} {
			err := runRanks(procs.Count(), mpi.ThreadSingle, func(c *mpi.Comm) {
				eng := overlapEngine(c, global, procs, periodic, OptionsFor(FlatOptimized, 1, 1))
				defer eng.Close()
				dec, _ := grid.NewDecomp(global, procs, 2)
				src := eng.NewLocalGrid()
				fillLocal(dec, eng.Coord(), []*grid.Grid{src})
				want := eng.NewLocalGrid()
				eng.Exchange([]*grid.Grid{src})
				op.Apply(want, src)

				src2 := eng.NewLocalGrid()
				fillLocal(dec, eng.Coord(), []*grid.Grid{src2})
				posted := append([]float64(nil), src2.Data()...)
				got := eng.NewLocalGrid()
				eng.Run([]*grid.Grid{src2}, true, func(_ Batch, r stencil.Region) {
					if r == stencil.Interior && !slices.Equal(src2.Data(), posted) {
						t.Errorf("procs %v periodic %v: halos installed before the interior compute", procs, periodic)
					}
					op.Over(r).Apply(got, src2)
				})
				if slices.Equal(src2.Data(), posted) {
					t.Errorf("procs %v periodic %v: Run installed no halo", procs, periodic)
				}
				if diff := got.MaxAbsDiff(want); diff != 0 {
					t.Errorf("procs %v periodic %v: interior+shell deviates by %g", procs, periodic, diff)
				}
			})
			if err != nil {
				t.Fatalf("procs %v: %v", procs, err)
			}
		}
	}
}

// TestRunCoversAllBatches: Run must hand every grid to compute exactly
// once per region — Full alone without overlap, Interior then Shell
// with it — for the serialized, async and hybrid-multiple protocols.
func TestRunCoversAllBatches(t *testing.T) {
	global := topology.Dims{8, 8, 8}
	procs := topology.Dims{1, 1, 2}
	const n = 7
	for _, a := range []Approach{FlatOriginal, FlatOptimized, HybridMultiple} {
		for _, overlap := range []bool{false, true} {
			mode := mpi.ThreadSingle
			if a == HybridMultiple {
				mode = mpi.ThreadMultiple
			}
			err := runRanks(procs.Count(), mode, func(c *mpi.Comm) {
				eng := overlapEngine(c, global, procs, true, OptionsFor(a, 2, 2))
				defer eng.Close()
				gs := make([]*grid.Grid, n)
				for i := range gs {
					gs[i] = eng.NewLocalGrid()
				}
				var mu sync.Mutex
				var seen [n][3]int // per grid: visits by region
				eng.Run(gs, overlap, func(b Batch, r stencil.Region) {
					mu.Lock()
					defer mu.Unlock()
					for gi := b.Lo; gi < b.Hi; gi++ {
						if r == stencil.Shell && seen[gi][stencil.Interior] != 1 {
							panic(fmt.Sprintf("grid %d: shell without interior", gi))
						}
						seen[gi][r]++
					}
				})
				want := [3]int{stencil.Full: 1}
				if overlap {
					want = [3]int{stencil.Interior: 1, stencil.Shell: 1}
				}
				for gi := range seen {
					if seen[gi] != want {
						panic(fmt.Sprintf("grid %d visited %v times by region, want %v", gi, seen[gi], want))
					}
				}
			})
			if err != nil {
				t.Fatalf("%v overlap=%v: %v", a, overlap, err)
			}
		}
	}
}

// TestOverlapExchangeZeroAlloc is the hoisted-buffer regression test:
// once warmed up, an overlapped Run and a blocking Exchange make no
// allocation anywhere in the world. On two ranks over 2x1x1 periodic
// the x faces really travel; rank 1 starts each exchange late, so rank
// 0's receives are posted before their faces arrive and the transport
// delivers straight into them (TestSkewedExchangeAllocationFree has
// faces arriving first). testing.AllocsPerRun on rank 0 reads the
// process-wide malloc counter while rank 1 runs the same exchanges. On
// one rank over 1x1x1 periodic every dimension wraps in place: the
// loop sends no message and allocates nothing.
func TestOverlapExchangeZeroAlloc(t *testing.T) {
	global := topology.Dims{8, 8, 8}
	const runs = 100
	for _, procs := range []topology.Dims{{2, 1, 1}, {1, 1, 1}} {
		err := runRanks(procs.Count(), mpi.ThreadSingle, func(c *mpi.Comm) {
			eng := overlapEngine(c, global, procs, true, OptionsFor(FlatOptimized, 1, 1))
			defer eng.Close()
			gs := []*grid.Grid{eng.NewLocalGrid()}
			// Warm up the engine scratch pool, the mpi request pool and the
			// mailbox slices.
			for i := 0; i < 4; i++ {
				eng.Run(gs, true, noCompute)
				eng.Exchange(gs)
			}
			for _, ex := range []struct {
				what string
				f    func()
			}{
				{"split-phase", func() { eng.Run(gs, true, noCompute) }},
				// The blocking path shares the hoisted state and must be
				// allocation-free too.
				{"blocking", func() { eng.Exchange(gs) }},
			} {
				if c.Rank() != 0 {
					// AllocsPerRun makes one warm-up call before its runs.
					for i := 0; i < runs+1; i++ {
						time.Sleep(50 * time.Microsecond)
						ex.f()
					}
					continue
				}
				if allocs := testing.AllocsPerRun(runs, ex.f); allocs != 0 {
					t.Errorf("procs %v: %s exchange allocates %.1f objects/iteration, want 0", procs, ex.what, allocs)
				}
			}
			if procs.Count() == 1 {
				if s := eng.Stats(); s.MessagesSent != 0 {
					t.Errorf("procs %v: %d messages sent, want 0", procs, s.MessagesSent)
				}
			}
		})
		if err != nil {
			t.Fatalf("procs %v: %v", procs, err)
		}
	}
}

// TestHybridMultipleRunZeroAlloc holds hybrid multiple's Run to the
// same contract on a two-worker pool: its fan-out is Engine's one func
// built in NewEngine and the pool's job slot, so a warmed Run of four
// grids — each worker exchanging and computing its own two, the
// compute an Apply per grid — allocates nothing, on two ranks (2x1x1)
// and on one.
func TestHybridMultipleRunZeroAlloc(t *testing.T) {
	global := topology.Dims{8, 8, 8}
	const runs = 100
	for _, procs := range []topology.Dims{{2, 1, 1}, {1, 1, 1}} {
		err := runRanks(procs.Count(), mpi.ThreadMultiple, func(c *mpi.Comm) {
			eng := overlapEngine(c, global, procs, true, OptionsFor(HybridMultiple, 1, 2))
			defer eng.Close()
			src := []*grid.Grid{eng.NewLocalGrid(), eng.NewLocalGrid(), eng.NewLocalGrid(), eng.NewLocalGrid()}
			dst := []*grid.Grid{eng.NewLocalGrid(), eng.NewLocalGrid(), eng.NewLocalGrid(), eng.NewLocalGrid()}
			compute := func(b Batch, r stencil.Region) {
				for gi := b.Lo; gi < b.Hi; gi++ {
					eng.op.Over(r).Apply(dst[gi], src[gi])
				}
			}
			run := func() { eng.Run(src, true, compute) }
			for i := 0; i < 4; i++ {
				run()
			}
			if c.Rank() != 0 {
				// AllocsPerRun makes one warm-up call before its runs.
				for i := 0; i < runs+1; i++ {
					time.Sleep(50 * time.Microsecond)
					run()
				}
				return
			}
			if allocs := testing.AllocsPerRun(runs, run); allocs != 0 {
				t.Errorf("procs %v: hybrid multiple Run allocates %.1f objects/iteration, want 0", procs, allocs)
			}
		})
		if err != nil {
			t.Fatalf("procs %v: %v", procs, err)
		}
	}
}

// TestSkewedExchangeAllocationFree is the zero-allocation contract with
// the other arrival order: on a 2x2x2 periodic grid, rank 0 sleeps
// before each exchange, so its neighbours' faces arrive before its
// receives are posted and wait in the mailbox's pooled envelopes. A
// warmed exchange must make no allocation anywhere in the world. The
// barrier in front of each exchange keeps ranks far from rank 0 from
// running exchanges ahead. Pools still grow until they cover the
// largest backlog the scheduler produces, and on a loaded host the
// runtime's own bookkeeping lands a few stray mallocs in a window, so
// warm-up is measured rather than assumed: windows of exchanges run
// until one allocates nothing, up to a cap. An allocation per exchange
// would show in every window, and the cap fails it.
func TestSkewedExchangeAllocationFree(t *testing.T) {
	global := topology.Dims{8, 8, 8}
	procs := topology.Dims{2, 2, 2}
	const maxWindows, perWindow = 64, 20
	mallocs := make([]uint64, 0, maxWindows) // rank 0's record, sized up front
	err := runRanks(procs.Count(), mpi.ThreadSingle, func(c *mpi.Comm) {
		eng := overlapEngine(c, global, procs, true, OptionsFor(FlatOptimized, 1, 1))
		defer eng.Close()
		gs := []*grid.Grid{eng.NewLocalGrid()}
		exchange := func() {
			c.Barrier()
			if c.Rank() == 0 {
				time.Sleep(time.Millisecond)
			}
			eng.Run(gs, true, noCompute)
		}
		for i := 0; i < 4; i++ {
			exchange()
		}
		var before, after runtime.MemStats
		// done is rank 0's verdict on the window just measured, broadcast
		// outside the window so every rank stops after the same one.
		done := []float64{0}
		for w := 0; w < maxWindows && done[0] == 0; w++ {
			c.Barrier()
			if c.Rank() == 0 {
				runtime.ReadMemStats(&before)
			}
			for i := 0; i < perWindow; i++ {
				exchange()
			}
			c.Barrier()
			if c.Rank() == 0 {
				runtime.ReadMemStats(&after)
				mallocs = append(mallocs, after.Mallocs-before.Mallocs)
				if after.Mallocs == before.Mallocs {
					done[0] = 1
				}
			}
			c.Bcast(0, done)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("world-wide mallocs per window of %d skewed exchanges: %v", perWindow, mallocs)
	if slices.Min(mallocs) != 0 {
		t.Errorf("none of %d windows of %d skewed exchanges on 8 ranks was allocation-free: %v", len(mallocs), perWindow, mallocs)
	}
}
