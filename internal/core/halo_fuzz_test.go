package core

import (
	"math/rand"
	"testing"

	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/stencil"
	"repro/internal/topology"
)

// Property/fuzz test for the halo exchange: random grid extents, halo
// widths, rank counts, process-grid shapes, boundary conditions and
// protocol options must all round-trip PackFace/exchange/UnpackHalo
// against a direct global-index oracle.

// encode gives every (grid, global point) a unique, exactly
// representable value.
func encode(g, gi, gj, gk int) float64 {
	return float64(g)*1e7 + float64(gi)*1e4 + float64(gj)*1e2 + float64(gk)
}

// feasibleLayouts enumerates process grids of total size p that keep
// every sub-domain at least halo thick.
func feasibleLayouts(p int, global topology.Dims, halo int) []topology.Dims {
	var out []topology.Dims
	for x := 1; x <= p; x++ {
		if p%x != 0 {
			continue
		}
		rest := p / x
		for y := 1; y <= rest; y++ {
			if rest%y != 0 {
				continue
			}
			procs := topology.Dims{x, y, rest / y}
			if _, err := grid.NewDecomp(global, procs, halo); err == nil {
				out = append(out, procs)
			}
		}
	}
	return out
}

func TestHaloExchangeFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(20260728))
	trials := 40
	if testing.Short() {
		trials = 10
	}
	for trial := 0; trial < trials; trial++ {
		halo := 1 + rng.Intn(3)
		global := topology.Dims{
			2*halo + rng.Intn(10),
			2*halo + rng.Intn(10),
			2*halo + rng.Intn(10),
		}
		p := []int{1, 2, 4, 8}[rng.Intn(4)]
		layouts := feasibleLayouts(p, global, halo)
		if len(layouts) == 0 {
			continue
		}
		procs := layouts[rng.Intn(len(layouts))]
		periodic := rng.Intn(2) == 0
		nGrids := 1 + rng.Intn(3)
		// Exchange runs on the calling goroutine for every approach, so
		// hybrid multiple needs no MULTIPLE-mode world here.
		opts := Options{
			Approach:  Approaches[rng.Intn(len(Approaches))],
			BatchSize: 1 + rng.Intn(3),
			BatchRamp: rng.Intn(2) == 0,
			Threads:   1,
		}
		op := stencil.Laplacian(halo, 1)
		dec := grid.MustDecomp(global, procs, halo)

		// The oracle: the value a halo cell must hold after exchange.
		oracle := func(g int, c [3]int) (float64, bool) {
			for d := 0; d < 3; d++ {
				if c[d] < 0 || c[d] >= global[d] {
					if !periodic {
						return 0, true // Dirichlet edge: halos stay zero
					}
					c[d] = ((c[d] % global[d]) + global[d]) % global[d]
				}
			}
			return encode(g, c[0], c[1], c[2]), false
		}

		err := runRanks(procs.Count(), mpi.ThreadSingle, func(c *mpi.Comm) {
			cart := c.CartCreate(procs, [3]bool{periodic, periodic, periodic}, true)
			eng, err := NewEngine(cart, dec, op, periodic, opts)
			if err != nil {
				panic(err)
			}
			defer eng.Close()
			off := dec.Offset(eng.Coord())
			gs := make([]*grid.Grid, nGrids)
			for g := range gs {
				gs[g] = eng.NewLocalGrid()
				g := g
				gs[g].FillFunc(func(i, j, k int) float64 {
					return encode(g, off[0]+i, off[1]+j, off[2]+k)
				})
			}
			eng.Exchange(gs)
			ld := dec.LocalDims(eng.Coord())
			for g, lg := range gs {
				// Interior must be untouched.
				for i := 0; i < ld[0]; i++ {
					for j := 0; j < ld[1]; j++ {
						for k := 0; k < ld[2]; k++ {
							want := encode(g, off[0]+i, off[1]+j, off[2]+k)
							if got := lg.At(i, j, k); got != want {
								t.Errorf("trial %d: interior (%d,%d,%d) of grid %d corrupted: %g != %g",
									trial, i, j, k, g, got, want)
								return
							}
						}
					}
				}
				// Face halos (thickness = radius) must match the oracle.
				// Corners are exempt: the axis-aligned stencil never
				// reads them and the exchange does not fill them.
				check := func(i, j, k int) {
					want, _ := oracle(g, [3]int{off[0] + i, off[1] + j, off[2] + k})
					if got := lg.At(i, j, k); got != want {
						t.Errorf("trial %d (global %v procs %v halo %d periodic %v opts %+v): halo (%d,%d,%d) of grid %d = %g, oracle %g",
							trial, global, procs, halo, periodic, opts, i, j, k, g, got, want)
					}
				}
				for s := 1; s <= halo; s++ {
					for j := 0; j < ld[1]; j++ {
						for k := 0; k < ld[2]; k++ {
							check(-s, j, k)
							check(ld[0]+s-1, j, k)
						}
					}
					for i := 0; i < ld[0]; i++ {
						for k := 0; k < ld[2]; k++ {
							check(i, -s, k)
							check(i, ld[1]+s-1, k)
						}
					}
					for i := 0; i < ld[0]; i++ {
						for j := 0; j < ld[1]; j++ {
							check(i, j, -s)
							check(i, j, ld[2]+s-1)
						}
					}
				}
			}
		})
		if err != nil {
			t.Fatalf("trial %d (global %v procs %v halo %d): %v", trial, global, procs, halo, err)
		}
		if t.Failed() {
			return
		}
	}
}
