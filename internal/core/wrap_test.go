package core

import (
	"math"
	"testing"

	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/stencil"
	"repro/internal/topology"
	"repro/internal/trace"
)

// Tests of the in-place wrap: a periodic dimension the process grid
// does not divide fills its halos from the rank's own faces at unpack
// time and sends no message.

// wrapEngine builds a periodic engine over procs for approach a, with
// two threads for the hybrids and batches of two, ramped if asked.
func wrapEngine(c *mpi.Comm, global, procs topology.Dims, a Approach, ramp bool) *Engine {
	opts := OptionsFor(a, 2, 2)
	opts.BatchRamp = ramp
	return overlapEngine(c, global, procs, true, opts)
}

// worldMode is the thread mode approach a needs.
func worldMode(a Approach) mpi.ThreadMode {
	if a == HybridMultiple {
		return mpi.ThreadMultiple
	}
	return mpi.ThreadSingle
}

// TestWrapMatchesPeriodicReference: on layouts that wrap some or all
// dimensions in place, every approach, with overlap on and off and with
// and without the batch ramp, leaves each source grid's face halos
// equal to the periodic image of the global field and computes the
// operator bit-identically to ApplyPeriodicReference on the undecomposed
// grid.
func TestWrapMatchesPeriodicReference(t *testing.T) {
	global := topology.Dims{8, 10, 6}
	const nGrids = 5
	op := stencil.Laplacian(2, 1)
	// The reference: every global grid with periodic halos, and the
	// operator applied to it.
	refSrc := make([]*grid.Grid, nGrids)
	refDst := make([]*grid.Grid, nGrids)
	for gi := range refSrc {
		refSrc[gi] = grid.NewDims(global, op.R)
		refSrc[gi].FillFunc(func(i, j, k int) float64 { return encode(gi, i, j, k) })
		refDst[gi] = grid.NewDims(global, op.R)
		op.ApplyPeriodicReference(refDst[gi], refSrc[gi])
	}
	// All three dimensions wrapped, y exchanged between two ranks, and
	// x and z exchanged.
	for _, procs := range []topology.Dims{{1, 1, 1}, {1, 2, 1}, {2, 1, 2}} {
		dec := grid.MustDecomp(global, procs, op.R)
		for _, a := range Approaches {
			for _, overlap := range []bool{false, true} {
				for _, ramp := range []bool{false, true} {
					err := runRanks(procs.Count(), worldMode(a), func(c *mpi.Comm) {
						eng := wrapEngine(c, global, procs, a, ramp)
						defer eng.Close()
						off := dec.Offset(eng.Coord())
						src := make([]*grid.Grid, nGrids)
						dst := make([]*grid.Grid, nGrids)
						for gi := range src {
							src[gi], dst[gi] = eng.NewLocalGrid(), eng.NewLocalGrid()
							src[gi].FillFunc(func(i, j, k int) float64 { return encode(gi, off[0]+i, off[1]+j, off[2]+k) })
						}
						if overlap {
							eng.Run(src, true, func(b Batch, r stencil.Region) {
								for gi := b.Lo; gi < b.Hi; gi++ {
									op.Over(r).Apply(dst[gi], src[gi])
								}
							})
						} else {
							eng.Apply(a, dst, src)
						}
						for gi := range src {
							if cell, ok := matchesGlobal(src[gi], dst[gi], refSrc[gi], refDst[gi], off, global); !ok {
								t.Errorf("procs %v %v overlap %v ramp %v grid %d: cell %v deviates from the reference",
									procs, a, overlap, ramp, gi, cell)
							}
						}
					})
					if err != nil {
						t.Fatalf("procs %v %v overlap %v ramp %v: %v", procs, a, overlap, ramp, err)
					}
				}
			}
		}
	}
}

// matchesGlobal compares a rank's block at offset off with the global
// reference, bit for bit: src's face halos (R = src.H deep; corners are
// never filled) against refSrc's periodic image, dst's interior against
// refDst. It returns the first deviating local cell.
func matchesGlobal(src, dst, refSrc, refDst *grid.Grid, off topology.Coord, global topology.Dims) ([3]int, bool) {
	ld, r := src.Dims(), src.H
	for i := -r; i < ld[0]+r; i++ {
		for j := -r; j < ld[1]+r; j++ {
			for k := -r; k < ld[2]+r; k++ {
				cell := [3]int{i, j, k}
				var at [3]int
				outside := 0
				for d := 0; d < 3; d++ {
					if cell[d] < 0 || cell[d] >= ld[d] {
						outside++
					}
					at[d] = (off[d] + cell[d] + global[d]) % global[d]
				}
				var got, want float64
				switch outside {
				case 0:
					got, want = dst.At(i, j, k), refDst.At(at[0], at[1], at[2])
				case 1:
					got, want = src.At(i, j, k), refSrc.At(at[0], at[1], at[2])
				default:
					continue
				}
				if math.Float64bits(got) != math.Float64bits(want) {
					return cell, false
				}
			}
		}
	}
	return [3]int{}, true
}

// TestUndividedDimensionSendsNothing: no approach sends a message from
// a rank to itself. On 1x1x1 nothing is sent at all; on layouts that
// divide some dimensions the faces of those dimensions, and only
// those, travel: each exchanged batch sends two faces per divided
// dimension.
func TestUndividedDimensionSendsNothing(t *testing.T) {
	global := topology.Dims{8, 8, 8}
	const nGrids = 3
	for _, procs := range []topology.Dims{{1, 1, 1}, {1, 2, 1}, {2, 1, 2}, {1, 1, 2}} {
		divided := 0
		for d := 0; d < 3; d++ {
			if procs[d] > 1 {
				divided++
			}
		}
		for _, a := range Approaches {
			tr := trace.New(procs.Count(), 4096)
			w := testWorld(procs.Count(), worldMode(a))
			w.SetTracer(tr)
			sent := make([]int64, procs.Count())
			err := w.Run(func(c *mpi.Comm) {
				eng := wrapEngine(c, global, procs, a, false)
				defer eng.Close()
				gs := make([]*grid.Grid, nGrids)
				for gi := range gs {
					gs[gi] = eng.NewLocalGrid()
				}
				eng.Exchange(gs)
				eng.Run(gs, true, noCompute)
				sent[c.Rank()] = eng.Stats().MessagesSent
			})
			if err != nil {
				t.Fatalf("procs %v %v: %v", procs, a, err)
			}
			for r := range sent {
				var traced, self int64
				for _, ev := range tr.RankEvents(r) {
					if ev.Kind == trace.KindSend {
						traced++
						if ev.Peer == r {
							self++
						}
					}
				}
				if self != 0 {
					t.Errorf("procs %v %v: rank %d sent %d faces to itself", procs, a, r, self)
				}
				// Exchange runs batches of two on the calling goroutine;
				// Run does the same except for hybrid multiple, whose
				// two workers take a grid or two each: one batch apiece.
				batches := int64(2 + 2)
				if a == FlatOriginal {
					batches = nGrids + nGrids // flat original never batches
				}
				if want := 2 * int64(divided) * batches; sent[r] != want || traced != want {
					t.Errorf("procs %v %v rank %d: %d messages counted, %d traced, want %d",
						procs, a, r, sent[r], traced, want)
				}
			}
		}
	}
}
