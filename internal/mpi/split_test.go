package mpi

import (
	"fmt"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

// Direct unit tests for Comm.Split, which the band-parallel solver layer
// makes load-bearing: the bands x domain 2D layout and the pblas process
// grids are all built from Split row/col/band sub-communicators.

// TestSplitSendsNothing: Split is local. Only rank 0 of a 4-rank world
// calls it while the other ranks return at once — a collective would
// strand rank 0 — and rank 0 still gets its pair communicator's size,
// rank and context. Under the network model every rank's virtual clock
// stays at 0.
func TestSplitSendsNothing(t *testing.T) {
	w := testWorld(4, ThreadSingle)
	w.SetOpTimeout(5 * time.Second)
	w.SetNetModel(&NetModel{Params: testParams(), NoComputeWall: true})
	err := w.Run(func(c *Comm) {
		if c.Rank() != 0 {
			return
		}
		sub := c.Split(func(r int) int { return r / 2 })
		if sub.Size() != 2 || sub.Rank() != 0 || sub.ctx != 1<<8+1 {
			t.Errorf("size %d rank %d ctx %#x, want 2, 0 and 0x101", sub.Size(), sub.Rank(), sub.ctx)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 4; r++ {
		if v := w.VirtualTime(r); v != 0 {
			t.Errorf("rank %d: virtual clock %v, want 0", r, v)
		}
	}
}

// TestSplitMatchesLayouts holds every member's size, rank, group and
// context to closed forms for the colorings the solver stack uses:
// NewDist's band groups and band columns, the first k ranks (shrunk
// multigrid levels, fault recovery) and pblas's grid rows and columns,
// and for sparse colors with a rank left out. Split s (0-based) on the world gets context (s+1)·2⁸ + index + 1.
func TestSplitMatchesLayouts(t *testing.T) {
	span := func(first, n, stride int) []int {
		g := make([]int, n)
		for i := range g {
			g[i] = first + i*stride
		}
		return g
	}
	ctxOf := func(s, index int) uint64 { return uint64(s+1)<<8 + uint64(index+1) }
	// want gives world rank r's new rank, group (world ranks, nil when
	// Split returns nil) and context.
	type split struct {
		colorOf func(r int) int
		want    func(r int) (rank int, group []int, ctx uint64)
	}
	type layout struct {
		name   string
		n      int
		splits []split
	}
	// rowsCols is NewDist's and pblas's pair of colorings on an n-rank
	// world of rows of length m: rows r/m, then columns r%m.
	rowsCols := func(n, m int) []split {
		return []split{
			{func(r int) int { return r / m },
				func(r int) (int, []int, uint64) { return r % m, span(r/m*m, m, 1), ctxOf(0, r/m) }},
			{func(r int) int { return r % m },
				func(r int) (int, []int, uint64) { return r / m, span(r%m, n/m, m), ctxOf(1, r%m) }},
		}
	}
	var layouts []layout
	for _, bands := range []int{1, 2, 4} {
		layouts = append(layouts, layout{fmt.Sprintf("dist %dx%d", bands, 8/bands), 8, rowsCols(8, 8/bands)})
	}
	for _, k := range []int{1, 3, 8} {
		layouts = append(layouts, layout{fmt.Sprintf("first %d of 8", k), 8, []split{{
			func(r int) int {
				if r < k {
					return 0
				}
				return -1
			},
			func(r int) (int, []int, uint64) {
				if r >= k {
					return 0, nil, 0
				}
				return r, span(0, k, 1), ctxOf(0, 0)
			}}}})
	}
	layouts = append(layouts, layout{"pblas 2x3", 6, rowsCols(6, 3)})
	// Sparse colors past one bitset word: 3, 70 and 130 index 0, 1, 2.
	colors := []int{70, 3, 70, -1, 130, 3}
	groups := map[int][]int{3: {1, 5}, 70: {0, 2}, 130: {4}}
	layouts = append(layouts, layout{"sparse colors", len(colors), []split{{
		func(r int) int { return colors[r] },
		func(r int) (int, []int, uint64) {
			g := groups[colors[r]]
			return slices.Index(g, r), g, ctxOf(0, slices.Index([]int{3, 70, 130}, colors[r]))
		}}}})
	for _, l := range layouts {
		err := runRanks(l.n, ThreadSingle, func(c *Comm) {
			for s, sp := range l.splits {
				sub := c.Split(sp.colorOf)
				rank, group, ctx := sp.want(c.Rank())
				switch {
				case group == nil && sub != nil:
					t.Errorf("%s split %d rank %d: got size %d, want nil", l.name, s, c.Rank(), sub.Size())
				case group == nil:
				case sub == nil:
					t.Errorf("%s split %d rank %d: got nil, want size %d", l.name, s, c.Rank(), len(group))
				case sub.Size() != len(group) || sub.Rank() != rank || !slices.Equal(sub.group, group) || sub.ctx != ctx:
					t.Errorf("%s split %d rank %d: size %d rank %d group %v ctx %#x, want %d, %d, %v and %#x",
						l.name, s, c.Rank(), sub.Size(), sub.Rank(), sub.group, sub.ctx, len(group), rank, group, ctx)
				}
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", l.name, err)
		}
	}
}

// TestSplitColorGrouping: ranks with the same color land in the same
// communicator, with sizes matching the color populations and ranks
// ordered by old rank.
func TestSplitColorGrouping(t *testing.T) {
	const n = 6
	var sizes [n]int32
	var ranks [n]int32
	err := runRanks(n, ThreadSingle, func(c *Comm) {
		// Colors 0,0,1,1,2,2 by pairs.
		sub := c.Split(func(r int) int { return r / 2 })
		if sub == nil {
			t.Errorf("rank %d: nil communicator for non-negative color", c.Rank())
			return
		}
		atomic.StoreInt32(&sizes[c.Rank()], int32(sub.Size()))
		atomic.StoreInt32(&ranks[c.Rank()], int32(sub.Rank()))
		// The pair communicator must actually work: sum both members'
		// world ranks and check against the closed form.
		got := sub.AllreduceSum(float64(c.Rank()))
		want := float64(4*(c.Rank()/2) + 1)
		if got != want {
			t.Errorf("rank %d: pair sum %g, want %g", c.Rank(), got, want)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < n; r++ {
		if sizes[r] != 2 {
			t.Errorf("rank %d: size %d, want 2", r, sizes[r])
		}
		if want := int32(r % 2); ranks[r] != want {
			t.Errorf("rank %d: new rank %d, want %d (old-rank order)", r, ranks[r], want)
		}
	}
}

// TestSplitNegativeColor: a negative color (MPI_UNDEFINED) yields nil,
// and the remaining ranks form a correctly sized communicator.
func TestSplitNegativeColor(t *testing.T) {
	const n = 4
	err := runRanks(n, ThreadSingle, func(c *Comm) {
		sub := c.Split(func(r int) int { return -(r % 2) })
		if c.Rank()%2 == 1 {
			if sub != nil {
				t.Errorf("rank %d: want nil for negative color, got size %d", c.Rank(), sub.Size())
			}
			return
		}
		if sub == nil {
			t.Errorf("rank %d: nil for non-negative color", c.Rank())
			return
		}
		if sub.Size() != n/2 {
			t.Errorf("rank %d: size %d, want %d", c.Rank(), sub.Size(), n/2)
		}
		if sub.Rank() != c.Rank()/2 {
			t.Errorf("rank %d: new rank %d, want %d", c.Rank(), sub.Rank(), c.Rank()/2)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSplitContextIsolation pins the communicator-context mechanism: a
// split communicator covering the same ranks as its parent must not
// cross-match the parent's collectives, even when the sender races ahead.
// Without per-communicator contexts, both broadcasts below would use the
// same (source rank, tag) pair and the child's receive could steal the
// parent's envelope.
func TestSplitContextIsolation(t *testing.T) {
	const n = 4
	err := runRanks(n, ThreadSingle, func(c *Comm) {
		sub := c.Split(func(int) int { return 0 }) // same membership, distinct context
		parentBuf := []float64{0}
		childBuf := []float64{0}
		if c.Rank() == 0 {
			parentBuf[0], childBuf[0] = 1, 2
			// Root sends both broadcasts eagerly before any receiver runs.
			c.Bcast(0, parentBuf)
			sub.Bcast(0, childBuf)
			return
		}
		// Receivers take the child broadcast first: with shared tag
		// spaces this would match the parent's earlier envelope.
		sub.Bcast(0, childBuf)
		c.Bcast(0, parentBuf)
		if parentBuf[0] != 1 || childBuf[0] != 2 {
			t.Errorf("rank %d: got parent %g child %g, want 1 and 2", c.Rank(), parentBuf[0], childBuf[0])
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSplitNestedGrids exercises the exact communicator tree the
// bands x domain layer builds: world -> band groups -> 2D grid row/col
// sub-communicators, with collectives live at every level.
func TestSplitNestedGrids(t *testing.T) {
	const n = 8 // 2 groups x (2x2 grid)
	err := runRanks(n, ThreadSingle, func(c *Comm) {
		group := c.Split(func(r int) int { return r / 4 }) // two groups of 4
		row := group.Split(func(r int) int { return r / 2 })
		col := group.Split(func(r int) int { return r % 2 })
		if row.Size() != 2 || col.Size() != 2 {
			t.Errorf("rank %d: row size %d col size %d, want 2 and 2", c.Rank(), row.Size(), col.Size())
		}
		// Sum world ranks along each axis and check against closed forms.
		rowSum := row.AllreduceSum(float64(c.Rank()))
		colSum := col.AllreduceSum(float64(c.Rank()))
		base := 4 * (c.Rank() / 4)
		r, q := (c.Rank()-base)/2, (c.Rank()-base)%2
		if want := float64(2*base + 4*r + 1); rowSum != want {
			t.Errorf("rank %d: row sum %g, want %g", c.Rank(), rowSum, want)
		}
		if want := float64(2*base + 2*q + 2); colSum != want {
			t.Errorf("rank %d: col sum %g, want %g", c.Rank(), colSum, want)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
