package mpi

import (
	"fmt"
	"slices"
	"sync"
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
// rank and a context of its own. Under the network model every rank's
// virtual clock stays at 0.
func TestSplitSendsNothing(t *testing.T) {
	w := testWorld(4, ThreadSingle)
	w.SetOpTimeout(5 * time.Second)
	w.SetNetModel(&NetModel{Params: testParams(), NoComputeWall: true})
	err := w.Run(func(c *Comm) {
		if c.Rank() != 0 {
			return
		}
		sub := c.Split(func(r int) int { return r / 2 })
		if sub.Size() != 2 || sub.Rank() != 0 || sub.ctx == c.ctx {
			t.Errorf("size %d rank %d ctx %#x, want 2, 0 and not the world's %#x", sub.Size(), sub.Rank(), sub.ctx, c.ctx)
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

// TestSplitMatchesLayouts holds every member's size, rank and group to
// closed forms for the colorings the solver stack uses: NewDist's band
// groups and band columns, the first k ranks (shrunk multigrid levels,
// fault recovery) and pblas's grid rows and columns, and for sparse
// colors with a rank left out. The members of one child, named by
// (split s, color index), share one context, and no two children of a
// layout share one.
func TestSplitMatchesLayouts(t *testing.T) {
	span := func(first, n, stride int) []int {
		g := make([]int, n)
		for i := range g {
			g[i] = first + i*stride
		}
		return g
	}
	type child struct{ s, index int }
	// want gives world rank r's new rank, group (world ranks, nil when
	// Split returns nil) and child.
	type split struct {
		colorOf func(r int) int
		want    func(r int) (rank int, group []int, ch child)
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
				func(r int) (int, []int, child) { return r % m, span(r/m*m, m, 1), child{0, r / m} }},
			{func(r int) int { return r % m },
				func(r int) (int, []int, child) { return r / m, span(r%m, n/m, m), child{1, r % m} }},
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
			func(r int) (int, []int, child) {
				if r >= k {
					return 0, nil, child{}
				}
				return r, span(0, k, 1), child{0, 0}
			}}}})
	}
	layouts = append(layouts, layout{"pblas 2x3", 6, rowsCols(6, 3)})
	// Sparse colors past one bitset word: 3, 70 and 130 index 0, 1, 2.
	colors := []int{70, 3, 70, -1, 130, 3}
	groups := map[int][]int{3: {1, 5}, 70: {0, 2}, 130: {4}}
	layouts = append(layouts, layout{"sparse colors", len(colors), []split{{
		func(r int) int { return colors[r] },
		func(r int) (int, []int, child) {
			g := groups[colors[r]]
			return slices.Index(g, r), g, child{0, slices.Index([]int{3, 70, 130}, colors[r])}
		}}}})
	for _, l := range layouts {
		var mu sync.Mutex
		ctxs := map[child]uint64{}
		err := runRanks(l.n, ThreadSingle, func(c *Comm) {
			for s, sp := range l.splits {
				sub := c.Split(sp.colorOf)
				rank, group, ch := sp.want(c.Rank())
				switch {
				case group == nil && sub != nil:
					t.Errorf("%s split %d rank %d: got size %d, want nil", l.name, s, c.Rank(), sub.Size())
				case group == nil:
				case sub == nil:
					t.Errorf("%s split %d rank %d: got nil, want size %d", l.name, s, c.Rank(), len(group))
				case sub.Size() != len(group) || sub.Rank() != rank || !slices.Equal(sub.group, group):
					t.Errorf("%s split %d rank %d: size %d rank %d group %v, want %d, %d and %v",
						l.name, s, c.Rank(), sub.Size(), sub.Rank(), sub.group, len(group), rank, group)
				default:
					mu.Lock()
					if prev, ok := ctxs[ch]; ok && prev != sub.ctx {
						t.Errorf("%s split %d rank %d: ctx %#x, another member has %#x", l.name, s, c.Rank(), sub.ctx, prev)
					}
					ctxs[ch] = sub.ctx
					mu.Unlock()
				}
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", l.name, err)
		}
		owner := map[uint64]child{0: {-1, -1}} // the world's context
		for ch, ctx := range ctxs {
			if prev, ok := owner[ctx]; ok {
				t.Errorf("%s: children %v and %v share ctx %#x", l.name, prev, ch, ctx)
			}
			owner[ctx] = ch
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

// TestNestedContextsNeverAlias: the multigrid shrink chain's shape —
// world -> D (every rank) -> D's first 4 -> their first 2 — nests
// contexts three levels deep. Ranks 0 and 1 are ranks 0 and 1 of both,
// and their first collectives on each carry the same tag. Rank
// 0 broadcasts on the parent, then on the grandchild; rank 1 receives
// the two in the opposite order. Each broadcast must deliver its own
// communicator's value: messages match on the whole context.
func TestNestedContextsNeverAlias(t *testing.T) {
	w := testWorld(4, ThreadSingle)
	w.SetOpTimeout(5 * time.Second)
	first := func(n int) func(r int) int {
		return func(r int) int {
			if r < n {
				return 0
			}
			return -1
		}
	}
	const parentVal, childVal = 4, 2
	err := w.Run(func(c *Comm) {
		d := c.Split(func(int) int { return 0 })
		four := d.Split(first(4))
		two := four.Split(first(2))
		parent, child := []float64{0}, []float64{0}
		switch c.Rank() {
		case 0:
			parent[0], child[0] = parentVal, childVal
			four.Bcast(0, parent)
			two.Bcast(0, child)
		case 1:
			two.Bcast(0, child)
			four.Bcast(0, parent)
		default:
			four.Bcast(0, parent)
			child[0] = childVal
		}
		if parent[0] != parentVal || child[0] != childVal {
			t.Errorf("rank %d: parent broadcast delivered %g, grandchild's %g; want %d and %d",
				c.Rank(), parent[0], child[0], parentVal, childVal)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestContextsNeverAliasAtAnyDepth: a communicator chain nested nine
// levels below a shrunk world, and the first and 257th children of one
// parent, each keep their own traffic. Rank 0 broadcasts on every
// communicator of a set in order and rank 1 receives in the reverse
// order, so two of them sharing a context would swap values.
func TestContextsNeverAliasAtAnyDepth(t *testing.T) {
	w := testWorld(2, ThreadSingle)
	w.SetOpTimeout(5 * time.Second)
	all := func(int) int { return 0 }
	err := w.Run(func(c *Comm) {
		chain := []*Comm{c.Shrink([]int{0, 1})}
		for len(chain) < 10 {
			chain = append(chain, chain[len(chain)-1].Split(all))
		}
		wide := []*Comm{c.Split(all), nil}
		for i := 0; i < 255; i++ {
			c.Split(all)
		}
		wide[1] = c.Split(all)
		for _, set := range []struct {
			name  string
			comms []*Comm
		}{{"chain", chain}, {"wide", wide}} {
			name, comms := set.name, set.comms
			bufs := make([][]float64, len(comms))
			for i := range bufs {
				bufs[i] = []float64{0}
				if c.Rank() == 0 {
					bufs[i][0] = float64(i + 1)
				}
			}
			for k := range comms {
				i := k
				if c.Rank() == 1 {
					i = len(comms) - 1 - k
				}
				comms[i].Bcast(0, bufs[i])
			}
			for i, b := range bufs {
				if b[0] != float64(i+1) {
					t.Errorf("rank %d: %s communicator %d delivered %g, want %d", c.Rank(), name, i, b[0], i+1)
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
