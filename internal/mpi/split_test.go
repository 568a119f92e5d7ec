package mpi

import (
	"sync/atomic"
	"testing"
)

// Direct unit tests for Comm.Split, which the band-parallel solver layer
// makes load-bearing: the bands x domain 2D layout and the pblas process
// grids are all built from Split row/col/band sub-communicators.

// TestSplitColorGrouping: ranks with the same color land in the same
// communicator, with sizes matching the color populations and ranks
// ordered by old rank when keys are equal.
func TestSplitColorGrouping(t *testing.T) {
	const n = 6
	var sizes [n]int32
	var ranks [n]int32
	err := runRanks(n, ThreadSingle, func(c *Comm) {
		// Colors 0,0,1,1,2,2 by pairs.
		sub := c.Split(c.Rank()/2, 0)
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

// TestSplitKeyOrdering: descending keys reverse the rank order inside
// the new communicator, and equal keys fall back to old-rank order.
func TestSplitKeyOrdering(t *testing.T) {
	const n = 4
	var newRanks [n]int32
	err := runRanks(n, ThreadSingle, func(c *Comm) {
		sub := c.Split(0, -c.Rank()) // negative keys are legal; only order matters
		atomic.StoreInt32(&newRanks[c.Rank()], int32(sub.Rank()))
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < n; r++ {
		if want := int32(n - 1 - r); newRanks[r] != want {
			t.Errorf("old rank %d: new rank %d, want %d (reversed by key)", r, newRanks[r], want)
		}
	}
}

// TestSplitNegativeColor: a negative color (MPI_UNDEFINED) yields nil,
// and the remaining ranks form a correctly sized communicator.
func TestSplitNegativeColor(t *testing.T) {
	const n = 4
	err := runRanks(n, ThreadSingle, func(c *Comm) {
		color := 0
		if c.Rank()%2 == 1 {
			color = -1
		}
		sub := c.Split(color, 0)
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
		sub := c.Split(0, 0) // same membership, distinct context
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
		group := c.Split(c.Rank()/4, c.Rank()) // two groups of 4
		row := group.Split(group.Rank()/2, group.Rank()%2)
		col := group.Split(group.Rank()%2, group.Rank()/2)
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
