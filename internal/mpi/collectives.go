package mpi

import (
	"fmt"
	"math"

	"repro/internal/trace"
)

// Collectives are implemented over point-to-point messages with reserved
// negative tags from a per-rank collective sequence number. MPI requires
// every rank of a communicator to invoke collectives in the same order,
// so the counters agree across ranks; messages match only within their
// communicator's context, so collectives on communicators sharing ranks
// (a band communicator and the world it was split from) never meet.
// Sequence numbers wrap, which is safe because matching is FIFO per
// (source, tag): a wrapped tag only collides with a message the receiver
// must consume first anyway.

// collTag returns the reserved tag for the n-th collective call on this
// communicator.
func (c *Comm) collTag(seq uint64) int { return -2 - int(seq%(1<<16)) }

// Op is a reduction operator for Reduce/Allreduce.
type Op int

// Reduction operators.
const (
	OpSum Op = iota
	OpMax
	OpMin
)

// apply folds src into dst. Under OpMax and OpMin a NaN wins from
// whichever rank holds it, so the result does not depend on the merge
// order: a plain comparison never promotes a NaN over a number.
func (o Op) apply(dst, src []float64) {
	switch o {
	case OpSum:
		for i := range dst {
			dst[i] += src[i]
		}
	case OpMax:
		for i := range dst {
			if src[i] > dst[i] || math.IsNaN(src[i]) {
				dst[i] = src[i]
			}
		}
	case OpMin:
		for i := range dst {
			if src[i] < dst[i] || math.IsNaN(src[i]) {
				dst[i] = src[i]
			}
		}
	default:
		panic(fmt.Sprintf("mpi: unknown reduction op %d", o))
	}
}

// MergeMasked is the AllreduceFunc merge that gathers values verbatim:
// acc and contrib are both laid out as [values..., mask...], and slots
// flagged in the contribution's mask overwrite acc's value. Every slot
// is owned by exactly one rank, so the rank-ordered merge is a pure
// copy — no floating-point arithmetic touches the values in flight.
func MergeMasked(acc, contrib []float64) {
	half := len(acc) / 2
	for i := 0; i < half; i++ {
		if contrib[half+i] != 0 {
			acc[i] = contrib[i]
			acc[half+i] = 1
		}
	}
}

// Barrier blocks until every rank of the communicator has entered it.
// Implemented as a dissemination barrier of empty point-to-point
// messages.
//
//gpaw:hotpath
func (c *Comm) Barrier() {
	c.enter()
	defer c.exit()
	if rk := c.traceRank(); rk != nil {
		defer rk.BeginComm("mpi.barrier", trace.KindCollective, -1, -1, 0).End()
	}
	tag := c.collTag(c.coll)
	c.coll++
	p := len(c.group)
	for round := 1; round < p; round *= 2 {
		to := (c.rank + round) % p
		from := (c.rank - round + p) % p
		req := c.irecv(from, tag, nil)
		c.sendInternal(to, tag, nil)
		req.Wait()
		Reclaim(req)
	}
}

// Bcast copies buf from root to every rank (binomial tree). All ranks
// must pass equal-length buffers.
//
//gpaw:hotpath
func (c *Comm) Bcast(root int, buf []float64) {
	c.enter()
	defer c.exit()
	if rk := c.traceRank(); rk != nil {
		defer rk.BeginComm("mpi.bcast", trace.KindCollective, c.worldRank(root), -1, int64(len(buf))*8).End()
	}
	tag := c.collTag(c.coll)
	c.coll++
	p := len(c.group)
	if p == 1 {
		return
	}
	// Rotate so the root is virtual rank 0.
	vrank := (c.rank - root + p) % p
	if vrank != 0 {
		// Receive from parent.
		mask := 1
		for mask < p {
			if vrank&mask != 0 {
				parent := ((vrank - mask) + root) % p
				c.recv(parent, tag, buf)
				break
			}
			mask <<= 1
		}
		// Forward to children below the found mask.
		for child := mask >> 1; child > 0; child >>= 1 {
			v := vrank | child
			if v < p && v != vrank {
				c.sendInternal((v+root)%p, tag, buf)
			}
		}
	} else {
		mask := 1
		for mask < p {
			mask <<= 1
		}
		for child := mask >> 1; child > 0; child >>= 1 {
			if child < p {
				c.sendInternal((child+root)%p, tag, buf)
			}
		}
	}
}

// Reduce combines each rank's contribution into out at root using op:
// ReduceFunc with the operator as the merge, so contributions fold in
// ascending rank order and floating-point results are deterministic run
// to run. out is only written at root and must be as long as in there;
// in and out must not alias.
func (c *Comm) Reduce(root int, op Op, in, out []float64) {
	c.ReduceFunc(root, in, out, op.apply)
}

// ReduceFunc folds every rank's contribution into out at root with a
// caller-supplied merge function, always applied in ascending rank
// order: merge(acc, contribution of rank r) for r = 0, 1, ... The rank
// order is independent of message arrival order, so a merge whose
// operation is deterministic produces deterministic results run to run
// regardless of scheduling — the property the solver stack's exact
// accumulator reductions (internal/detsum) are built on. out is only
// written at root; in and out must not alias.
//
//gpaw:hotpath
func (c *Comm) ReduceFunc(root int, in, out []float64, merge func(acc, contrib []float64)) {
	c.enter()
	defer c.exit()
	if rk := c.traceRank(); rk != nil {
		defer rk.BeginComm("mpi.reduce", trace.KindCollective, c.worldRank(root), -1, int64(len(in))*8).End()
	}
	tag := c.collTag(c.coll)
	c.coll++
	if c.rank != root {
		c.sendInternal(root, tag, in)
		return
	}
	if len(out) < len(in) {
		panic("mpi: ReduceFunc output shorter than input")
	}
	if cap(c.red) < len(in) {
		//lint:ignore hotpathalloc grow-once scratch: the communicator's largest reduction sizes it, every later one reuses it
		c.red = make([]float64, len(in))
	}
	// Rank 0's contribution lands in acc; every later one lands in the
	// scratch and is merged at once, so the fold runs in ascending rank
	// order while receives are still being posted in that order. The
	// root's own contribution reaches the fold by copy only: handing in
	// to merge, an indirect call, would move every caller's in to the
	// heap.
	acc, part := out[:len(in)], c.red[:len(in)]
	for r := range c.group {
		dst := part
		if r == 0 {
			dst = acc
		}
		if r == root {
			copy(dst, in)
		} else {
			c.recv(r, tag, dst)
		}
		if r > 0 {
			merge(acc, part)
		}
	}
}

// AllreduceFunc is ReduceFunc to rank 0 followed by a broadcast of the
// merged result to every rank.
func (c *Comm) AllreduceFunc(in, out []float64, merge func(acc, contrib []float64)) {
	if len(out) < len(in) {
		panic("mpi: AllreduceFunc output shorter than input")
	}
	if rk := c.traceRank(); rk != nil {
		defer rk.BeginComm("mpi.allreduce", trace.KindCollective, -1, -1, int64(len(in))*8).End()
	}
	c.ReduceFunc(0, in, out, merge)
	c.Bcast(0, out[:len(in)])
}

// Allreduce combines every rank's contribution with op and distributes
// the result to all ranks (AllreduceFunc with the operator as the merge).
func (c *Comm) Allreduce(op Op, in, out []float64) {
	c.AllreduceFunc(in, out, op.apply)
}

// AllreduceSum is a convenience wrapper reducing a single value.
func (c *Comm) AllreduceSum(v float64) float64 { return c.allreduce1(OpSum, v) }

// AllreduceMax returns the maximum of v over the communicator.
func (c *Comm) AllreduceMax(v float64) float64 { return c.allreduce1(OpMax, v) }

// allreduce1 reduces one value through the communicator's scratch.
func (c *Comm) allreduce1(op Op, v float64) float64 {
	s := c.sum[:]
	s[0] = v
	c.Allreduce(op, s[:1], s[1:])
	return s[1]
}

// Gather collects each rank's equal-length contribution at root, laid out
// in rank order. out must be len(in)*Size() at root; it is ignored
// elsewhere.
//
//gpaw:hotpath
func (c *Comm) Gather(root int, in, out []float64) {
	c.enter()
	defer c.exit()
	if rk := c.traceRank(); rk != nil {
		defer rk.BeginComm("mpi.gather", trace.KindCollective, c.worldRank(root), -1, int64(len(in))*8).End()
	}
	tag := c.collTag(c.coll)
	c.coll++
	if c.rank == root {
		if len(out) < len(in)*len(c.group) {
			panic("mpi: Gather output too short")
		}
		copy(out[root*len(in):], in)
		for r := 0; r < len(c.group); r++ {
			if r == root {
				continue
			}
			c.recv(r, tag, out[r*len(in):(r+1)*len(in)])
		}
		return
	}
	c.sendInternal(root, tag, in)
}

// Split partitions the communicator by color (MPI_Comm_split with the
// old rank as key): colorOf maps every rank of c to its color, and ranks
// with the same color form one new communicator, numbered in old-rank
// order. A negative color plays the role of MPI_UNDEFINED: that rank
// joins no new communicator and receives nil. Split sends nothing:
// colorOf must give the same answers on every calling rank, and each
// caller builds its communicator from colorOf alone, in O(Size + color)
// local work. A caller need not wait for any other rank, but the ranks
// of one color must make the same sequence of Split calls on c, so that
// their split counts agree.
//
// The child communicator is named by (parent context, parent split
// count, index of the color among the sorted distinct non-negative
// colors), which every member computes alike, and newCtx gives that name
// a context id of its own, so sibling or nested communicators never
// match each other's messages at any depth or split count.
func (c *Comm) Split(colorOf func(r int) int) *Comm {
	c.splits++
	color := colorOf(c.rank)
	if color < 0 {
		return nil
	}
	// The color's index is the number of distinct non-negative colors
	// below it, each marked once in a bitset over [0, color).
	seen := make([]uint64, (color+63)/64)
	colorIndex, members := 0, 0
	for r := range c.group {
		switch col := colorOf(r); {
		case col == color:
			members++
		case col >= 0 && col < color && seen[col/64]&(1<<(col%64)) == 0:
			seen[col/64] |= 1 << (col % 64)
			colorIndex++
		}
	}
	ctx := c.world.newCtx(ctxKey{c.ctx, c.splits, colorIndex}, members)
	group := make([]int, 0, members)
	newRank := 0
	for r, wr := range c.group {
		if colorOf(r) != color {
			continue
		}
		if r == c.rank {
			newRank = len(group)
		}
		group = append(group, wr)
	}
	return &Comm{world: c.world, rank: newRank, group: group, active: c.active, ctx: ctx, epoch: c.epoch}
}

// ctxKey names a child communicator by its parent's context, the
// parent's split count (Shrink: the new epoch) and the color's index
// (Shrink: -1); ctxEntry is its id and the members yet to take it.
type ctxKey struct {
	parent, seq uint64
	color       int
}
type ctxEntry struct {
	id   uint64
	left int
}

// newCtx returns the context id of child communicator k of the given
// member count: the first member to ask draws the world's next id, and
// the entry goes once every member has taken it. The ranks share the
// World, so this sends nothing.
func (w *World) newCtx(k ctxKey, members int) uint64 {
	w.ctxMu.Lock()
	defer w.ctxMu.Unlock()
	e, ok := w.ctxs[k]
	if !ok {
		w.lastCtx++
		e = ctxEntry{w.lastCtx, members}
	}
	if e.left--; e.left > 0 {
		w.ctxs[k] = e
	} else {
		delete(w.ctxs, k)
	}
	return e.id
}
