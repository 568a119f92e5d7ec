package core

import (
	"fmt"
	"sync"

	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/stencil"
	"repro/internal/topology"
	"repro/internal/trace"
)

// Engine applies a finite-difference operator to sets of identically
// decomposed real-space grids, performing the distributed halo exchange
// with the configured optimizations. One Engine lives on each MPI rank.
type Engine struct {
	cart     *mpi.Cart
	decomp   *grid.Decomp
	op       *stencil.Operator
	opts     Options
	periodic bool

	coord topology.Coord
	local topology.Dims
	// nbr[dim][side] is the rank owning the sub-domain on that side
	// (mpi.ProcNull when non-periodic at an edge).
	nbr [3][2]int

	// pool is the per-node worker pool shared by both hybrid
	// approaches (nil when opts.Threads == 1): hybrid multiple splits
	// whole grids across its workers, hybrid master-only splits each
	// grid's planes.
	pool *stencil.Pool
	// multi is the hybrid-multiple fan-out of the Run in progress: the
	// pool runs its shares through a pointer to it, so Run hands the
	// pool no closure of its own.
	multi multiRun

	// statsMu guards stats: hybrid multiple runs the communication
	// protocol on several pool workers at once.
	statsMu sync.Mutex
	stats   Stats

	// scratchMu guards the free pool below. Exchange state (pack/unpack
	// buffers, request slices) is hoisted onto the engine and recycled
	// across protocol invocations, so the steady state of the protocol
	// loop — blocking and split-phase alike — performs no per-iteration
	// allocation.
	scratchMu   sync.Mutex
	scratchFree []*applyScratch
}

// Stats accumulates per-rank halo traffic: message and exchange counts
// and volume. The engine reads no clock: how long it waited and
// computed is what its halo.post/halo.wait and compute.interior/
// compute.shell spans measure, and trace.Profile aggregates them under
// one clock. The lossy transport's reliability counters are
// mpi.World.NetRelStats.
type Stats struct {
	MessagesSent int64
	BytesSent    int64
	LargestMsg   int64
	Exchanges    int64 // halo exchanges performed (grids x applications)
}

// noteSent records one sent message under the stats lock.
func (e *Engine) noteSent(bytes int64) {
	e.statsMu.Lock()
	e.stats.noteMsg(bytes)
	e.statsMu.Unlock()
}

// noteExchanges records completed halo exchanges under the stats lock.
func (e *Engine) noteExchanges(n int64) {
	e.statsMu.Lock()
	e.stats.Exchanges += n
	e.statsMu.Unlock()
}

// noteMsg folds one sent message into the counters.
func (s *Stats) noteMsg(bytes int64) {
	s.MessagesSent++
	s.BytesSent += bytes
	if bytes > s.LargestMsg {
		s.LargestMsg = bytes
	}
}

// NewEngine builds the per-rank engine. The cart's dims must match the
// decomposition's process grid and the decomposition halo must cover the
// operator radius.
func NewEngine(cart *mpi.Cart, d *grid.Decomp, op *stencil.Operator, periodic bool, opts Options) (*Engine, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if cart.Dims != d.Procs {
		return nil, fmt.Errorf("core: cart dims %v != decomposition procs %v", cart.Dims, d.Procs)
	}
	if d.Halo < op.R {
		return nil, fmt.Errorf("core: halo %d < operator radius %d", d.Halo, op.R)
	}
	e := &Engine{cart: cart, decomp: d, op: op, opts: opts, periodic: periodic}
	e.coord = cart.Coords(cart.Rank())
	e.local = d.LocalDims(e.coord)
	for dim := 0; dim < 3; dim++ {
		lo, hi := cart.Shift(dim, 1)
		// Shift returns (src, dst) for +1 displacement: src is the low
		// neighbour, dst the high neighbour.
		e.nbr[dim][int(grid.Low)] = lo
		e.nbr[dim][int(grid.High)] = hi
	}
	if opts.Threads > 1 {
		e.pool = stencil.NewPool(opts.Threads)
	}
	return e, nil
}

// Close releases the engine's worker pool. The engine must not be used
// afterwards.
func (e *Engine) Close() { e.pool.Close() }

// LocalDims returns the extents of this rank's sub-domain.
func (e *Engine) LocalDims() topology.Dims { return e.local }

// Coord returns this rank's Cartesian coordinate.
func (e *Engine) Coord() topology.Coord { return e.coord }

// Stats returns the accumulated communication statistics.
func (e *Engine) Stats() Stats {
	e.statsMu.Lock()
	defer e.statsMu.Unlock()
	return e.stats
}

// ResetStats clears the accumulated statistics.
func (e *Engine) ResetStats() {
	e.statsMu.Lock()
	e.stats = Stats{}
	e.statsMu.Unlock()
}

// NewLocalGrid allocates a local grid matching this rank's sub-domain.
func (e *Engine) NewLocalGrid() *grid.Grid { return grid.NewDims(e.local, e.decomp.Halo) }

// Batch describes a contiguous run of grid indices exchanged together.
type Batch struct{ Lo, Hi int } // grids [Lo, Hi)

// Size returns the number of grids in the batch.
func (b Batch) Size() int { return b.Hi - b.Lo }

// shift returns the batch moved up by off grid indices.
func (b Batch) shift(off int) Batch { return Batch{b.Lo + off, b.Hi + off} }

// AllDims names, as the dim of a Steps action, the exchange of all three
// dimensions at once (section V); 0, 1 and 2 name one dimension of the
// serialized pattern (section IV.A).
const AllDims = -1

// Steps are the three actions Schedule orders. Batch bi's exchange is
// posted by Post(bi, b, dim) and completed, its halos installed, by
// Wait(bi, b, dim); Compute(b, r) computes region r of the batch. The
// engine's applyScratch runs them on the MPI runtime, internal/bgpsim's
// replay prices them on the Blue Gene/P node model.
type Steps interface {
	Post(bi int, b Batch, dim int)
	Wait(bi int, b Batch, dim int)
	Compute(b Batch, r stencil.Region)
}

// Schedule is the one exchange schedule: it orders the posts, waits and
// compute of n grids under the options' approach, in batches of
// o.BatchSize after a first batch halved (rounded up) with o.BatchRamp,
// so the pipeline starts computing sooner (the paper reduces an initial
// 128 to 64).
//
// Flat original completes dimension 1, then 2, then 3, blocking on each
// (section IV.A), before it computes the batch. Every other approach
// posts all three dimensions at once and double-buffers: batch b+1's
// exchange is posted before batch b's is awaited (section V). Without
// overlap each batch computes Full after its wait; with it, Interior
// (which reads no halo) before the wait and Shell after, so the
// serialized pattern, having no window, runs both after its waits.
func Schedule(o Options, n int, overlap bool, s Steps) {
	size, first := o.BatchSize, o.BatchSize
	if o.BatchRamp {
		first = (size + 1) / 2
	}
	next := func(b Batch) Batch { return Batch{b.Hi, min(b.Hi+size, n)} }
	b := Batch{0, min(first, n)}
	if o.Approach == FlatOriginal {
		for bi := 0; b.Lo < n; bi, b = bi+1, next(b) {
			for dim := 0; dim < 3; dim++ {
				s.Post(bi, b, dim)
				s.Wait(bi, b, dim)
			}
			if overlap {
				s.Compute(b, stencil.Interior)
				s.Compute(b, stencil.Shell)
			} else {
				s.Compute(b, stencil.Full)
			}
		}
		return
	}
	if n > 0 {
		s.Post(0, b, AllDims)
	}
	for bi := 0; b.Lo < n; bi, b = bi+1, next(b) {
		if nb := next(b); nb.Lo < n {
			s.Post(bi+1, nb, AllDims)
		}
		if overlap {
			s.Compute(b, stencil.Interior)
		}
		s.Wait(bi, b, AllDims)
		if overlap {
			s.Compute(b, stencil.Shell)
		} else {
			s.Compute(b, stencil.Full)
		}
	}
}

// exchangeState holds the buffers and requests of one in-flight batch
// exchange. Buffers are reused across batches of the same shape.
type exchangeState struct {
	send [3][2][]float64
	recv [3][2][]float64
	reqs []*mpi.Request
}

// applyScratch is one protocol invocation: the share it runs — src,
// its tagBase, the offset off of its batches in the caller's slice and
// the compute callback — and the two exchange states the double buffer
// ping-pongs between. It is the engine's Steps. Scratches are pooled on
// the engine (getScratch/putScratch), so their buffers persist across
// solver iterations and a Run hands Schedule no new value.
type applyScratch struct {
	e       *Engine
	src     []*grid.Grid
	tagBase int
	off     int
	compute func(b Batch, r stencil.Region)
	states  [2]exchangeState
}

// getScratch pops a pooled scratch or allocates one. Hybrid multiple
// runs several protocol invocations concurrently, so the pool is
// mutex-guarded; each invocation owns its scratch exclusively.
func (e *Engine) getScratch() *applyScratch {
	e.scratchMu.Lock()
	if n := len(e.scratchFree); n > 0 {
		sc := e.scratchFree[n-1]
		e.scratchFree[n-1] = nil
		e.scratchFree = e.scratchFree[:n-1]
		e.scratchMu.Unlock()
		return sc
	}
	e.scratchMu.Unlock()
	return &applyScratch{e: e}
}

// putScratch returns a scratch (and its grown buffers) to the pool,
// dropping its share.
func (e *Engine) putScratch(sc *applyScratch) {
	sc.src, sc.compute = nil, nil
	e.scratchMu.Lock()
	e.scratchFree = append(e.scratchFree, sc)
	e.scratchMu.Unlock()
}

// faceTag builds the message tag for the halo of (dim, side) of batch
// index bi within a thread's sequence, offset by tagBase to keep threads
// disjoint. The tag identifies the halo side being filled at the
// receiver.
func faceTag(tagBase, bi, dim int, side grid.Side) int {
	return tagBase + bi*6 + dim*2 + int(side)
}

// state returns the exchange state of batch bi: the serialized pattern
// completes each dimension before it posts the next, so it keeps one.
func (sc *applyScratch) state(bi, dim int) *exchangeState {
	if dim == AllDims {
		return &sc.states[bi%2]
	}
	return &sc.states[0]
}

// Post packs the batch's surface points and posts the receives and
// sends of dimension dim, or of every dimension at once inside a
// halo.post span tagged for the batch.
//
//gpaw:hotpath
func (sc *applyScratch) Post(bi int, b Batch, dim int) {
	e, st := sc.e, sc.state(bi, dim)
	st.reqs = st.reqs[:0]
	if dim != AllDims {
		e.postDim(st, sc.src, b, sc.tagBase, bi, dim)
		return
	}
	sp := e.cart.TraceRank().BeginComm(trace.HaloPost, trace.KindExchange, -1, faceTag(sc.tagBase, bi, 0, grid.Low), 0)
	for dim := 0; dim < 3; dim++ {
		e.postDim(st, sc.src, b, sc.tagBase, bi, dim)
	}
	sp.End()
}

// Wait waits for the transfers Post started and installs the received
// surface points into the batch's halos, dimension by dimension.
// Completed receive requests are reclaimed into the rank's own mailbox
// for reuse by the next batch. An all-dimension wait's halo.wait span
// carries the tag of its halo.post: the time since the post ended is
// latency the rank could hide behind compute, the span itself what it
// could not. The serialized pattern has no non-blocking window: its
// waits carry no tag, pair with no halo.post, and count as visible
// only, which is exactly what its profile should show.
//
//gpaw:hotpath
func (sc *applyScratch) Wait(bi int, b Batch, dim int) {
	e, st := sc.e, sc.state(bi, dim)
	rk := e.cart.TraceRank()
	lo, hi := dim, dim+1
	var sp trace.Span
	if dim == AllDims {
		lo, hi = 0, 3
		sp = rk.BeginComm(trace.HaloWait, trace.KindWait, -1, faceTag(sc.tagBase, bi, 0, grid.Low), 0)
	} else {
		sp = rk.Begin(trace.HaloWait, trace.KindWait)
	}
	mpi.Waitall(st.reqs...)
	sp.End()
	for d := lo; d < hi; d++ {
		e.unpackDim(st, sc.src, b, d)
	}
	mpi.Reclaim(st.reqs...)
	st.reqs = st.reqs[:0]
	if hi == 3 { // the batch's last dimension is installed
		e.noteExchanges(int64(b.Size()))
	}
}

// Compute runs the callback on the batch, in indices of the caller's
// slice; a split-phase region runs inside a compute.interior or
// compute.shell span.
func (sc *applyScratch) Compute(b Batch, r stencil.Region) {
	b = b.shift(sc.off)
	if r == stencil.Full {
		sc.compute(b, r)
		return
	}
	rk := sc.e.cart.TraceRank()
	var sp trace.Span
	if r == stencil.Interior {
		sp = rk.Region(trace.ComputeInterior)
	} else {
		sp = rk.Region(trace.ComputeShell)
	}
	sc.compute(b, r)
	sp.End()
}

// isolated reports whether dimension dim has no neighbour on either
// side (a non-periodic dimension the process grid does not divide):
// its exchange moves nothing, so it walks no face and posts nothing.
func (e *Engine) isolated(dim int) bool {
	return e.nbr[dim][grid.Low] == mpi.ProcNull && e.nbr[dim][grid.High] == mpi.ProcNull
}

// wraps reports whether this rank is its own neighbour on both sides of
// dimension dim (a periodic dimension the process grid does not divide):
// its exchange sends nothing, and unpackDim wraps the grids' own
// opposite faces into their halos.
func (e *Engine) wraps(dim int) bool {
	me := e.cart.Rank()
	return e.nbr[dim][grid.Low] == me && e.nbr[dim][grid.High] == me
}

// postDim posts the receives and sends of one dimension for the batch.
// An isolated or wrapped dimension posts nothing.
//
//gpaw:hotpath
func (e *Engine) postDim(st *exchangeState, src []*grid.Grid, b Batch, tagBase, bi, dim int) {
	if e.isolated(dim) || e.wraps(dim) {
		return
	}
	faceLen := src[b.Lo].FaceLen(dim, e.op.R)
	n := b.Size() * faceLen
	for _, side := range [...]grid.Side{grid.Low, grid.High} {
		if e.nbr[dim][side] == mpi.ProcNull {
			continue
		}
		if cap(st.recv[dim][side]) < n {
			//lint:ignore hotpathalloc grow-on-first-use face buffers; the cap check above keeps the repeating steady-state exchange allocation-free
			st.recv[dim][side] = make([]float64, n)
			//lint:ignore hotpathalloc same first-use growth as the receive buffer above
			st.send[dim][side] = make([]float64, n)
		}
		st.recv[dim][side] = st.recv[dim][side][:n]
		st.send[dim][side] = st.send[dim][side][:n]
		// Post the receive for my (dim, side) halo first so an eager
		// send finds it waiting.
		//lint:ignore hotpathalloc request list of the recycled exchangeState, reset to [:0] each exchange — capacity is warm in steady state
		st.reqs = append(st.reqs, e.cart.Irecv(e.nbr[dim][side], faceTag(tagBase, bi, dim, side), st.recv[dim][side]))
	}
	// A side without a neighbour never gets a buffer, so it stays nil
	// and PackFaces skips it.
	low, high := st.send[dim][grid.Low], st.send[dim][grid.High]
	for gi := b.Lo; gi < b.Hi; gi++ {
		src[gi].PackFaces(dim, e.op.R, low, high)
		low, high = advance(low, faceLen), advance(high, faceLen)
	}
	for _, side := range [...]grid.Side{grid.Low, grid.High} {
		if e.nbr[dim][side] == mpi.ProcNull {
			continue
		}
		buf := st.send[dim][side]
		// My (dim, side) face fills the neighbour's opposite halo. Send
		// rather than Isend: the eager transport completes a buffered
		// send immediately either way, and skipping the request object
		// keeps the steady-state loop allocation-free.
		tag := faceTag(tagBase, bi, dim, side.Opposite())
		e.cart.Send(e.nbr[dim][side], tag, buf)
		e.noteSent(int64(len(buf) * 8))
	}
}

// advance drops the first n values of a face buffer; an absent side
// (nil) stays nil.
func advance(buf []float64, n int) []float64 {
	if buf == nil {
		return nil
	}
	return buf[n:]
}

// unpackDim copies one dimension's received face buffers into the halos
// of the batch. A side without a neighbour has no buffer (nil) and is
// skipped: a Dirichlet boundary's halos were zeroed at allocation and
// stay zero. A wrapped dimension received nothing: each grid's halos
// are copied from its own opposite faces here, so they stay untouched
// while the rest of the exchange is in flight.
//
//gpaw:hotpath
func (e *Engine) unpackDim(st *exchangeState, src []*grid.Grid, b Batch, dim int) {
	if e.isolated(dim) {
		return
	}
	if e.wraps(dim) {
		for gi := b.Lo; gi < b.Hi; gi++ {
			src[gi].WrapHalos(dim, e.op.R)
		}
		return
	}
	faceLen := src[b.Lo].FaceLen(dim, e.op.R)
	low, high := st.recv[dim][grid.Low], st.recv[dim][grid.High]
	for gi := b.Lo; gi < b.Hi; gi++ {
		src[gi].UnpackHalos(dim, e.op.R, low, high)
		low, high = advance(low, faceLen), advance(high, faceLen)
	}
}

// runBatches runs Schedule over one thread's share of the grids on the
// engine's exchange. tagBase keeps concurrent threads' messages
// disjoint; off shifts the batches compute sees, so a thread's share is
// reported in indices of the caller's whole slice. The scratch is the
// Steps value, so the loop allocates nothing in steady state
// (TestOverlapExchangeZeroAlloc).
func (e *Engine) runBatches(src []*grid.Grid, tagBase, off int, overlap bool, compute func(b Batch, r stencil.Region)) {
	sc := e.getScratch()
	defer e.putScratch(sc)
	sc.src, sc.tagBase, sc.off, sc.compute = src, tagBase, off, compute
	Schedule(e.opts, len(src), overlap, sc)
}

// tagStride returns the tag-space width reserved per thread for n grids.
func tagStride(n int) int { return 6 * (n + 2) }

// WorkerPool exposes the engine's per-node worker pool (nil for the
// flat approaches). The distributed solver layer in internal/gpaw uses
// it to split local compute while the engine handles communication.
func (e *Engine) WorkerPool() *stencil.Pool { return e.pool }

// Run executes the exchange schedule of the engine's approach over src
// and invokes compute for each batch of grid indices around the
// completion of its exchange: as compute(b, Full) once the batch's halos
// are installed, or, with overlap, as compute(b, Interior) while its
// halo messages are in flight (it must not read halos) and
// compute(b, Shell) after they land. It is the one entry point behind
// which the solver layer runs its fused kernels on the paper's protocol.
//
// The approach decides who communicates. Hybrid multiple divides src
// among the engine's worker pool and every worker runs the whole
// protocol — including its own communication — on its share, so compute
// is called concurrently; the only synchronization is the final join,
// whose cost does not grow with the number of grids, and the world must
// be in MULTIPLE thread mode. Every other approach runs the protocol on
// the calling goroutine (for hybrid master-only, compute fork-joins
// each grid across the pool itself, so SINGLE thread mode suffices), as
// does hybrid multiple with one worker. compute is kept on the engine
// while hybrid multiple's shares run, so a caller that runs Run every
// iteration hands it one func built once (internal/gpaw's
// Dist.compute): then a warmed Run allocates nothing on any approach
// and worker count.
//
//gpaw:hotpath
func (e *Engine) Run(src []*grid.Grid, overlap bool, compute func(b Batch, r stencil.Region)) {
	if e.opts.Approach == HybridMultiple && e.cart.World().Mode() != mpi.ThreadMultiple {
		panic("core: hybrid multiple requires a MULTIPLE-mode world")
	}
	if e.opts.Approach != HybridMultiple || e.pool.Workers() == 1 {
		e.runBatches(src, 0, 0, overlap, compute)
		return
	}
	e.multi = multiRun{e: e, src: src, overlap: overlap, compute: compute}
	e.pool.Exec(len(src), &e.multi)
	e.multi = multiRun{}
}

// multiRun is a hybrid-multiple Run as a pool Task: its engine and
// arguments.
type multiRun struct {
	e       *Engine
	src     []*grid.Grid
	overlap bool
	compute func(b Batch, r stencil.Region)
}

// Share runs the protocol of share w, grids [lo, hi) of m.src, in share
// w's own tag space.
func (m *multiRun) Share(w, lo, hi int) {
	m.e.runBatches(m.src[lo:hi], w*tagStride(len(m.src)), lo, m.overlap, m.compute)
}

// Exchange fills the halos of every grid from the neighbouring ranks
// using the engine's exchange schedule on the calling goroutine, without
// any computation. A periodic dimension the process grid does not divide
// sends no message: each grid wraps its own faces into its halos. Corner
// halos are not filled — the axis-aligned stencils never read them,
// matching GPAW.
//
//gpaw:hotpath
func (e *Engine) Exchange(grids []*grid.Grid) {
	e.runBatches(grids, 0, 0, false, func(Batch, stencil.Region) {})
}

// Apply performs one application of the operator to every grid:
// dst[i] = op(src[i]) behind the protocol of Run. Hybrid master-only
// splits each grid's computation across the worker pool with a fork-join
// per grid, so its synchronization cost grows with the number of grids
// (the paper's explanation for that approach's inferior scaling).
//
// a must be the engine's approach; it remains a parameter only because
// the benchmark module (benchmark/) still passes it.
func (e *Engine) Apply(a Approach, dst, src []*grid.Grid) {
	if a != e.opts.Approach {
		panic(fmt.Sprintf("core: Apply as %v on an engine built for %v", a, e.opts.Approach))
	}
	if len(dst) != len(src) {
		panic("core: dst/src length mismatch")
	}
	e.Run(src, false, func(b Batch, _ stencil.Region) {
		for gi := b.Lo; gi < b.Hi; gi++ {
			if a == HybridMasterOnly {
				e.op.ApplyParallel(e.pool, dst[gi], src[gi])
			} else {
				e.op.Apply(dst[gi], src[gi])
			}
		}
	})
}
