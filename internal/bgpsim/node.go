package bgpsim

import (
	"math"

	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/topology"
)

// future is a completion slot: the receiver of a message awaits it, the
// (possibly mirrored) sender sets its arrival time.
type future struct {
	ready bool
	at    float64
	sig   sim.Signal
}

func (f *future) set(k *sim.Kernel, at float64) {
	if f.ready {
		panic("bgpsim: future set twice")
	}
	f.ready = true
	f.at = at
	f.sig.Fire(k)
}

func (f *future) await(p *sim.Proc) {
	for !f.ready {
		p.WaitSignal(&f.sig)
	}
	p.HoldUntil(f.at)
}

// layout captures how ranks map onto the machine for one configuration.
type layout struct {
	rankGrid  topology.Dims // decomposition of every real-space grid
	nodeGrid  topology.Dims // nodes
	intra     topology.Dims // ranks per node, per dimension (flat/VN mode)
	net       topology.Network
	local     topology.Dims // representative (largest) sub-domain per rank
	ranksNode int           // ranks simulated on the node
}

// node is the simulated representative node: cores are implicit in the
// rank/thread processes; the DMA engine and six links are one
// mpi.Injection (in virtual ns), the intra-node engine and the
// MULTIPLE-mode lock explicit FIFO resources.
type node struct {
	k     *sim.Kernel
	prm   Params
	lay   layout
	ranks []*simRank
	inj   mpi.Injection
	intra sim.Resource // shared-memory transfer engine
	lock  sim.Resource // MPI MULTIPLE serialization

	// accounting
	interBytes sim.Counter // bytes leaving the node on torus links
	intraBytes sim.Counter // MPI bytes moved node-internally
	messages   sim.Counter // messages sent by the node's ranks
	useful     float64     // accumulated per-core useful compute time
}

// simRank is one simulated MPI rank (flat) or thread (hybrid) on the
// representative node.
type simRank struct {
	nd       *node
	idx      int            // index among the node's ranks/threads
	intraPos topology.Coord // position inside the node's intra grid (flat)
	slots    [3][2][]*future
	sendSeq  [3][2]int
	recvSeq  [3][2]int
	multiple bool // pay the MULTIPLE lock on each post
}

// slot returns (extending as needed) the i-th completion slot for halos
// of (dim, side).
func (r *simRank) slot(dim, side, i int) *future {
	for len(r.slots[dim][side]) <= i {
		r.slots[dim][side] = append(r.slots[dim][side], &future{})
	}
	return r.slots[dim][side][i]
}

// post charges the CPU cost of posting one non-blocking operation.
func (r *simRank) post(p *sim.Proc) {
	if r.multiple {
		// The MULTIPLE lock serializes concurrent library calls
		// node-wide and burns CPU while held.
		p.Use(&r.nd.lock, r.nd.prm.MultipleLock)
	}
	p.Hold(r.nd.prm.PostCost)
}

// copyCost charges the CPU for a pack or unpack of n bytes (one read and
// one write stream).
func (r *simRank) copyCost(p *sim.Proc, n int64) {
	p.Hold(2 * float64(n) / r.nd.prm.CopyBandwidth)
}

// sendFace models sending one halo message of n bytes toward `side` of
// dimension dim. It charges the send's posting cost on the calling
// process (the receive's is charged where it is posted, before the
// pack), prices the message with NetParams.Inject (or the intra-node
// engine) and fulfils the completion slot of the mirrored receiver — the
// node-local rank standing in for the actual destination under
// translational symmetry.
func (r *simRank) sendFace(p *sim.Proc, dim int, side int, n int64) {
	nd := r.nd
	lay := &nd.lay
	r.post(p)
	seq := r.sendSeq[dim][side]
	r.sendSeq[dim][side]++

	// Where does the message go? Step the intra-node position.
	dir := +1
	if side == 0 { // Low
		dir = -1
	}
	target := r.intraPos
	target[dim] += dir
	inter := false
	wrappedNode := false
	if target[dim] < 0 || target[dim] >= lay.intra[dim] {
		// Crossing the node boundary.
		if lay.nodeGrid[dim] > 1 {
			inter = true
			wrappedNode = lay.nodeGrid[dim] > 1 && !lay.net.Torus
		}
		target[dim] = (target[dim] + lay.intra[dim]) % lay.intra[dim]
	}
	tgt := nd.rankAt(target, r.idx)

	var arrive float64
	if inter {
		hops := 1
		if wrappedNode && side == 0 {
			// The representative corner node's Low direction is the
			// periodic wrap: Dims-1 hops across the mesh.
			hops = lay.net.WrapHops(dim)
		}
		// In a mesh, the periodic wrap flow of the dimension passes
		// through every link of the row, sharing its bandwidth.
		shared := !lay.net.Torus && lay.nodeGrid[dim] > 2
		at := int64(math.Round(p.Now() * 1e9))
		arrive = float64(nd.prm.Inject(&nd.inj, at, n, dim, side, hops, shared)) / 1e9
		nd.interBytes.Add(float64(n))
	} else {
		done := nd.intra.Reserve(p.Now(), float64(n)/nd.prm.IntraNodeBandwidth)
		arrive = done + nd.prm.IntraNodeLatency
		nd.intraBytes.Add(float64(n))
	}
	nd.messages.Add(1)
	// A message sent toward High lands in the receiver's Low halo and
	// vice versa.
	haloSide := 1 - side
	tgt.slot(dim, haloSide, seq).set(nd.k, arrive)
}

// awaitFace blocks the process until the next incoming halo message for
// (dim, side) has arrived. It charges no CPU: waiting is idle time.
func (r *simRank) awaitFace(p *sim.Proc, dim, side int) {
	seq := r.recvSeq[dim][side]
	r.recvSeq[dim][side]++
	r.slot(dim, side, seq).await(p)
}

// rankAt finds the node-local rank with the given intra position. For
// hybrid layouts (intra = 1x1x1) every thread maps to thread `self` —
// threads exchange only with their own mirrored image because each
// thread owns whole grids.
func (nd *node) rankAt(pos topology.Coord, self int) *simRank {
	if nd.lay.intra.Count() == 1 {
		return nd.ranks[self]
	}
	idx := nd.lay.intra.Rank(pos)
	return nd.ranks[idx]
}

// compute charges the stencil computation of `points` grid points on the
// calling process and books the useful work.
func (nd *node) compute(p *sim.Proc, points int, tpp float64) {
	t := float64(float64(points) * tpp)
	p.Hold(t)
	nd.useful += t
}

// forkJoinCompute models dividing one grid's computation across the
// node's active threads (hybrid master-only): wall time is the parallel
// share plus a fork-join barrier; all of the work is useful. With a
// single thread there is nobody to synchronize with and no barrier.
func (nd *node) forkJoinCompute(p *sim.Proc, points int, tpp float64, threads int) {
	work := float64(float64(points) * tpp)
	if threads <= 1 {
		p.Hold(work)
		nd.useful += work
		return
	}
	p.Hold(work/float64(threads) + nd.prm.ForkJoin)
	nd.useful += work
}
