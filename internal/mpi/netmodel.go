package mpi

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/topology"
)

// Network model. This file layers a calibrated latency/bandwidth/
// contention model over the eager in-process transport, so the
// distributed solvers and benchmarks pay Blue Gene/P-scale delivery
// costs instead of the near-zero cost of an in-memory copy.
//
// The physical transport is untouched: messages still deliver eagerly,
// matching stays FIFO per (source, tag), and every byte moves exactly
// as before — so solver results are bit-identical with the model on or
// off (the model only reorders time, never data). What the model adds
// is bookkeeping: every rank carries a virtual clock, every message an
// arrival stamp computed from the calibrated NetParams and the torus
// route between the communicating ranks' node coordinates,
// and every Wait advances the receiver's clock to the stamp. Between
// MPI calls a rank's clock accrues its real (wall) compute time, or —
// for pure-model studies — only the explicit charges made through
// Comm.Compute (NoComputeWall, which says when that is deterministic).
//
// Cost of one remote message of n bytes from src to dst. The sender's
// CPU pays PostCost (+ MultipleLock in MULTIPLE mode); the rest is
// NetParams.Inject, the one pricing of an inter-node send, shared with
// the internal/bgpsim replay:
//
//	DMA:      DMAPerMsg, serialized through the sender's DMA engine
//	link:     n / LinkBandwidth on the route's first link (dim, side),
//	          serialized per link — the six links of a node run in
//	          parallel, so an exchange posted in all three dimensions
//	          at once overlaps its wire times (section V); halved
//	          bandwidth when the caller marks the link shared and
//	          MeshSharePenalty is on
//	arrival:  link done + MsgLatency + (hops-1) * HopLatency
//
// Here the link is the first hop of dimension-ordered routing from the
// sender's node coordinate to the receiver's, and a link is shared on a
// mesh partition when the path is longer than one hop (wrap flows pass
// through). Without Coords every message leaves on one link, one hop.
//
// Ranks mapped to the same node coordinate exchange through shared
// memory instead: IntraNodeLatency + n / IntraNodeBandwidth. A rank's
// message to itself is free — it would not exist on a real machine. Each rank owns its
// injection state: goroutine ranks cannot share one node's DMA engine
// deterministically, so the calibrated workloads map one rank per node.

// NetParams are the Blue Gene/P message-cost constants — the Figure-2
// fit, defined here once (bgpsim.Params embeds them; bgpsim.DefaultParams
// holds the calibrated values) — all in seconds and bytes/s.
type NetParams struct {
	// MsgLatency is the one-way end-to-end latency of a nearest-
	// neighbour message (software + network). It locates the knee of
	// Figure 2: half bandwidth at MsgLatency * LinkBandwidth ~ 1 KB.
	MsgLatency float64
	// HopLatency is the extra latency per additional torus hop.
	HopLatency float64
	// PostCost is CPU time to post one send or receive.
	PostCost float64
	// MultipleLock is the extra serialized CPU cost per MPI call in
	// MULTIPLE thread mode (the lock the paper mentions in III.A).
	MultipleLock float64
	// DMAPerMsg is the DMA injection engine's per-message processing
	// time; the engine serializes a node's injections.
	DMAPerMsg float64
	// LinkBandwidth is the effective per-link payload bandwidth: the
	// raw torus link bandwidth times the payload fraction of a packet.
	// It is the asymptote of the Figure 2 curve.
	LinkBandwidth float64
	// IntraNodeLatency and IntraNodeBandwidth cost messages between
	// ranks co-located on a node (shared memory, virtual mode).
	IntraNodeLatency   float64
	IntraNodeBandwidth float64
	// MeshSharePenalty halves the bandwidth of links Inject is told are
	// shared: on mesh (non-torus) partitions, wrap-around flows pass
	// through every link of a dimension.
	MeshSharePenalty bool
}

// Injection is the FIFO state of one node's injection path: the DMA
// engine every outgoing message passes, then one of its six torus links
// (per dimension and side), each free from the virtual ns stored here.
// The zero value is an idle node at time zero.
type Injection struct {
	dma  int64
	link [3][2]int64
}

// Inject prices one inter-node message of n bytes handed to q's DMA
// engine at virtual time at (ns) and leaving on link (dim, side), side 1
// the positive direction: the DMA serializes every message, each link
// serializes its own wire time (halved bandwidth when shared and
// MeshSharePenalty is on), and the message arrives MsgLatency plus
// (hops-1) HopLatency after its last byte left. It returns the arrival
// time in virtual ns. Both the live transport (World.sendCost) and the
// bgpsim replay price their inter-node sends with it.
func (p *NetParams) Inject(q *Injection, at, bytes int64, dim, side, hops int, shared bool) int64 {
	q.dma = max(at, q.dma) + secNs(p.DMAPerMsg)
	bw := p.LinkBandwidth
	if shared && p.MeshSharePenalty {
		bw /= 2
	}
	link := &q.link[dim][side]
	*link = max(q.dma, *link) + secNs(float64(bytes)/bw)
	return *link + secNs(p.MsgLatency+float64(float64(hops-1)*p.HopLatency))
}

// NetModel configures a World's calibrated network model. Install it
// with World.SetNetModel before any traffic, or use RunModeled.
type NetModel struct {
	// Params are the calibrated BG/P cost-model constants (the Figure-2
	// fit; see bgpsim.DefaultParams).
	Params NetParams
	// Net is the interconnect the ranks are mapped onto (a torus at
	// >= 512 nodes, a mesh below, per topology.PartitionFor).
	Net topology.Network
	// Coords maps each world rank to its node coordinate in Net (see
	// topology.MapGrid / MapBands). nil places every pair of distinct
	// ranks one hop apart.
	Coords []topology.Coord
	// NoComputeWall limits the clocks to modeled message costs and
	// Comm.Compute charges (no wall-clock accrual): deterministic, as the
	// scaling benchmarks need, in SINGLE-mode worlds and one-worker ranks
	// only; a hybrid-multiple rank's workers share its one rankClock.
	NoComputeWall bool
}

// rankClock is one rank's model state: its virtual clock, the wall
// stamp of its last MPI-call boundary (for compute accrual) and its
// node's injection path.
type rankClock struct {
	mu       sync.Mutex
	virt     int64 // virtual ns since world start
	lastWall int64 // wall ns (since netBase) of the last MPI boundary; 0 = unstamped
	inj      Injection
}

// SetNetModel arms the world's network model. It must be called before
// any rank communicates; RunModeled does it for you.
func (w *World) SetNetModel(m *NetModel) {
	if m == nil {
		return
	}
	if m.Coords != nil && len(m.Coords) != w.size {
		panic(fmt.Sprintf("mpi: net model maps %d ranks, world has %d", len(m.Coords), w.size))
	}
	w.net = m
	w.clocks = make([]rankClock, w.size)
	w.netBase = time.Now()
	w.netOn.Store(true)
}

// NetConfig returns a copy of the installed network model and whether
// one is armed.
func (w *World) NetConfig() (NetModel, bool) {
	if !w.netOn.Load() {
		return NetModel{}, false
	}
	return *w.net, true
}

// VirtualTime returns a world rank's modeled elapsed time.
func (w *World) VirtualTime(rank int) time.Duration {
	if !w.netOn.Load() {
		return 0
	}
	ck := &w.clocks[rank]
	ck.mu.Lock()
	v := ck.virt
	ck.mu.Unlock()
	return time.Duration(v)
}

// MaxVirtualTime returns the slowest rank's modeled elapsed time — the
// modeled makespan of the run so far.
func (w *World) MaxVirtualTime() time.Duration {
	var max time.Duration
	for r := 0; r < w.size; r++ {
		if v := w.VirtualTime(r); v > max {
			max = v
		}
	}
	return max
}

// RunModeled is Run with a network model armed on the world; it returns
// the modeled makespan (the slowest rank's virtual clock) alongside
// Run's error.
func RunModeled(n int, mode ThreadMode, m *NetModel, body func(c *Comm)) (time.Duration, error) {
	w := NewWorld(n, mode)
	w.SetNetModel(m)
	err := w.runRanks(body)
	return w.MaxVirtualTime(), err
}

// nowNs returns wall ns since the model was armed (monotonic).
func (w *World) nowNs() int64 { return int64(time.Since(w.netBase)) }

// netEnter marks an MPI-call boundary: the wall time the rank spent
// outside the library since the last boundary is accrued to its virtual
// clock as compute. Every MPI entry point calls it, and Wait/Test call
// it themselves so time spent blocked inside the library is never
// mistaken for compute. Under NoComputeWall it reads no clock.
func (w *World) netEnter(rank int) {
	if w.net.NoComputeWall {
		return
	}
	now := w.nowNs()
	ck := &w.clocks[rank]
	ck.mu.Lock()
	if ck.lastWall != 0 {
		ck.virt += now - ck.lastWall
	}
	ck.lastWall = now
	ck.mu.Unlock()
}

// netExit stamps the boundary on the way out of the library, so the
// next netEnter accrues only genuine outside-the-library time.
func (w *World) netExit(rank int) {
	if w.net.NoComputeWall {
		return
	}
	now := w.nowNs()
	ck := &w.clocks[rank]
	ck.mu.Lock()
	ck.lastWall = now
	ck.mu.Unlock()
}

// secNs converts model seconds to the nearest integer virtual ns.
func secNs(s float64) int64 { return int64(math.Round(s * 1e9)) }

// sendCost charges the sender's CPU and injection path for one message
// of elems float64 values to world rank dst and returns the virtual
// arrival time at the receiver (0 for a free self-send; the zero
// sentinel is unambiguous because any remote arrival is preceded by a
// positive PostCost charge).
func (w *World) sendCost(src, dst, elems int) int64 {
	m := w.net
	p := &m.Params
	if src == dst {
		return 0 // local self-send: no network on a real machine
	}
	bytes := int64(elems) * 8
	post := secNs(p.PostCost)
	if w.mode == ThreadMultiple {
		post += secNs(p.MultipleLock)
	}
	hops, dim, side := 1, 0, 0
	sameNode := false
	if m.Coords != nil {
		a, b := m.Coords[src], m.Coords[dst]
		if a == b {
			sameNode = true
		} else {
			hops = max(m.Net.Hops(a, b), 1)
			dim, side = m.Net.FirstHop(a, b)
		}
	}
	ck := &w.clocks[src]
	ck.mu.Lock()
	defer ck.mu.Unlock()
	ck.virt += post
	if sameNode {
		// Shared-memory transfer between co-located ranks: no DMA, no
		// link contention.
		return ck.virt + secNs(p.IntraNodeLatency+float64(bytes)/p.IntraNodeBandwidth)
	}
	// Mesh partitions: multi-hop paths share links with pass-through
	// traffic (section V of the paper).
	return p.Inject(&ck.inj, ck.virt, bytes, dim, side, hops, !m.Net.Torus && hops > 1)
}

// chargePost charges a rank's CPU for posting a receive.
func (w *World) chargePost(rank int) {
	p := &w.net.Params
	post := secNs(p.PostCost)
	if w.mode == ThreadMultiple {
		post += secNs(p.MultipleLock)
	}
	ck := &w.clocks[rank]
	ck.mu.Lock()
	ck.virt += post
	ck.mu.Unlock()
}

// advanceTo jumps a rank's virtual clock forward to a message's arrival
// stamp (no-op if the clock is already past it: the delivery was hidden
// behind compute).
func (w *World) advanceTo(rank int, arrive int64) {
	if arrive == 0 {
		return
	}
	ck := &w.clocks[rank]
	ck.mu.Lock()
	ck.virt = max(ck.virt, arrive)
	ck.mu.Unlock()
}

// virtReached reports whether a rank's clock has caught up with an
// arrival stamp — the honest-overlap gate Request.Test applies to
// physically-delivered messages.
func (w *World) virtReached(rank int, arrive int64) bool {
	if arrive == 0 {
		return true
	}
	ck := &w.clocks[rank]
	ck.mu.Lock()
	v := ck.virt
	ck.mu.Unlock()
	return v >= arrive
}

// Compute charges d of modeled compute to the calling rank's virtual
// clock. With NoComputeWall this is the only way compute enters the
// model; internal/gpaw's NetCompute option charges the per-point stencil
// cost of every fused sweep through it. No-op when no model is armed.
func (c *Comm) Compute(d time.Duration) {
	w := c.world
	if d <= 0 || !w.netOn.Load() {
		return
	}
	ck := &w.clocks[c.group[c.rank]]
	ck.mu.Lock()
	ck.virt += int64(d)
	ck.mu.Unlock()
}
