// Package bgpsim is a discrete-event performance model of Blue Gene/P
// running the paper's distributed finite-difference protocols at full
// machine scale (up to 16 384 cores), standing in for the 4-rack system
// the authors benchmarked.
//
// # Model
//
// Machine constants come from Table I of the paper. Free parameters of
// the cost model (per-message latency, posting cost, copy bandwidth,
// kernel efficiency, thread synchronization costs) are calibrated so the
// simulated Figure 2 bandwidth curve matches the paper's measured curve
// and the 16 384-core headline point reproduces the reported 1.94x
// improvement with CPU utilization near 36% (flat original) and 70%
// (hybrid multiple). All other points — core-count sweeps, batch-size
// sweeps, approach orderings, crossovers — are predictions of the model.
//
// # Symmetric-node simulation
//
// With periodic boundaries, a torus partition, and a uniform
// decomposition, every node executes an identical timeline. The
// simulator therefore runs one representative node in full detail (its
// cores, its six torus links, its DMA engine, its intra-node traffic)
// and closes the boundary by symmetry: the message a node receives from
// its -x neighbour is the mirror image of the message it sends to its +x
// neighbour, so the arrival time of an incoming message equals the
// arrival time of the corresponding outgoing one. Mesh partitions
// (< 512 nodes, section V) break exact symmetry; they are modelled
// pessimistically from the wrap-around corner node's perspective:
// periodic wrap messages travel Dims-1 hops and share link bandwidth
// with pass-through traffic.
package bgpsim

import "repro/internal/topology"

// Machine constants from Table I of the paper.
const (
	// CoresPerNode is the number of PowerPC 450 cores per node.
	CoresPerNode = 4
	// ClockHz is the PowerPC 450 clock rate.
	ClockHz = 850e6
	// L1Bytes is the per-core L1 data cache size.
	L1Bytes = 64 << 10
	// L3Bytes is the shared L3 cache size.
	L3Bytes = 8 << 20
	// MemoryBytes is main memory per node.
	MemoryBytes = 2 << 30
	// MemBandwidth is main-memory bandwidth per node in bytes/s.
	MemBandwidth = 13.6e9
	// PeakFlopsNode is the node's peak double-precision rate.
	PeakFlopsNode = 13.6e9
	// LinkBandwidth is the raw torus link bandwidth per direction in
	// bytes/s (425 MB/s; six links give the 5.1 GB/s aggregate of
	// Table I).
	LinkBandwidth = 425e6
	// NumLinks is the number of torus links per node (and directions).
	NumLinks = 6
)

// Params are the calibrated free parameters of the cost model.
type Params struct {
	// PacketEfficiency is the payload fraction of a torus packet (256-
	// byte packets with protocol overhead); it sets the asymptote of the
	// Figure 2 curve at LinkBandwidth*PacketEfficiency ~ 372 MB/s.
	PacketEfficiency float64
	// MsgLatency is the one-way end-to-end latency of a nearest-
	// neighbour message (software + network). It locates the knee of
	// Figure 2: half bandwidth at MsgLatency * effective link bandwidth
	// ~ 1 KB.
	MsgLatency float64
	// HopLatency is the extra latency per additional torus hop.
	HopLatency float64
	// PostCost is CPU time to post one non-blocking send or receive.
	PostCost float64
	// MultipleLock is the extra serialized CPU cost per MPI call in
	// MULTIPLE thread mode (the lock the paper mentions in III.A).
	MultipleLock float64
	// DMAPerMsg is the DMA injection engine's per-message processing
	// time; the engine serializes injections node-wide.
	DMAPerMsg float64
	// CopyBandwidth is one core's streaming copy bandwidth, used for
	// halo pack/unpack (read + write counted separately).
	CopyBandwidth float64
	// IntraNodeBandwidth is the shared-memory MPI transfer bandwidth
	// between ranks co-located on a node in virtual mode.
	IntraNodeBandwidth float64
	// IntraNodeLatency is the latency of an intra-node MPI message.
	IntraNodeLatency float64
	// KernelEff is the fraction of per-core peak the stencil kernel
	// achieves when compute-bound (PowerPC 450 without hand-tuned SIMD).
	KernelEff float64
	// ForkJoin is the cost of one fork-join barrier across the node's
	// four threads (hybrid master-only pays this per grid).
	ForkJoin float64
	// JoinOnce is the cost of the single final join in hybrid multiple.
	JoinOnce float64
	// MeshSharePenalty halves effective link bandwidth in mesh
	// partitions (< 512 nodes) where wrap-around flows pass through
	// every link of a dimension (true enables the penalty).
	MeshSharePenalty bool
}

// DefaultParams returns the calibrated model (README.md, "Calibrated
// network model on the live transport", describes the Figure-2 fit).
func DefaultParams() Params {
	return Params{
		PacketEfficiency:   0.875, // 256-byte packets, 32 bytes overhead
		MsgLatency:         2.3e-6,
		HopLatency:         0.1e-6,
		PostCost:           0.3e-6,
		MultipleLock:       1.2e-6,
		DMAPerMsg:          0.15e-6,
		CopyBandwidth:      2.2e9,
		IntraNodeBandwidth: 3.0e9,
		IntraNodeLatency:   0.9e-6,
		KernelEff:          0.20,
		ForkJoin:           5.0e-6,
		JoinOnce:           6.0e-6,
		MeshSharePenalty:   true,
	}
}

// EffLinkBandwidth is the asymptotic per-link payload bandwidth.
func (p Params) EffLinkBandwidth() float64 { return LinkBandwidth * p.PacketEfficiency }

// PointTime returns the per-point stencil time on one core when
// `active` cores compute concurrently on the node: the maximum of the
// compute-bound and memory-bound estimates.
func (p Params) PointTime(flopsPerPoint, bytesPerPoint, active int) float64 {
	if active < 1 {
		active = 1
	}
	if active > CoresPerNode {
		active = CoresPerNode
	}
	flop := float64(flopsPerPoint) / (p.KernelEff * PeakFlopsNode / CoresPerNode)
	mem := float64(bytesPerPoint) * float64(active) / MemBandwidth
	if mem > flop {
		return mem
	}
	return flop
}

// MessageTime returns the modelled end-to-end time of one nearest-
// neighbour message of n bytes, excluding sender CPU costs: DMA
// injection, wire serialization and latency. Used by the Figure 2
// experiment and as a closed-form cross-check of the event simulation.
func (p Params) MessageTime(n int64, hops int) float64 {
	if hops < 1 {
		hops = 1
	}
	return p.DMAPerMsg + float64(n)/p.EffLinkBandwidth() + p.MsgLatency + float64(hops-1)*p.HopLatency
}

// Bandwidth returns the modelled point-to-point bandwidth (bytes/s) for
// message size n between neighbouring nodes — the quantity Figure 2
// plots — including the sender's posting cost, as an MPI-level
// benchmark would measure.
func (p Params) Bandwidth(n int64) float64 {
	t := p.PostCost + p.MessageTime(n, 1)
	return float64(n) / t
}

// MemoryPerCoreOK reports whether a per-core working set of the given
// bytes fits the 512 MB available to a core in virtual mode.
func MemoryPerCoreOK(bytes int64) bool { return bytes <= MemoryBytes/CoresPerNode }

// MemoryNodeOK reports whether a working set fits one node's 2 GB. The
// paper's Figure 5 job is capped at 32 grids because a single core (SMP
// mode, whole node memory) cannot hold more 144^3 input+output pairs.
func MemoryNodeOK(bytes int64) bool { return bytes <= MemoryBytes }

// Partition returns the node-count-determined network (torus at >= 512
// nodes, mesh below), with dims matching the given node grid.
func Partition(nodeDims topology.Dims) topology.Network {
	return topology.Network{Dims: nodeDims, Torus: nodeDims.Count() >= topology.TorusThresholdNodes}
}
