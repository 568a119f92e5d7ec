// Package bgpsim is a discrete-event performance model of Blue Gene/P
// running the paper's distributed finite-difference protocols at full
// machine scale (up to 16 384 cores), standing in for the 4-rack system
// the authors benchmarked.
//
// The replay writes no schedule of its own: Simulate hands core.Schedule
// a Steps value that prices each post, wait and compute on the node
// model in the order core.Engine runs them — per dimension, post both
// receives, pack, send both faces; after a wait, unpack (or wrap an
// undivided dimension) dimension by dimension.
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
// The message-cost constants are mpi.NetParams, embedded in Params, and
// an inter-node halo message is priced by mpi.NetParams.Inject — DMA
// slot, then the outgoing link of its direction, then latency — the
// routine the live transport's network model calls for every send. On
// a torus the two engines therefore agree to the nanosecond on the
// paper's exchange (TestLiveTransportMatchesReplay); NetModelFor builds
// the live model from the same calibration.
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

import (
	"repro/internal/mpi"
	"repro/internal/topology"
)

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

// Params are the calibrated free parameters of the cost model: the
// message-cost constants the live transport shares (mpi.NetParams,
// priced by its Inject) and what only the replay uses.
type Params struct {
	mpi.NetParams
	// CopyBandwidth is one core's streaming copy bandwidth, used for
	// halo pack/unpack (read + write counted separately).
	CopyBandwidth float64
	// KernelEff is the fraction of per-core peak the stencil kernel
	// achieves when compute-bound (PowerPC 450 without hand-tuned SIMD).
	KernelEff float64
	// ForkJoin is the cost of one fork-join barrier across the node's
	// four threads (hybrid master-only pays this per grid).
	ForkJoin float64
	// JoinOnce is the cost of the single final join in hybrid multiple.
	JoinOnce float64
}

// DefaultParams returns the calibrated model (README.md, "Calibrated
// network model", describes the Figure-2 fit).
func DefaultParams() Params {
	return Params{
		NetParams: mpi.NetParams{
			MsgLatency:         2.3e-6,
			HopLatency:         0.1e-6,
			PostCost:           0.3e-6,
			MultipleLock:       1.2e-6,
			DMAPerMsg:          0.15e-6,
			LinkBandwidth:      LinkBandwidth * 0.875, // 256-byte packets, 32 bytes overhead: ~372 MB/s
			IntraNodeLatency:   0.9e-6,
			IntraNodeBandwidth: 3.0e9,
			MeshSharePenalty:   true,
		},
		CopyBandwidth: 2.2e9,
		KernelEff:     0.20,
		ForkJoin:      5.0e-6,
		JoinOnce:      6.0e-6,
	}
}

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

// Bandwidth returns the modelled point-to-point bandwidth (bytes/s) for
// message size n between neighbouring nodes — the quantity Figure 2
// plots — including the sender's posting cost, as an MPI-level
// benchmark would measure: one injection on an idle node.
func (p Params) Bandwidth(n int64) float64 {
	return float64(n) / (p.PostCost + float64(p.Inject(&mpi.Injection{}, 0, n, 0, 1, 1, false))/1e9)
}

// Partition returns the node-count-determined network (torus at >= 512
// nodes, mesh below), with dims matching the given node grid.
func Partition(nodeDims topology.Dims) topology.Network {
	return topology.Network{Dims: nodeDims, Torus: nodeDims.Count() >= topology.TorusThresholdNodes}
}

// NetModelFor returns the default calibrated network model for an
// n-rank world: DefaultParams over the Blue Gene/P partition shape for
// n nodes (torus at >= 512), one rank per node in row-major order.
// Callers wanting a different placement overwrite Coords (see
// topology.MapGrid / MapBands) before arming the model.
func NetModelFor(n int) *mpi.NetModel {
	net := topology.PartitionFor(n)
	return &mpi.NetModel{
		Params: DefaultParams().NetParams,
		Net:    net,
		Coords: topology.MapGrid(net.Dims, net, topology.MapLinear),
	}
}
