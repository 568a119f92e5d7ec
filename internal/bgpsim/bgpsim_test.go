package bgpsim

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/topology"
)

func TestTableIConstants(t *testing.T) {
	// The machine constants must match Table I of the paper.
	if CoresPerNode != 4 {
		t.Fatal("four PowerPC 450 cores per node")
	}
	if ClockHz != 850e6 {
		t.Fatal("850 MHz clock")
	}
	if L1Bytes != 64<<10 || L3Bytes != 8<<20 || MemoryBytes != 2<<30 {
		t.Fatal("cache/memory sizes")
	}
	if MemBandwidth != 13.6e9 || PeakFlopsNode != 13.6e9 {
		t.Fatal("memory bandwidth / peak flops")
	}
	if LinkBandwidth != 425e6 || NumLinks != 6 {
		t.Fatal("torus link bandwidth")
	}
	// Table I: torus bandwidth 6 x 2 x 425 MB/s = 5.1 GB/s; the 6x2
	// counts both directions of six links.
	if agg := 6 * 2 * LinkBandwidth; agg != 5.1e9 {
		t.Fatalf("aggregate torus bandwidth = %g", agg)
	}
}

func TestBandwidthCurveMatchesFigure2(t *testing.T) {
	p := DefaultParams()
	asym := p.LinkBandwidth
	// Asymptote in the 350-400 MB/s range the measured curve approaches.
	if asym < 350e6 || asym > 400e6 {
		t.Fatalf("asymptotic bandwidth %g outside Figure 2 range", asym)
	}
	// Half the asymptotic bandwidth near 10^3 bytes (paper's reading).
	half := p.Bandwidth(1000)
	if half < 0.35*asym || half > 0.65*asym {
		t.Fatalf("bandwidth at 1 KB = %.0f MB/s, want about half of %.0f MB/s",
			half/1e6, asym/1e6)
	}
	// Saturation above 10^5 bytes.
	if sat := p.Bandwidth(1e6); sat < 0.95*asym {
		t.Fatalf("bandwidth at 1 MB = %.0f MB/s, not saturated", sat/1e6)
	}
	// Tiny messages are latency-dominated.
	if tiny := p.Bandwidth(1); tiny > 0.01*asym {
		t.Fatalf("1-byte bandwidth %.2f MB/s too high", tiny/1e6)
	}
	// Monotone non-decreasing in message size.
	prev := 0.0
	for s := int64(1); s <= 1e7; s *= 10 {
		bw := p.Bandwidth(s)
		if bw < prev {
			t.Fatalf("bandwidth not monotone at %d bytes", s)
		}
		prev = bw
	}
}

// TestMessageTimeClosedForm: one message on an idle node costs DMA +
// wire + latency (each rounded to whole ns), and every extra hop
// HopLatency more.
func TestMessageTimeClosedForm(t *testing.T) {
	p := DefaultParams()
	n := int64(100000)
	msg := func(hops int) int64 { return p.Inject(&mpi.Injection{}, 0, n, 0, 1, hops, false) }
	want := (p.DMAPerMsg + float64(n)/p.LinkBandwidth + p.MsgLatency) * 1e9
	if got := float64(msg(1)); math.Abs(got-want) > 1.5 {
		t.Fatalf("message time = %g ns, want %g", got, want)
	}
	if d := msg(4) - msg(1); d != 300 {
		t.Fatalf("3 extra hops add %d ns, want 3 x HopLatency = 300", d)
	}
}

func TestPointTimeRegimes(t *testing.T) {
	p := DefaultParams()
	// The 13-point stencil (25 flops, 16 bytes) is compute-bound on this
	// machine at any core count.
	if p.PointTime(25, 16, 4) != p.PointTime(25, 16, 1) {
		t.Fatal("13-point stencil should be compute-bound at 4 cores")
	}
	// A hypothetical 1-flop, 64-byte kernel is memory-bound with 4
	// active cores (64*4/13.6e9 > 1/(eff*3.4e9)).
	if p.PointTime(1, 64, 4) <= p.PointTime(1, 64, 1) {
		t.Fatal("memory-bound kernel should slow with active cores")
	}
	// Clamping.
	if p.PointTime(25, 16, 0) != p.PointTime(25, 16, 1) {
		t.Fatal("active clamp low")
	}
	if p.PointTime(25, 16, 99) != p.PointTime(25, 16, 4) {
		t.Fatal("active clamp high")
	}
}

func TestMemoryConstraints(t *testing.T) {
	// Figure 5's constraint: 32 grids of 144^3 (with input and output
	// copies) fit one node's 2 GB for the single-core baseline, 64 grids
	// do not; virtual mode gives each core a quarter of the node.
	per := int64(144*144*144*8) * 2 // src + dst
	node, core := int64(MemoryBytes), int64(MemoryBytes/CoresPerNode)
	if 32*per > node || 64*per <= node {
		t.Fatal("a 2 GB node should hold 32 grids of 144^3, not 64")
	}
	if 8*per > core || 16*per <= core {
		t.Fatal("a 512 MB core should hold 8 grids of 144^3, not 16")
	}
}

func TestPartitionTorusThreshold(t *testing.T) {
	if Partition(topology.Dims{8, 8, 8}).Torus != true {
		t.Fatal("512 nodes must form a torus")
	}
	if Partition(topology.Dims{8, 8, 4}).Torus != false {
		t.Fatal("256 nodes must form a mesh")
	}
}

func fig6Workload(grids int) Workload {
	return Workload{GridSize: topology.Dims{192, 192, 192}, NumGrids: grids}
}

func TestBuildLayoutFlatVsHybrid(t *testing.T) {
	w := fig6Workload(16384).withDefaults()
	flat, err := buildLayout(w, Config{Cores: 16384, Approach: core.FlatOptimized})
	if err != nil {
		t.Fatal(err)
	}
	if flat.rankGrid.Count() != 16384 {
		t.Fatalf("flat rank grid %v", flat.rankGrid)
	}
	if flat.intra.Count() != 4 || flat.ranksNode != 4 {
		t.Fatalf("flat intra %v ranksNode %d", flat.intra, flat.ranksNode)
	}
	if flat.nodeGrid.Count() != 4096 {
		t.Fatalf("flat node grid %v", flat.nodeGrid)
	}
	if !flat.net.Torus {
		t.Fatal("4096 nodes must be a torus")
	}

	hyb, err := buildLayout(w, Config{Cores: 16384, Approach: core.HybridMultiple})
	if err != nil {
		t.Fatal(err)
	}
	if hyb.rankGrid.Count() != 4096 || hyb.nodeGrid != hyb.rankGrid {
		t.Fatalf("hybrid grids %v/%v", hyb.rankGrid, hyb.nodeGrid)
	}
	if hyb.local != (topology.Dims{12, 12, 12}) {
		t.Fatalf("hybrid local = %v, want 12^3", hyb.local)
	}
	// Flat sub-domains are 4x smaller.
	if flat.local.Count()*4 != hyb.local.Count() {
		t.Fatalf("flat local %v vs hybrid %v", flat.local, hyb.local)
	}
}

func TestBuildLayoutErrors(t *testing.T) {
	w := fig6Workload(128).withDefaults()
	if _, err := buildLayout(w, Config{Cores: 0}); err == nil {
		t.Fatal("0 cores accepted")
	}
	if _, err := buildLayout(w, Config{Cores: 6}); err == nil {
		t.Fatal("6 cores (not multiple of 4) accepted")
	}
	// Over-decomposition: sub-domains thinner than the halo.
	tiny := Workload{GridSize: topology.Dims{16, 16, 16}, NumGrids: 4}.withDefaults()
	if _, err := buildLayout(tiny, Config{Cores: 16384, Approach: core.FlatOptimized}); err == nil {
		t.Fatal("over-decomposed layout accepted")
	}
}

func TestSimulateErrors(t *testing.T) {
	if _, err := Simulate(Workload{GridSize: topology.Dims{32, 32, 32}}, Config{Cores: 4}); err == nil {
		t.Fatal("zero grids accepted")
	}
	if _, err := Simulate(fig6Workload(8), Config{Cores: 10}); err == nil {
		t.Fatal("bad core count accepted")
	}
}

func TestSimulateSingleCoreIsComputeDominated(t *testing.T) {
	w := Workload{GridSize: topology.Dims{64, 64, 64}, NumGrids: 8}
	r, err := Simulate(w, Config{Cores: 1, Approach: core.FlatOriginal, BatchSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	compute := float64(8*64*64*64) * p.PointTime(25, 16, 1)
	if r.Time < compute {
		t.Fatalf("wall %g below pure compute %g", r.Time, compute)
	}
	if r.Utilization < 0.9 {
		t.Fatalf("single-core utilization %.2f, want >0.9", r.Utilization)
	}
	if r.InterNodeBytes != 0 {
		t.Fatal("single core should not use the torus")
	}
}

func TestSimulateDeterministic(t *testing.T) {
	w := fig6Workload(256)
	cfg := Config{Cores: 256, Approach: core.HybridMultiple, BatchSize: 8, BatchRamp: true}
	a, err := Simulate(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("simulation not deterministic:\n%+v\n%+v", a, b)
	}
}

func TestSimulateApplicationsScaleLinearly(t *testing.T) {
	w := fig6Workload(64)
	w.Applications = 1
	cfg := Config{Cores: 64, Approach: core.FlatOptimized, BatchSize: 4}
	one, err := Simulate(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	w.Applications = 7
	seven, err := Simulate(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(seven.Time-7*one.Time) > 1e-9*seven.Time {
		t.Fatalf("applications scaling: %g vs 7*%g", seven.Time, one.Time)
	}
	if seven.Messages != 7*one.Messages || seven.InterNodeBytes != 7*one.InterNodeBytes {
		t.Fatal("traffic must scale with applications")
	}
	if seven.Utilization != one.Utilization {
		t.Fatal("utilization must be application-invariant")
	}
}

func TestInterNodeBytesMatchSurfaceAnalysis(t *testing.T) {
	// Hybrid at 16384 cores: 4096 nodes, 12^3 sub-domains, halo 2:
	// 16384 grids x 6 faces x 2x12x12x8 bytes = 226.5 MB per node.
	r, err := Simulate(fig6Workload(16384), Config{Cores: 16384, Approach: core.HybridMultiple, BatchSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	want := float64(16384) * 6 * 2 * 12 * 12 * 8
	if math.Abs(r.InterNodeBytes-want) > 1e-6*want {
		t.Fatalf("inter-node bytes %.0f, want %.0f", r.InterNodeBytes, want)
	}
	if r.IntraNodeBytes != 0 {
		t.Fatal("hybrid multiple has no intra-node MPI traffic")
	}
}

func TestHeadline16kCores(t *testing.T) {
	// The paper's headline: at 16384 cores the tuned hybrid approach is
	// 1.94x faster than the original, utilization 36% -> 70%; the hybrid
	// is ~10% faster than the equally optimized flat code; and the
	// split-groups control performs identically to hybrid multiple.
	w := fig6Workload(16384)
	orig, err := Simulate(w, Config{Cores: 16384, Approach: core.FlatOriginal, BatchSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	opt, err := Simulate(w, Config{Cores: 16384, Approach: core.FlatOptimized, BatchSize: 64, BatchRamp: true})
	if err != nil {
		t.Fatal(err)
	}
	hyb, err := Simulate(w, Config{Cores: 16384, Approach: core.HybridMultiple, BatchSize: 64, BatchRamp: true})
	if err != nil {
		t.Fatal(err)
	}
	split, err := Simulate(w, Config{Cores: 16384, Approach: core.FlatOptimized, SplitGroups: true, BatchSize: 64, BatchRamp: true})
	if err != nil {
		t.Fatal(err)
	}

	ratio := orig.Time / hyb.Time
	if ratio < 1.7 || ratio < 1 || ratio > 2.3 {
		t.Fatalf("headline improvement %.2fx, want ~1.94x", ratio)
	}
	if orig.Utilization < 0.28 || orig.Utilization > 0.44 {
		t.Fatalf("flat original utilization %.1f%%, want ~36%%", orig.Utilization*100)
	}
	if hyb.Utilization < 0.62 || hyb.Utilization > 0.78 {
		t.Fatalf("hybrid utilization %.1f%%, want ~70%%", hyb.Utilization*100)
	}
	// Hybrid beats the equally optimized flat code by a modest margin.
	if hyb.Time >= opt.Time {
		t.Fatal("hybrid multiple should beat flat optimized at 16k cores")
	}
	if adv := opt.Time / hyb.Time; adv > 1.35 {
		t.Fatalf("hybrid advantage over flat optimized %.2fx, paper reports ~1.10x", adv)
	}
	// Section VII control experiment: performance identical to hybrid.
	if d := math.Abs(split.Time-hyb.Time) / hyb.Time; d > 0.05 {
		t.Fatalf("split-groups control differs from hybrid by %.1f%%, want ~0", d*100)
	}
	// Communication per node: flat > hybrid, as in Figure 6's right axis.
	flatComm := opt.InterNodeBytes + opt.IntraNodeBytes
	hybComm := hyb.InterNodeBytes + hyb.IntraNodeBytes
	if flatComm <= hybComm {
		t.Fatal("flat communication per node should exceed hybrid")
	}
}

func TestMasterOnlySyncPenaltyGrowsWithGrids(t *testing.T) {
	// The master-only approach synchronizes per grid; its gap to hybrid
	// multiple must widen as grids increase (section VI/VII).
	gap := func(grids int) float64 {
		w := fig6Workload(grids)
		m, err := Simulate(w, Config{Cores: 256, Approach: core.HybridMasterOnly, BatchSize: 8})
		if err != nil {
			t.Fatal(err)
		}
		h, err := Simulate(w, Config{Cores: 256, Approach: core.HybridMultiple, BatchSize: 8})
		if err != nil {
			t.Fatal(err)
		}
		return m.Time - h.Time
	}
	if g1, g2 := gap(64), gap(512); g2 <= g1 {
		t.Fatalf("master-only penalty did not grow with grids: %g vs %g", g1, g2)
	}
}

func TestBatchingHelpsHybridMoreThanFlat(t *testing.T) {
	// Figure 5's observation: the advantage of batching is greater in
	// hybrid multiple than in flat optimized.
	w := Workload{GridSize: topology.Dims{144, 144, 144}, NumGrids: 32}
	run := func(a core.Approach, batch int) float64 {
		r, err := Simulate(w, Config{Cores: 4096, Approach: a, BatchSize: batch, BatchRamp: batch > 1})
		if err != nil {
			t.Fatal(err)
		}
		return r.Time
	}
	flatGain := run(core.FlatOptimized, 1) / run(core.FlatOptimized, 8)
	hybGain := run(core.HybridMultiple, 1) / run(core.HybridMultiple, 8)
	if hybGain <= 1 {
		t.Fatalf("batching should speed up hybrid multiple (gain %.3f)", hybGain)
	}
	if hybGain <= flatGain {
		t.Fatalf("batching advantage: hybrid %.3f <= flat %.3f", hybGain, flatGain)
	}
}

func TestAsyncBeatsSerializedExchange(t *testing.T) {
	// Section V's first optimization in isolation: flat optimized with
	// batch 1 (async, overlapped) vs flat original (serialized).
	w := fig6Workload(2048)
	orig, err := Simulate(w, Config{Cores: 2048, Approach: core.FlatOriginal, BatchSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	async, err := Simulate(w, Config{Cores: 2048, Approach: core.FlatOptimized, BatchSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	if async.Time >= orig.Time {
		t.Fatalf("async exchange (%.3fs) should beat serialized (%.3fs)", async.Time, orig.Time)
	}
}

func TestMeshPenalty(t *testing.T) {
	// Below 512 nodes the partition is a mesh; with the pass-through
	// penalty enabled the same configuration must not get faster.
	w := fig6Workload(256)
	pOn := DefaultParams()
	pOff := pOn
	pOff.MeshSharePenalty = false
	on, err := Simulate(w, Config{Cores: 1024, Approach: core.FlatOptimized, BatchSize: 8, Params: pOn})
	if err != nil {
		t.Fatal(err)
	}
	off, err := Simulate(w, Config{Cores: 1024, Approach: core.FlatOptimized, BatchSize: 8, Params: pOff})
	if err != nil {
		t.Fatal(err)
	}
	if on.Time < off.Time {
		t.Fatalf("mesh penalty made things faster: %g < %g", on.Time, off.Time)
	}
	// At >= 512 nodes (torus) the flag must not matter.
	w2 := fig6Workload(4096)
	on2, _ := Simulate(w2, Config{Cores: 4096, Approach: core.HybridMultiple, BatchSize: 8, Params: pOn})
	off2, _ := Simulate(w2, Config{Cores: 4096, Approach: core.HybridMultiple, BatchSize: 8, Params: pOff})
	if on2.Time != off2.Time {
		t.Fatal("mesh penalty affected a torus partition")
	}
}

func TestGustafsonOrderingAtScale(t *testing.T) {
	// Figure 6's ordering from 2048 cores up: hybrid multiple fastest,
	// then flat optimized, then the per-grid-synchronizing and
	// serialized variants.
	w := fig6Workload(2048)
	times := map[core.Approach]float64{}
	for _, a := range core.Approaches {
		batch := 16
		if a == core.FlatOriginal {
			batch = 1
		}
		r, err := Simulate(w, Config{Cores: 2048, Approach: a, BatchSize: batch, BatchRamp: batch > 1})
		if err != nil {
			t.Fatal(err)
		}
		times[a] = r.Time
	}
	if !(times[core.HybridMultiple] < times[core.FlatOptimized]) {
		t.Fatalf("hybrid %.4f should beat flat optimized %.4f", times[core.HybridMultiple], times[core.FlatOptimized])
	}
	if !(times[core.FlatOptimized] < times[core.FlatOriginal]) {
		t.Fatalf("flat optimized %.4f should beat flat original %.4f", times[core.FlatOptimized], times[core.FlatOriginal])
	}
	if !(times[core.FlatOptimized] < times[core.HybridMasterOnly]) {
		t.Fatalf("flat optimized %.4f should beat master-only %.4f", times[core.FlatOptimized], times[core.HybridMasterOnly])
	}
}

func TestFig7LargeJobSpeedup(t *testing.T) {
	// Figure 7: 2816 grids of 192^3; from 1k to 16k cores the hybrid
	// multiple approach reaches ~16.5x the original's 1k-core time, and
	// ~12x its own 1k-core time (16 would be linear).
	w := Workload{GridSize: topology.Dims{192, 192, 192}, NumGrids: 2816}
	base, err := Simulate(w, Config{Cores: 1024, Approach: core.FlatOriginal, BatchSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	hyb1k, err := Simulate(w, Config{Cores: 1024, Approach: core.HybridMultiple, BatchSize: 16, BatchRamp: true})
	if err != nil {
		t.Fatal(err)
	}
	hyb16k, err := Simulate(w, Config{Cores: 16384, Approach: core.HybridMultiple, BatchSize: 16, BatchRamp: true})
	if err != nil {
		t.Fatal(err)
	}
	vsOrig := base.Time / hyb16k.Time
	if vsOrig < 13 || vsOrig > 24 {
		t.Fatalf("16k hybrid vs 1k original = %.1fx, paper reports ~16.5x", vsOrig)
	}
	vsSelf := hyb1k.Time / hyb16k.Time
	if vsSelf < 9 || vsSelf > 16 {
		t.Fatalf("16k hybrid vs 1k hybrid = %.1fx, paper reports ~12x (16 linear)", vsSelf)
	}
}

func TestResultCommPerNodeMB(t *testing.T) {
	r := Result{InterNodeBytes: 3e6, IntraNodeBytes: 1.5e6}
	if got := r.CommPerNodeMB(); got != 4.5 {
		t.Fatalf("CommPerNodeMB = %g", got)
	}
}

func TestWorkloadDefaults(t *testing.T) {
	w := Workload{GridSize: topology.Dims{8, 8, 8}, NumGrids: 1}.withDefaults()
	if w.Radius != 2 || w.Elem != 8 || w.Applications != 1 {
		t.Fatalf("defaults = %+v", w)
	}
	if w.FlopsPerPoint() != 25 {
		t.Fatalf("flops per point = %d", w.FlopsPerPoint())
	}
}

func TestBestIntraDims(t *testing.T) {
	// 4 ranks per node on a 32x32x16 rank grid: the best placement
	// splits the two long dimensions (2x2x1).
	intra, err := bestIntraDims(4, topology.Dims{32, 32, 16}, topology.Dims{192, 192, 192})
	if err != nil {
		t.Fatal(err)
	}
	if intra.Count() != 4 {
		t.Fatalf("intra %v", intra)
	}
	if intra[2] == 4 {
		t.Fatalf("intra %v should prefer balanced split", intra)
	}
	// Impossible placement: 4 ranks per node on a 3x1x1 grid.
	if _, err := bestIntraDims(4, topology.Dims{3, 1, 1}, topology.Dims{192, 8, 8}); err == nil {
		t.Fatal("unmappable intra dims accepted")
	}
}
