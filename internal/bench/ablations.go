package bench

import (
	"fmt"

	"repro/internal/bgpsim"
	"repro/internal/core"
	"repro/internal/topology"
)

// ablationWorkload is the Figure 6 workload at 4096 cores — large enough
// that every optimization is visible, small enough to sweep quickly.
func ablationWorkload() (bgpsim.Workload, int) {
	return bgpsim.Workload{GridSize: topology.Dims{192, 192, 192}, NumGrids: 4096}, 4096
}

// AblationLatencyHiding isolates the section-V optimizations one at a
// time on the flat layout: serialized blocking exchange (the original),
// async exchange, async + double buffering, and async + double buffering
// + batching (the full Flat optimized).
func AblationLatencyHiding(opt Options) *Experiment {
	e := &Experiment{
		Name:    "Ablation: latency hiding",
		Caption: "Flat layout at 4096 cores, 4096 grids of 192^3; optimizations added cumulatively",
		Header:  []string{"configuration", "time (s)", "vs original"},
	}
	w, cores := ablationWorkload()
	prm := opt.params()
	run := func(a core.Approach, batch int) float64 {
		return simulate(w, bgpsim.Config{Cores: cores, Approach: a, BatchSize: batch,
			BatchRamp: batch > 1 && batch < w.NumGrids, Params: prm}).Time
	}
	orig := run(core.FlatOriginal, 1)
	// Async without double buffering: one unramped batch holding every
	// grid leaves nothing to pipeline, so the whole exchange is exposed.
	asyncOnly := run(core.FlatOptimized, w.NumGrids)
	asyncDB := run(core.FlatOptimized, 1)
	full := run(core.FlatOptimized, 16)
	e.AddRow("serialized blocking (original)", fmt.Sprintf("%.3f", orig), "1.00x")
	e.AddRow("async all-dims, no overlap", fmt.Sprintf("%.3f", asyncOnly), fmt.Sprintf("%.2fx", orig/asyncOnly))
	e.AddRow("async + double buffering", fmt.Sprintf("%.3f", asyncDB), fmt.Sprintf("%.2fx", orig/asyncDB))
	e.AddRow("async + double buffering + batch 16", fmt.Sprintf("%.3f", full), fmt.Sprintf("%.2fx", orig/full))
	e.AddNote("paper: latency hiding is the primary factor for the improvement")
	return e
}

// AblationBatchSweep sweeps the batch size at 16 384 cores, reproducing
// the methodology behind 'the best batch-size has been found'.
func AblationBatchSweep(opt Options) *Experiment {
	e := &Experiment{
		Name:    "Ablation: batch size",
		Caption: "Hybrid multiple and Flat optimized at 4096 cores, 4096 grids of 192^3",
		Header:  []string{"batch", "Flat optimized (s)", "Hybrid multiple (s)"},
	}
	w, cores := ablationWorkload()
	prm := opt.params()
	batches := []int{1, 2, 4, 8, 16, 32, 64, 128}
	if opt.Quick {
		batches = []int{1, 8, 64}
	}
	for _, b := range batches {
		fo := simulate(w, bgpsim.Config{Cores: cores, Approach: core.FlatOptimized, BatchSize: b, BatchRamp: b > 1, Params: prm})
		hm := simulate(w, bgpsim.Config{Cores: cores, Approach: core.HybridMultiple, BatchSize: b, BatchRamp: b > 1, Params: prm})
		e.AddRow(fmt.Sprintf("%d", b), fmt.Sprintf("%.3f", fo.Time), fmt.Sprintf("%.3f", hm.Time))
	}
	return e
}

// AblationBatchRamp compares constant batches against the ramped initial
// batch the paper proposes for double-buffered pipelines.
func AblationBatchRamp(opt Options) *Experiment {
	e := &Experiment{
		Name:    "Ablation: batch ramp-up",
		Caption: "Hybrid multiple at 4096 cores, 4096 grids; large batches with and without initial ramp",
		Header:  []string{"batch", "no ramp (s)", "ramp (s)"},
	}
	w, cores := ablationWorkload()
	prm := opt.params()
	batches := []int{32, 64, 128, 256}
	if opt.Quick {
		batches = []int{64}
	}
	for _, b := range batches {
		off := simulate(w, bgpsim.Config{Cores: cores, Approach: core.HybridMultiple, BatchSize: b, BatchRamp: false, Params: prm})
		on := simulate(w, bgpsim.Config{Cores: cores, Approach: core.HybridMultiple, BatchSize: b, BatchRamp: true, Params: prm})
		e.AddRow(fmt.Sprintf("%d", b), fmt.Sprintf("%.4f", off.Time), fmt.Sprintf("%.4f", on.Time))
	}
	e.AddNote("ramp halves the first batch so computation starts sooner (section V)")
	return e
}

// AblationPartitionControl reproduces the section-VII control
// experiment: Flat optimized with grids statically split into four
// groups performs like Hybrid multiple, proving partition level is the
// cause of the hybrid advantage.
func AblationPartitionControl(opt Options) *Experiment {
	e := &Experiment{
		Name:    "Ablation: partition level (section VII control)",
		Caption: "16384 cores, 16384 grids of 192^3, batch 16",
		Header:  []string{"configuration", "time (s)"},
	}
	prm := opt.params()
	w := bgpsim.Workload{GridSize: topology.Dims{192, 192, 192}, NumGrids: 16384}
	cfg := bgpsim.Config{Cores: 16384, BatchSize: 16, BatchRamp: true, Params: prm}
	cfg.Approach = core.FlatOptimized
	flat := simulate(w, cfg)
	cfg.SplitGroups = true
	split := simulate(w, cfg)
	cfg.SplitGroups = false
	cfg.Approach = core.HybridMultiple
	hyb := simulate(w, cfg)
	e.AddRow("Flat optimized", fmt.Sprintf("%.3f", flat.Time))
	e.AddRow("Flat optimized, 4-way grid groups", fmt.Sprintf("%.3f", split.Time))
	e.AddRow("Hybrid multiple", fmt.Sprintf("%.3f", hyb.Time))
	e.AddNote("paper: the grouped flat variant performs identically to Hybrid multiple, so the "+
		"partitioning level is the sole cause of the difference (measured gap %.1f%%)",
		(split.Time/hyb.Time-1)*100)
	return e
}

// AblationThreadMode quantifies the MULTIPLE-mode lock cost by zeroing
// it: the hybrid-multiple advantage grows without the lock, which is why
// master-only chose SINGLE mode.
func AblationThreadMode(opt Options) *Experiment {
	e := &Experiment{
		Name:    "Ablation: MPI thread mode",
		Caption: "Hybrid multiple at 4096 cores, 4096 grids, batch 1 vs 16, with and without MULTIPLE lock cost",
		Header:  []string{"batch", "with lock (s)", "lock-free (s)"},
	}
	w, cores := ablationWorkload()
	with := opt.params()
	without := with
	without.MultipleLock = 0
	for _, b := range []int{1, 16} {
		on := simulate(w, bgpsim.Config{Cores: cores, Approach: core.HybridMultiple, BatchSize: b, BatchRamp: b > 1, Params: with})
		off := simulate(w, bgpsim.Config{Cores: cores, Approach: core.HybridMultiple, BatchSize: b, BatchRamp: b > 1, Params: without})
		e.AddRow(fmt.Sprintf("%d", b), fmt.Sprintf("%.3f", on.Time), fmt.Sprintf("%.3f", off.Time))
	}
	e.AddNote("the lock penalty is per MPI call, so batching amortizes it — the reason batching " +
		"helps Hybrid multiple more than Flat optimized (Figure 5)")
	return e
}

// AblationMeshVsTorus shows the partition-shape penalty: below 512 nodes
// only a mesh is available and periodic wrap traffic crosses the whole
// dimension. The penalty is visible in the serialized original, whose
// transfers are exposed; with double buffering (flat optimized) the
// slower links hide behind computation — itself a finding worth a row.
func AblationMeshVsTorus(opt Options) *Experiment {
	e := &Experiment{
		Name:    "Ablation: mesh vs torus partition",
		Caption: "1024 cores (256 nodes: mesh), 1024 grids of 192^3",
		Header:  []string{"configuration", "mesh wrap (s)", "ideal torus (s)"},
	}
	w := bgpsim.Workload{GridSize: topology.Dims{192, 192, 192}, NumGrids: 1024}
	on := opt.params()
	off := on
	off.MeshSharePenalty = false
	run := func(a core.Approach, batch int, p bgpsim.Params) float64 {
		return simulate(w, bgpsim.Config{Cores: 1024, Approach: a, BatchSize: batch,
			BatchRamp: batch > 1, Params: p}).Time
	}
	e.AddRow("Flat original (exposed transfers)",
		fmt.Sprintf("%.3f", run(core.FlatOriginal, 1, on)),
		fmt.Sprintf("%.3f", run(core.FlatOriginal, 1, off)))
	e.AddRow("Flat optimized (overlapped, batch 8)",
		fmt.Sprintf("%.3f", run(core.FlatOptimized, 8, on)),
		fmt.Sprintf("%.3f", run(core.FlatOptimized, 8, off)))
	e.AddNote("partitions under 512 nodes can only form a mesh (section V); " +
		"latency hiding also hides the mesh's slower effective links")
	return e
}

// AblationElementSize compares real (8-byte) against complex (16-byte)
// wave-functions; section IV notes every grid point can be either. The
// doubled surface traffic widens the flat-vs-hybrid gap.
func AblationElementSize(opt Options) *Experiment {
	e := &Experiment{
		Name:    "Ablation: real vs complex grid points",
		Caption: "4096 cores, 4096 grids of 192^3, batch 16",
		Header:  []string{"element", "Flat optimized (s)", "Hybrid multiple (s)", "hybrid advantage"},
	}
	prm := opt.params()
	for _, elem := range []int{8, 16} {
		w := bgpsim.Workload{GridSize: topology.Dims{192, 192, 192}, NumGrids: 4096, Elem: elem}
		fo := simulate(w, bgpsim.Config{Cores: 4096, Approach: core.FlatOptimized, BatchSize: 16, BatchRamp: true, Params: prm})
		hm := simulate(w, bgpsim.Config{Cores: 4096, Approach: core.HybridMultiple, BatchSize: 16, BatchRamp: true, Params: prm})
		name := "real (8 B)"
		if elem == 16 {
			name = "complex (16 B)"
		}
		e.AddRow(name, fmt.Sprintf("%.3f", fo.Time), fmt.Sprintf("%.3f", hm.Time),
			fmt.Sprintf("%.1f%%", (fo.Time/hm.Time-1)*100))
	}
	e.AddNote("complex grids double every surface message (section IV: 8 or 16 bytes per point)")
	return e
}

// AblationMasterOnlySync shows the per-grid synchronization cost of the
// master-only approach growing with the grid count while hybrid
// multiple's single join stays constant.
func AblationMasterOnlySync(opt Options) *Experiment {
	e := &Experiment{
		Name:    "Ablation: thread synchronization",
		Caption: "256 cores, 192^3 grids, batch 8: master-only gap vs hybrid multiple as grids grow",
		Header:  []string{"grids", "hybrid multiple (s)", "master-only (s)", "gap (ms)"},
	}
	prm := opt.params()
	counts := []int{32, 128, 512, 2048}
	if opt.Quick {
		counts = []int{32, 512}
	}
	for _, g := range counts {
		w := bgpsim.Workload{GridSize: topology.Dims{192, 192, 192}, NumGrids: g}
		h := simulate(w, bgpsim.Config{Cores: 256, Approach: core.HybridMultiple, BatchSize: 8, BatchRamp: true, Params: prm})
		m := simulate(w, bgpsim.Config{Cores: 256, Approach: core.HybridMasterOnly, BatchSize: 8, BatchRamp: true, Params: prm})
		e.AddRow(fmt.Sprintf("%d", g), fmt.Sprintf("%.4f", h.Time), fmt.Sprintf("%.4f", m.Time),
			fmt.Sprintf("%.1f", (m.Time-h.Time)*1e3))
	}
	e.AddNote("paper: master-only synchronization grows proportional to the number of grids; " +
		"hybrid multiple's overhead is small and constant")
	return e
}
