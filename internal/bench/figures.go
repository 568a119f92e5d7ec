package bench

import (
	"fmt"

	"repro/internal/bgpsim"
	"repro/internal/core"
	"repro/internal/topology"
)

// Options tunes the experiment drivers.
type Options struct {
	// Quick shrinks sweeps so the driver finishes in well under a second
	// (used by unit tests); the full sweeps reproduce the paper's axes.
	Quick bool
	// Params overrides the calibrated machine model when non-zero.
	Params bgpsim.Params
}

func (o Options) params() bgpsim.Params {
	if o.Params == (bgpsim.Params{}) {
		return bgpsim.DefaultParams()
	}
	return o.Params
}

// fig6Applications scales one operator application to the paper's
// Figure 6 wall-clock magnitudes (~40 s for flat original at 16 384
// cores).
const fig6Applications = 55

// simulate wraps bgpsim.Simulate, panicking on configuration errors —
// drivers only build valid configurations.
func simulate(w bgpsim.Workload, cfg bgpsim.Config) bgpsim.Result {
	r, err := bgpsim.Simulate(w, cfg)
	if err != nil {
		panic(fmt.Sprintf("bench: %v", err))
	}
	return r
}

// bestBatch simulates the configuration over a batch-size sweep and
// returns the fastest result and the batch that achieved it ("the best
// batch-size has been found for every number of CPU-cores").
func bestBatch(w bgpsim.Workload, cfg bgpsim.Config, batches []int) (bgpsim.Result, int) {
	var best bgpsim.Result
	bestB := 0
	for _, b := range batches {
		cfg.BatchSize = b
		cfg.BatchRamp = b > 1
		r := simulate(w, cfg)
		if bestB == 0 || r.Time < best.Time {
			best, bestB = r, b
		}
	}
	return best, bestB
}

func batchSweep(quick bool) []int {
	if quick {
		return []int{1, 8, 64}
	}
	return []int{1, 2, 4, 8, 16, 32, 64}
}

// Table1 reproduces Table I: the hardware description of a Blue Gene/P
// node, straight from the machine model's constants.
func Table1() *Experiment {
	e := &Experiment{
		Name:    "Table I",
		Caption: "Hardware description of a Blue Gene/P node (model constants)",
		Header:  []string{"property", "value"},
	}
	e.AddRow("Node CPU", "Four PowerPC 450 cores")
	e.AddRow("CPU frequency", fmt.Sprintf("%.0f MHz", bgpsim.ClockHz/1e6))
	e.AddRow("L1 cache (private)", fmt.Sprintf("%dKB per core", bgpsim.L1Bytes>>10))
	e.AddRow("L2 cache (private)", "Seven stream prefetching")
	e.AddRow("L3 cache (shared)", fmt.Sprintf("%dMB", bgpsim.L3Bytes>>20))
	e.AddRow("Main memory", fmt.Sprintf("%dGB", bgpsim.MemoryBytes>>30))
	e.AddRow("Main memory bandwidth", fmt.Sprintf("%.1fGB/s", bgpsim.MemBandwidth/1e9))
	e.AddRow("Peak performance", fmt.Sprintf("%.1f Gflops/node", bgpsim.PeakFlopsNode/1e9))
	e.AddRow("Torus bandwidth", fmt.Sprintf("6 x 2 x %.0fMB/s = %.1fGB/s",
		bgpsim.LinkBandwidth/1e6, 12*bgpsim.LinkBandwidth/1e9))
	return e
}

// Figure2 reproduces the bandwidth-vs-message-size experiment: one MPI
// message between two neighbouring BGP nodes.
func Figure2(opt Options) *Experiment {
	e := &Experiment{
		Name:    "Figure 2",
		Caption: "Point-to-point bandwidth vs message size between neighbouring nodes",
		Header:  []string{"bytes", "MB/s"},
	}
	p := opt.params()
	sizes := []int64{1, 2, 5, 10, 20, 50, 100, 200, 500,
		1_000, 2_000, 5_000, 10_000, 20_000, 50_000,
		100_000, 200_000, 500_000, 1_000_000, 2_000_000, 5_000_000, 10_000_000}
	if opt.Quick {
		sizes = []int64{1, 100, 1_000, 100_000, 10_000_000}
	}
	for _, s := range sizes {
		e.AddRow(fmt.Sprintf("%d", s), fmt.Sprintf("%.1f", p.Bandwidth(s)/1e6))
	}
	e.AddNote("asymptote %.0f MB/s; half bandwidth at ~%.0f bytes (paper: ~10^3 bytes, saturation above 10^5)",
		p.LinkBandwidth/1e6, p.MsgLatency*p.LinkBandwidth)
	return e
}

// figure5Workload is the paper's Figure 5 job: 32 grids of 144^3, the
// largest job that fits a single core's memory for the speedup baseline.
func figure5Workload() bgpsim.Workload {
	return bgpsim.Workload{GridSize: topology.Dims{144, 144, 144}, NumGrids: 32}
}

// Figure5 reproduces the two speedup panels: 32 grids of 144^3 versus a
// sequential execution, with batching disabled (left) or batch size 8
// (right).
func Figure5(batching bool, opt Options) *Experiment {
	panel := "left: batching disabled"
	if batching {
		panel = "right: batch-size 8"
	}
	e := &Experiment{
		Name:    "Figure 5 (" + panel + ")",
		Caption: "Speedup of the FD operation vs sequential; 32 grids of 144^3, periodic BC",
		Header:  []string{"cores", "Flat original", "Flat optimized", "Hybrid multiple", "Hybrid master-only"},
	}
	w := figure5Workload()
	cores := []int{1, 4, 16, 64, 256, 512, 1024, 2048, 4096}
	if opt.Quick {
		cores = []int{1, 64, 1024, 4096}
	}
	prm := opt.params()
	seq := simulate(w, bgpsim.Config{Cores: 1, Approach: core.FlatOriginal, BatchSize: 1, Params: prm})
	for _, c := range cores {
		row := []string{fmt.Sprintf("%d", c)}
		for _, a := range core.Approaches {
			batch := 1
			if batching && a != core.FlatOriginal {
				batch = 8
			}
			r := simulate(w, bgpsim.Config{Cores: c, Approach: a, BatchSize: batch, BatchRamp: batch > 1, Params: prm})
			row = append(row, fmt.Sprintf("%.0f", seq.Time/r.Time))
		}
		e.AddRow(row...)
	}
	e.AddNote("paper: best scaling from Flat optimized and Hybrid multiple with batch 8; " +
		"batching helps Hybrid multiple more than Flat optimized")
	return e
}

// Figure6 reproduces the Gustafson graph: grids grow with cores (one
// grid of 192^3 per core), with the best batch size per point, plus the
// communication-per-node series of the right axis.
func Figure6(opt Options) *Experiment {
	e := &Experiment{
		Name:    "Figure 6",
		Caption: "Gustafson graph: running time (s) with grids = cores (192^3), best batch per point; right axis: communication per node (MB)",
		Header: []string{"cores", "Flat original", "Flat optimized", "Hybrid multiple",
			"Hybrid master-only", "Flat comm MB", "Hybrid comm MB"},
	}
	cores := []int{1, 512, 2048, 4096, 8192, 16384}
	if opt.Quick {
		cores = []int{1, 2048, 16384}
	}
	prm := opt.params()
	for _, c := range cores {
		w := bgpsim.Workload{GridSize: topology.Dims{192, 192, 192}, NumGrids: c, Applications: fig6Applications}
		row := []string{fmt.Sprintf("%d", c)}
		var flatComm, hybComm float64
		for _, a := range core.Approaches {
			var r bgpsim.Result
			if a == core.FlatOriginal {
				r = simulate(w, bgpsim.Config{Cores: c, Approach: a, BatchSize: 1, Params: prm})
			} else {
				r, _ = bestBatch(w, bgpsim.Config{Cores: c, Approach: a, Params: prm}, batchSweep(opt.Quick))
			}
			row = append(row, fmt.Sprintf("%.1f", r.Time))
			if a == core.FlatOptimized {
				flatComm = r.CommPerNodeMB() / fig6Applications
			}
			if a == core.HybridMultiple {
				hybComm = r.CommPerNodeMB() / fig6Applications
			}
		}
		row = append(row, fmt.Sprintf("%.0f", flatComm), fmt.Sprintf("%.0f", hybComm))
		e.AddRow(row...)
	}
	e.AddNote("paper: Hybrid multiple faster than Flat optimized from 512 cores; " +
		"flat needs more communication per node (smaller pieces, 4x more of them)")
	return e
}

// Figure7 reproduces the large-job speedup graph: 2816 grids of 192^3,
// every approach relative to Flat original at 1024 cores, best batch per
// point.
func Figure7(opt Options) *Experiment {
	e := &Experiment{
		Name:    "Figure 7",
		Caption: "Speedup vs Flat original at 1k cores; 2816 grids of 192^3, best batch per point",
		Header:  []string{"cores", "Flat original", "Flat optimized", "Hybrid multiple", "Hybrid master-only"},
	}
	w := bgpsim.Workload{GridSize: topology.Dims{192, 192, 192}, NumGrids: 2816}
	cores := []int{1024, 2048, 4096, 8192, 16384}
	if opt.Quick {
		cores = []int{1024, 16384}
	}
	prm := opt.params()
	base := simulate(w, bgpsim.Config{Cores: 1024, Approach: core.FlatOriginal, BatchSize: 1, Params: prm})
	var hyb1k, hyb16k float64
	for _, c := range cores {
		row := []string{fmt.Sprintf("%d", c)}
		for _, a := range core.Approaches {
			var r bgpsim.Result
			if a == core.FlatOriginal {
				r = simulate(w, bgpsim.Config{Cores: c, Approach: a, BatchSize: 1, Params: prm})
			} else {
				r, _ = bestBatch(w, bgpsim.Config{Cores: c, Approach: a, Params: prm}, batchSweep(opt.Quick))
			}
			row = append(row, fmt.Sprintf("%.2f", base.Time/r.Time))
			if a == core.HybridMultiple && c == 1024 {
				hyb1k = r.Time
			}
			if a == core.HybridMultiple && c == 16384 {
				hyb16k = r.Time
			}
		}
		e.AddRow(row...)
	}
	if hyb16k > 0 {
		e.AddNote("Hybrid multiple at 16k vs Flat original at 1k: %.1fx (paper ~16.5x); vs itself at 1k: %.1fx (paper ~12x, 16 linear)",
			base.Time/hyb16k, hyb1k/hyb16k)
	}
	return e
}

// Headline reproduces the section-VII summary numbers at 16 384 cores.
func Headline(opt Options) *Experiment {
	e := &Experiment{
		Name:    "Headline (section VII)",
		Caption: "16384 cores, 16384 grids of 192^3 (Figure 6 workload)",
		Header:  []string{"quantity", "measured", "paper"},
	}
	prm := opt.params()
	w := bgpsim.Workload{GridSize: topology.Dims{192, 192, 192}, NumGrids: 16384}
	sweep := batchSweep(opt.Quick)
	orig := simulate(w, bgpsim.Config{Cores: 16384, Approach: core.FlatOriginal, BatchSize: 1, Params: prm})
	optR, _ := bestBatch(w, bgpsim.Config{Cores: 16384, Approach: core.FlatOptimized, Params: prm}, sweep)
	hyb, hb := bestBatch(w, bgpsim.Config{Cores: 16384, Approach: core.HybridMultiple, Params: prm}, sweep)
	split := simulate(w, bgpsim.Config{Cores: 16384, Approach: core.FlatOptimized, SplitGroups: true,
		BatchSize: hb, BatchRamp: hb > 1, Params: prm})

	e.AddRow("improvement vs Flat original", fmt.Sprintf("%.2fx", orig.Time/hyb.Time), "1.94x")
	e.AddRow("utilization, Flat original", fmt.Sprintf("%.0f%%", orig.Utilization*100), "36%")
	e.AddRow("utilization, Hybrid multiple", fmt.Sprintf("%.0f%%", hyb.Utilization*100), "70%")
	e.AddRow("hybrid vs flat optimized", fmt.Sprintf("%.0f%%", (optR.Time/hyb.Time-1)*100), "~10%")
	e.AddRow("split-groups control vs hybrid", fmt.Sprintf("%+.1f%%", (split.Time/hyb.Time-1)*100), "identical")
	return e
}
