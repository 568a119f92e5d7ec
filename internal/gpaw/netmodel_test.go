package gpaw

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/topology"
	"repro/internal/trace"
)

// Transport differential: the calibrated network model only reorders
// time, never data or matching order, so every solver result must be
// bit-identical with the model on or off — the guarantee that lets the
// scaling benchmarks claim their virtual timings describe the very
// computation the eager tests verified.

// cgUnder runs the distributed CG solve of the global grid over procs,
// with or without the calibrated model, and returns (iters, residual,
// gathered field on rank 0, modeled makespan).
func cgUnder(t *testing.T, global, procs topology.Dims, a core.Approach, calibrated, noOverlap bool) (int, float64, *grid.Grid, time.Duration) {
	t.Helper()
	p := procs.Count()
	rhs := poissonRHS(global)
	cfg := DistConfig{
		Global: global, Procs: procs, Halo: 2, BC: Periodic,
		Approach: a, Threads: threadsFor(a), Batch: 2,
		NoOverlap: noOverlap, NetCompute: calibrated,
	}
	var it int
	var res float64
	var g *grid.Grid
	body := func(c *mpi.Comm) {
		d, err := NewDist(c, cfg)
		if err != nil {
			panic(err)
		}
		defer d.Close()
		dps := NewDistPoisson(d, 0.35)
		phi := d.NewLocalGrid()
		it0, res0, err := dps.SolveCG(phi, d.ScatterReplicated(rhs))
		if err != nil {
			panic(err)
		}
		gg := d.GatherGlobal(phi)
		if c.Rank() == 0 {
			it, res, g = it0, res0, gg
		}
	}
	var mk time.Duration
	var err error
	if calibrated {
		mk, err = runRanksModeled(p, modeFor(a), calibratedModel(cfg), body)
	} else {
		err = runRanks(p, modeFor(a), body)
	}
	if err != nil {
		t.Fatalf("p=%d procs %v approach %v calibrated=%v: %v", p, procs, a, calibrated, err)
	}
	return it, res, g, mk
}

// TestEagerVsCalibratedBitIdentical sweeps rank counts x all four
// approaches and asserts the CG solution, iteration count and residual
// are bitwise unchanged by arming the calibrated transport model.
func TestEagerVsCalibratedBitIdentical(t *testing.T) {
	global := topology.Dims{16, 16, 16}
	for _, p := range rankCounts(t) {
		procs := layoutsFor(p)[len(layoutsFor(p))-1]
		for _, a := range core.Approaches {
			eIt, eRes, eG, _ := cgUnder(t, global, procs, a, false, false)
			cIt, cRes, cG, mk := cgUnder(t, global, procs, a, true, false)
			if eIt != cIt || eRes != cRes {
				t.Errorf("p=%d %v approach %v: eager (it,res)=(%d,%.17g), calibrated (%d,%.17g)",
					p, procs, a, eIt, eRes, cIt, cRes)
			}
			if diff := eG.MaxAbsDiff(cG); diff != 0 {
				t.Errorf("p=%d %v approach %v: calibrated solution deviates by %g", p, procs, a, diff)
			}
			if p > 1 && mk <= 0 {
				t.Errorf("p=%d %v approach %v: calibrated run reports no virtual time", p, procs, a)
			}
		}
	}
}

// TestCalibratedOverlapBeatsSerialized: under modeled latency the
// split-phase protocol's virtual makespan must be strictly below the
// forced-serialized baseline's, in the same number of iterations, at 8
// and at 64 simulated ranks — the paper's overlap win, visible because
// delivery finally costs something. Deterministic: the model runs with
// NoComputeWall, so both makespans are exact.
func TestCalibratedOverlapBeatsSerialized(t *testing.T) {
	for _, l := range []struct{ global, procs topology.Dims }{
		{topology.Dims{16, 16, 16}, topology.Dims{2, 2, 2}},
		{topology.Dims{32, 32, 32}, topology.Dims{4, 4, 4}},
	} {
		p := l.procs.Count()
		itOv, _, _, overlap := cgUnder(t, l.global, l.procs, core.FlatOptimized, true, false)
		itSer, _, _, serialized := cgUnder(t, l.global, l.procs, core.FlatOptimized, true, true)
		if itOv != itSer {
			t.Fatalf("%d ranks: overlap took %d iterations, serialized %d", p, itOv, itSer)
		}
		if overlap >= serialized {
			t.Errorf("%d ranks: overlapped virtual makespan %v not below serialized %v", p, overlap, serialized)
		}
		t.Logf("%d ranks virtual makespan: overlap %v, serialized %v, speedup %.3fx",
			p, overlap, serialized, float64(serialized)/float64(overlap))
	}
}

// TestMappingSensitivity: at 64 simulated ranks the same exchange costs
// more under a shuffled placement than under the Cartesian embedding —
// the mapping experiment of the paper's section V, reproduced on the
// live transport.
func TestMappingSensitivity(t *testing.T) {
	const p = 64
	global := topology.Dims{32, 32, 32}
	procs := topology.Dims{4, 4, 4}
	rhs := poissonRHS(global)
	run := func(mapping topology.Mapping) time.Duration {
		cfg := DistConfig{Global: global, Procs: procs, Halo: 2, BC: Periodic,
			Approach: core.FlatOptimized, Threads: 1, Batch: 2,
			Map: mapping, NetCompute: true}
		mk, err := runRanksModeled(p, mpi.ThreadSingle, calibratedModel(cfg), func(c *mpi.Comm) {
			d, err := NewDist(c, cfg)
			if err != nil {
				panic(err)
			}
			defer d.Close()
			dps := NewDistPoisson(d, 0.35)
			phi := d.NewLocalGrid()
			if _, _, err := dps.SolveCG(phi, d.ScatterReplicated(rhs)); err != nil {
				panic(err)
			}
		})
		if err != nil {
			t.Fatalf("mapping %v: %v", mapping, err)
		}
		return mk
	}
	cart := run(topology.MapCart)
	shuffle := run(topology.MapShuffle)
	if cart >= shuffle {
		t.Errorf("Cartesian mapping (%v) not cheaper than shuffled (%v) at %d ranks", cart, shuffle, p)
	}
	t.Logf("64-rank CG virtual makespan: cart %v, shuffle %v (%.2fx)", cart, shuffle,
		float64(shuffle)/float64(cart))
}

// TestNewDistSendsNothing: building the distributed context and its
// multigrid hierarchy on the modelled 2 × (2×4×4) world posts no message
// — every communicator, the shrunk levels' included, comes from a Split
// computed locally — so every rank's virtual clock stays at 0 and no
// rank traces a send or a collective.
func TestNewDistSendsNothing(t *testing.T) {
	cfg := DistConfig{Global: topology.Dims{24, 24, 24}, Procs: topology.Dims{2, 4, 4}, Bands: 2,
		Halo: 2, BC: Dirichlet, Approach: core.FlatOptimized, Threads: 1, Batch: 2,
		Map: topology.MapCart, NetCompute: true}
	n := cfg.Bands * cfg.Procs.Count()
	tr := trace.New(n, 4096)
	w := testWorld(n, mpi.ThreadSingle)
	w.SetNetModel(calibratedModel(cfg))
	w.SetTracer(tr)
	shrunk := make([]bool, n)
	err := w.Run(func(c *mpi.Comm) {
		d, err := NewDist(c, cfg)
		if err != nil {
			panic(err)
		}
		defer d.Close()
		mg, err := d.hierarchy(0.3)
		if err != nil {
			panic(err)
		}
		for _, lv := range mg.levels {
			shrunk[c.Rank()] = shrunk[c.Rank()] || lv.shrunk
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < n; r++ {
		if v := w.VirtualTime(r); v != 0 {
			t.Errorf("rank %d: virtual clock %v after setup, want 0", r, v)
		}
		for _, ev := range tr.RankEvents(r) {
			if ev.Kind == trace.KindSend || ev.Kind == trace.KindCollective {
				t.Errorf("rank %d: setup traced %s %q", r, ev.Kind, ev.Name)
			}
		}
		if !shrunk[r] {
			t.Errorf("rank %d: no multigrid level shrank, so the hierarchy made no Split", r)
		}
	}
}
