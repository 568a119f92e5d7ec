package gpaw

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/topology"
	"repro/internal/trace"
)

// Tracing must observe, never perturb: a traced solve has to produce
// exactly the bits an untraced one does, for every rank count and
// approach, and the recorded spans must form a well-nested timeline.

// runDistTraced is runDist with a tracer armed on the world before the
// ranks start (a nil tracer leaves it untraced). A cfg with NetCompute
// set runs under the calibrated network model.
func runDistTraced(t *testing.T, tr *trace.Tracer, cfg DistConfig, body func(d *Dist)) {
	t.Helper()
	w := testWorld(max(cfg.Bands, 1)*cfg.Procs.Count(), modeFor(cfg.Approach))
	if cfg.NetCompute {
		w.SetNetModel(calibratedModel(cfg))
	}
	w.SetTracer(tr)
	err := w.Run(func(c *mpi.Comm) {
		d, err := NewDist(c, cfg)
		if err != nil {
			panic(err)
		}
		defer d.Close()
		body(d)
	})
	if err != nil {
		t.Fatalf("procs %v approach %v: %v", cfg.Procs, cfg.Approach, err)
	}
}

// tracedCG runs the distributed CG solve and returns the gathered
// solution (rank 0), iteration count and residual.
func tracedCG(t *testing.T, tr *trace.Tracer, global, procs topology.Dims, a core.Approach, rhs *grid.Grid) (*grid.Grid, int, float64) {
	t.Helper()
	var gathered *grid.Grid
	var iters int
	var res float64
	runDistTraced(t, tr, DistConfig{
		Global: global, Procs: procs, Halo: 2, BC: Dirichlet,
		Approach: a, Threads: threadsFor(a), Batch: 2,
	}, func(d *Dist) {
		ps := NewDistPoisson(d, 0.35)
		phi := d.NewLocalGrid()
		it, r, err := ps.SolveCG(phi, d.ScatterReplicated(rhs))
		if err != nil {
			panic(err)
		}
		g := d.GatherGlobal(phi)
		if d.Cart.Rank() == 0 {
			gathered, iters, res = g, it, r
		}
	})
	return gathered, iters, res
}

// TestTracedBitIdentical runs the CG solver traced and untraced for
// every rank count and approach and requires bitwise-equal solutions,
// iteration counts and residuals — tracing must not perturb results.
func TestTracedBitIdentical(t *testing.T) {
	global := topology.Dims{16, 16, 16}
	rhs := poissonRHS(global)
	for _, p := range rankCounts(t) {
		var procs topology.Dims
		for _, l := range layoutsFor(p) {
			if feasible(global, l, 2) {
				procs = l
				break
			}
		}
		if procs == (topology.Dims{}) {
			continue
		}
		for _, a := range core.Approaches {
			t.Run(fmt.Sprintf("p%d/%v", p, a), func(t *testing.T) {
				wantPhi, wantIt, wantRes := tracedCG(t, nil, global, procs, a, rhs)
				tr := trace.New(p, 1<<14)
				gotPhi, gotIt, gotRes := tracedCG(t, tr, global, procs, a, rhs)
				if gotIt != wantIt || gotRes != wantRes {
					t.Fatalf("traced run: %d iters res %g, untraced %d iters res %g",
						gotIt, gotRes, wantIt, wantRes)
				}
				if diff := gotPhi.MaxAbsDiff(wantPhi); diff != 0 {
					t.Fatalf("traced solution deviates from untraced by %g", diff)
				}
				if len(tr.Events()) == 0 {
					t.Fatal("traced run recorded no events")
				}
				for r := 0; r < p; r++ {
					names := map[string]bool{}
					for _, e := range tr.RankEvents(r) {
						names[e.Name] = true
					}
					if !names["poisson.cg"] {
						t.Errorf("rank %d track lacks the poisson.cg region", r)
					}
				}
			})
		}
	}
}

// TestTracingDisabledOverheadGuard prices the cost of shipping the
// tracing hooks when tracing is off: the overlapped 32^3 CG solve with
// a disabled tracer attached must stay within 2% (plus a small
// absolute slack for timer noise) of the same solve with no tracer at
// all. (The ledger's trace.overhead_frac is the other quantity: tracing
// switched on.) Wall-clock guards are load-sensitive, so the test only
// runs when TRACE_OVERHEAD_GUARD=1 (the CI trace-smoke job sets it);
// both arms are interleaved and the minimum of each is compared.
func TestTracingDisabledOverheadGuard(t *testing.T) {
	if os.Getenv("TRACE_OVERHEAD_GUARD") == "" {
		t.Skip("set TRACE_OVERHEAD_GUARD=1 to run the wall-clock overhead guard")
	}
	global, procs := topology.Dims{32, 32, 32}, topology.Dims{1, 1, 2}
	rhs := poissonRHS(global)
	tr := trace.New(procs.Count(), 1<<10)
	tr.Disable()

	minOff, minDisabled := time.Duration(1<<62), time.Duration(1<<62)
	var itOff, itDisabled int
	for i := 0; i < 6; i++ {
		start := time.Now()
		_, itOff, _ = tracedCG(t, nil, global, procs, core.FlatOptimized, rhs)
		minOff = min(minOff, time.Since(start))

		start = time.Now()
		_, itDisabled, _ = tracedCG(t, tr, global, procs, core.FlatOptimized, rhs)
		minDisabled = min(minDisabled, time.Since(start))
	}
	if itOff != itDisabled {
		t.Fatalf("disabled-tracer solve took %d iterations, untraced %d", itDisabled, itOff)
	}
	if len(tr.Events()) != 0 {
		t.Fatalf("disabled tracer recorded %d events", len(tr.Events()))
	}
	limit := minOff + minOff/50 + 2*time.Millisecond
	t.Logf("untraced %v, disabled tracer %v (limit %v)", minOff, minDisabled, limit)
	if minDisabled > limit {
		t.Errorf("disabled tracing costs %v vs %v untraced: over the 2%% budget",
			minDisabled, minOff)
	}
}

// TestTracedSpansStrictlyNested checks the single-threaded protocol
// records a laminar span family per rank: any two spans are disjoint
// or one contains the other (children recorded before parents).
func TestTracedSpansStrictlyNested(t *testing.T) {
	global := topology.Dims{16, 16, 16}
	procs := topology.Dims{1, 2, 1}
	rhs := poissonRHS(global)
	tr := trace.New(2, 1<<14)
	tracedCG(t, tr, global, procs, core.FlatOptimized, rhs)
	for r := 0; r < 2; r++ {
		type iv struct{ s, e int64 }
		var ivs []iv
		for _, ev := range tr.RankEvents(r) {
			if ev.Kind != trace.KindMark {
				ivs = append(ivs, iv{ev.Start, ev.Start + ev.Dur})
			}
		}
		sort.Slice(ivs, func(i, j int) bool {
			if ivs[i].s != ivs[j].s {
				return ivs[i].s < ivs[j].s
			}
			return ivs[i].e > ivs[j].e
		})
		var stack []iv
		for _, v := range ivs {
			for len(stack) > 0 && stack[len(stack)-1].e <= v.s {
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 && v.e > stack[len(stack)-1].e {
				t.Fatalf("rank %d: span [%d,%d) partially overlaps enclosing [%d,%d)",
					r, v.s, v.e, stack[len(stack)-1].s, stack[len(stack)-1].e)
			}
			stack = append(stack, v)
		}
	}
}

// TestTracedFaultRecovery arms tracing together with the full
// fault-tolerant SCF lifecycle: rank 2 dies mid-run, the survivors
// recover from the last checkpoint, the result stays bit-identical to
// the undisturbed run, and the death/recovery/checkpoint milestones
// all land on the timeline.
func TestTracedFaultRecovery(t *testing.T) {
	global := topology.Dims{8, 8, 8}
	h := 0.7
	sys := System{
		Dims: global, Spacing: h, BC: Dirichlet,
		Vext: HarmonicPotential(global, h, 1), Electrons: 2,
	}
	serial := NewDistSCF(SelfDist(sys.Dims, sys.BC), sys)
	serial.Tol = 1e-4
	want, err := serial.Run()
	if err != nil {
		t.Fatal(err)
	}
	const p = 4
	tr := trace.New(p, 1<<15)
	w := testWorld(p, mpi.ThreadSingle)
	w.SetTracer(tr)
	store := NewMemStore()
	var got *SCFResult
	err = w.Run(func(c *mpi.Comm) {
		res, err := RunSCFFT(c, DistConfig{
			Global: global, Procs: topology.Dims{2, 2, 1}, Halo: 2,
			BC: sys.BC, Approach: core.FlatOptimized, Batch: 2,
		}, sys, FTConfig{
			Store: store, Every: 1, Recover: true,
			Configure: func(s *SCF) {
				s.Tol = 1e-4
				s.OnIteration = func(it int) {
					if it == 3 && c.Rank() == 2 {
						c.Fail()
					}
				}
			},
		})
		if err != nil {
			panic(err)
		}
		if c.Rank() == 0 {
			got = res
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalEnergy != want.TotalEnergy || got.Iterations != want.Iterations {
		t.Fatalf("recovered run E=%v it=%d, fault-free E=%v it=%d",
			got.TotalEnergy, got.Iterations, want.TotalEnergy, want.Iterations)
	}
	counts := map[string]int{}
	for _, e := range tr.Events() {
		counts[e.Name]++
	}
	if counts["ft.dead"] == 0 {
		t.Error("no ft.dead mark on the timeline")
	}
	if counts["ft.recover"] == 0 {
		t.Error("no ft.recover mark on the timeline")
	}
	if counts["ckpt.save"] == 0 {
		t.Error("no ckpt.save spans on the timeline")
	}
	if counts["ckpt.restore"] == 0 {
		t.Error("no ckpt.restore spans on the timeline")
	}
	if counts["scf.iteration"] == 0 || counts["poisson.cg"] == 0 {
		t.Errorf("solver regions missing from the traced recovery run: %v", counts)
	}
}

// TestSweepSpanVocabulary pins the span names the benchmark ledger
// counts on (benchmark/ledger.go derives gpaw.cg_iters from the
// compute.interior / compute.sweep spans that complete before each
// poisson.cg span — since the solve is preconditioned that is a count
// of fused sweeps, every level of every V-cycle included, not of
// iterations): a solve of n iterations on an L-level hierarchy makes
// 1 + n·(1 + 2·mgSmooth·(L−1) + mgCoarsest − 1) single-grid sweeps on a
// rank active at every level (each level's first relaxation starts from
// zero and needs no sweep; its residual does), and every sweep must
// record exactly one
// compute.interior followed by its compute.shell when overlapped — and
// exactly one compute.sweep when not — on every rank, for every
// approach.
func TestSweepSpanVocabulary(t *testing.T) {
	global := topology.Dims{16, 16, 16}
	procs := topology.Dims{1, 2, 2}
	rhs := poissonRHS(global)
	for _, a := range core.Approaches {
		for _, noOverlap := range []bool{false, true} {
			tr := trace.New(procs.Count(), 1<<14)
			var iters int
			overlapped := false
			runDistTraced(t, tr, DistConfig{
				Global: global, Procs: procs, Halo: 2, BC: Dirichlet,
				Approach: a, Threads: threadsFor(a), Batch: 2, NoOverlap: noOverlap,
			}, func(d *Dist) {
				it, _, err := NewDistPoisson(d, 0.35).SolveCG(d.NewLocalGrid(), d.ScatterReplicated(rhs))
				if err != nil {
					panic(err)
				}
				if d.Cart.Rank() == 0 {
					iters, overlapped = it, d.Overlapped()
				}
			})
			for r := 0; r < procs.Count(); r++ {
				// Events arrive in completion order, so the solve's
				// sweeps precede its own span.
				var seq []string
				for _, e := range tr.RankEvents(r) {
					switch e.Name {
					case "compute.interior", "compute.shell", "compute.sweep", "poisson.cg":
						seq = append(seq, e.Name)
					}
				}
				// 16^3 over 1x2x2 coarsens to 8^3 and 4^3 on the full
				// process grid: three levels, every rank active on all.
				sweeps := 1 + iters*(1+2*mgSmooth*2+mgCoarsest-1)
				var want []string
				for s := 0; s < sweeps; s++ {
					if overlapped {
						want = append(want, "compute.interior", "compute.shell")
					} else {
						want = append(want, "compute.sweep")
					}
				}
				want = append(want, "poisson.cg")
				if !slices.Equal(seq, want) {
					t.Errorf("%v noOverlap=%v rank %d: %d CG iterations recorded %d sweep spans %v..., want %d of the form %v...",
						a, noOverlap, r, iters, len(seq)-1, seq[:min(4, len(seq))], len(want)-1, want[:2])
				}
			}
		}
	}
}

// TestEigenSpanVocabulary pins the eigensolver's span names and counts
// the benchmark ledger reads (gpaw.eigen_apply_count, bands_*_ms,
// eigen_solve_ms): every SCF step is one eigen.solve holding
// filterDegree + 1 eigen.apply — the filter's reduction-free sweeps and
// the subspace step's H·psi — and one bands.rayleighritz, with one more
// of each of the last two on the first step (the subspace step on the raw
// guess that yields the first Ritz values), and no per-sweep
// orthonormalization anywhere — on one rank and on 2 band groups x 2x1x1.
// It also pins the subspace step's communication: the m x m algebra runs
// replicated, so no pblas.* span exists and the collectives inside a
// bands.rayleighritz are those of the grid-sized work alone.
func TestEigenSpanVocabulary(t *testing.T) {
	global := topology.Dims{8, 8, 8}
	sys := scfSystem(global, 0.7)
	sys.Electrons = 8 // m = 4 occupied + 1 guard = 5 states
	for _, l := range []struct {
		bands int
		procs topology.Dims
		// rrCollectives is the number of KindCollective events inside one
		// bands.rayleighritz (an allreduce is three: mpi.allreduce and the
		// mpi.reduce + mpi.bcast it is made of). A change to the subspace
		// step's communication has to restate it.
		rrCollectives int
	}{
		// bandSymMatrix's one domain reduction.
		{1, topology.Dims{1, 1, 1}, 3},
		// The domain reduction, the one band merge, and the gather's one
		// broadcast per band group: 3 + 3 + 2.
		{2, topology.Dims{2, 1, 1}, 8},
	} {
		ranks := l.bands * l.procs.Count()
		tr := trace.New(ranks, 1<<16)
		iters := 0
		runDistTraced(t, tr, DistConfig{
			Global: global, Procs: l.procs, Bands: l.bands, Halo: 2, BC: Dirichlet,
			Approach: core.FlatOptimized, Threads: 1, Batch: 2,
		}, func(d *Dist) {
			scf := NewDistSCF(d, sys)
			scf.Tol = 1e-4
			res, err := scf.Run()
			if err != nil {
				panic(err)
			}
			if d.World.Rank() == 0 {
				iters = res.Iterations
			}
		})
		for r := 0; r < ranks; r++ {
			// Events arrive in completion order: a step's spans precede
			// its scf.iteration, a region's contents precede the region.
			events := tr.RankEvents(r)
			step, count := 1, map[string]int{}
			for i, e := range events {
				if strings.HasPrefix(e.Name, "pblas.") {
					t.Errorf("bands %d procs %v rank %d: span %s in an SCF trace", l.bands, l.procs, r, e.Name)
				}
				if e.Name == "bands.rayleighritz" {
					coll := 0
					for j := i - 1; j >= 0 && events[j].Start >= e.Start; j-- {
						if events[j].Kind == trace.KindCollective {
							coll++
						}
					}
					if coll != l.rrCollectives {
						t.Errorf("bands %d procs %v rank %d step %d: %d collective events inside bands.rayleighritz, want %d",
							l.bands, l.procs, r, step, coll, l.rrCollectives)
					}
				}
				if e.Name != "scf.iteration" {
					count[e.Name]++
					continue
				}
				first := 0
				if step == 1 {
					first = 1
				}
				for name, want := range map[string]int{"eigen.solve": 1, "eigen.apply": filterDegree + 1 + first,
					"bands.rayleighritz": 1 + first, "bands.orthonormalize": 0} {
					if count[name] != want {
						t.Errorf("bands %d procs %v rank %d step %d: %d %s spans, want %d",
							l.bands, l.procs, r, step, count[name], name, want)
					}
				}
				step, count = step+1, map[string]int{}
			}
			if step-1 != iters {
				t.Errorf("bands %d procs %v rank %d: %d scf.iteration spans for %d iterations", l.bands, l.procs, r, step-1, iters)
			}
		}
	}
}

// tracedModeledRun records one two-rank flat-optimized run under the
// calibrated model: a 16^3 periodic CG solve, whose sub-domains have a
// deep interior for the split-phase protocol to hide messages behind,
// then an 8^3 SCF for the full variety of solver regions.
func tracedModeledRun(t *testing.T) *trace.Tracer {
	t.Helper()
	procs := topology.Dims{1, 2, 1}
	cgGlobal, scfGlobal := topology.Dims{16, 16, 16}, topology.Dims{8, 8, 8}
	cfg := DistConfig{
		Global: cgGlobal, Procs: procs, Halo: 2, BC: Periodic,
		Approach: core.FlatOptimized, Threads: 1, Batch: 1, NetCompute: true,
	}
	rhs := poissonRHS(cgGlobal)
	sys := scfSystem(scfGlobal, 0.7)
	tr := trace.New(procs.Count(), 1<<16)
	runDistTraced(t, tr, cfg, func(d *Dist) {
		if _, _, err := NewDistPoisson(d, 0.3).SolveCG(d.NewLocalGrid(), d.ScatterReplicated(rhs)); err != nil {
			panic(err)
		}
		scfCfg := cfg
		scfCfg.Global, scfCfg.BC, scfCfg.Batch = scfGlobal, sys.BC, 2
		ds, err := NewDist(d.World, scfCfg)
		if err != nil {
			panic(err)
		}
		defer ds.Close()
		scf := NewDistSCF(ds, sys)
		scf.Tol = 1e-4
		if _, err := scf.Run(); err != nil {
			panic(err)
		}
	})
	return tr
}

// TestTracedDistAcceptance: the modeled traced run must profile with
// overlap efficiency > 0 (the overlapped CG hides wait time behind its
// interior sweep) and export a Perfetto-loadable trace with at least
// two rank tracks carrying comm spans nested in solver regions.
func TestTracedDistAcceptance(t *testing.T) {
	tr := tracedModeledRun(t)
	p := tr.Profile(trace.Virtual)
	if p.OverlapEfficiency <= 0 {
		t.Errorf("overlap efficiency %.3f, want > 0: the calibrated overlapped CG must hide wait time",
			p.OverlapEfficiency)
	}
	table := p.Table()
	for _, want := range []string{"overlap efficiency", "poisson.cg", "scf.iteration", "compute.interior", "halo.wait"} {
		if !strings.Contains(table, want) {
			t.Errorf("profile table lacks %q:\n%s", want, table)
		}
	}

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf, trace.Virtual); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name    string `json:"name"`
			Ph      string `json:"ph"`
			Tid     int    `json:"tid"`
			Ts, Dur float64
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	type span struct {
		name    string
		ts, dur float64
	}
	perTrack := map[int][]span{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			perTrack[e.Tid] = append(perTrack[e.Tid], span{e.Name, e.Ts, e.Dur})
		}
	}
	if len(perTrack) < 2 {
		t.Fatalf("trace has %d rank tracks, want >= 2", len(perTrack))
	}
	// At least one comm span strictly inside a solver region on some
	// track — the nesting Perfetto renders as stacked slices.
	isComm := func(name string) bool {
		return strings.HasPrefix(name, "mpi.") || strings.HasPrefix(name, "halo.")
	}
	nested := false
	for _, spans := range perTrack {
		for _, outer := range spans {
			if isComm(outer.name) {
				continue
			}
			for _, inner := range spans {
				if isComm(inner.name) && inner.ts >= outer.ts &&
					inner.ts+inner.dur <= outer.ts+outer.dur && inner.dur < outer.dur {
					nested = true
				}
			}
		}
	}
	if !nested {
		t.Error("no comm span nested inside a compute/solver region on any track")
	}
}

// TestTracedDistDeterministic re-runs the modeled traced workload and
// requires identical virtual timelines — the NoComputeWall contract.
func TestTracedDistDeterministic(t *testing.T) {
	render := func() string {
		var buf bytes.Buffer
		if err := tracedModeledRun(t).WriteChromeTrace(&buf, trace.Virtual); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if a, b := render(), render(); a != b {
		t.Error("two modeled traced runs produced different virtual timelines")
	}
}
