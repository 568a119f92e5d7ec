package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/stencil"
	"repro/internal/topology"
)

func TestApproachStringsAndHybrid(t *testing.T) {
	want := map[Approach]string{
		FlatOriginal:     "Flat original",
		FlatOptimized:    "Flat optimized",
		HybridMultiple:   "Hybrid multiple",
		HybridMasterOnly: "Hybrid master-only",
	}
	for a, s := range want {
		if a.String() != s {
			t.Fatalf("%d.String() = %q, want %q", int(a), a.String(), s)
		}
	}
	if FlatOriginal.Hybrid() || FlatOptimized.Hybrid() {
		t.Fatal("flat approaches reported hybrid")
	}
	if !HybridMultiple.Hybrid() || !HybridMasterOnly.Hybrid() {
		t.Fatal("hybrid approaches not reported hybrid")
	}
	if Approach(99).String() == "" {
		t.Fatal("unknown approach should still format")
	}
}

func TestOptionsForMatchesPaper(t *testing.T) {
	o := OptionsFor(FlatOriginal, 8, 4)
	if o.Approach != FlatOriginal || o.BatchSize != 1 || o.Threads != 1 {
		t.Fatalf("FlatOriginal options = %+v", o)
	}
	o = OptionsFor(FlatOptimized, 8, 4)
	if o.Approach != FlatOptimized || o.BatchSize != 8 || o.Threads != 1 {
		t.Fatalf("FlatOptimized options = %+v", o)
	}
	o = OptionsFor(HybridMultiple, 8, 4)
	if o.Approach != HybridMultiple || o.Threads != 4 || o.BatchSize != 8 {
		t.Fatalf("HybridMultiple options = %+v", o)
	}
	o = OptionsFor(HybridMasterOnly, 0, 4)
	if o.Approach != HybridMasterOnly || o.BatchSize != 1 {
		t.Fatalf("batch clamp failed: %+v", o)
	}
}

// scheduledBatches returns the batches Schedule hands to Compute for n
// grids in batches of size, the first halved with ramp.
func scheduledBatches(n, size int, ramp bool) []Batch {
	var r recorder
	Schedule(Options{Approach: FlatOptimized, BatchSize: size, BatchRamp: ramp}, n, false, &r)
	return r.batches
}

// recorder is a Steps that records every action as a token: Post and
// Wait as "P" or "W", batch index and dimension (x, y, z, or a for
// AllDims), Compute as the region's initial (F, I, S) and the batch.
// It panics if a Wait names another batch than its Post.
type recorder struct {
	actions []string
	batches []Batch // Compute's batches, in order, without repeats
	posted  map[int]Batch
}

func (r *recorder) step(op string, bi int, b Batch, dim int) {
	if r.posted == nil {
		r.posted = map[int]Batch{}
	}
	if op == "P" {
		r.posted[bi] = b
	} else if r.posted[bi] != b {
		panic(fmt.Sprintf("%s%d: batch %v, posted %v", op, bi, b, r.posted[bi]))
	}
	r.actions = append(r.actions, fmt.Sprintf("%s%d%c", op, bi, "axyz"[dim+1]))
}

func (r *recorder) Post(bi int, b Batch, dim int) { r.step("P", bi, b, dim) }
func (r *recorder) Wait(bi int, b Batch, dim int) { r.step("W", bi, b, dim) }
func (r *recorder) Compute(b Batch, reg stencil.Region) {
	if n := len(r.batches); n == 0 || r.batches[n-1] != b {
		r.batches = append(r.batches, b)
	}
	r.actions = append(r.actions, fmt.Sprintf("%c[%d,%d)", "FIS"[reg], b.Lo, b.Hi))
}

// TestScheduleOrder pins the action sequence of Schedule for every
// approach, with and without overlap, on one grid and on 7 grids in
// batches of 2 with the first halved: flat original posts and waits on
// each dimension in turn before it computes; the others post batch b+1
// before they wait on batch b; overlap computes Interior before the wait
// and Shell after.
func TestScheduleOrder(t *testing.T) {
	serialized := func(bi int, compute string) string {
		return strings.ReplaceAll("P#x W#x P#y W#y P#z W#z ", "#", fmt.Sprint(bi)) + compute
	}
	want := map[[3]bool]string{
		// {flat original, overlap, 7 grids}
		{true, false, false}: serialized(0, "F[0,1)"),
		{true, true, false}:  serialized(0, "I[0,1) S[0,1)"),
		{true, false, true}: serialized(0, "F[0,1)") + " " + serialized(1, "F[1,3)") + " " +
			serialized(2, "F[3,5)") + " " + serialized(3, "F[5,7)"),
		{true, true, true}: serialized(0, "I[0,1) S[0,1)") + " " + serialized(1, "I[1,3) S[1,3)") + " " +
			serialized(2, "I[3,5) S[3,5)") + " " + serialized(3, "I[5,7) S[5,7)"),
		{false, false, false}: "P0a W0a F[0,1)",
		{false, true, false}:  "P0a I[0,1) W0a S[0,1)",
		{false, false, true}:  "P0a P1a W0a F[0,1) P2a W1a F[1,3) P3a W2a F[3,5) W3a F[5,7)",
		{false, true, true}: "P0a P1a I[0,1) W0a S[0,1) P2a I[1,3) W1a S[1,3) " +
			"P3a I[3,5) W2a S[3,5) I[5,7) W3a S[5,7)",
	}
	for _, a := range Approaches {
		for _, overlap := range []bool{false, true} {
			for _, many := range []bool{false, true} {
				o, n := Options{Approach: a, BatchSize: 1, Threads: 1}, 1
				if many {
					o.BatchSize, o.BatchRamp, n = 2, true, 7
				}
				var r recorder
				Schedule(o, n, overlap, &r)
				w := want[[3]bool{a == FlatOriginal, overlap, many}]
				if got := strings.Join(r.actions, " "); got != w {
					t.Errorf("%v overlap=%v grids=%d:\n got %s\nwant %s", a, overlap, n, got, w)
				}
			}
		}
	}
}

func TestMakeBatches(t *testing.T) {
	bs := scheduledBatches(10, 4, false)
	if len(bs) != 3 || bs[0] != (Batch{0, 4}) || bs[1] != (Batch{4, 8}) || bs[2] != (Batch{8, 10}) {
		t.Fatalf("batches = %v", bs)
	}
	// Ramp halves the first batch.
	bs = scheduledBatches(10, 4, true)
	if bs[0].Size() != 2 {
		t.Fatalf("ramp first batch = %d, want 2", bs[0].Size())
	}
	total := 0
	prevHi := 0
	for _, b := range bs {
		if b.Lo != prevHi {
			t.Fatalf("batches not contiguous: %v", bs)
		}
		prevHi = b.Hi
		total += b.Size()
	}
	if total != 10 {
		t.Fatalf("batches cover %d grids, want 10", total)
	}
	if got := scheduledBatches(0, 4, true); got != nil {
		t.Fatalf("batches of empty set = %v", got)
	}
	// Ramp with n <= size leaves a single batch.
	bs = scheduledBatches(3, 8, true)
	if len(bs) != 1 || bs[0].Size() != 3 {
		t.Fatalf("small ramp batches = %v", bs)
	}
}

func TestFaceTagDisjointAcrossThreads(t *testing.T) {
	n := 16
	stride := tagStride(n)
	seen := map[int]bool{}
	for th := 0; th < 4; th++ {
		for bi := 0; bi <= n; bi++ {
			for dim := 0; dim < 3; dim++ {
				for _, s := range []grid.Side{grid.Low, grid.High} {
					tag := faceTag(th*stride, bi, dim, s)
					if tag < 0 {
						t.Fatalf("negative tag %d", tag)
					}
					if seen[tag] {
						t.Fatalf("tag collision at thread %d batch %d dim %d side %v", th, bi, dim, s)
					}
					seen[tag] = true
				}
			}
		}
	}
}

// verifyJob runs the job and fails the test unless the distributed
// result matches the sequential reference exactly.
func verifyJob(t *testing.T, j Job) *Result {
	t.Helper()
	diff, res, err := j.Verify()
	if err != nil {
		t.Fatalf("%v: %v", j.Approach, err)
	}
	if diff != 0 {
		t.Fatalf("%v: max deviation %g from sequential reference", j.Approach, diff)
	}
	return res
}

func baseJob() Job {
	return Job{
		Global:     topology.Dims{12, 12, 12},
		NumGrids:   8,
		Radius:     2,
		Spacing:    0.3,
		Periodic:   true,
		Cores:      8,
		Threads:    2,
		BatchSize:  2,
		Iterations: 2,
	}
}

func TestAllApproachesMatchSequential(t *testing.T) {
	for _, a := range Approaches {
		a := a
		t.Run(a.String(), func(t *testing.T) {
			j := baseJob()
			j.Approach = a
			verifyJob(t, j)
		})
	}
}

func TestApproachesMatchOnNonCubicGrid(t *testing.T) {
	for _, a := range []Approach{FlatOriginal, HybridMultiple} {
		j := baseJob()
		j.Global = topology.Dims{16, 8, 12}
		j.NumGrids = 4
		j.Approach = a
		verifyJob(t, j)
	}
}

func TestApproachesMatchWithUnevenDecomposition(t *testing.T) {
	// 13 points over a process dimension of 2 gives 7+6 splits.
	j := baseJob()
	j.Global = topology.Dims{13, 13, 13}
	j.Cores = 4
	j.Threads = 2
	j.Approach = HybridMultiple
	verifyJob(t, j)
}

func TestDirichletBoundary(t *testing.T) {
	j := baseJob()
	j.Periodic = false
	j.Approach = FlatOptimized
	verifyJob(t, j)
}

// TestExchangeWithoutNeighbourLeavesHalos: on non-periodic layouts, an
// Exchange fills exactly the halos that face a neighbour. A dimension
// with no neighbour on either side (every dimension of one rank, y and
// z of a 2x1x1 split) leaves its sentinel halo values untouched, and
// the 2x1x1 split's one-sided x edge fills its inner halo and keeps its
// outer one — under the serialized and the asynchronous exchange alike.
func TestExchangeWithoutNeighbourLeavesHalos(t *testing.T) {
	const sentinel = -7.25
	global := topology.Dims{8, 6, 6}
	for _, approach := range []Approach{FlatOriginal, FlatOptimized} {
		for _, procs := range []topology.Dims{{1, 1, 1}, {2, 1, 1}} {
			err := runRanks(procs[0], mpi.ThreadSingle, func(c *mpi.Comm) {
				eng := overlapEngine(c, global, procs, false, OptionsFor(approach, 2, 1))
				gs := []*grid.Grid{eng.NewLocalGrid(), eng.NewLocalGrid()}
				for _, g := range gs {
					d := g.Data() // interior and halos
					for k := range d {
						d[k] = sentinel
					}
				}
				fillLocal(eng.decomp, eng.coord, gs)
				eng.Exchange(gs)
				off := eng.decomp.Offset(eng.coord)
				for gi, g := range gs {
					for i := -2; i < g.Nx+2; i++ {
						for j := -2; j < g.Ny+2; j++ {
							for k := -2; k < g.Nz+2; k++ {
								in := [3]bool{i >= 0 && i < g.Nx, j >= 0 && j < g.Ny, k >= 0 && k < g.Nz}
								gx := off[0] + i
								// Only a face halo across x, inside the global
								// domain, has a neighbour to fill it.
								filled := !in[0] && in[1] && in[2] && gx >= 0 && gx < global[0]
								want := sentinel
								switch {
								case in[0] && in[1] && in[2]:
									continue
								case filled:
									want = float64(gi*1000000+gx*10000+(off[1]+j)*100+(off[2]+k)) + 0.5
								}
								if got := g.At(i, j, k); got != want {
									panic(fmt.Sprintf("%v %v rank %d grid %d halo (%d,%d,%d) = %g, want %g",
										approach, procs, c.Rank(), gi, i, j, k, got, want))
								}
							}
						}
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestBatchSizeInvariance(t *testing.T) {
	// Results must be identical for every batch size (batching only
	// changes message packing).
	for _, batchSize := range []int{1, 2, 3, 8, 100} {
		j := baseJob()
		j.Approach = FlatOptimized
		j.BatchSize = batchSize
		verifyJob(t, j)
	}
}

func TestBatchRampInvariance(t *testing.T) {
	j := baseJob()
	j.Approach = HybridMultiple
	j.BatchSize = 4
	j.BatchRamp = true
	verifyJob(t, j)
}

func TestSingleCoreDegenerateRun(t *testing.T) {
	// One core: everything is a self-exchange via the periodic wrap.
	j := baseJob()
	j.Cores = 1
	j.Threads = 1
	j.Approach = FlatOriginal
	verifyJob(t, j)
}

func TestSingleNodeHybrid(t *testing.T) {
	j := baseJob()
	j.Cores = 4
	j.Threads = 4
	j.Approach = HybridMultiple
	verifyJob(t, j)
}

func TestManyIterations(t *testing.T) {
	j := baseJob()
	j.Iterations = 5
	j.Approach = FlatOptimized
	verifyJob(t, j)
}

func TestStatsAccounting(t *testing.T) {
	j := baseJob()
	j.Approach = FlatOptimized
	j.BatchSize = 1
	res := verifyJob(t, j)
	// 8 ranks in a 2x2x2 cart: every rank sends 6 faces per grid per
	// iteration: 8 ranks * 6 faces * 8 grids * 2 iters = 768 messages.
	if res.Stats.MessagesSent != 768 {
		t.Fatalf("messages = %d, want 768", res.Stats.MessagesSent)
	}
	if res.Stats.Exchanges != int64(8*8*2) {
		t.Fatalf("exchanges = %d", res.Stats.Exchanges)
	}
	// Batch 8 must send 8x fewer, 8x larger messages with the same bytes.
	j.BatchSize = 8
	res8 := verifyJob(t, j)
	if res8.Stats.MessagesSent != 768/8 {
		t.Fatalf("batched messages = %d, want %d", res8.Stats.MessagesSent, 768/8)
	}
	if res8.Stats.BytesSent != res.Stats.BytesSent {
		t.Fatalf("batching changed total bytes: %d vs %d", res8.Stats.BytesSent, res.Stats.BytesSent)
	}
	if res8.Stats.LargestMsg != 8*res.Stats.LargestMsg {
		t.Fatalf("batched largest message = %d, want %d", res8.Stats.LargestMsg, 8*res.Stats.LargestMsg)
	}
}

func TestHybridReducesMessageCount(t *testing.T) {
	// Hybrid multiple divides each grid into 4x fewer pieces, so with
	// the same core count it sends fewer messages overall.
	flat := baseJob()
	flat.Approach = FlatOptimized
	flat.BatchSize = 1
	resFlat := verifyJob(t, flat)

	hyb := flat
	hyb.Approach = HybridMultiple
	hyb.Threads = 4
	resHyb := verifyJob(t, hyb)

	if resHyb.Stats.MessagesSent >= resFlat.Stats.MessagesSent {
		t.Fatalf("hybrid sent %d messages, flat %d; hybrid should send fewer",
			resHyb.Stats.MessagesSent, resFlat.Stats.MessagesSent)
	}
	if resHyb.Stats.BytesSent >= resFlat.Stats.BytesSent {
		t.Fatalf("hybrid sent %d bytes, flat %d; hybrid should send fewer",
			resHyb.Stats.BytesSent, resFlat.Stats.BytesSent)
	}
}

func TestProcsLayout(t *testing.T) {
	j := baseJob()
	j.Approach = FlatOptimized
	j.Cores = 8
	if p, err := j.Procs(); err != nil || p != 8 {
		t.Fatalf("flat procs = %d, %v", p, err)
	}
	j.Approach = HybridMultiple
	j.Threads = 4
	if p, err := j.Procs(); err != nil || p != 2 {
		t.Fatalf("hybrid procs = %d, %v", p, err)
	}
	j.Cores = 6
	if _, err := j.Procs(); err == nil {
		t.Fatal("non-divisible cores accepted")
	}
	j.Cores = 0
	if _, err := j.Procs(); err == nil {
		t.Fatal("zero cores accepted")
	}
	j.Cores = 8
	j.Threads = 0
	if _, err := j.Procs(); err == nil {
		t.Fatal("zero threads accepted")
	}
}

func TestJobValidation(t *testing.T) {
	j := baseJob()
	j.NumGrids = 0
	if _, err := j.Run(false); err == nil {
		t.Fatal("zero grids accepted")
	}
	j = baseJob()
	j.Cores = 4096 // sub-domains thinner than the halo
	if _, err := j.Run(false); err == nil {
		t.Fatal("over-decomposed job accepted")
	}
}

func TestNewEngineValidation(t *testing.T) {
	op := stencil.Laplacian(2, 1)
	err := runRanks(4, mpi.ThreadSingle, func(c *mpi.Comm) {
		cart := c.CartCreate(topology.Dims{4, 1, 1}, [3]bool{true, true, true}, false)
		// Mismatched proc grid.
		d := grid.MustDecomp(topology.Dims{16, 16, 16}, topology.Dims{2, 2, 1}, 2)
		if _, err := NewEngine(cart, d, op, true, OptionsFor(FlatOptimized, 1, 1)); err == nil {
			panic("mismatched cart accepted")
		}
		// Halo thinner than radius.
		d2 := grid.MustDecomp(topology.Dims{16, 16, 16}, topology.Dims{4, 1, 1}, 1)
		if _, err := NewEngine(cart, d2, op, true, OptionsFor(FlatOptimized, 1, 1)); err == nil {
			panic("thin halo accepted")
		}
		// Bad options.
		d3 := grid.MustDecomp(topology.Dims{16, 16, 16}, topology.Dims{4, 1, 1}, 2)
		if _, err := NewEngine(cart, d3, op, true, Options{BatchSize: 0, Threads: 1}); err == nil {
			panic("batch 0 accepted")
		}
		if _, err := NewEngine(cart, d3, op, true, Options{BatchSize: 1, Threads: 0}); err == nil {
			panic("threads 0 accepted")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestEngineAccessors(t *testing.T) {
	op := stencil.Laplacian(2, 1)
	err := runRanks(2, mpi.ThreadSingle, func(c *mpi.Comm) {
		cart := c.CartCreate(topology.Dims{2, 1, 1}, [3]bool{true, true, true}, false)
		d := grid.MustDecomp(topology.Dims{8, 8, 8}, topology.Dims{2, 1, 1}, 2)
		eng, err := NewEngine(cart, d, op, true, OptionsFor(FlatOptimized, 2, 1))
		if err != nil {
			panic(err)
		}
		if eng.LocalDims() != (topology.Dims{4, 8, 8}) {
			panic(fmt.Sprintf("local dims = %v", eng.LocalDims()))
		}
		g := eng.NewLocalGrid()
		if g.Dims() != eng.LocalDims() || g.H != 2 {
			panic("NewLocalGrid shape wrong")
		}
		eng.ResetStats()
		if eng.Stats() != (Stats{}) {
			panic("ResetStats did not clear")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestHybridMultipleRequiresMultipleMode(t *testing.T) {
	err := runRanks(1, mpi.ThreadSingle, func(c *mpi.Comm) {
		cart := c.CartCreate(topology.Dims{1, 1, 1}, [3]bool{true, true, true}, false)
		d := grid.MustDecomp(topology.Dims{8, 8, 8}, topology.Dims{1, 1, 1}, 2)
		eng, err := NewEngine(cart, d, stencil.Laplacian(2, 1), true, OptionsFor(HybridMultiple, 1, 2))
		if err != nil {
			panic(err)
		}
		src := []*grid.Grid{eng.NewLocalGrid()}
		dst := []*grid.Grid{eng.NewLocalGrid()}
		eng.Apply(HybridMultiple, dst, src) // must panic: SINGLE world
	})
	if err == nil {
		t.Fatal("hybrid multiple in SINGLE mode not rejected")
	}
}

// TestApplyRejectsForeignApproach: an engine runs the schedule of the
// approach it was built for, so Apply under any other approach panics
// instead of silently running the wrong one.
func TestApplyRejectsForeignApproach(t *testing.T) {
	err := runRanks(1, mpi.ThreadSingle, func(c *mpi.Comm) {
		cart := c.CartCreate(topology.Dims{1, 1, 1}, [3]bool{true, true, true}, false)
		d := grid.MustDecomp(topology.Dims{8, 8, 8}, topology.Dims{1, 1, 1}, 2)
		eng, err := NewEngine(cart, d, stencil.Laplacian(2, 1), true, OptionsFor(FlatOriginal, 1, 1))
		if err != nil {
			panic(err)
		}
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "engine built for Flat original") {
				panic(fmt.Sprintf("Apply(FlatOptimized) on a flat original engine recovered %v", r))
			}
		}()
		src := []*grid.Grid{eng.NewLocalGrid()}
		dst := []*grid.Grid{eng.NewLocalGrid()}
		eng.Apply(FlatOptimized, dst, src)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSerializedEqualsAsyncExchange(t *testing.T) {
	// The two exchange modes must be numerically indistinguishable.
	j1 := baseJob()
	j1.Approach = FlatOriginal // serialized
	r1, _, err := j1.Verify()
	if err != nil {
		t.Fatal(err)
	}
	j2 := baseJob()
	j2.Approach = FlatOptimized // async
	r2, _, err := j2.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if r1 != 0 || r2 != 0 {
		t.Fatalf("deviations: serialized %g, async %g", r1, r2)
	}
}

func TestMoreGridsThanThreadsDivide(t *testing.T) {
	// Grids not divisible by thread count: split must still cover all.
	j := baseJob()
	j.NumGrids = 7
	j.Approach = HybridMultiple
	j.Threads = 4
	j.Cores = 8
	verifyJob(t, j)
}

func TestFewerGridsThanThreads(t *testing.T) {
	j := baseJob()
	j.NumGrids = 2
	j.Approach = HybridMultiple
	j.Threads = 4
	j.Cores = 4
	verifyJob(t, j)
}
