package gpaw

import (
	"errors"
	"fmt"
	"hash/crc64"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/topology"
)

// The chaos differential harness: for every solver approach, killing
// any single rank at any checkpointed SCF iteration must yield recovery
// onto the surviving process grid with final energies, eigenvalues,
// iteration counts and solution fields bitwise identical to the
// fault-free (serial) run — and a typed error, never a hang, when
// recovery is disabled.

// chaosWant runs the serial reference SCF the recovered runs are
// compared against.
func chaosWant(t *testing.T, sys System) *SCFResult {
	t.Helper()
	scf := NewSCF(sys)
	scf.Tol = 1e-4
	want, err := scf.Run()
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// chaosKillIters returns the checkpointed iterations the harness kills
// at: the first, the middle and the last iteration of the fault-free
// run.
func chaosKillIters(want *SCFResult) []int {
	iters := []int{1, (want.Iterations + 1) / 2, want.Iterations}
	uniq := iters[:0]
	for _, k := range iters {
		if len(uniq) == 0 || uniq[len(uniq)-1] != k {
			uniq = append(uniq, k)
		}
	}
	return uniq
}

// chaosKillRanks returns the victim ranks exercised at p ranks: the
// first non-root rank and the last rank.
func chaosKillRanks(p int) []int {
	if p < 3 {
		return []int{p - 1}
	}
	return []int{1, p - 1}
}

func TestChaosSCFDifferential(t *testing.T) {
	global := topology.Dims{8, 8, 8}
	sys := scfSystem(global, 0.7)
	want := chaosWant(t, sys)

	ranks := rankCounts(t)
	if len(ranks) == 4 {
		// Default tier-1 sweep: the CI chaos matrix pins single rank
		// counts (including 8) through DIST_RANKS.
		ranks = []int{2, 4}
	}
	for _, p := range ranks {
		if p < 2 {
			continue
		}
		procs := scfLayoutsFor(p)[0]
		if !feasible(global, procs, 2) {
			continue
		}
		for ai, a := range core.Approaches {
			killRanks := chaosKillRanks(p)
			killIters := chaosKillIters(want)
			if (testing.Short() || len(ranks) > 1) && ai > 0 {
				// Full kill matrix on the first approach; the others
				// keep one representative kill so every exchange
				// protocol still sees failure + recovery.
				killRanks = killRanks[:1]
				killIters = killIters[1:2]
			}
			for _, killRank := range killRanks {
				for _, killIt := range killIters {
					store := NewMemStore()
					err := runRanks(p, modeFor(a), func(c *mpi.Comm) {
						ft := FTConfig{
							Store:   store,
							Every:   1,
							Recover: true,
							Configure: func(s *SCF) {
								s.Tol = 1e-4
								s.OnIteration = func(it int) {
									if it == killIt && c.Rank() == killRank {
										c.Fail()
									}
								}
							},
							OnResult: func(d *Dist, res *SCFResult) {
								checkIdentical(t, d, res.Density, want.Density, "chaos SCF density", procs, a)
								checkIdentical(t, d, res.VHartree, want.VHartree, "chaos SCF vH", procs, a)
							},
						}
						cfg := DistConfig{Global: global, Procs: procs, Halo: 2, BC: sys.BC,
							Approach: a, Threads: threadsFor(a), Batch: 2}
						res, err := RunSCFFT(c, cfg, sys, ft)
						if err != nil {
							panic(err)
						}
						if res.TotalEnergy != want.TotalEnergy {
							t.Errorf("p=%d a=%v kill(r=%d,it=%d): energy %.17g, serial %.17g",
								p, a, killRank, killIt, res.TotalEnergy, want.TotalEnergy)
						}
						if res.Iterations != want.Iterations || res.Residual != want.Residual {
							t.Errorf("p=%d a=%v kill(r=%d,it=%d): (it,res)=(%d,%.17g), serial (%d,%.17g)",
								p, a, killRank, killIt, res.Iterations, res.Residual, want.Iterations, want.Residual)
						}
						for i := range res.Eigenvalues {
							if res.Eigenvalues[i] != want.Eigenvalues[i] {
								t.Errorf("p=%d a=%v kill(r=%d,it=%d): eig %d = %.17g, serial %.17g",
									p, a, killRank, killIt, i, res.Eigenvalues[i], want.Eigenvalues[i])
							}
						}
					})
					if err != nil {
						t.Errorf("p=%d a=%v kill(r=%d,it=%d): %v", p, a, killRank, killIt, err)
					}
				}
			}
		}
	}
}

// TestChaosNoRecoveryTypedError: with recovery disabled, every survivor
// gets the typed rank failure as an error — never a hang (the operation
// timeout is armed as a backstop; it firing would fail the run with a
// pending-op dump).
func TestChaosNoRecoveryTypedError(t *testing.T) {
	global := topology.Dims{8, 8, 8}
	sys := scfSystem(global, 0.7)
	const p = 4
	procs := scfLayoutsFor(p)[0]
	store := NewMemStore()
	err := runRanks(p, mpi.ThreadSingle, func(c *mpi.Comm) {
		ft := FTConfig{
			Store: store, Every: 1, Recover: false,
			Configure: func(s *SCF) {
				s.Tol = 1e-4
				s.OnIteration = func(it int) {
					if it == 2 && c.Rank() == 1 {
						c.Fail()
					}
				}
			},
		}
		cfg := DistConfig{Global: global, Procs: procs, Halo: 2, BC: sys.BC,
			Approach: core.FlatOptimized, Threads: 1, Batch: 2}
		_, err := RunSCFFT(c, cfg, sys, ft)
		var rf *mpi.ErrRankFailed
		if !errors.As(err, &rf) {
			t.Errorf("rank %d: error %v, want a *mpi.ErrRankFailed", c.Rank(), err)
		} else if rf.Rank != 1 {
			t.Errorf("rank %d: failure blames rank %d, want 1", c.Rank(), rf.Rank)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointRestartBitIdentical: a checkpoint written on one
// process grid resumes on another — fewer ranks (shrink) and more
// ranks (grow) — with results bitwise identical to the serial run. It
// resumes from a step whose Pulay ring is still filling (step 3: two
// pairs of three) and from one whose ring has wrapped (step 5: the
// oldest pair was dropped for the newest, and the Hartree solve being
// resumed is warm-started from a potential several steps old).
func TestCheckpointRestartBitIdentical(t *testing.T) {
	global := topology.Dims{8, 8, 8}
	sys := scfSystem(global, 0.7)
	want := chaosWant(t, sys)

	writeProcs := topology.Dims{1, 2, 2}
	store := NewMemStore()
	if err := runRanks(4, mpi.ThreadSingle, func(c *mpi.Comm) {
		d, err := NewDist(c, DistConfig{Global: global, Procs: writeProcs, Halo: 2, BC: sys.BC,
			Approach: core.FlatOptimized, Threads: 1, Batch: 2})
		if err != nil {
			panic(err)
		}
		defer d.Close()
		s := NewDistSCF(d, sys)
		s.Tol = 1e-4
		s.Ckpt = &Checkpointer{Store: store, Every: 1}
		if _, err := s.Run(); err != nil {
			panic(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	steps, err := store.Steps()
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != want.Iterations {
		t.Fatalf("%d committed steps, want one per iteration (%d)", len(steps), want.Iterations)
	}
	for _, resume := range []struct{ step, hist int }{
		{pulayHistory, pulayHistory - 1}, // a partial ring
		{pulayHistory + 2, pulayHistory}, // a wrapped ring
	} {
		if resume.step >= want.Iterations {
			t.Fatalf("resume from step %d of %d: nothing left to run", resume.step, want.Iterations)
		}
		for _, tc := range []struct {
			ranks int
			procs topology.Dims
		}{
			{2, topology.Dims{1, 1, 2}}, // shrink
			{8, topology.Dims{2, 2, 2}}, // grow
		} {
			if err := runRanks(tc.ranks, mpi.ThreadSingle, func(c *mpi.Comm) {
				d, err := NewDist(c, DistConfig{Global: global, Procs: tc.procs, Halo: 2, BC: sys.BC,
					Approach: core.FlatOptimized, Threads: 1, Batch: 2})
				if err != nil {
					panic(err)
				}
				defer d.Close()
				rs, err := RestoreSCF(d, store, resume.step)
				if err != nil {
					panic(err)
				}
				if rs.mix.hist != resume.hist {
					t.Errorf("step %d restored %d mixer pairs, want %d", resume.step, rs.mix.hist, resume.hist)
				}
				s := NewDistSCF(d, sys)
				s.Tol = 1e-4
				res, err := s.Resume(rs)
				if err != nil {
					panic(err)
				}
				if res.TotalEnergy != want.TotalEnergy || res.Iterations != want.Iterations ||
					res.Residual != want.Residual {
					t.Errorf("resume on %v from step %d: (E,it,res)=(%.17g,%d,%.17g), serial (%.17g,%d,%.17g)",
						tc.procs, resume.step, res.TotalEnergy, res.Iterations, res.Residual,
						want.TotalEnergy, want.Iterations, want.Residual)
				}
				checkIdentical(t, d, res.Density, want.Density, "resumed density", tc.procs, core.FlatOptimized)
				checkIdentical(t, d, res.VHartree, want.VHartree, "resumed vH", tc.procs, core.FlatOptimized)
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestCheckpointStores covers both Store implementations: round trip,
// uncommitted steps staying invisible, and corruption detection.
func TestCheckpointStores(t *testing.T) {
	dir, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range []Store{NewMemStore(), dir} {
		box := topology.Dims{4, 4, 4}
		fields := []*grid.Grid{grid.NewDims(box, 2), grid.NewDims(box, 0), grid.NewDims(box, 1)}
		fields[0].Set(0, 1, 3, 42) // interior point 7 in x-major order
		data := appendShard(nil, []float64{1.5}, fields)
		// honest is the manifest of a one-shard step holding data.
		honest := func(step int, data []byte) *manifest {
			return &manifest{Step: step, States: 1, Global: box, Spacing: 0.5, BC: Dirichlet,
				Shards: []manifestShard{{Local: box, Bands: [2]int{0, 1}, Sum: crc64.Checksum(data, crcTable)}}}
		}
		if err := st.PutShard(3, 0, data); err != nil {
			t.Fatal(err)
		}
		if steps, _ := st.Steps(); len(steps) != 0 {
			t.Errorf("%T: uncommitted step visible: %v", st, steps)
		}
		// Step 3's manifest lists no entry for its one shard: the reader
		// must not take that as "nothing to verify".
		empty := honest(3, data)
		empty.Shards = nil
		if err := st.Commit(3, empty.encode()); err != nil {
			t.Fatal(err)
		}
		if steps, _ := st.Steps(); len(steps) != 1 || steps[0] != 3 {
			t.Errorf("%T: committed steps %v, want [3]", st, steps)
		}
		if back, err := st.GetShard(3, 0); err != nil || !slices.Equal(back, data) {
			t.Errorf("%T: round trip mangled the shard (%v)", st, err)
		}
		// Step 4 is the same shard under an honest manifest; step 5 a
		// shard a field short of its band slice; step 6 the honest shard
		// under a manifest claiming two states; steps 7-9 under manifests
		// naming versions 2-4; step 10 under an entry naming another band
		// slice; step 11 under the JSON manifest version 4 wrote; step 12
		// a shard with one byte flipped under its honest manifest.
		d := selfDist(box, 2, Dirichlet)
		short := appendShard(nil, []float64{1.5}, fields[:2])
		flipped := slices.Clone(data)
		flipped[len(flipped)/2] ^= 0x40
		twoStates, otherSlice := honest(6, data), honest(10, data)
		twoStates.States, otherSlice.Shards[0].Bands = 2, [2]int{0, 0}
		steps := map[int]struct{ data, man []byte }{4: {data, honest(4, data).encode()},
			5: {short, honest(5, short).encode()}, 6: {data, twoStates.encode()}, 10: {data, otherSlice.encode()},
			11: {data, jsonManifest(4)}, 12: {flipped, honest(12, data).encode()}}
		for step := 7; step <= 9; step++ {
			steps[step] = struct{ data, man []byte }{data, reframed(honest(step, data).encode(), 1, uint64(step-5))}
		}
		for step, c := range steps {
			if err := st.PutShard(step, 0, c.data); err != nil {
				t.Fatal(err)
			}
			if err := st.Commit(step, c.man); err != nil {
				t.Fatal(err)
			}
		}
		for step := 7; step <= 9; step++ {
			if _, err := RestoreSCF(d, st, step); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("unsupported version %d", step-5)) {
				t.Errorf("%T: version-%d manifest: %v, want unsupported version %d", st, step-5, err, step-5)
			}
		}
		for step := 3; step <= 12; step++ {
			corrupt := step != 4
			rs, err := RestoreSCF(d, st, step)
			if corrupt != errors.Is(err, ErrCheckpointCorrupt) || !corrupt && err != nil {
				t.Errorf("%T step %d: RestoreSCF = %v, want ErrCheckpointCorrupt: %v", st, step, err, corrupt)
			}
			if !corrupt && (rs == nil || rs.Iteration != 4 || rs.N.InteriorSlice()[7] != 42 || rs.Eig[0] != 1.5) {
				t.Errorf("%T step %d: restore of the honest generation mangled the state", st, step)
			}
		}
		// Recovery walks back from step 12 past every corrupt generation
		// to step 4; steps 7-9 and 11 fail at the manifest, before any
		// shard.
		walk := &countingStore{Store: st}
		if rs, err := latestRestart(d, walk, 60); err != nil || rs == nil || !slices.Equal(walk.steps, []int{12, 10, 6, 5, 4}) {
			t.Errorf("%T: recovery read shards of steps %v (%v), want [12 10 6 5 4]", st, walk.steps, err)
		}
	}
}

// TestChooseProcs pins the deterministic shrink-layout choices the
// recovery path depends on.
func TestChooseProcs(t *testing.T) {
	global := topology.Dims{8, 8, 8}
	for _, tc := range []struct {
		n      int
		procs  topology.Dims
		active int
	}{
		{1, topology.Dims{1, 1, 1}, 1},
		{3, topology.Dims{1, 1, 3}, 3},
		{7, topology.Dims{1, 2, 3}, 6}, // 7 has no feasible triple: halo 2 forbids a 7-way split of 8
		{8, topology.Dims{2, 2, 2}, 8},
	} {
		procs, active := chooseProcs(global, tc.n, 2)
		if procs != tc.procs || active != tc.active {
			t.Errorf("chooseProcs(%v, %d): (%v, %d), want (%v, %d)",
				global, tc.n, procs, active, tc.procs, tc.active)
		}
	}
}
