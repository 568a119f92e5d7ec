package gpaw

import (
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/topology"
)

// countingStore is one rank's view of a shared Store: it records the
// shard and the step of every shard GetShard hands back and, when fail
// is set, fails every GetShard with it.
type countingStore struct {
	Store
	fetched, steps []int
	fail           error
}

func (s *countingStore) GetShard(step, rank int) ([]byte, error) {
	if s.fail != nil {
		return nil, s.fail
	}
	data, err := s.Store.GetShard(step, rank)
	s.fetched, s.steps = append(s.fetched, rank), append(s.steps, step)
	return data, err
}

// errStoreFault is the failure faultyStore injects.
var errStoreFault = errors.New("injected store failure")

// faultyStore is a shared Store that fails with errStoreFault the
// PutShard of rank putRank's shard (-1: none), every Commit when commit
// is set, and every Steps when steps is set.
type faultyStore struct {
	Store
	putRank       int
	commit, steps bool
}

func (s *faultyStore) PutShard(step, rank int, data []byte) error {
	if rank == s.putRank {
		return errStoreFault
	}
	return s.Store.PutShard(step, rank, data)
}

func (s *faultyStore) Commit(step int, manifest []byte) error {
	if s.commit {
		return errStoreFault
	}
	return s.Store.Commit(step, manifest)
}

func (s *faultyStore) Steps() ([]int, error) {
	if s.steps {
		return nil, errStoreFault
	}
	return s.Store.Steps()
}

// agreedErrors runs body on every rank of an n-rank world whose blocking
// operations time out after 10 s and returns each rank's error. A rank
// that panics or blocks (a *mpi.TimeoutError panics) fails the test.
func agreedErrors(t *testing.T, n int, body func(c *mpi.Comm) error) []error {
	t.Helper()
	errs := make([]error, n)
	w := mpi.NewWorld(n, mpi.ThreadSingle)
	w.SetOpTimeout(10 * time.Second)
	if err := w.Run(func(c *mpi.Comm) { errs[c.Rank()] = body(c) }); err != nil {
		t.Fatalf("a rank panicked or blocked: %v", err)
	}
	return errs
}

// checkAgreed holds every rank's error to the typed one want, and the
// error of rank own (-1: none) also to errStoreFault.
func checkAgreed(t *testing.T, what string, errs []error, want error, own int) {
	t.Helper()
	for r, err := range errs {
		var to *mpi.TimeoutError
		if !errors.Is(err, want) || errors.As(err, &to) || (r == own) != errors.Is(err, errStoreFault) {
			t.Errorf("%s: rank %d returned %v, want %v", what, r, err, want)
		}
	}
}

// TestSaveVerdictAgreed: a shard the store refuses on any one rank, or
// a commit refused at world rank 0, fails every rank's save with
// ErrCheckpointUnwritable — none is left waiting in the commit gather or
// walks on into the next iteration — and commits nothing.
func TestSaveVerdictAgreed(t *testing.T) {
	global := topology.Dims{8, 8, 8}
	sys := scfSystem(global, 0.7)
	const ranks = 2
	for _, tc := range []struct {
		what string
		st   faultyStore
		own  int // the rank that sees the store fail
	}{
		{"rank 0's shard refused", faultyStore{putRank: 0}, 0},
		{"rank 1's shard refused", faultyStore{putRank: 1}, 1},
		{"the commit refused", faultyStore{putRank: -1, commit: true}, 0},
	} {
		mem := NewMemStore()
		tc.st.Store = mem
		errs := agreedErrors(t, ranks, func(c *mpi.Comm) error {
			d, err := NewDist(c, DistConfig{Global: global, Procs: topology.Dims{1, 1, ranks}, Halo: 2, BC: sys.BC,
				Approach: core.FlatOptimized, Threads: 1, Batch: 2})
			if err != nil {
				return err
			}
			defer d.Close()
			s := NewDistSCF(d, sys)
			s.Tol = 1e-4
			s.Ckpt = &Checkpointer{Store: &tc.st, Every: 1}
			_, err = s.Run()
			return err
		})
		checkAgreed(t, tc.what, errs, ErrCheckpointUnwritable, tc.own)
		if steps, _ := mem.Steps(); len(steps) != 0 {
			t.Errorf("%s: steps %v committed, want none", tc.what, steps)
		}
	}
}

// TestStepsFailureAgreed: a store that cannot list its committed steps
// to world rank 0 fails every rank's recovery with
// ErrCheckpointUnreadable; no rank reads rank 0's outcome broadcast as
// its step pick.
func TestStepsFailureAgreed(t *testing.T) {
	global := topology.Dims{8, 8, 8}
	sys := scfSystem(global, 0.7)
	st := &faultyStore{Store: NewMemStore(), putRank: -1, steps: true}
	errs := agreedErrors(t, 2, func(c *mpi.Comm) error {
		cfg := DistConfig{Global: global, Procs: topology.Dims{1, 1, 2}, Halo: 2, BC: sys.BC,
			Approach: core.FlatOptimized, Threads: 1, Batch: 2}
		_, err := RunSCFFT(c, cfg, sys, FTConfig{Store: st, Every: 1, Recover: true,
			Configure: func(s *SCF) { s.Tol = 1e-4 }})
		return err
	})
	checkAgreed(t, "Steps failing", errs, ErrCheckpointUnreadable, 0)
}

// bandCheckpoint runs the SCF of sys on 2 bands x 2x2x1 ranks,
// checkpointing every iteration into a new MemStore, and returns it.
func bandCheckpoint(t *testing.T, sys System) *MemStore {
	t.Helper()
	store := NewMemStore()
	runBand(t, sys.Dims, topology.Dims{2, 2, 1}, 2, sys.BC, core.FlatOptimized, func(d *Dist) {
		s := NewDistSCF(d, sys)
		s.Tol = 1e-4
		s.Ckpt = &Checkpointer{Store: store, Every: 1}
		if _, err := s.Run(); err != nil {
			panic(err)
		}
	})
	return store
}

// TestRestoreReadsOnlyItsShards: a checkpoint written from 2 bands x
// 2x2x1 ranks and restored on 1x2x2 ranks costs each rank 4 of the 8
// shards — the two boxes its sub-domain meets, each in both band
// slices — and restored on the writing layout exactly its own shard.
// Both resumed runs match the serial one bit for bit.
func TestRestoreReadsOnlyItsShards(t *testing.T) {
	global := topology.Dims{8, 8, 8}
	sys := scfSystem(global, 0.7)
	want := chaosWant(t, sys)
	store := bandCheckpoint(t, sys)
	const step = 3
	for _, tc := range []struct {
		bands int
		procs topology.Dims
	}{
		{1, topology.Dims{1, 2, 2}},
		{2, topology.Dims{2, 2, 1}},
	} {
		fetched := make([][]int, tc.bands*tc.procs.Count())
		runBand(t, global, tc.procs, tc.bands, sys.BC, core.FlatOptimized, func(d *Dist) {
			st := &countingStore{Store: store}
			rs, err := RestoreSCF(d, st, step)
			if err != nil {
				panic(err)
			}
			fetched[d.World.Rank()] = st.fetched
			s := NewDistSCF(d, sys)
			s.Tol = 1e-4
			res, err := s.Resume(rs)
			if err != nil {
				panic(err)
			}
			if res.TotalEnergy != want.TotalEnergy || res.Iterations != want.Iterations || res.Residual != want.Residual {
				t.Errorf("resume on %d bands x %v: (E,it,res)=(%.17g,%d,%.17g), serial (%.17g,%d,%.17g)",
					tc.bands, tc.procs, res.TotalEnergy, res.Iterations, res.Residual,
					want.TotalEnergy, want.Iterations, want.Residual)
			}
			checkIdentical(t, d, res.Density, want.Density, "resumed density", tc.procs, core.FlatOptimized)
		})
		for r, got := range fetched {
			if tc.bands == 1 && len(got) != 4 {
				t.Errorf("1 band x %v, rank %d fetched shards %v, want 4 of 8", tc.procs, r, got)
			}
			if tc.bands == 2 && !slices.Equal(got, []int{r}) {
				t.Errorf("the writing layout's rank %d fetched shards %v, want its own", r, got)
			}
		}
	}
}

// TestResumeRefusesOtherSystem: a checkpoint of a Dirichlet run at
// h = 0.7 is a step that a periodic Dist of the same grid cannot take —
// every rank refuses it, in the agreed class that is neither corrupt nor
// unreadable — and Resume of a system at h = 1.4 refuses it too.
func TestResumeRefusesOtherSystem(t *testing.T) {
	global := topology.Dims{8, 8, 8}
	store := bandCheckpoint(t, scfSystem(global, 0.7))
	const step = 3
	errs := agreedErrors(t, 4, func(c *mpi.Comm) error {
		d, err := NewDist(c, DistConfig{Global: global, Procs: topology.Dims{1, 2, 2}, Halo: 2, BC: Periodic,
			Approach: core.FlatOptimized, Threads: 1, Batch: 2})
		if err != nil {
			return err
		}
		defer d.Close()
		_, err = RestoreSCF(d, store, step)
		return err
	})
	for r, err := range errs {
		if err == nil || errors.Is(err, ErrCheckpointCorrupt) || errors.Is(err, ErrCheckpointUnreadable) {
			t.Errorf("periodic restore of a Dirichlet step: rank %d returned %v, want a step it cannot take", r, err)
		}
	}
	rs, err := RestoreSCF(selfDist(global, 2, Dirichlet), store, step)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSCF(scfSystem(global, 1.4)).Resume(rs); err == nil {
		t.Error("resume at h = 1.4 of a checkpoint at h = 0.7 succeeded")
	}
}

// TestFetchSet pins the choice on a manifest of two boxes, each written
// by two band groups: a band slice takes the shards whose slices meet
// it, and an empty one takes each box's first shard, for the fields
// every band group holds.
func TestFetchSet(t *testing.T) {
	entry := func(x, lo, hi int) manifestShard {
		return manifestShard{Off: topology.Coord{x, 0, 0}, Local: topology.Dims{4, 8, 8}, Bands: [2]int{lo, hi}}
	}
	man := &manifest{Shards: []manifestShard{entry(0, 0, 1), entry(4, 0, 1), entry(0, 1, 2), entry(4, 1, 2)}}
	for _, tc := range []struct {
		off    topology.Coord
		local  topology.Dims
		lo, hi int
		want   []fetch
	}{
		{topology.Coord{0, 0, 0}, topology.Dims{8, 8, 4}, 0, 2, []fetch{{0, true}, {1, true}, {2, false}, {3, false}}},
		{topology.Coord{0, 0, 0}, topology.Dims{8, 8, 4}, 1, 2, []fetch{{2, true}, {3, true}}},
		{topology.Coord{4, 0, 0}, topology.Dims{4, 8, 8}, 0, 1, []fetch{{1, true}}},
		{topology.Coord{0, 0, 0}, topology.Dims{8, 8, 4}, 2, 2, []fetch{{0, true}, {1, true}}},
		{topology.Coord{2, 0, 0}, topology.Dims{2, 8, 8}, 1, 1, []fetch{{0, true}}},
	} {
		if got := man.fetchSet(tc.off, tc.local, tc.lo, tc.hi); !slices.Equal(got, tc.want) {
			t.Errorf("sub-domain %v at %v, band slice [%d, %d): fetch %v, want %v", tc.local, tc.off, tc.lo, tc.hi, got, tc.want)
		}
	}
}

// TestRestoreVerdictAgreed: a fault that only some restoring ranks see
// fails every rank with the same typed error, and none is left waiting.
// A store that cannot hand back shards on one rank fails every rank with
// ErrCheckpointUnreadable (the failing rank's error also wraps the
// store's); a corrupt shard that only two of four ranks fetch fails
// every rank with ErrCheckpointCorrupt. The world's operation timeout
// is short, so a rank that blocks fails the test rather than hangs it.
func TestRestoreVerdictAgreed(t *testing.T) {
	global := topology.Dims{8, 8, 8}
	sys := scfSystem(global, 0.7)
	store := bandCheckpoint(t, sys)
	const step = 3
	procs := topology.Dims{1, 2, 2}
	injected := errors.New("injected store failure")
	restore := func(failRank int) ([]error, [][]int) {
		errs, fetched := make([]error, procs.Count()), make([][]int, procs.Count())
		w := testWorld(procs.Count(), mpi.ThreadSingle)
		w.SetOpTimeout(10 * time.Second)
		if err := w.Run(func(c *mpi.Comm) {
			d, err := NewDist(c, DistConfig{Global: global, Procs: procs, Halo: 2, BC: sys.BC,
				Approach: core.FlatOptimized, Threads: 1, Batch: 2})
			if err != nil {
				panic(err)
			}
			defer d.Close()
			st := &countingStore{Store: store}
			if c.Rank() == failRank {
				st.fail = injected
			}
			_, errs[c.Rank()] = RestoreSCF(d, st, step)
			fetched[c.Rank()] = st.fetched
		}); err != nil {
			t.Fatalf("restore with rank %d's store failing: %v", failRank, err)
		}
		return errs, fetched
	}

	errs, _ := restore(2)
	for r, err := range errs {
		if !errors.Is(err, ErrCheckpointUnreadable) || (r == 2) != errors.Is(err, injected) {
			t.Errorf("rank 2's store failing: rank %d returned %v, want ErrCheckpointUnreadable", r, err)
		}
	}

	if err := store.Corrupt(step, 0, 1000); err != nil {
		t.Fatal(err)
	}
	errs, fetched := restore(-1)
	readers := 0
	for r, err := range errs {
		if slices.Contains(fetched[r], 0) {
			readers++
		}
		if !errors.Is(err, ErrCheckpointCorrupt) {
			t.Errorf("shard 0 corrupt: rank %d returned %v, want ErrCheckpointCorrupt", r, err)
		}
	}
	if readers == 0 || readers == len(errs) {
		t.Errorf("%d of %d ranks fetched the corrupt shard, want some but not all", readers, len(errs))
	}
}

// TestRestoreErrorClassAgreed: every rank's error is of the agreed
// class, which recovery's fall-back reads. With shard 0 corrupt, a rank
// whose own store fails returns ErrCheckpointCorrupt like the others, not
// its own ErrCheckpointUnreadable — whichever rank it is.
func TestRestoreErrorClassAgreed(t *testing.T) {
	global := topology.Dims{8, 8, 8}
	sys := scfSystem(global, 0.7)
	store := bandCheckpoint(t, sys)
	const step = 3
	if err := store.Corrupt(step, 0, 1000); err != nil {
		t.Fatal(err)
	}
	procs := topology.Dims{1, 2, 2}
	for failRank := range procs.Count() {
		errs := agreedErrors(t, procs.Count(), func(c *mpi.Comm) error {
			d, err := NewDist(c, DistConfig{Global: global, Procs: procs, Halo: 2, BC: sys.BC,
				Approach: core.FlatOptimized, Threads: 1, Batch: 2})
			if err != nil {
				return err
			}
			defer d.Close()
			st := &countingStore{Store: store}
			if c.Rank() == failRank {
				st.fail = errStoreFault
			}
			_, err = RestoreSCF(d, st, step)
			return err
		})
		for r, err := range errs {
			if !errors.Is(err, ErrCheckpointCorrupt) || errors.Is(err, ErrCheckpointUnreadable) {
				t.Errorf("rank %d's store failing, shard 0 corrupt: rank %d returned %v, want ErrCheckpointCorrupt alone", failRank, r, err)
			}
		}
	}
}

// TestDirStoreSyncsStoreDir: creating a step's directory syncs the store
// directory that holds it, once, whichever of PutShard and Commit
// creates it, and dropping a step syncs the store directory after the
// removal — otherwise a committed generation could vanish on power loss.
func TestDirStoreSyncsStoreDir(t *testing.T) {
	root := t.TempDir()
	st, err := NewDirStore(root)
	if err != nil {
		t.Fatal(err)
	}
	var synced []string
	st.synced = func(dir string) { synced = append(synced, dir) }
	step := func(n int) string { return filepath.Join(root, fmt.Sprintf("step-%06d", n)) }
	for _, tc := range []struct {
		what string
		op   func() error
		want []string
	}{
		{"the first shard of step 1", func() error { return st.PutShard(1, 0, []byte("a")) }, []string{root, step(1)}},
		{"the second shard of step 1", func() error { return st.PutShard(1, 1, []byte("b")) }, []string{step(1)}},
		{"the commit of step 1", func() error { return st.Commit(1, []byte("{}")) }, []string{step(1)}},
		{"a commit creating step 2", func() error { return st.Commit(2, []byte("{}")) }, []string{root, step(2)}},
		{"the drop of step 1", func() error { return st.Drop(1) }, []string{step(1), root}},
	} {
		synced = nil
		if err := tc.op(); err != nil {
			t.Fatalf("%s: %v", tc.what, err)
		}
		if !slices.Equal(synced, tc.want) {
			t.Errorf("%s synced %v, want %v", tc.what, synced, tc.want)
		}
	}
	if steps, err := st.Steps(); err != nil || !slices.Equal(steps, []int{2}) {
		t.Errorf("steps %v (%v), want [2]", steps, err)
	}
}
