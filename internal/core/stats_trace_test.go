package core

import (
	"testing"

	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/stencil"
	"repro/internal/topology"
	"repro/internal/trace"
)

// spin burns a little CPU so wall-clock phase timings are measurably
// positive.
func spin() float64 {
	s := 0.0
	for i := 0; i < 20000; i++ {
		s += float64(i) * 1e-9
	}
	return s
}

// TestStatsWaitsAndSplitTimings drives the split-phase protocol on two
// ranks and checks the extended Stats fields: wait counts, hidden and
// visible wait time, and interior/shell compute timings.
func TestStatsWaitsAndSplitTimings(t *testing.T) {
	global := topology.Dims{8, 8, 8}
	procs := topology.Dims{1, 1, 2}
	err := runRanks(2, mpi.ThreadSingle, func(c *mpi.Comm) {
		sink := 0.0
		eng := overlapEngine(c, global, procs, true, OptionsFor(FlatOptimized, 1, 1))
		defer eng.Close()
		gs := []*grid.Grid{eng.NewLocalGrid()}
		for i := 0; i < 3; i++ {
			eng.Run(FlatOptimized, gs, true, func(Batch, stencil.Region) { sink += spin() })
		}
		s := eng.Stats()
		if s.Waits == 0 {
			t.Error("split-phase run recorded no waits")
		}
		if s.HiddenWaitNs <= 0 {
			t.Errorf("split-phase run hid no wait time: %+v", s)
		}
		if s.InteriorNs <= 0 || s.ShellNs <= 0 {
			t.Errorf("split-phase compute untimed: interior=%d shell=%d", s.InteriorNs, s.ShellNs)
		}
		if eff := s.OverlapEfficiency(); eff <= 0 || eff > 1 {
			t.Errorf("overlap efficiency %v outside (0,1]", eff)
		}
		if s.MessagesSent == 0 || s.BytesSent == 0 {
			t.Errorf("traffic counters empty: %+v", s)
		}
		_ = sink
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestStatsSerializedHidesNothing checks the serialized baseline
// reports zero hidden wait (its defining property) while still
// counting visible waits.
func TestStatsSerializedHidesNothing(t *testing.T) {
	global := topology.Dims{8, 8, 8}
	procs := topology.Dims{1, 1, 2}
	err := runRanks(2, mpi.ThreadSingle, func(c *mpi.Comm) {
		eng := overlapEngine(c, global, procs, true, OptionsFor(FlatOriginal, 1, 1))
		defer eng.Close()
		gs := []*grid.Grid{eng.NewLocalGrid()}
		eng.Exchange(gs)
		s := eng.Stats()
		if s.HiddenWaitNs != 0 {
			t.Errorf("serialized exchange reported hidden wait %d", s.HiddenWaitNs)
		}
		if s.Waits == 0 {
			t.Error("serialized exchange recorded no waits")
		}
		if s.OverlapEfficiency() != 0 {
			t.Errorf("serialized overlap efficiency = %v, want 0", s.OverlapEfficiency())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestEngineTraceEvents checks the engine emits halo post/wait spans
// and interior/shell regions when a tracer is armed on the world.
func TestEngineTraceEvents(t *testing.T) {
	global := topology.Dims{8, 8, 8}
	procs := topology.Dims{1, 1, 2}
	tr := trace.New(2, 1024)
	w := testWorld(2, mpi.ThreadSingle)
	w.SetTracer(tr)
	err := w.Run(func(c *mpi.Comm) {
		eng := overlapEngine(c, global, procs, true, OptionsFor(FlatOptimized, 1, 1))
		defer eng.Close()
		gs := []*grid.Grid{eng.NewLocalGrid()}
		eng.Run(FlatOptimized, gs, true, noCompute)
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 2; r++ {
		names := map[string]int{}
		for _, e := range tr.RankEvents(r) {
			names[e.Name]++
		}
		for _, want := range []string{"halo.post", "halo.wait", "compute.interior", "compute.shell", "mpi.send"} {
			if names[want] == 0 {
				t.Errorf("rank %d track lacks %q events: %v", r, want, names)
			}
		}
	}
	if tr.OverlapEfficiency() <= 0 {
		t.Errorf("traced split-phase run reports overlap efficiency %v, want > 0", tr.OverlapEfficiency())
	}
}
