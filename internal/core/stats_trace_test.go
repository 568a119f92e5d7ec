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

// tracedRun runs body on a two-rank world with a tracer armed and
// returns the wall-clock profile.
func tracedRun(t *testing.T, body func(c *mpi.Comm)) *trace.Profile {
	t.Helper()
	tr := trace.New(2, 1024)
	w := testWorld(2, mpi.ThreadSingle)
	w.SetTracer(tr)
	if err := w.Run(body); err != nil {
		t.Fatal(err)
	}
	return tr.Profile(trace.Wall)
}

// haloWaits counts the profile's completed exchange waits.
func haloWaits(p *trace.Profile) int64 {
	for _, ps := range p.Phases {
		if ps.Name == "halo.wait" {
			return ps.Count
		}
	}
	return 0
}

// TestStatsWaitsAndSplitTimings drives the split-phase protocol on two
// ranks and checks the wait and split accounting the traced profile
// holds — wait counts, hidden and visible wait time, interior/shell
// compute timings — and the engine's traffic counters.
func TestStatsWaitsAndSplitTimings(t *testing.T) {
	global := topology.Dims{8, 8, 8}
	procs := topology.Dims{1, 1, 2}
	p := tracedRun(t, func(c *mpi.Comm) {
		sink := 0.0
		eng := overlapEngine(c, global, procs, true, OptionsFor(FlatOptimized, 1, 1))
		defer eng.Close()
		gs := []*grid.Grid{eng.NewLocalGrid()}
		for i := 0; i < 3; i++ {
			eng.Run(gs, true, func(Batch, stencil.Region) { sink += spin() })
		}
		if s := eng.Stats(); s.MessagesSent == 0 || s.BytesSent == 0 {
			t.Errorf("traffic counters empty: %+v", s)
		}
		_ = sink
	})
	if haloWaits(p) == 0 {
		t.Error("split-phase run recorded no waits")
	}
	if p.HiddenWaitNs <= 0 {
		t.Errorf("split-phase run hid no wait time: %+v", p)
	}
	if p.InteriorNs <= 0 || p.ShellNs <= 0 {
		t.Errorf("split-phase compute untimed: interior=%d shell=%d", p.InteriorNs, p.ShellNs)
	}
	if eff := p.OverlapEfficiency; eff <= 0 || eff > 1 {
		t.Errorf("overlap efficiency %v outside (0,1]", eff)
	}
}

// TestStatsSerializedHidesNothing checks the serialized baseline
// reports zero hidden wait (its defining property) while still
// counting visible waits.
func TestStatsSerializedHidesNothing(t *testing.T) {
	global := topology.Dims{8, 8, 8}
	procs := topology.Dims{1, 1, 2}
	p := tracedRun(t, func(c *mpi.Comm) {
		eng := overlapEngine(c, global, procs, true, OptionsFor(FlatOriginal, 1, 1))
		defer eng.Close()
		eng.Exchange([]*grid.Grid{eng.NewLocalGrid()})
	})
	if p.HiddenWaitNs != 0 {
		t.Errorf("serialized exchange reported hidden wait %d", p.HiddenWaitNs)
	}
	if haloWaits(p) == 0 {
		t.Error("serialized exchange recorded no waits")
	}
	if p.OverlapEfficiency != 0 {
		t.Errorf("serialized overlap efficiency = %v, want 0", p.OverlapEfficiency)
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
		eng.Run(gs, true, noCompute)
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
