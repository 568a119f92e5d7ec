package core

import (
	"testing"
	"time"

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
	if eff := tr.Profile(trace.Wall).OverlapEfficiency; eff <= 0 {
		t.Errorf("traced split-phase run reports overlap efficiency %v, want > 0", eff)
	}
}

// TestProfileReadsOneClock runs the double-buffered split-phase protocol
// under a network model whose virtual clocks advance only by message
// costs and explicit compute charges, and checks that each clock's
// profile is made of that clock's span times alone: the wait and split
// rows equal the halo.wait / compute.interior / compute.shell totals,
// and the hidden wait equals an in-order pairing of each rank's posts
// and waits. Under the virtual clock the interior charges are what the
// messages hid behind, so they bound the hidden wait from below.
func TestProfileReadsOneClock(t *testing.T) {
	tr := splitPhaseRun(t, &mpi.NetModel{
		Params: mpi.NetParams{
			MsgLatency: 5e-6, PostCost: 1e-7, DMAPerMsg: 1e-7, LinkBandwidth: 1e9,
		},
		NoComputeWall: true,
	})
	for _, clock := range []trace.Clock{trace.Virtual, trace.Wall} {
		p := tr.Profile(clock)
		total := func(name string) int64 {
			for _, ps := range p.Phases {
				if ps.Name == name {
					return ps.TotalNs
				}
			}
			return 0
		}
		if p.VisibleWaitNs != total(trace.HaloWait) || p.InteriorNs != total(trace.ComputeInterior) ||
			p.ShellNs != total(trace.ComputeShell) {
			t.Errorf("%v clock: visible/interior/shell %d/%d/%d, span totals %d/%d/%d", clock,
				p.VisibleWaitNs, p.InteriorNs, p.ShellNs,
				total(trace.HaloWait), total(trace.ComputeInterior), total(trace.ComputeShell))
		}
		var hidden int64
		for r := 0; r < splitRanks; r++ {
			var ends []int64
			for _, e := range tr.RankEvents(r) {
				s, d := e.Start, e.Dur
				if clock == trace.Virtual {
					s, d = e.VStart, e.VDur
				}
				switch e.Name {
				case trace.HaloPost:
					ends = append(ends, s+d)
				case trace.HaloWait:
					hidden += s - ends[0]
					ends = ends[1:]
				}
			}
		}
		if p.HiddenWaitNs != hidden {
			t.Errorf("%v clock: hidden wait %d, in-order pairing of the spans gives %d", clock, p.HiddenWaitNs, hidden)
		}
	}
	if p := tr.Profile(trace.Virtual); p.HiddenWaitNs < splitRanks*splitGrids*int64(splitCharge) {
		t.Errorf("virtual hidden wait %d ns, below the %d ns of interior compute the messages flew under",
			p.HiddenWaitNs, splitRanks*splitGrids*int64(splitCharge))
	}
}

// TestProfileUnmodeledVirtualEmpty runs the same protocol with no
// network model: the virtual clock never ran, so the virtual profile's
// wait and split rows are zero, while the wall profile still times the
// compute halves.
func TestProfileUnmodeledVirtualEmpty(t *testing.T) {
	tr := splitPhaseRun(t, nil)
	if p := tr.Profile(trace.Virtual); p.HiddenWaitNs != 0 || p.VisibleWaitNs != 0 ||
		p.InteriorNs != 0 || p.ShellNs != 0 {
		t.Errorf("unmodeled virtual profile: hidden/visible/interior/shell %d/%d/%d/%d, want all 0",
			p.HiddenWaitNs, p.VisibleWaitNs, p.InteriorNs, p.ShellNs)
	}
	if p := tr.Profile(trace.Wall); p.InteriorNs <= 0 || p.ShellNs <= 0 {
		t.Errorf("unmodeled wall profile: interior/shell %d/%d, want > 0", p.InteriorNs, p.ShellNs)
	}
}

const splitRanks, splitGrids, splitCharge = 2, 3, 50 * time.Microsecond

// splitPhaseRun runs splitGrids grids through the double-buffered
// split-phase protocol on splitRanks traced ranks, under model when it
// is non-nil, charging splitCharge of modeled compute per interior and
// spinning in both compute halves, and returns the tracer.
func splitPhaseRun(t *testing.T, model *mpi.NetModel) *trace.Tracer {
	t.Helper()
	global := topology.Dims{8, 8, 8}
	procs := topology.Dims{1, 1, splitRanks}
	tr := trace.New(splitRanks, 1024)
	w := testWorld(splitRanks, mpi.ThreadSingle)
	if model != nil {
		w.SetNetModel(model)
	}
	w.SetTracer(tr)
	err := w.Run(func(c *mpi.Comm) {
		eng := overlapEngine(c, global, procs, true, OptionsFor(FlatOptimized, 1, 1))
		defer eng.Close()
		gs := make([]*grid.Grid, splitGrids)
		for i := range gs {
			gs[i] = eng.NewLocalGrid()
		}
		sink := 0.0
		eng.Run(gs, true, func(_ Batch, r stencil.Region) {
			if r == stencil.Interior {
				c.Compute(splitCharge)
			}
			sink += spin()
		})
		_ = sink
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}
