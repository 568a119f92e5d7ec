package bgpsim

import (
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/stencil"
	"repro/internal/topology"
)

// liveExchange runs one hybrid master-only Engine.Exchange of `grids`
// grids, batched into one message per face, on the live runtime under
// the calibrated network model: one rank per node of the partition
// NetModelFor picks, compute-free virtual clocks. It returns the
// modeled makespan.
func liveExchange(t *testing.T, prm Params, nodes int, global topology.Dims, grids int) time.Duration {
	t.Helper()
	m := NetModelFor(nodes)
	m.Params = prm.NetParams
	m.NoComputeWall = true
	procs := m.Net.Dims
	dec, err := grid.NewDecomp(global, procs, 2)
	if err != nil {
		t.Fatal(err)
	}
	w := mpi.NewWorld(nodes, mpi.ThreadSingle)
	w.SetOpTimeout(60 * time.Second)
	w.SetNetModel(m)
	err = w.Run(func(c *mpi.Comm) {
		cart := c.CartCreate(procs, [3]bool{true, true, true}, true)
		eng, err := core.NewEngine(cart, dec, stencil.Laplacian(2, 1), true,
			core.OptionsFor(core.HybridMasterOnly, grids, 1))
		if err != nil {
			panic(err)
		}
		defer eng.Close()
		gs := make([]*grid.Grid, grids)
		for i := range gs {
			gs[i] = eng.NewLocalGrid()
		}
		eng.Exchange(gs)
	})
	if err != nil {
		t.Fatal(err)
	}
	return w.MaxVirtualTime()
}

// TestLiveTransportMatchesReplay: the live transport and the replay
// price a message with the same code (mpi.NetParams.Inject), so the
// paper's exchange costs the same on both. One master-only exchange of
// a 64^3 grid set, one rank per node, runs live under NetModel and is
// replayed by Simulate with the replay-only costs zeroed (free
// pack/unpack copies, no fork-join) and its compute subtracted. On the
// 8x8x8 torus every node's timeline is identical and the two agree to
// the nanosecond. Mesh partitions are logged, not asserted: the replay
// models one periodic corner node, the live model each rank's own route.
// Both run core.Schedule, but this is one batch of one approach with
// free copies and no compute: the test cannot see the pack/unpack and
// fork-join charges only the replay makes, nor how a multi-batch
// schedule overlaps compute with messages in flight.
func TestLiveTransportMatchesReplay(t *testing.T) {
	prm := DefaultParams()
	prm.CopyBandwidth = math.Inf(1)
	prm.ForkJoin = 0
	global := topology.Dims{64, 64, 64}
	for _, c := range []struct {
		nodes, grids int
		exact        bool
	}{
		{512, 1, true}, {512, 8, true},
		{64, 1, false}, {64, 8, false},
		{8, 1, false}, {8, 8, false},
	} {
		live := liveExchange(t, prm, c.nodes, global, c.grids)
		r, err := Simulate(Workload{GridSize: global, NumGrids: c.grids},
			Config{Cores: CoresPerNode * c.nodes, Approach: core.HybridMasterOnly, BatchSize: c.grids, Params: prm})
		if err != nil {
			t.Fatal(err)
		}
		replay := time.Duration(math.Round((r.Time - r.ComputePerCore) * 1e9))
		t.Logf("%d nodes (%v, torus %v), %d grid(s): live %v, replay %v (live/replay %.2f)",
			c.nodes, r.NodeGrid, r.Torus, c.grids, live, replay, float64(live)/float64(replay))
		if c.exact && live != replay {
			t.Errorf("%d nodes, %d grid(s): live exchange %v, replay %v — the torus must agree to the ns",
				c.nodes, c.grids, live, replay)
		}
	}
}
