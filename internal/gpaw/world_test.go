package gpaw

import (
	"time"

	"repro/internal/bgpsim"
	"repro/internal/mpi"
)

// testWorld is the world every test of this package runs its ranks on:
// each blocking wait is bounded, so a deadlock fails as a
// *mpi.TimeoutError carrying the pending-receive dump within a minute
// instead of as a go test kill. (Modeled delay is virtual and takes no
// wall time.)
func testWorld(n int, mode mpi.ThreadMode) *mpi.World {
	w := mpi.NewWorld(n, mode)
	w.SetOpTimeout(60 * time.Second)
	return w
}

// runRanks is mpi.Run on a testWorld.
func runRanks(n int, mode mpi.ThreadMode, body func(c *mpi.Comm)) error {
	return testWorld(n, mode).Run(body)
}

// runRanksWithFaults runs body on a testWorld with plan armed.
func runRanksWithFaults(n int, mode mpi.ThreadMode, plan *mpi.FaultPlan, body func(c *mpi.Comm)) error {
	w := testWorld(n, mode)
	w.SetFaultPlan(plan)
	return w.Run(body)
}

// runRanksModeled is mpi.RunModeled on a testWorld.
func runRanksModeled(n int, mode mpi.ThreadMode, m *mpi.NetModel, body func(c *mpi.Comm)) (time.Duration, error) {
	w := testWorld(n, mode)
	w.SetNetModel(m)
	err := w.Run(body)
	return w.MaxVirtualTime(), err
}

// calibratedModel is the BG/P network model for cfg's bands x domain
// world, its ranks placed by cfg.Map; NoComputeWall makes virtual
// makespans exact.
func calibratedModel(cfg DistConfig) *mpi.NetModel {
	m := bgpsim.NetModelFor(max(cfg.Bands, 1) * cfg.Procs.Count())
	m.Coords = NetCoords(cfg, m.Net)
	m.NoComputeWall = true
	return m
}
