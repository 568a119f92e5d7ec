package mpi

import "time"

// testWorld is the world every test of this package runs its ranks on
// unless it sets an op timeout of its own: each blocking wait is
// bounded, so a deadlock fails as a *TimeoutError carrying the
// pending-receive dump within a minute instead of as a go test kill.
// (Modeled delay is virtual and takes no wall time.)
func testWorld(n int, mode ThreadMode) *World {
	w := NewWorld(n, mode)
	w.SetOpTimeout(60 * time.Second)
	return w
}

// runRanks is Run on a testWorld.
func runRanks(n int, mode ThreadMode, body func(c *Comm)) error {
	return testWorld(n, mode).Run(body)
}

// runRanksWithFaults runs body on a testWorld with plan armed.
func runRanksWithFaults(n int, mode ThreadMode, plan *FaultPlan, body func(c *Comm)) error {
	w := testWorld(n, mode)
	w.SetFaultPlan(plan)
	return w.Run(body)
}

// runRanksModeled is RunModeled on a testWorld.
func runRanksModeled(n int, mode ThreadMode, m *NetModel, body func(c *Comm)) (time.Duration, error) {
	w := testWorld(n, mode)
	w.SetNetModel(m)
	err := w.Run(body)
	return w.MaxVirtualTime(), err
}
