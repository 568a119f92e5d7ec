package core

import (
	"time"

	"repro/internal/mpi"
)

// testWorld is the world every test of this package runs its ranks on:
// each blocking wait is bounded, so a mismatched tag or a shell waiting
// on a face nobody posted fails as a *mpi.TimeoutError carrying the
// pending-receive dump within a minute instead of as a go test kill.
func testWorld(n int, mode mpi.ThreadMode) *mpi.World {
	w := mpi.NewWorld(n, mode)
	w.SetOpTimeout(60 * time.Second)
	return w
}

// runRanks is mpi.Run on a testWorld.
func runRanks(n int, mode mpi.ThreadMode, body func(c *mpi.Comm)) error {
	return testWorld(n, mode).Run(body)
}
