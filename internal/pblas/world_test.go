package pblas

import (
	"time"

	"repro/internal/mpi"
)

// testWorld is the world every test of this package runs its ranks on:
// each blocking wait is bounded, so a mismatched panel broadcast fails
// as a *mpi.TimeoutError carrying the pending-receive dump within a
// minute instead of as a go test kill. (Modeled delay is virtual and
// takes no wall time.)
func testWorld(n int) *mpi.World {
	w := mpi.NewWorld(n, mpi.ThreadSingle)
	w.SetOpTimeout(60 * time.Second)
	return w
}
