package core

import (
	"fmt"
	"testing"
)

// TestAllApproachesAllWorkerCounts verifies the acceptance property of
// the parallel execution engine: every approach produces results
// bit-identical to the sequential reference for worker counts 1, 2, 4
// and 8 per node.
func TestAllApproachesAllWorkerCounts(t *testing.T) {
	for _, a := range Approaches {
		for _, threads := range []int{1, 2, 4, 8} {
			a, threads := a, threads
			t.Run(fmt.Sprintf("%s/threads%d", a, threads), func(t *testing.T) {
				j := baseJob()
				j.Approach = a
				j.Threads = threads
				j.Cores = 8
				if a.Hybrid() && j.Cores%threads != 0 {
					j.Cores = threads
				}
				verifyJob(t, j)
			})
		}
	}
}
