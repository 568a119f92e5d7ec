package mpi

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// TestReduceFuncRankOrder: the merge must always fold contributions in
// ascending rank order, regardless of message arrival order and of which
// rank is the root. The merge is deliberately non-commutative (decimal
// concatenation), and ranks sleep random amounts so arrivals are
// scrambled.
func TestReduceFuncRankOrder(t *testing.T) {
	const p = 6
	for trial := 0; trial < 8; trial++ {
		seed := int64(trial)
		root := trial % p
		err := runRanks(p, ThreadSingle, func(c *Comm) {
			rng := rand.New(rand.NewSource(seed*131 + int64(c.Rank())))
			time.Sleep(time.Duration(rng.Intn(2000)) * time.Microsecond)
			in := []float64{float64(c.Rank() + 1)}
			out := make([]float64, 1)
			c.ReduceFunc(root, in, out, func(acc, contrib []float64) {
				acc[0] = acc[0]*10 + contrib[0]
			})
			if c.Rank() == root && out[0] != 123456 {
				panic(fmt.Sprintf("rank-ordered fold to root %d reads %g", root, out[0]))
			}
		})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// TestAllreduceFuncAllRanksAgree: every rank receives the identical
// merged vector.
func TestAllreduceFuncAllRanksAgree(t *testing.T) {
	const p = 5
	err := runRanks(p, ThreadSingle, func(c *Comm) {
		in := []float64{float64(c.Rank()), float64(c.Rank() * c.Rank())}
		out := make([]float64, 2)
		c.AllreduceFunc(in, out, func(acc, contrib []float64) {
			for i := range acc {
				acc[i] += contrib[i]
			}
		})
		if out[0] != 0+1+2+3+4 || out[1] != 0+1+4+9+16 {
			panic("AllreduceFunc sum wrong")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
