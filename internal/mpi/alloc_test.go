package mpi

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/detsum"
)

// rendezvous is a reusable barrier for rank goroutines that sends no
// message, so it separates test phases without touching a mailbox or
// allocating.
type rendezvous struct {
	mu         sync.Mutex
	cond       *sync.Cond
	n, waiting int
	gen        int
}

func newRendezvous(n int) *rendezvous {
	r := &rendezvous{n: n}
	r.cond = sync.NewCond(&r.mu)
	return r
}

func (r *rendezvous) wait() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.waiting++; r.waiting == r.n {
		r.waiting = 0
		r.gen++
		r.cond.Broadcast()
		return
	}
	for gen := r.gen; gen == r.gen; {
		r.cond.Wait()
	}
}

// TestPooledEnvelopesNeverAlias: sends run ahead of their receives, so
// payloads wait in pooled envelopes that later sends reuse. Every
// payload must arrive exactly as sent, whatever the length (0, 1 and
// 2^k-1, 2^k, 2^k+1, straddling the size classes), whether it is
// received by source and tag, by AnySource or AnyTag, or after a Probe,
// and after a Shrink has purged stranded envelopes. Each value is unique
// across the run, so a buffer read after its reuse shows as a wrong
// value; the race detector watches the copies in and out.
func TestPooledEnvelopesNeverAlias(t *testing.T) {
	lens := []int{0, 1}
	for k := 1; k <= 6; k++ {
		lens = append(lens, 1<<k-1, 1<<k, 1<<k+1)
	}
	maxLen := lens[len(lens)-1]
	value := func(round, src, dst, i, j int) float64 {
		return float64((((round*8+src)*8+dst)*32+i)*128 + j + 1)
	}
	const rounds = 6
	for _, p := range []int{4, 8} {
		for seed := int64(0); seed < 3; seed++ {
			w := testWorld(p, ThreadSingle)
			phase := newRendezvous(p)
			err := w.Run(func(c *Comm) {
				rng := rand.New(rand.NewSource(seed*1009 + int64(c.Rank())))
				sendAll := func(c *Comm, round int) {
					for _, dst := range rng.Perm(p) {
						for i, n := range lens {
							data := make([]float64, n)
							for j := range data {
								data[j] = value(round, c.Rank(), dst, i, j)
							}
							c.Send(dst, i, data)
						}
					}
				}
				buf := make([]float64, maxLen+1)
				recvAll := func(c *Comm, round int) {
					var pending [][2]int
					for src := 0; src < p; src++ {
						for i := range lens {
							pending = append(pending, [2]int{src, i})
						}
					}
					for len(pending) > 0 {
						want := pending[rng.Intn(len(pending))]
						from, tag := want[0], want[1]
						switch rng.Intn(5) {
						case 1:
							if s, g, n := c.Probe(from, tag); s != from || g != tag || n != lens[tag] {
								t.Errorf("round %d: Probe(%d, %d) = (%d, %d, %d), want length %d", round, from, tag, s, g, n, lens[tag])
							}
						case 2:
							from = AnySource
						case 3:
							tag = AnyTag
						case 4:
							from, tag = AnySource, AnyTag
						}
						for j := range buf {
							buf[j] = -1
						}
						src, got, n := c.Recv(from, tag, buf)
						k := -1
						for idx, m := range pending {
							if m == [2]int{src, got} {
								k = idx
							}
						}
						if k < 0 || n != lens[got] {
							t.Errorf("round %d: Recv(%d, %d) matched (%d, %d) of length %d, not a pending message", round, from, tag, src, got, n)
							return
						}
						pending[k] = pending[len(pending)-1]
						pending = pending[:len(pending)-1]
						for j, v := range buf {
							want := -1.0
							if j < n {
								want = value(round, src, c.Rank(), got, j)
							}
							if v != want {
								t.Errorf("round %d: message %d from %d to %d: value %d is %g, want %g", round, got, src, c.Rank(), j, v, want)
								return
							}
						}
					}
				}
				for round := 0; round < rounds; round++ {
					if round%2 == 0 {
						// Every message waits in an envelope before any
						// receive is posted.
						sendAll(c, round)
						phase.wait()
					} else {
						// Sends race the receives of ranks already done.
						time.Sleep(time.Duration(rng.Intn(200)) * time.Microsecond)
						sendAll(c, round)
					}
					recvAll(c, round)
					phase.wait()
				}
				// A round nobody receives, purged by Shrink: the next round
				// reuses its sources and tags, with other values.
				sendAll(c, rounds)
				phase.wait()
				all := make([]int, p)
				for i := range all {
					all[i] = i
				}
				nc := c.Shrink(all)
				sendAll(nc, rounds+1)
				recvAll(nc, rounds+1)
			})
			if err != nil {
				t.Fatalf("%d ranks, seed %d: %v", p, seed, err)
			}
			for r, box := range w.boxes {
				if box.pooledBytes == 0 {
					t.Errorf("%d ranks, seed %d: rank %d's mailbox pooled no envelope", p, seed, r)
				}
			}
		}
	}
}

// TestCollectivesAllocationFree: once warm, the collectives the solver
// stack calls allocate nothing per call. World-wide mallocs per call
// must stay below one per rank, where a per-call buffer, request or
// envelope on every rank would read at least one each.
func TestCollectivesAllocationFree(t *testing.T) {
	const p, calls = 8, 100
	names := []string{"AllreduceFunc (detsum transport)", "Bcast", "Barrier", "Gather", "AllreduceSum"}
	perCall := make([]float64, len(names))
	fence := newRendezvous(p)
	err := runRanks(p, ThreadSingle, func(c *Comm) {
		var acc detsum.Acc
		acc.AddSlice([]float64{float64(c.Rank()), 0.1})
		tin := acc.Transport(nil)
		tout := make([]float64, len(tin))
		bc := make([]float64, 64)
		gin, gout := make([]float64, 4), make([]float64, 4*p)
		ops := []func(){
			func() { c.AllreduceFunc(tin, tout, detsum.MergeTransport) },
			func() { c.Bcast(p-1, bc) },
			c.Barrier,
			func() { c.Gather(1, gin, gout) },
			func() {
				if s := c.AllreduceSum(1); s != p {
					t.Errorf("AllreduceSum of %d ones = %g", p, s)
				}
			},
		}
		// A fence after every call: a root that never waits (Bcast,
		// Gather) would otherwise run ahead by the whole loop, and its
		// backlog, not the steady state, would size the pool.
		var before, after runtime.MemStats
		for k, op := range ops {
			for i := 0; i < 10; i++ {
				op()
				fence.wait()
			}
			if c.Rank() == 0 {
				runtime.ReadMemStats(&before)
			}
			fence.wait()
			for i := 0; i < calls; i++ {
				op()
				fence.wait()
			}
			if c.Rank() == 0 {
				runtime.ReadMemStats(&after)
				perCall[k] = float64(after.Mallocs-before.Mallocs) / calls
			}
			fence.wait()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for k, name := range names {
		t.Logf("%s: %.2f mallocs per call on %d ranks", name, perCall[k], p)
		if perCall[k] >= p {
			t.Errorf("%s makes %.2f mallocs per call world-wide, want < %d (one per rank)", name, perCall[k], p)
		}
	}
}
