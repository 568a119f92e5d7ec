package mpi

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/topology"
)

func TestSendRecvBasic(t *testing.T) {
	err := runRanks(2, ThreadSingle, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 7, []float64{1, 2, 3})
		} else {
			buf := make([]float64, 3)
			src, tag, n := c.Recv(0, 7, buf)
			if src != 0 || tag != 7 || n != 3 {
				panic(fmt.Sprintf("status = %d,%d,%d", src, tag, n))
			}
			if buf[0] != 1 || buf[1] != 2 || buf[2] != 3 {
				panic("payload corrupted")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendBeforeRecvAndAfter(t *testing.T) {
	// Both orders must work: eager send before the recv is posted, and
	// recv posted before the send happens.
	err := runRanks(2, ThreadSingle, func(c *Comm) {
		buf := make([]float64, 1)
		if c.Rank() == 0 {
			c.Send(1, 1, []float64{42}) // early send
			c.Recv(1, 2, buf)           // late recv
			if buf[0] != 43 {
				panic("late recv wrong payload")
			}
		} else {
			c.Recv(0, 1, buf)
			if buf[0] != 42 {
				panic("early send wrong payload")
			}
			c.Send(0, 2, []float64{43})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNonOvertakingSameSourceTag(t *testing.T) {
	// Messages with the same (source, tag) must arrive in send order.
	const n = 50
	err := runRanks(2, ThreadSingle, func(c *Comm) {
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				c.Send(1, 5, []float64{float64(i)})
			}
		} else {
			buf := make([]float64, 1)
			for i := 0; i < n; i++ {
				c.Recv(0, 5, buf)
				if buf[0] != float64(i) {
					panic(fmt.Sprintf("message %d overtaken by %g", i, buf[0]))
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTagSelectivity(t *testing.T) {
	// A recv for tag B must not match an earlier message with tag A.
	err := runRanks(2, ThreadSingle, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 1, []float64{100})
			c.Send(1, 2, []float64{200})
		} else {
			buf := make([]float64, 1)
			c.Recv(0, 2, buf)
			if buf[0] != 200 {
				panic("tag 2 recv got wrong message")
			}
			c.Recv(0, 1, buf)
			if buf[0] != 100 {
				panic("tag 1 recv got wrong message")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAnySourceAnyTag(t *testing.T) {
	err := runRanks(3, ThreadSingle, func(c *Comm) {
		switch c.Rank() {
		case 0:
			buf := make([]float64, 1)
			sum := 0.0
			for i := 0; i < 2; i++ {
				src, tag, _ := c.Recv(AnySource, AnyTag, buf)
				if src != tag {
					panic("sender encoded tag mismatch")
				}
				sum += buf[0]
			}
			if sum != 30 {
				panic(fmt.Sprintf("sum = %g", sum))
			}
		case 1:
			c.Send(0, 1, []float64{10})
		case 2:
			c.Send(0, 2, []float64{20})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIsendIrecvWaitall(t *testing.T) {
	err := runRanks(2, ThreadSingle, func(c *Comm) {
		other := 1 - c.Rank()
		recvBufs := make([][]float64, 6)
		reqs := make([]*Request, 0, 12)
		for i := range recvBufs {
			recvBufs[i] = make([]float64, 4)
			reqs = append(reqs, c.Irecv(other, i, recvBufs[i]))
		}
		for i := 0; i < 6; i++ {
			data := []float64{float64(i), 0, 0, float64(c.Rank())}
			reqs = append(reqs, c.Isend(other, i, data))
		}
		Waitall(reqs...)
		for i, b := range recvBufs {
			if b[0] != float64(i) || b[3] != float64(other) {
				panic(fmt.Sprintf("rank %d buf %d = %v", c.Rank(), i, b))
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWaitallNilEntries(t *testing.T) {
	Waitall(nil, nil) // must not panic
	var reqs []*Request
	Waitall(reqs...) // nor an empty spread
}

func TestRequestTest(t *testing.T) {
	err := runRanks(2, ThreadSingle, func(c *Comm) {
		if c.Rank() == 0 {
			buf := make([]float64, 1)
			req := c.Irecv(1, 0, buf)
			// Eventually the message arrives and Test turns true.
			for !req.Test() {
			}
			if buf[0] != 5 {
				panic("Test-completed recv has wrong data")
			}
		} else {
			c.Send(0, 0, []float64{5})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendrecvExchange(t *testing.T) {
	err := runRanks(2, ThreadSingle, func(c *Comm) {
		other := 1 - c.Rank()
		out := []float64{float64(c.Rank() + 1)}
		in := make([]float64, 1)
		c.Sendrecv(other, 9, out, other, 9, in)
		if in[0] != float64(other+1) {
			panic(fmt.Sprintf("rank %d exchanged %g", c.Rank(), in[0]))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestProbe(t *testing.T) {
	err := runRanks(2, ThreadSingle, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 3, []float64{1, 2, 3, 4, 5})
		} else {
			src, tag, n := c.Probe(AnySource, AnyTag)
			if src != 0 || tag != 3 || n != 5 {
				panic(fmt.Sprintf("probe = %d,%d,%d", src, tag, n))
			}
			buf := make([]float64, n)
			c.Recv(src, tag, buf)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTruncationPanics(t *testing.T) {
	err := runRanks(2, ThreadSingle, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 0, []float64{1, 2, 3})
		} else {
			buf := make([]float64, 2) // too small
			c.Recv(0, 0, buf)
		}
	})
	if err == nil {
		t.Fatal("truncated receive did not error")
	}
}

func TestNegativeUserTagPanics(t *testing.T) {
	err := runRanks(1, ThreadSingle, func(c *Comm) {
		c.Send(0, -5, []float64{1})
	})
	if err == nil {
		t.Fatal("negative user tag accepted")
	}
}

func TestRankOutOfRangePanics(t *testing.T) {
	err := runRanks(2, ThreadSingle, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(5, 0, []float64{1})
		}
	})
	if err == nil {
		t.Fatal("out-of-range destination accepted")
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	const p = 7
	var mu sync.Mutex
	phase := make(map[int]int)
	err := runRanks(p, ThreadSingle, func(c *Comm) {
		for it := 0; it < 5; it++ {
			mu.Lock()
			phase[c.Rank()] = it
			// No rank may be more than one barrier phase away.
			for r, ph := range phase {
				if ph < it-1 || ph > it+1 {
					mu.Unlock()
					panic(fmt.Sprintf("rank %d at phase %d while rank %d at %d", c.Rank(), it, r, ph))
				}
			}
			mu.Unlock()
			c.Barrier()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBcastFromEveryRoot(t *testing.T) {
	for p := 1; p <= 9; p++ {
		for root := 0; root < p; root++ {
			root := root
			err := runRanks(p, ThreadSingle, func(c *Comm) {
				buf := make([]float64, 3)
				if c.Rank() == root {
					buf[0], buf[1], buf[2] = 1, 2, 3
				}
				c.Bcast(root, buf)
				if buf[0] != 1 || buf[1] != 2 || buf[2] != 3 {
					panic(fmt.Sprintf("rank %d got %v from root %d", c.Rank(), buf, root))
				}
			})
			if err != nil {
				t.Fatalf("p=%d root=%d: %v", p, root, err)
			}
		}
	}
}

func TestReduceSumDeterministicOrder(t *testing.T) {
	const p = 6
	err := runRanks(p, ThreadSingle, func(c *Comm) {
		in := []float64{float64(c.Rank() + 1), float64(c.Rank() * 10)}
		out := make([]float64, 2)
		c.Reduce(2, OpSum, in, out)
		if c.Rank() == 2 {
			if out[0] != 21 || out[1] != 150 {
				panic(fmt.Sprintf("reduce = %v", out))
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReduceMaxMin(t *testing.T) {
	err := runRanks(4, ThreadSingle, func(c *Comm) {
		in := []float64{float64(c.Rank())}
		out := make([]float64, 1)
		c.Allreduce(OpMax, in, out)
		if out[0] != 3 {
			panic(fmt.Sprintf("max = %g", out[0]))
		}
		c.Allreduce(OpMin, in, out)
		if out[0] != 0 {
			panic(fmt.Sprintf("min = %g", out[0]))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestReduceMaxMinNaNFromAnyRank: a NaN wins OpMax and OpMin whichever
// rank holds it, so a verdict reduced with them (SpectralBound, the SDC
// checks) cannot lose a NaN to the merge order.
func TestReduceMaxMinNaNFromAnyRank(t *testing.T) {
	const p = 5
	for nanRank := 0; nanRank < p; nanRank++ {
		for _, op := range []Op{OpMax, OpMin} {
			err := runRanks(p, ThreadSingle, func(c *Comm) {
				in := []float64{float64(c.Rank()), -1}
				if c.Rank() == nanRank {
					in[0] = math.NaN()
				}
				out := make([]float64, 2)
				c.Allreduce(op, in, out)
				if !math.IsNaN(out[0]) {
					panic(fmt.Sprintf("op %d, NaN on rank %d: rank %d reduced %g", op, nanRank, c.Rank(), out[0]))
				}
				if out[1] != -1 {
					panic(fmt.Sprintf("op %d: NaN-free slot reduced to %g", op, out[1]))
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestAllreduceSum(t *testing.T) {
	const p = 5
	err := runRanks(p, ThreadSingle, func(c *Comm) {
		got := c.AllreduceSum(float64(c.Rank()))
		if got != 10 {
			panic(fmt.Sprintf("allreduce sum = %g", got))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGather(t *testing.T) {
	const p, root = 4, 2
	err := runRanks(p, ThreadSingle, func(c *Comm) {
		in := []float64{float64(c.Rank()), float64(c.Rank() * c.Rank())}
		out := make([]float64, 2*p)
		c.Gather(root, in, out)
		for r := 0; r < p; r++ {
			want := [2]float64{float64(r), float64(r * r)}
			if c.Rank() != root {
				want = [2]float64{} // out is ignored off the root
			}
			if out[2*r] != want[0] || out[2*r+1] != want[1] {
				panic(fmt.Sprintf("rank %d: gather slot %d = %v, want %v", c.Rank(), r, out[2*r:2*r+2], want))
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitByParity(t *testing.T) {
	const p = 6
	err := runRanks(p, ThreadSingle, func(c *Comm) {
		sub := c.Split(func(r int) int { return r % 2 })
		if sub.Size() != 3 {
			panic(fmt.Sprintf("split size = %d", sub.Size()))
		}
		// Sum of world ranks within each parity class.
		got := sub.AllreduceSum(float64(c.Rank()))
		want := 6.0 // 0+2+4
		if c.Rank()%2 == 1 {
			want = 9 // 1+3+5
		}
		if got != want {
			panic(fmt.Sprintf("subcomm sum = %g, want %g", got, want))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCartCreateShiftPeriodic(t *testing.T) {
	dims := topology.Dims{2, 3, 2}
	err := runRanks(12, ThreadSingle, func(c *Comm) {
		ct := c.CartCreate(dims, [3]bool{true, true, true}, true)
		coord := ct.Coords(c.Rank())
		if ct.RankOf(coord) != c.Rank() {
			panic("coords/rankof not inverse")
		}
		for dim := 0; dim < 3; dim++ {
			src, dst := ct.Shift(dim, 1)
			wantDst := coord
			wantDst[dim] = (wantDst[dim] + 1) % dims[dim]
			wantSrc := coord
			wantSrc[dim] = (wantSrc[dim] - 1 + dims[dim]) % dims[dim]
			if dst != ct.RankOf(wantDst) || src != ct.RankOf(wantSrc) {
				panic(fmt.Sprintf("shift dim %d: got (%d,%d)", dim, src, dst))
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCartShiftNonPeriodicEdges(t *testing.T) {
	dims := topology.Dims{3, 1, 1}
	err := runRanks(3, ThreadSingle, func(c *Comm) {
		ct := c.CartCreate(dims, [3]bool{false, false, false}, false)
		src, dst := ct.Shift(0, 1)
		switch c.Rank() {
		case 0:
			if src != ProcNull || dst != 1 {
				panic(fmt.Sprintf("rank 0 shift = (%d,%d)", src, dst))
			}
		case 2:
			if src != 1 || dst != ProcNull {
				panic(fmt.Sprintf("rank 2 shift = (%d,%d)", src, dst))
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCartCreateSizeMismatchPanics(t *testing.T) {
	err := runRanks(4, ThreadSingle, func(c *Comm) {
		c.CartCreate(topology.Dims{3, 1, 1}, [3]bool{}, false)
	})
	if err == nil {
		t.Fatal("cart size mismatch accepted")
	}
}

func TestThreadMultipleConcurrentTraffic(t *testing.T) {
	// Four "threads" per rank each exchange with the peer rank using
	// distinct tags, like the hybrid-multiple approach does per grid,
	// and reclaim their requests, so the threads of a rank share its
	// mailbox's request pool.
	const threads = 4
	const msgs = 25
	err := runRanks(2, ThreadMultiple, func(c *Comm) {
		other := 1 - c.Rank()
		var wg sync.WaitGroup
		for th := 0; th < threads; th++ {
			th := th
			wg.Add(1)
			go func() {
				defer wg.Done()
				buf := make([]float64, 1)
				for i := 0; i < msgs; i++ {
					req := c.Irecv(other, th, buf)
					sreq := c.Isend(other, th, []float64{float64(th*1000 + i)})
					Waitall(sreq, req)
					if buf[0] != float64(th*1000+i) {
						panic(fmt.Sprintf("thread %d msg %d got %g", th, i, buf[0]))
					}
					Reclaim(sreq, req)
				}
			}()
		}
		wg.Wait()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestThreadSingleDetectsConcurrentCalls(t *testing.T) {
	// Hammer a SINGLE-mode communicator from two goroutines; the misuse
	// detector must fire. (This is a programming error a real MPI would
	// turn into corruption; we turn it into a detected panic.)
	err := runRanks(2, ThreadSingle, func(c *Comm) {
		if c.Rank() != 0 {
			// Absorb whatever arrives; also in a racy way.
			return
		}
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { recover() }() // the panic may land on either goroutine
				for i := 0; i < 200; i++ {
					c.Send(1, 0, []float64{1})
				}
			}()
		}
		wg.Wait()
		panic("done") // ensure Run returns an error even if detector missed
	})
	if err == nil {
		t.Fatal("expected an error from SINGLE-mode misuse or sentinel")
	}
}

func TestRunPropagatesPanic(t *testing.T) {
	err := runRanks(3, ThreadSingle, func(c *Comm) {
		if c.Rank() == 1 {
			panic("boom")
		}
	})
	if err == nil {
		t.Fatal("rank panic not propagated")
	}
}

func TestNewWorldPanicsOnZeroRanks(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewWorld(0) did not panic")
		}
	}()
	NewWorld(0, ThreadSingle)
}

func TestThreadModeString(t *testing.T) {
	if ThreadSingle.String() != "SINGLE" || ThreadMultiple.String() != "MULTIPLE" {
		t.Fatal("ThreadMode.String broken")
	}
}

func TestAllreduceMatchesSequential(t *testing.T) {
	// Property-ish: distributed sum equals sequential sum for a range of
	// communicator sizes.
	for p := 1; p <= 8; p++ {
		p := p
		err := runRanks(p, ThreadSingle, func(c *Comm) {
			v := math.Sqrt(float64(c.Rank() + 1))
			got := c.AllreduceSum(v)
			want := 0.0
			for r := 1; r <= p; r++ {
				want += math.Sqrt(float64(r))
			}
			if math.Abs(got-want) > 1e-12 {
				panic(fmt.Sprintf("p=%d: got %g want %g", p, got, want))
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
