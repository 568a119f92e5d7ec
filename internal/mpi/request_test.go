package mpi

import (
	"testing"
	"time"

	"repro/internal/topology"
)

// TestWaitallVariadic: the variadic Waitall completes a mixed set of
// send and receive requests passed as individual arguments and as a
// spread slice, interleaved with nils.
func TestWaitallVariadic(t *testing.T) {
	err := runRanks(2, ThreadSingle, func(c *Comm) {
		other := 1 - c.Rank()
		a := make([]float64, 2)
		b := make([]float64, 2)
		ra := c.Irecv(other, 1, a)
		rb := c.Irecv(other, 2, b)
		s1 := c.Isend(other, 1, []float64{1, float64(c.Rank())})
		s2 := c.Isend(other, 2, []float64{2, float64(c.Rank())})
		Waitall(ra, nil, rb, s1, s2)
		if a[0] != 1 || a[1] != float64(other) || b[0] != 2 || b[1] != float64(other) {
			t.Errorf("rank %d received a=%v b=%v", c.Rank(), a, b)
		}
		reqs := []*Request{c.Irecv(other, 3, a), c.Isend(other, 3, []float64{3, 3})}
		Waitall(reqs...)
		if a[0] != 3 {
			t.Errorf("rank %d spread-form Waitall left a=%v", c.Rank(), a)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRequestTestPoll: Test must report false while the matching
// message has genuinely not been sent, flip to true after it arrives,
// and stay non-blocking throughout — the poll the split-phase overlap
// handle leans on.
func TestRequestTestPoll(t *testing.T) {
	release := make(chan struct{})
	err := runRanks(2, ThreadSingle, func(c *Comm) {
		if c.Rank() == 0 {
			buf := make([]float64, 1)
			req := c.Irecv(1, 7, buf)
			if req.Test() {
				t.Error("Test reported completion before the sender was released")
			}
			close(release)
			for !req.Test() {
				time.Sleep(time.Microsecond)
			}
			// A completed Test means Wait returns immediately with the data.
			if _, _, n := req.Wait(); n != 1 || buf[0] != 42 {
				t.Errorf("after Test: n=%d buf=%v", n, buf)
			}
		} else {
			<-release
			c.Send(0, 7, []float64{42})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTestall covers the aggregate poll: false while any request is
// outstanding, true once all completed, nil entries ignored.
func TestTestall(t *testing.T) {
	release := make(chan struct{})
	err := runRanks(2, ThreadSingle, func(c *Comm) {
		if c.Rank() == 0 {
			a := make([]float64, 1)
			b := make([]float64, 1)
			r1 := c.Irecv(1, 1, a)
			r2 := c.Irecv(1, 2, b)
			if Testall(r1, nil, r2) {
				t.Error("Testall true with both receives outstanding")
			}
			close(release)
			for !Testall(r1, nil, r2) {
				time.Sleep(time.Microsecond)
			}
			if a[0] != 1 || b[0] != 2 {
				t.Errorf("Testall-completed receives hold %v %v", a, b)
			}
		} else {
			<-release
			c.Send(0, 1, []float64{1})
			c.Send(0, 2, []float64{2})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !Testall() {
		t.Error("empty Testall should be true")
	}
}

// TestReclaimReusesRequests: reclaimed requests come back out of their
// rank's mailbox and behave like fresh ones; the message data stays correct
// across many reuse generations.
func TestReclaimReusesRequests(t *testing.T) {
	err := runRanks(2, ThreadSingle, func(c *Comm) {
		other := 1 - c.Rank()
		buf := make([]float64, 1)
		for i := 0; i < 200; i++ {
			req := c.Irecv(other, 5, buf)
			c.Send(other, 5, []float64{float64(i)})
			if _, _, n := req.Wait(); n != 1 || buf[0] != float64(i) {
				t.Errorf("rank %d iter %d: n=%d buf=%v", c.Rank(), i, n, buf)
			}
			Reclaim(req)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	Reclaim(nil) // nil entries are ignored
}

// TestReclaimedRecvIsAllocationFree pins the transport fast path the
// overlapped halo exchange relies on: with the receive posted before
// the send and requests reclaimed after Wait, a steady-state
// post/send/wait cycle performs no allocation at all — no envelope, no
// request, no pending-receive bookkeeping.
func TestReclaimedRecvIsAllocationFree(t *testing.T) {
	err := runRanks(1, ThreadSingle, func(c *Comm) {
		buf := make([]float64, 8)
		data := make([]float64, 8)
		// Warm the request pool and the mailbox slices.
		for i := 0; i < 4; i++ {
			req := c.Irecv(0, 3, buf)
			c.Send(0, 3, data)
			req.Wait()
			Reclaim(req)
		}
		allocs := testing.AllocsPerRun(200, func() {
			req := c.Irecv(0, 3, buf)
			c.Send(0, 3, data)
			req.Wait()
			Reclaim(req)
		})
		if allocs != 0 {
			t.Errorf("steady-state posted-recv cycle allocates %.1f objects/op, want 0", allocs)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestUnexpectedRecvIsAllocationFree is the other order: the send
// arrives before its receive is posted, so the payload waits in an
// envelope. Once the mailbox's free list is warm, a send/post/wait/
// Reclaim cycle performs no allocation either.
func TestUnexpectedRecvIsAllocationFree(t *testing.T) {
	err := runRanks(1, ThreadSingle, func(c *Comm) {
		buf := make([]float64, 8)
		data := make([]float64, 8)
		cycle := func() {
			c.Send(0, 3, data)
			req := c.Irecv(0, 3, buf)
			req.Wait()
			Reclaim(req)
		}
		for i := 0; i < 4; i++ {
			cycle()
		}
		if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
			t.Errorf("steady-state unexpected-recv cycle allocates %.1f objects/op, want 0", allocs)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// BenchmarkHaloMessageRate is the transport's per-message cost on the
// halo pattern: 64 ThreadSingle ranks on a 4×4×4 periodic Cart each
// post six receives, send six faces of 144 values, Waitall and Reclaim,
// once per iteration. Reports wall time per message across the world.
func BenchmarkHaloMessageRate(b *testing.B) {
	const faces, face = 6, 144
	ready := make(chan struct{})
	err := NewWorld(64, ThreadSingle).Run(func(c *Comm) {
		ct := c.CartCreate(topology.Dims{4, 4, 4}, [3]bool{true, true, true}, false)
		var from, to [faces]int
		for d := 0; d < 3; d++ {
			from[2*d], to[2*d] = ct.Shift(d, 1)
			from[2*d+1], to[2*d+1] = ct.Shift(d, -1)
		}
		send := make([]float64, face)
		recv := make([][]float64, faces)
		for i := range recv {
			recv[i] = make([]float64, face)
		}
		reqs := make([]*Request, faces)
		round := func() {
			for i := range reqs {
				reqs[i] = c.Irecv(from[i], i, recv[i])
			}
			for i := range to {
				c.Send(to[i], i, send)
			}
			Waitall(reqs...)
			Reclaim(reqs...)
		}
		round() // warm the request and envelope pools
		c.Barrier()
		if c.Rank() == 0 {
			b.ResetTimer()
			close(ready)
		}
		<-ready
		for i := 0; i < b.N; i++ {
			round()
		}
	})
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*64*faces), "ns/msg")
}
