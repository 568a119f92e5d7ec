package mpi

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/topology"
)

// testParams returns round-number model constants so expected virtual
// times are exact integers of nanoseconds.
func testParams() NetParams {
	return NetParams{
		MsgLatency:         10e-6, // 10000 ns
		HopLatency:         1e-6,  // 1000 ns per extra hop
		PostCost:           1e-6,  // 1000 ns
		MultipleLock:       2e-6,
		DMAPerMsg:          0.5e-6, // 500 ns
		LinkBandwidth:      1e9,    // 1 ns per byte
		IntraNodeLatency:   0.2e-6, // 200 ns
		IntraNodeBandwidth: 4e9,    // 0.25 ns per byte
	}
}

// TestModeledPingClosedForm checks one message against the closed-form
// cost: sender pays PostCost; the message arrives at
// post + DMAPerMsg + bytes/bw + MsgLatency; the receiver pays its own
// PostCost and then jumps to the arrival.
func TestModeledPingClosedForm(t *testing.T) {
	m := &NetModel{Params: testParams(), NoComputeWall: true}
	data := make([]float64, 125) // 1000 bytes
	var sender, receiver time.Duration
	_, err := runRanksModeled(2, ThreadSingle, m, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 7, data)
			sender = c.World().VirtualTime(0)
		} else {
			buf := make([]float64, 125)
			c.Recv(0, 7, buf)
			receiver = c.World().VirtualTime(1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := 1000 * time.Nanosecond; sender != want {
		t.Errorf("sender virtual time = %v, want %v (one PostCost)", sender, want)
	}
	// arrive = 1000 (post) + 500 (DMA) + 1000 (wire) + 10000 (latency)
	if want := 12500 * time.Nanosecond; receiver != want {
		t.Errorf("receiver virtual time = %v, want %v", receiver, want)
	}
}

// TestModeledHopSensitivity maps the same two ranks near and far apart
// on a torus and checks the arrival differs by exactly the extra hops'
// latency.
func TestModeledHopSensitivity(t *testing.T) {
	net := topology.NewNetwork(topology.Dims{4, 4, 4}, true)
	recvAt := func(far topology.Coord) time.Duration {
		m := &NetModel{Params: testParams(), Net: net,
			Coords: []topology.Coord{{0, 0, 0}, far}, NoComputeWall: true}
		var got time.Duration
		_, err := runRanksModeled(2, ThreadSingle, m, func(c *Comm) {
			if c.Rank() == 0 {
				c.Send(1, 7, make([]float64, 125))
			} else {
				c.Recv(0, 7, make([]float64, 125))
				got = c.World().VirtualTime(1)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	near := recvAt(topology.Coord{0, 0, 1}) // 1 hop
	far := recvAt(topology.Coord{2, 2, 2})  // 6 hops on the 4^3 torus
	if d := far - near; d != 5*time.Microsecond {
		t.Errorf("6-hop arrival - 1-hop arrival = %v, want 5us (5 extra hops)", d)
	}
}

// TestModeledSameNodeUsesIntraNodePath co-locates both ranks on one
// node coordinate: the message must cost the shared-memory latency and
// bandwidth, not the torus link.
func TestModeledSameNodeUsesIntraNodePath(t *testing.T) {
	net := topology.NewNetwork(topology.Dims{2, 2, 2}, false)
	m := &NetModel{Params: testParams(), Net: net,
		Coords: []topology.Coord{{0, 0, 0}, {0, 0, 0}}, NoComputeWall: true}
	var got time.Duration
	_, err := runRanksModeled(2, ThreadSingle, m, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 7, make([]float64, 125))
		} else {
			c.Recv(0, 7, make([]float64, 125))
			got = c.World().VirtualTime(1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// arrive = 1000 (sender post) + 200 (intra latency) + 250 (1000 B at
	// 4 GB/s); the receiver's own post (1000) is already behind it.
	if want := 1450 * time.Nanosecond; got != want {
		t.Errorf("same-node receiver virtual time = %v, want %v", got, want)
	}
}

// TestModeledSelfSendFree: a rank messaging itself pays only the posted
// receive's CPU cost — the message itself would not exist on a real
// machine.
func TestModeledSelfSendFree(t *testing.T) {
	m := &NetModel{Params: testParams(), NoComputeWall: true}
	var got time.Duration
	_, err := runRanksModeled(1, ThreadSingle, m, func(c *Comm) {
		c.Send(0, 7, make([]float64, 4096))
		c.Recv(0, 7, make([]float64, 4096))
		got = c.World().VirtualTime(0)
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := 1000 * time.Nanosecond; got != want {
		t.Errorf("self-exchange virtual time = %v, want %v (one recv post)", got, want)
	}
}

// TestModeledInjectionSerializes: a burst of sends queues on the
// sender's DMA engine and on each link it uses, so a burst down one
// link pays every wire time in turn, while a burst to six distinct
// directions — a halo exchange posted in all three dimensions at once —
// pays only the serial DMA slots and overlaps its wire times.
func TestModeledInjectionSerializes(t *testing.T) {
	t.Run("one link", func(t *testing.T) {
		m := &NetModel{Params: testParams(), NoComputeWall: true}
		const msgs = 4
		var last time.Duration
		_, err := runRanksModeled(2, ThreadSingle, m, func(c *Comm) {
			if c.Rank() == 0 {
				for i := 0; i < msgs; i++ {
					c.Send(1, 7+i, make([]float64, 125))
				}
			} else {
				for i := 0; i < msgs; i++ {
					c.Recv(0, 7+i, make([]float64, 125))
				}
				last = c.World().VirtualTime(1)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		// Without Coords every message takes one link. Message i
		// (0-based) is posted by 1000*(i+1), leaves the DMA 500 later and
		// then needs the link for 1000; the link is free again exactly
		// then, so message i arrives at 1000*(i+1) + 500 + 1000 + 10000.
		// Last arrival: 4000 + 11500 = 15500.
		if want := 15500 * time.Nanosecond; last != want {
			t.Errorf("4th message arrival = %v, want %v (DMA and link serialization)", last, want)
		}
	})
	t.Run("six links", func(t *testing.T) {
		// Rank 0 at the centre of a 3^3 torus, ranks 1..6 its neighbours
		// in -x, +x, -y, +y, -z, +z. The DMA slot (3000) is longer than
		// a post (1000) so its serialization shows; the wire (4000 B at
		// 1 ns/B) is longer still, and must not serialize.
		p := testParams()
		p.DMAPerMsg = 3e-6
		coords := []topology.Coord{{1, 1, 1}, {0, 1, 1}, {2, 1, 1}, {1, 0, 1}, {1, 2, 1}, {1, 1, 0}, {1, 1, 2}}
		m := &NetModel{Params: p, Net: topology.NewNetwork(topology.Dims{3, 3, 3}, true),
			Coords: coords, NoComputeWall: true}
		got := make([]time.Duration, len(coords))
		_, err := runRanksModeled(len(coords), ThreadSingle, m, func(c *Comm) {
			if c.Rank() == 0 {
				for dst := 1; dst < c.Size(); dst++ {
					c.Send(dst, 7, make([]float64, 500))
				}
				return
			}
			c.Recv(0, 7, make([]float64, 500))
			got[c.Rank()] = c.World().VirtualTime(c.Rank())
		})
		if err != nil {
			t.Fatal(err)
		}
		// Message i leaves the DMA at 4000 + 3000*i (the first waits
		// for its post, the rest for the DMA), crosses its own link in
		// 4000 and lands 10000 later: arrivals are spaced by the DMA
		// slot, not by the wire time (down one link they would land at
		// 18000, 22000, 26000, …).
		for dst := 1; dst < len(coords); dst++ {
			want := time.Duration(18000+3000*(dst-1)) * time.Nanosecond
			if got[dst] != want {
				t.Errorf("message to rank %d arrived at %v, want %v", dst, got[dst], want)
			}
		}
	})
}

// TestModeledVirtualTimeDeterministic: with NoComputeWall the virtual
// clocks must not depend on goroutine scheduling — two runs of a
// nontrivial exchange + collective mix give identical makespans.
func TestModeledVirtualTimeDeterministic(t *testing.T) {
	run := func() time.Duration {
		net := topology.PartitionFor(8)
		m := &NetModel{Params: testParams(), Net: net,
			Coords: topology.MapGrid(net.Dims, net, topology.MapLinear), NoComputeWall: true}
		d, err := runRanksModeled(8, ThreadSingle, m, func(c *Comm) {
			n := c.Size()
			buf := make([]float64, 64)
			// Ring exchange, then an Allreduce, then a Barrier.
			next, prev := (c.Rank()+1)%n, (c.Rank()+n-1)%n
			r := c.Irecv(prev, 3, buf)
			c.Send(next, 3, make([]float64, 64))
			r.Wait()
			out := make([]float64, 8)
			c.Allreduce(OpSum, make([]float64, 8), out)
			c.Barrier()
		})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("modeled makespan differs across runs: %v vs %v", a, b)
	}
	if a == 0 {
		t.Error("modeled makespan is zero")
	}
}

// TestModeledTestGatesOnVirtualArrival: the eager transport delivers
// physically long before the modeled arrival; Test must keep answering
// false until the receiver's own clock (advanced by Compute) reaches
// the arrival stamp — otherwise overlap would be free and the overlap
// benchmark meaningless.
func TestModeledTestGatesOnVirtualArrival(t *testing.T) {
	m := &NetModel{Params: testParams(), NoComputeWall: true}
	var sawEarly, sawLate atomic.Bool
	_, err := runRanksModeled(2, ThreadSingle, m, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 7, make([]float64, 125))
			return
		}
		r := c.Irecv(0, 7, make([]float64, 125))
		// Wait for the physical (eager) delivery so the gate is the only
		// thing standing between Test and true. The owner's mailbox lock
		// guards the request's state.
		box := c.world.boxes[r.owner]
		for {
			box.mu.Lock()
			done := r.done
			box.mu.Unlock()
			if done {
				break
			}
			time.Sleep(time.Microsecond)
		}
		// Receiver clock: one post = 1000 ns << arrival at 12500 ns.
		sawEarly.Store(r.Test())
		c.Compute(20 * time.Microsecond) // clock -> 21000 ns, past arrival
		sawLate.Store(r.Test())
		r.Wait()
	})
	if err != nil {
		t.Fatal(err)
	}
	if sawEarly.Load() {
		t.Error("Test reported completion before the modeled arrival")
	}
	if !sawLate.Load() {
		t.Error("Test still false after compute advanced past the arrival")
	}
}

// TestOpTimeoutStillFiresUnderModel: the model must not defeat the
// deadlock backstop — a receive nobody will ever match still times out.
func TestOpTimeoutStillFiresUnderModel(t *testing.T) {
	m := &NetModel{Params: testParams(), NoComputeWall: true}
	w := NewWorld(2, ThreadSingle)
	w.SetNetModel(m)
	w.SetOpTimeout(50 * time.Millisecond)
	err := w.runRanks(func(c *Comm) {
		if c.Rank() == 1 {
			c.Recv(0, 7, make([]float64, 8)) // never sent
		}
	})
	if err == nil {
		t.Fatal("expected a timeout error, got nil")
	}
	var te *TimeoutError
	if !errors.As(err, &te) && !strings.Contains(err.Error(), "blocked longer than") {
		t.Fatalf("expected TimeoutError, got %v", err)
	}
}

// TestModeledCollectivesCovered: collectives are built on the modeled
// point-to-point layer, so arming the model must make a Barrier cost
// virtual time on every rank.
func TestModeledCollectivesCovered(t *testing.T) {
	m := &NetModel{Params: testParams(), NoComputeWall: true}
	mk, err := runRanksModeled(4, ThreadSingle, m, func(c *Comm) {
		c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if mk <= 0 {
		t.Error("Barrier cost no virtual time under the model")
	}
}

// TestEagerBehaviorUnchangedWithoutModel: a world that never arms the
// model reports zero virtual time and runs exactly as before.
func TestEagerBehaviorUnchangedWithoutModel(t *testing.T) {
	err := runRanks(2, ThreadSingle, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 7, []float64{1, 2, 3})
		} else {
			buf := make([]float64, 3)
			c.Recv(0, 7, buf)
			if buf[0] != 1 || buf[2] != 3 {
				t.Error("payload corrupted")
			}
			if v := c.World().VirtualTime(1); v != 0 {
				t.Errorf("virtual time %v without a model", v)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// hostTimeClocks runs ranks 0 and 1 each sending two messages, to ranks
// 2 and 3; rank 0 sleeps 20 ms between its sends. It returns the four
// virtual clocks.
func hostTimeClocks(t *testing.T, noComputeWall bool) [4]time.Duration {
	t.Helper()
	w := testWorld(4, ThreadSingle)
	w.SetNetModel(&NetModel{Params: testParams(), NoComputeWall: noComputeWall})
	err := w.Run(func(c *Comm) {
		switch r := c.Rank(); r {
		case 0, 1:
			c.Send(r+2, 5, make([]float64, 16))
			if r == 0 {
				time.Sleep(20 * time.Millisecond)
			}
			c.Send(r+2, 5, make([]float64, 16))
		default:
			buf := make([]float64, 16)
			c.Recv(r-2, 5, buf)
			c.Recv(r-2, 5, buf)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	var v [4]time.Duration
	for r := range v {
		v[r] = w.VirtualTime(r)
	}
	return v
}

// TestNoComputeWallIgnoresHostTime: under NoComputeWall a rank's host
// time between MPI calls never reaches its virtual clock, so the rank
// that slept and its receiver end exactly where the pair that did not
// sleep ends.
func TestNoComputeWallIgnoresHostTime(t *testing.T) {
	v := hostTimeClocks(t, true)
	if v[0] != v[1] || v[2] != v[3] {
		t.Errorf("virtual clocks %v: the sleeping sender (0) and its receiver (2) differ from ranks 1 and 3", v)
	}
	if v[0] <= 0 {
		t.Errorf("sender virtual time %v, want the PostCost charges", v[0])
	}
}

// TestComputeWallAccruesHostTime is its counterpart: without
// NoComputeWall the sleep between the two sends is accrued as compute.
func TestComputeWallAccruesHostTime(t *testing.T) {
	if v := hostTimeClocks(t, false); v[0] < 20*time.Millisecond {
		t.Errorf("sleeping sender's virtual time %v, want >= 20ms of accrued host time", v[0])
	}
}
