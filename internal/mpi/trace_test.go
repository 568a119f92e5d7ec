package mpi

import (
	"testing"

	"repro/internal/trace"
)

// TestTracedOpsEmitEvents runs a traced, modeled ring exchange plus
// collectives and checks every rank's track carries send, wait and
// collective events with monotone virtual completion stamps.
func TestTracedOpsEmitEvents(t *testing.T) {
	const P = 4
	tr := trace.New(P, 1024)
	w := testWorld(P, ThreadSingle)
	w.SetNetModel(&NetModel{Params: testParams(), NoComputeWall: true})
	w.SetTracer(tr)
	err := w.Run(func(c *Comm) {
		buf := make([]float64, 16)
		data := make([]float64, 16)
		req := c.Irecv((c.Rank()+P-1)%P, 7, buf)
		c.Send((c.Rank()+1)%P, 7, data)
		req.Wait()
		c.AllreduceSum(1)
		c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < P; r++ {
		events := tr.RankEvents(r)
		kinds := map[string]int{}
		var lastEnd int64
		for _, e := range events {
			kinds[e.Kind.String()]++
			if e.VDur < 0 {
				t.Fatalf("rank %d event %q has negative virtual duration %d", r, e.Name, e.VDur)
			}
			// Events are recorded at completion; a rank's virtual clock
			// is monotone, so completion stamps must be non-decreasing.
			if end := e.VStart + e.VDur; end < lastEnd {
				t.Fatalf("rank %d event %q completes at virtual %d ns, before prior completion %d",
					r, e.Name, end, lastEnd)
			} else {
				lastEnd = end
			}
		}
		if kinds["send"] == 0 || kinds["wait"] == 0 || kinds["collective"] == 0 {
			t.Fatalf("rank %d missing event kinds: %v", r, kinds)
		}
	}
	// The user-level send must carry its peer, tag and payload size.
	found := false
	for _, e := range tr.RankEvents(0) {
		if e.Name == "mpi.send" && e.Tag == 7 {
			found = true
			if e.Peer != 1 || e.Bytes != 16*8 {
				t.Fatalf("send event annotations wrong: peer=%d bytes=%d", e.Peer, e.Bytes)
			}
		}
	}
	if !found {
		t.Fatal("no user-tagged send event on rank 0")
	}
}

// TestTracerDisabledRecordsNothing checks a disarmed (attached but
// disabled) tracer stays silent through a full exchange.
func TestTracerDisabledRecordsNothing(t *testing.T) {
	tr := trace.New(2, 64)
	tr.Disable()
	w := testWorld(2, ThreadSingle)
	w.SetTracer(tr)
	err := w.Run(func(c *Comm) {
		buf := make([]float64, 1)
		if c.Rank() == 0 {
			c.Send(1, 3, []float64{1})
		} else {
			c.Recv(0, 3, buf)
		}
		c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(tr.Events()); n != 0 {
		t.Fatalf("disabled tracer recorded %d events", n)
	}
}

// TestTracedFaultEvents arms tracing together with fault injection and
// checks the death and recovery milestones land on the timeline.
func TestTracedFaultEvents(t *testing.T) {
	const P = 3
	tr := trace.New(P, 512)
	w := testWorld(P, ThreadSingle)
	w.SetTracer(tr)
	w.SetFaultPlan(&FaultPlan{Kills: []Kill{{Rank: 2, AfterOps: 0}}})
	err := w.Run(func(c *Comm) {
		defer func() {
			if p := recover(); p != nil {
				if _, ok := AsRankFailure(p); !ok {
					panic(p)
				}
				live := c.Agree()
				nc := c.Shrink(live)
				nc.Barrier()
			}
		}()
		buf := make([]float64, 1)
		if c.Rank() == 0 {
			c.Recv(1, 7, buf)
		} else {
			c.Send(0, 7, []float64{1})
		}
		c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	names := func(r int) map[string]int {
		m := map[string]int{}
		for _, e := range tr.RankEvents(r) {
			m[e.Name]++
		}
		return m
	}
	if names(2)["ft.dead"] != 1 {
		t.Fatalf("rank 2 track lacks its death mark: %v", names(2))
	}
	for r := 0; r < 2; r++ {
		n := names(r)
		if n["ft.shrink"] != 1 || n["mpi.agree"] == 0 {
			t.Fatalf("rank %d lacks recovery events: %v", r, n)
		}
	}
}
