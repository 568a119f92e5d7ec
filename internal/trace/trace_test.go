package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// TestRingOverflowDropsOldest fills a ring past capacity and checks
// the newest events survive, in order, with an exact drop count.
func TestRingOverflowDropsOldest(t *testing.T) {
	tr := New(1, 16)
	rk := tr.Rank(0)
	names := make([]string, 40)
	for i := range names {
		names[i] = "ev" + string(rune('A'+i%26)) + string(rune('0'+i/26))
		rk.Mark(names[i], -1, i, 0)
	}
	got := tr.RankEvents(0)
	if len(got) != 16 {
		t.Fatalf("retained %d events, want ring capacity 16", len(got))
	}
	for i, e := range got {
		if want := names[len(names)-16+i]; e.Name != want {
			t.Fatalf("event %d = %q, want %q (oldest must be dropped first)", i, e.Name, want)
		}
		if e.Tag != len(names)-16+i {
			t.Fatalf("event %d tag = %d, corrupted ring", i, e.Tag)
		}
	}
	if d := tr.Dropped(); d != int64(len(names)-16) {
		t.Fatalf("dropped = %d, want %d", d, len(names)-16)
	}
}

// TestNilAndDisabled checks every emission path is inert on a nil
// handle and on a disabled tracer.
func TestNilAndDisabled(t *testing.T) {
	var rk *Rank
	rk.Begin("x", KindRegion).End()
	rk.BeginComm("x", KindSend, 1, 2, 3).End()
	rk.Region("x").End()
	rk.Mark("x", -1, -1, 0)

	tr := New(2, 16)
	tr.Disable()
	h := tr.Rank(0)
	h.Region("x").End()
	h.Mark("x", -1, -1, 0)
	if n := len(tr.Events()); n != 0 {
		t.Fatalf("disabled tracer recorded %d events", n)
	}
	tr.Enable()
	h.Region("y").End()
	if n := len(tr.Events()); n != 1 {
		t.Fatalf("re-enabled tracer recorded %d events, want 1", n)
	}
	if tr.Rank(5) != nil || tr.Rank(-1) != nil {
		t.Fatal("out-of-range Rank must be nil")
	}
}

// TestZeroAllocEmission asserts the steady-state recording path does
// not allocate: spans are value tokens and the ring is preallocated.
func TestZeroAllocEmission(t *testing.T) {
	tr := New(1, 64)
	rk := tr.Rank(0)
	allocs := testing.AllocsPerRun(200, func() {
		s := rk.BeginComm("mpi.send", KindSend, 1, 7, 4096)
		s.End()
		rk.Region("compute").End()
		rk.Mark("mark", -1, -1, 0)
	})
	if allocs != 0 {
		t.Fatalf("recording allocated %.1f times per run, want 0", allocs)
	}
}

// TestSelfTimeNesting builds a synthetic nested timeline and checks
// self-time subtraction and the comm/compute split.
func TestSelfTimeNesting(t *testing.T) {
	tr := New(1, 64)
	rk := tr.Rank(0)
	// Hand-build events with virtual clocks: parent [0,100] containing
	// child compute [10,40] and a wait [50,80]; completion order is
	// child, wait, parent (as real spans would record).
	rk.push(Event{Name: "child", Kind: KindRegion, VStart: 10, VDur: 30})
	rk.push(Event{Name: "wait", Kind: KindWait, VStart: 50, VDur: 30})
	rk.push(Event{Name: "parent", Kind: KindRegion, VStart: 0, VDur: 100})
	p := tr.Profile(Virtual)
	byName := map[string]PhaseStat{}
	for _, ps := range p.Phases {
		byName[ps.Name] = ps
	}
	if got := byName["parent"].SelfNs; got != 40 {
		t.Fatalf("parent self = %d, want 100-30-30 = 40", got)
	}
	if got := byName["child"].SelfNs; got != 30 {
		t.Fatalf("child self = %d, want 30", got)
	}
	if p.CommNs != 30 || p.ComputeNs != 70 {
		t.Fatalf("comm/compute = %d/%d, want 30/70", p.CommNs, p.ComputeNs)
	}
}

// TestSelfTimeZeroDurationTies checks the parent/child tie-break when
// the virtual clock did not advance: later-recorded (the parent) wins,
// and nothing goes negative.
func TestSelfTimeZeroDurationTies(t *testing.T) {
	tr := New(1, 16)
	rk := tr.Rank(0)
	rk.push(Event{Name: "inner", Kind: KindRegion, VStart: 5, VDur: 0})
	rk.push(Event{Name: "outer", Kind: KindRegion, VStart: 5, VDur: 0})
	p := tr.Profile(Virtual)
	for _, ps := range p.Phases {
		if ps.SelfNs < 0 {
			t.Fatalf("phase %s has negative self time %d", ps.Name, ps.SelfNs)
		}
	}
}

// TestOverlapEfficiency checks the split-phase accounting Profile reads
// off the engine's spans: a halo.wait pairs with the halo.post of its
// tag even when double-buffered exchanges or two workers' exchanges
// interleave on one track, an untagged (serialized) wait and a second
// wait of a consumed tag hide nothing, a post left without its wait is
// superseded by the next post of its tag, and each clock reads only its
// own timestamps.
func TestOverlapEfficiency(t *testing.T) {
	tr := New(2, 32)
	if p := tr.Profile(Wall); p.OverlapEfficiency != 0 || p.HiddenWaitNs != 0 {
		t.Fatalf("empty tracer profile: %+v", p)
	}
	// Virtual timestamps as given, wall ones ten times larger; pushed in
	// completion order, as spans record.
	ev := func(r int, name string, kind Kind, tag int, start, dur int64) {
		tr.Rank(r).push(Event{Name: name, Kind: kind, Peer: -1, Tag: tag,
			Start: 10 * start, Dur: 10 * dur, VStart: start, VDur: dur})
	}
	// Rank 0, one worker double-buffering batches tagged 0 and 6, then a
	// serialized exchange.
	ev(0, HaloPost, KindExchange, 0, 0, 5)
	ev(0, HaloPost, KindExchange, 6, 5, 5)
	ev(0, ComputeInterior, KindRegion, -1, 10, 30)
	ev(0, HaloWait, KindWait, 0, 40, 10) // hidden 40-5
	ev(0, ComputeShell, KindRegion, -1, 50, 10)
	ev(0, ComputeInterior, KindRegion, -1, 60, 20)
	ev(0, HaloWait, KindWait, 6, 80, 10) // hidden 80-10
	ev(0, HaloWait, KindWait, -1, 90, 10)
	// Rank 1, two hybrid-multiple workers (tag bases 0 and 100).
	ev(1, HaloPost, KindExchange, 0, 0, 5)
	ev(1, HaloPost, KindExchange, 100, 2, 5)
	ev(1, HaloWait, KindWait, 100, 20, 5) // hidden 20-7
	ev(1, HaloWait, KindWait, 0, 30, 5)   // hidden 30-5
	ev(1, HaloWait, KindWait, 0, 40, 5)   // its post is consumed
	// An orphan post (its wait never ran), then a fresh post and wait on
	// the same tag: the wait pairs with the fresh post.
	ev(1, HaloPost, KindExchange, 200, 50, 5)
	ev(1, HaloPost, KindExchange, 200, 100, 5)
	ev(1, HaloWait, KindWait, 200, 110, 5) // hidden 110-105
	const hidden, visible, interior, shell = 35 + 70 + 13 + 25 + 5, 30 + 15 + 5, 50, 10
	for _, c := range []struct {
		clock Clock
		scale int64
	}{{Virtual, 1}, {Wall, 10}} {
		p := tr.Profile(c.clock)
		if p.HiddenWaitNs != c.scale*hidden || p.VisibleWaitNs != c.scale*visible ||
			p.InteriorNs != c.scale*interior || p.ShellNs != c.scale*shell {
			t.Errorf("%v clock: hidden/visible/interior/shell = %d/%d/%d/%d, want %d/%d/%d/%d", c.clock,
				p.HiddenWaitNs, p.VisibleWaitNs, p.InteriorNs, p.ShellNs,
				c.scale*hidden, c.scale*visible, c.scale*interior, c.scale*shell)
		}
		if want := float64(hidden) / float64(hidden+visible); p.OverlapEfficiency != want {
			t.Errorf("%v clock: efficiency = %v, want %v", c.clock, p.OverlapEfficiency, want)
		}
	}
}

// TestChromeTrace checks the export is valid JSON with one named
// track per rank and well-formed complete events.
func TestChromeTrace(t *testing.T) {
	tr := New(3, 32)
	for r := 0; r < 3; r++ {
		rk := tr.Rank(r)
		s := rk.Region("solve")
		rk.BeginComm("mpi.send", KindSend, (r+1)%3, 4, 800).End()
		s.End()
		rk.Mark("ckpt.save", -1, -1, 1024)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf, Wall); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Tid  int            `json:"tid"`
			Dur  *float64       `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	tracks := map[int]bool{}
	var spans, marks int
	for _, e := range parsed.TraceEvents {
		switch e.Ph {
		case "M":
			if e.Name == "thread_name" {
				tracks[e.Tid] = true
			}
		case "X":
			spans++
			if e.Dur == nil || *e.Dur < 0 {
				t.Fatalf("complete event %q lacks a non-negative dur", e.Name)
			}
		case "i":
			marks++
		}
	}
	if len(tracks) != 3 {
		t.Fatalf("thread_name tracks = %d, want 3", len(tracks))
	}
	if spans != 6 || marks != 3 {
		t.Fatalf("spans/marks = %d/%d, want 6/3", spans, marks)
	}
}

// TestTimelineSmoke exercises the text timeline renderer.
func TestTimelineSmoke(t *testing.T) {
	tr := New(2, 32)
	for r := 0; r < 2; r++ {
		rk := tr.Rank(r)
		s := rk.Region("outer")
		rk.Region("inner").End()
		s.End()
	}
	var buf bytes.Buffer
	tr.WriteTimeline(&buf, Wall, 10)
	out := buf.String()
	if !strings.Contains(out, "rank 0") || !strings.Contains(out, "rank 1") {
		t.Fatalf("timeline missing rank headers:\n%s", out)
	}
	if !strings.Contains(out, "inner") || !strings.Contains(out, "outer") {
		t.Fatalf("timeline missing span names:\n%s", out)
	}
}

// TestConcurrentEmission hammers one rank's ring from several
// goroutines (the MULTIPLE-mode shape) — run under -race in CI.
func TestConcurrentEmission(t *testing.T) {
	tr := New(2, 128)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rk := tr.Rank(g % 2)
			for i := 0; i < 500; i++ {
				s := rk.BeginComm("mpi.send", KindSend, g, i, 64)
				s.End()
			}
		}(g)
	}
	wg.Wait()
	total := int64(len(tr.Events())) + tr.Dropped()
	if total != 2000 {
		t.Fatalf("events+dropped = %d, want 2000", total)
	}
	_ = tr.Profile(Wall)
	tr.Reset()
	if len(tr.Events()) != 0 || tr.Dropped() != 0 {
		t.Fatal("Reset left state behind")
	}
}
