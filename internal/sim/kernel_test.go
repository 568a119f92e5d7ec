package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestKernelRunsEventsInTimeOrder(t *testing.T) {
	k := NewKernel()
	var got []float64
	times := []float64{3, 1, 2, 5, 4, 0}
	for _, tm := range times {
		tm := tm
		k.At(tm, func() { got = append(got, tm) })
	}
	end := k.Run()
	if end != 5 {
		t.Fatalf("final time = %g, want 5", end)
	}
	if !sort.Float64sAreSorted(got) {
		t.Fatalf("events fired out of order: %v", got)
	}
	if len(got) != len(times) {
		t.Fatalf("fired %d events, want %d", len(got), len(times))
	}
}

func TestKernelTieBreakIsFIFO(t *testing.T) {
	k := NewKernel()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.At(1.0, func() { got = append(got, i) })
	}
	k.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events fired out of schedule order: %v", got)
		}
	}
}

func TestKernelAfterAccumulates(t *testing.T) {
	k := NewKernel()
	var seen []float64
	k.After(1, func() {
		seen = append(seen, k.Now())
		k.After(2, func() { seen = append(seen, k.Now()) })
	})
	k.Run()
	if len(seen) != 2 || seen[0] != 1 || seen[1] != 3 {
		t.Fatalf("chained After produced times %v, want [1 3]", seen)
	}
}

func TestKernelSchedulingInPastPanics(t *testing.T) {
	k := NewKernel()
	k.At(5, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		k.At(1, func() {})
	})
	k.Run()
}

func TestKernelHoldNegativePanics(t *testing.T) {
	k := NewKernel()
	k.Spawn(func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("Hold(-1) did not panic")
			}
		}()
		p.Hold(-1)
	})
	k.Run()
}

func TestProcHoldAdvancesClock(t *testing.T) {
	k := NewKernel()
	var stamps []float64
	k.Spawn(func(p *Proc) {
		stamps = append(stamps, p.Now())
		p.Hold(1.5)
		stamps = append(stamps, p.Now())
		p.Hold(0) // zero-length hold is legal
		stamps = append(stamps, p.Now())
		p.HoldUntil(10)
		stamps = append(stamps, p.Now())
		p.HoldUntil(3) // in the past: no-op
		stamps = append(stamps, p.Now())
	})
	k.Run()
	want := []float64{0, 1.5, 1.5, 10, 10}
	if len(stamps) != len(want) {
		t.Fatalf("stamps = %v, want %v", stamps, want)
	}
	for i := range want {
		if stamps[i] != want[i] {
			t.Fatalf("stamps = %v, want %v", stamps, want)
		}
	}
}

func TestTwoProcsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		k := NewKernel()
		var trace []string
		k.Spawn(func(p *Proc) {
			for i := 0; i < 3; i++ {
				trace = append(trace, "a")
				p.Hold(2)
			}
		})
		k.Spawn(func(p *Proc) {
			for i := 0; i < 3; i++ {
				trace = append(trace, "b")
				p.Hold(3)
			}
		})
		k.Run()
		return trace
	}
	first := run()
	for i := 0; i < 10; i++ {
		if got := run(); len(got) != len(first) {
			t.Fatalf("nondeterministic trace length: %v vs %v", got, first)
		} else {
			for j := range got {
				if got[j] != first[j] {
					t.Fatalf("nondeterministic trace: %v vs %v", got, first)
				}
			}
		}
	}
}

func TestSignalWakesAllWaiters(t *testing.T) {
	k := NewKernel()
	var s Signal
	woken := 0
	for i := 0; i < 5; i++ {
		k.Spawn(func(p *Proc) {
			p.WaitSignal(&s)
			woken++
		})
	}
	k.Spawn(func(p *Proc) {
		p.Hold(1)
		s.Fire(k)
	})
	k.Run()
	if woken != 5 {
		t.Fatalf("woken = %d, want 5", woken)
	}
	if len(s.waiters) != 0 {
		t.Fatalf("still %d waiting after fire", len(s.waiters))
	}
}

func TestResourceFIFOServesInOrder(t *testing.T) {
	var r Resource
	// Three requests arriving at t=0 each taking 2s must finish at 2,4,6.
	f1 := r.Reserve(0, 2)
	f2 := r.Reserve(0, 2)
	f3 := r.Reserve(0, 2)
	if f1 != 2 || f2 != 4 || f3 != 6 {
		t.Fatalf("finishes = %g,%g,%g want 2,4,6", f1, f2, f3)
	}
	// A late arrival after the backlog drains starts immediately.
	f4 := r.Reserve(10, 1)
	if f4 != 11 {
		t.Fatalf("idle-arrival finish = %g, want 11", f4)
	}
}

func TestProcUseSerializesOnResource(t *testing.T) {
	k := NewKernel()
	var r Resource
	var finishes []float64
	for i := 0; i < 4; i++ {
		k.Spawn(func(p *Proc) {
			p.Use(&r, 1)
			finishes = append(finishes, p.Now())
		})
	}
	k.Run()
	want := []float64{1, 2, 3, 4}
	for i := range want {
		if finishes[i] != want[i] {
			t.Fatalf("finishes = %v, want %v", finishes, want)
		}
	}
}

// Property: for any sequence of (arrival, duration) pairs with arrivals
// sorted, FIFO completion times are nondecreasing and each request's span
// fits entirely after its arrival.
func TestResourceFIFOProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var r Resource
		arrival := 0.0
		prevFinish := 0.0
		for i := 0; i < int(n%40)+1; i++ {
			arrival += rng.Float64()
			d := rng.Float64()
			finish := r.Reserve(arrival, d)
			if finish < arrival+d {
				return false // served before arrival or truncated
			}
			if finish < prevFinish {
				return false // FIFO order violated
			}
			prevFinish = finish
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: counters sum exactly in order-independent fashion for integral
// values.
func TestCounterProperty(t *testing.T) {
	f := func(vals []uint16) bool {
		var c Counter
		var want float64
		for _, v := range vals {
			c.Add(float64(v))
			want += float64(v)
		}
		return c.Total() == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
