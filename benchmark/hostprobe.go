package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// The defining host is a two-vCPU guest on a shared machine. Whatever
// else that machine runs slows this process down by up to half, in
// phases of seconds to minutes, and no statistic over the operations of
// one run removes that: a whole run sits inside one phase (README,
// "Steadiness"). What does follow the phases is a fixed piece of
// arithmetic timed again and again while the operation runs. hostProbe
// is that piece of arithmetic; wall_s and setup_s are wall time divided
// by the slowdown it saw over the same interval, that is, seconds on the
// defining host when it has the machine to itself.

const (
	// probeEvery is the pause between two probe timings. One timing takes
	// about 0.1 ms, so the probe costs the operations about 5 % of one core.
	probeEvery = 2 * time.Millisecond
	// probeQuietSeconds is what one timing takes on the defining host
	// (Xeon "Processor @ 2.10GHz", family 6 model 207) with nothing beside
	// it: the floor its timings return to, 0.093 to 0.109 ms over a day. A
	// constant and not the floor of each run, because a run inside a busy
	// phase never sees the floor. On another machine it only rescales every
	// time by the same factor.
	probeQuietSeconds = 100e-6
)

// window is an interval of wall time an operation or a set-up occupied.
type window struct{ from, to time.Time }

func (w window) ns() int64 { return int64(w.to.Sub(w.from)) }

// hostProbe times probeKernel every probeEvery on a goroutine of its own
// from start until stop.
type hostProbe struct {
	stopc, done chan struct{}
	mu          sync.Mutex
	at          []time.Time
	dur         []float64 // seconds, parallel to at
}

var probeSink float64

// probeKernel is a few independent integer and floating-point chains on
// registers: no memory traffic and no allocation, so it competes with
// the operations for nothing but the core it runs on, and enough
// instructions in flight that a busy sibling hyperthread shows.
func probeKernel() float64 {
	var a, b, c, d uint64 = 1, 2, 3, 4
	x, y, z, w := 1.0, 1.1, 1.2, 1.3
	for i := 0; i < 40000; i++ {
		a = a*6364136223846793005 + 1442695040888963407
		b ^= b << 13
		b ^= b >> 7
		b ^= b << 17
		c += a >> 33
		d = d*3 + b
		x = x*1.0000001 + 0.1
		y = y*0.9999999 + 0.2
		z += x * y
		w += z * 1e-9
	}
	return float64(c+d) + w
}

func startHostProbe() *hostProbe {
	h := &hostProbe{stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(probeEvery)
		defer tick.Stop()
		for {
			start := time.Now()
			probeSink += probeKernel()
			d := time.Since(start).Seconds()
			h.mu.Lock()
			h.at = append(h.at, start)
			h.dur = append(h.dur, d)
			h.mu.Unlock()
			select {
			case <-h.stopc:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends the probe's goroutine and waits for it.
func (h *hostProbe) stop() {
	close(h.stopc)
	<-h.done
}

// slowdown is how much slower than probeQuietSeconds the probe ran
// during w: the mean of its timings there without the lowest and the
// highest tenth. That mean follows the share of the interval the host
// was busy, nearly in proportion, and ignores the few timings a
// descheduled vCPU or a collector pause stretched tenfold. It is 1 when
// the probe has no timing inside w.
func (h *hostProbe) slowdown(w window) float64 {
	h.mu.Lock()
	lo := sort.Search(len(h.at), func(i int) bool { return !h.at[i].Before(w.from) })
	hi := sort.Search(len(h.at), func(i int) bool { return !h.at[i].Before(w.to) })
	in := append([]float64(nil), h.dur[lo:hi]...)
	h.mu.Unlock()
	if len(in) == 0 {
		return 1
	}
	sort.Float64s(in)
	mid := in[len(in)/10 : len(in)-len(in)/10]
	sum := 0.0
	for _, d := range mid {
		sum += d
	}
	return sum / float64(len(mid)) / probeQuietSeconds
}

// quietSeconds is the wall time of the windows on the quiet host: each
// window's length divided by the slowdown the probe saw during it,
// raised to exponent (see workload.hostExponent).
func (h *hostProbe) quietSeconds(ws []window, exponent float64) float64 {
	sum := 0.0
	for _, w := range ws {
		sum += float64(w.ns()) / 1e9 / math.Pow(h.slowdown(w), exponent)
	}
	return sum
}
