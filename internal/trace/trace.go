package trace

import (
	"sync"
	"sync/atomic"
	"time"
)

// Kind classifies an event for aggregation: comm kinds (Send, Wait,
// Collective, Exchange) versus compute kinds (Region), plus Mark for
// instantaneous occurrences (faults, checkpoints, recovery steps).
type Kind uint8

const (
	// KindRegion is a nested compute phase ("poisson.cg", "scf.iteration").
	KindRegion Kind = iota
	// KindSend is a point-to-point message handed to the transport.
	KindSend
	// KindWait is time spent blocked for message or exchange completion.
	KindWait
	// KindCollective is a collective operation (barrier, bcast, reduce...).
	KindCollective
	// KindExchange is the posting phase of a halo exchange.
	KindExchange
	// KindMark is an instantaneous event (fault, checkpoint, recovery).
	KindMark
)

// String returns the Chrome-trace category name for the kind.
func (k Kind) String() string {
	switch k {
	case KindRegion:
		return "compute"
	case KindSend:
		return "send"
	case KindWait:
		return "wait"
	case KindCollective:
		return "collective"
	case KindExchange:
		return "exchange"
	case KindMark:
		return "mark"
	}
	return "unknown"
}

// Comm reports whether events of this kind count as communication time
// in the profile's %comm vs %compute split.
func (k Kind) Comm() bool {
	return k == KindSend || k == KindWait || k == KindCollective || k == KindExchange
}

// Event is one recorded occurrence on a rank's timeline. Durations are
// in nanoseconds; Start is relative to the tracer's epoch (wall) and
// VStart is the rank's virtual clock reading (zero when no net model is
// armed). Peer and Tag are -1 when not applicable; Bytes is 0 for pure
// compute regions.
type Event struct {
	Name   string
	Kind   Kind
	Rank   int
	Start  int64 // wall ns since tracer epoch
	Dur    int64 // wall ns (0 for marks)
	VStart int64 // virtual ns (net-model clock)
	VDur   int64 // virtual ns
	Peer   int
	Tag    int
	Bytes  int64
}

// Span names of the halo-exchange engine's split-phase protocol
// (internal/core). Profile derives its overlap accounting from these
// spans alone, under the clock it is asked for: a halo.wait completes
// the exchange whose halo.post carried the same tag, and the time
// between the two is latency the rank hid behind compute.
const (
	HaloPost        = "halo.post"
	HaloWait        = "halo.wait"
	ComputeInterior = "compute.interior"
	ComputeShell    = "compute.shell"
)

// Rank is one rank's emission handle: its ring buffer. The mutex guards
// the ring (MULTIPLE-mode threads of a rank share it). All emission
// methods no-op on a nil receiver — producers fetch the handle through
// an atomic gate that returns nil when tracing is off, so the disabled
// path costs one atomic load and a nil check.
type Rank struct {
	t   *Tracer
	idx int

	mu      sync.Mutex
	ev      []Event
	head, n int
	dropped int64
}

// Tracer records events for a fixed set of ranks into per-rank ring
// buffers. Build one with New, arm it on a world with
// mpi.World.SetTracer, and read it back after the run with Events,
// Profile or WriteChromeTrace.
type Tracer struct {
	on    atomic.Bool
	epoch time.Time
	ranks []Rank
	cap   int
	virt  atomic.Value // func(rank int) int64, virtual ns
}

// New builds an enabled tracer for the given number of ranks, each
// with a ring buffer of capacity events (minimum 16). All memory is
// allocated here; recording never allocates.
func New(ranks, capacity int) *Tracer {
	if ranks < 1 {
		ranks = 1
	}
	if capacity < 16 {
		capacity = 16
	}
	t := &Tracer{epoch: time.Now(), cap: capacity}
	t.ranks = make([]Rank, ranks)
	for i := range t.ranks {
		t.ranks[i].t = t
		t.ranks[i].idx = i
		t.ranks[i].ev = make([]Event, capacity)
	}
	t.on.Store(true)
	return t
}

// Ranks returns the number of rank tracks.
func (t *Tracer) Ranks() int { return len(t.ranks) }

// Enabled reports whether recording is on.
func (t *Tracer) Enabled() bool { return t.on.Load() }

// Enable turns recording on.
func (t *Tracer) Enable() { t.on.Store(true) }

// Disable turns recording off. An attached-but-disabled tracer costs
// producers the same near-zero gate as no tracer at all.
func (t *Tracer) Disable() { t.on.Store(false) }

// SetVirtualClock installs the virtual-time source (ns per rank).
// mpi.World.SetTracer wires this to the net model's per-rank clocks;
// when unset, virtual timestamps record as zero.
func (t *Tracer) SetVirtualClock(f func(rank int) int64) {
	if f != nil {
		t.virt.Store(f)
	}
}

// Rank returns the emission handle for a rank, or nil when out of
// range.
func (t *Tracer) Rank(r int) *Rank {
	if r < 0 || r >= len(t.ranks) {
		return nil
	}
	return &t.ranks[r]
}

// now returns the wall and virtual clock readings for a rank.
func (t *Tracer) now(rank int) (wall, virt int64) {
	wall = int64(time.Since(t.epoch))
	if f, ok := t.virt.Load().(func(int) int64); ok {
		virt = f(rank)
	}
	return wall, virt
}

// Dropped returns the total number of events overwritten by ring
// overflow across all ranks.
func (t *Tracer) Dropped() int64 {
	var d int64
	for i := range t.ranks {
		r := &t.ranks[i]
		r.mu.Lock()
		d += r.dropped
		r.mu.Unlock()
	}
	return d
}

// RankEvents returns a copy of one rank's retained events, oldest
// first (completion order: an event is recorded when its span ends).
func (t *Tracer) RankEvents(r int) []Event {
	if r < 0 || r >= len(t.ranks) {
		return nil
	}
	rs := &t.ranks[r]
	rs.mu.Lock()
	out := make([]Event, rs.n)
	for i := 0; i < rs.n; i++ {
		out[i] = rs.ev[(rs.head+i)%len(rs.ev)]
	}
	rs.mu.Unlock()
	return out
}

// Events returns copies of every rank's retained events, concatenated
// in rank order (oldest first within a rank).
func (t *Tracer) Events() []Event {
	var out []Event
	for r := range t.ranks {
		out = append(out, t.RankEvents(r)...)
	}
	return out
}

// Reset discards all recorded events and the drop count, keeping the
// ring memory; the epoch is not rebased, so clocks stay comparable
// across a reset.
func (t *Tracer) Reset() {
	for i := range t.ranks {
		r := &t.ranks[i]
		r.mu.Lock()
		r.head, r.n, r.dropped = 0, 0, 0
		r.mu.Unlock()
	}
}

// push appends an event to the ring, overwriting the oldest when full.
//
//gpaw:hotpath
func (r *Rank) push(e Event) {
	r.mu.Lock()
	if r.n < len(r.ev) {
		r.ev[(r.head+r.n)%len(r.ev)] = e
		r.n++
	} else {
		r.ev[r.head] = e
		r.head = (r.head + 1) % len(r.ev)
		r.dropped++
	}
	r.mu.Unlock()
}

// Span is an open interval on one rank's timeline. It is a value
// token — beginning a span allocates nothing and closing it pushes one
// Event into the ring. A span from a nil Rank is inert.
type Span struct {
	rk        *Rank
	name      string
	kind      Kind
	startWall int64
	startVirt int64
	peer, tag int
	bytes     int64
}

// Begin opens a span of the given kind. Use Region for compute phases.
//
//gpaw:hotpath
func (r *Rank) Begin(name string, kind Kind) Span {
	if r == nil || !r.t.on.Load() {
		return Span{}
	}
	w, v := r.t.now(r.idx)
	return Span{rk: r, name: name, kind: kind, startWall: w, startVirt: v, peer: -1, tag: -1}
}

// BeginComm opens a span annotated with a peer world rank, tag and
// payload size — the shape MPI sends, waits and collectives use.
//
//gpaw:hotpath
func (r *Rank) BeginComm(name string, kind Kind, peer, tag int, bytes int64) Span {
	s := r.Begin(name, kind)
	if s.rk != nil {
		s.peer, s.tag, s.bytes = peer, tag, bytes
	}
	return s
}

// Region opens a nested compute region:
//
//	defer rk.Region("poisson.cg").End()
//
//gpaw:hotpath
func (r *Rank) Region(name string) Span { return r.Begin(name, KindRegion) }

// End closes the span and records it.
//
//gpaw:hotpath
func (s Span) End() { s.EndComm(s.peer, s.tag, s.bytes) }

// EndComm closes the span, overriding its comm annotations — for
// operations whose peer or size is only known at completion (wildcard
// receives).
//
//gpaw:hotpath
func (s Span) EndComm(peer, tag int, bytes int64) {
	if s.rk == nil {
		return
	}
	w, v := s.rk.t.now(s.rk.idx)
	s.rk.push(Event{
		Name: s.name, Kind: s.kind, Rank: s.rk.idx,
		Start: s.startWall, Dur: w - s.startWall,
		VStart: s.startVirt, VDur: v - s.startVirt,
		Peer: peer, Tag: tag, Bytes: bytes,
	})
}

// Mark records an instantaneous event (fault, checkpoint, recovery).
//
//gpaw:hotpath
func (r *Rank) Mark(name string, peer, tag int, bytes int64) {
	if r == nil || !r.t.on.Load() {
		return
	}
	w, v := r.t.now(r.idx)
	r.push(Event{Name: name, Kind: KindMark, Rank: r.idx,
		Start: w, VStart: v, Peer: peer, Tag: tag, Bytes: bytes})
}
