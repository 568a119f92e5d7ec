// Package mpi is an in-process message-passing runtime with MPI
// semantics, standing in for the MPICH2 library the paper uses on Blue
// Gene/P. Ranks are goroutines inside one OS process; messages are
// copied through per-rank mailboxes with MPI's matching rules
// (source + tag, FIFO non-overtaking per (source, tag) pair).
//
// Delivery is eager and allocation-free in steady state whichever side
// arrives first. A send that finds its receive posted copies straight
// into the posted buffer. A send that arrives first is copied into an
// envelope from the destination mailbox's free list, bucketed by
// power-of-two capacity; the receive that matches it copies the payload
// out under the mailbox lock and returns the envelope to the list. A
// mailbox keeps at most maxPooledBytes (8 MiB) of payload capacity
// pooled, and envelopes beyond that are left to the garbage collector. Collectives
// reuse per-communicator scratch, and every receive they post returns
// its request to its own rank's mailbox.
//
// The surface mirrors the MPI subset GPAW's finite-difference engine
// needs: blocking and non-blocking point-to-point, request objects with
// Wait/Waitall/Test, communicator split (computed locally from a
// rank-to-color function, so it sends nothing), Cartesian topologies
// (MPI_Cart_create / MPI_Cart_shift), and the collectives used by the
// surrounding DFT code (Barrier, Bcast, Reduce, Allreduce, Gather).
//
// Thread support levels follow MPI-2: SINGLE (only one thread may call
// into the library; violations are detected and panic, standing in for
// the undefined behaviour of a real MPI) and MULTIPLE (any thread may
// call at any time). The Blue Gene/P performance difference between the
// two modes is modelled in internal/bgpsim; here the distinction is a
// correctness contract.
//
// # Calibrated network model
//
// By default delivery is eager and free — correct, but timing-blind: a
// shared-memory run cannot show communication/computation overlap or
// rank-placement effects. World.SetNetModel layers a virtual-time cost
// model over the unchanged transport (see netmodel.go): every message
// pays sender post cost, serialized DMA injection, wire time on the
// first link of its route (the six links of a node run in parallel)
// and per-hop latency over the torus/mesh distance between the
// endpoints' node coordinates, with a cheap intra-node path and free
// self-sends. NetParams.Inject is that pricing, shared with the
// internal/bgpsim replay; the constants are bgpsim's Figure-2 fit —
// bgpsim.NetModelFor builds a ready model — and rank→node placement
// comes from internal/topology's mapping strategies. Virtual clocks
// advance without sleeping (RunModeled returns the makespan). The model
// reorders time only, never data or matching, so results are
// bit-identical with the model on or off.
package mpi

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/trace"
)

// ThreadMode is the MPI-2 thread support level of a World.
type ThreadMode int

const (
	// ThreadSingle allows MPI calls from one thread per rank at a time.
	ThreadSingle ThreadMode = iota
	// ThreadMultiple allows fully concurrent MPI calls per rank.
	ThreadMultiple
)

// String implements fmt.Stringer.
func (m ThreadMode) String() string {
	if m == ThreadSingle {
		return "SINGLE"
	}
	return "MULTIPLE"
}

// AnySource matches messages from any sender in Recv/Irecv.
const AnySource = -1

// AnyTag matches messages with any tag in Recv/Irecv.
const AnyTag = -1

// envelope is a message in flight: an eager copy of the sender's data.
type envelope struct {
	src   int // sender's rank in the destination communicator
	tag   int
	data  []float64
	ctx   uint64 // context of the communicator it was sent on
	epoch int    // fault-tolerance epoch the message belongs to
	// arriveAt is the modeled virtual arrival time under the network
	// model (see netmodel.go); 0 when no model is armed or the message
	// is a free self-send.
	arriveAt int64
	// fail is non-nil for a poisoned delivery from the chaos reliability
	// sublayer (see chaos.go): the matching receive completes with this
	// typed error instead of a payload.
	fail error
}

// A mailbox pools envelopes in size classes 0 .. poolClasses-1, class k
// holding 1<<k values, and keeps at most maxPooledBytes of payload
// capacity pooled: one envelope of the largest class fills it.
const (
	poolClasses    = 21
	maxPooledBytes = 8 << (poolClasses - 1)
)

// mailbox holds a rank's unmatched arrived messages, its posted
// receives and its free requests. Its lock guards all of them and the
// state of every request the rank made; every blocked wait and probe
// of the rank sleeps on its condition variable. Posted receives are the
// Request objects themselves, so posting a receive costs no extra
// allocation; the non-nil entries of posted are exactly the rank's
// receives that no message has matched yet. reqFree holds the rank's
// completed requests handed back by Reclaim.
type mailbox struct {
	mu      sync.Mutex
	cond    *sync.Cond
	arrived []*envelope
	posted  []*Request
	reqFree []*Request
	aborted bool
	// free[k] holds consumed envelopes whose data has capacity 1<<k;
	// pooledBytes is their total capacity in bytes.
	free        [poolClasses][]*envelope
	pooledBytes int
	// watch is the op-timeout timer of every timed waiter, made by the
	// mailbox's first timed wait; armed is the deadline it is set for
	// (zero once it has fired).
	watch *time.Timer
	armed time.Time
}

// sizeClass returns the smallest k with 1<<k >= n.
func sizeClass(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// getEnvelope returns a pooled envelope whose data has length n, from
// the free list when one of n's size class is there. Caller holds m.mu
// and sets every other field.
//
//gpaw:hotpath
func (m *mailbox) getEnvelope(n int) *envelope {
	k := sizeClass(n)
	if k >= poolClasses {
		// Never pooled (putEnvelope's byte cap refuses it), so not rounded up.
		//lint:ignore hotpathalloc a message larger than the pool cap gets a buffer of its own
		return &envelope{data: make([]float64, n)}
	}
	if free := m.free[k]; len(free) > 0 {
		env := free[len(free)-1]
		free[len(free)-1] = nil
		m.free[k] = free[:len(free)-1]
		m.pooledBytes -= 8 << k
		env.data = env.data[:n]
		return env
	}
	//lint:ignore hotpathalloc pool miss: the envelope returns to the free list once a receive consumes it, so a repeating pattern stops missing
	return &envelope{data: make([]float64, n, 1<<k)}
}

// putEnvelope returns a consumed envelope to the free list unless the
// list would then hold more than maxPooledBytes. Caller holds m.mu and
// must not touch env afterwards.
//
//gpaw:hotpath
func (m *mailbox) putEnvelope(env *envelope) {
	b := 8 * cap(env.data)
	if m.pooledBytes+b > maxPooledBytes {
		return
	}
	m.pooledBytes += b
	k := sizeClass(cap(env.data))
	//lint:ignore hotpathalloc free-list growth: its capacity is warm once the message pattern repeats
	m.free[k] = append(m.free[k], env)
}

func newMailbox() *mailbox {
	m := &mailbox{}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// matches reports whether a receive for (from, wantTag) accepts a
// message from src with tag; from may be AnySource, wantTag AnyTag.
func matches(from, wantTag, src, tag int) bool {
	return (from == AnySource || from == src) && (wantTag == AnyTag || wantTag == tag)
}

// find returns the index of the earliest arrived envelope of the
// context and epoch that a receive for (from, tag) matches, or -1.
// Arrival order makes matching FIFO per (source, tag). Caller holds m.mu.
//
//gpaw:hotpath
func (m *mailbox) find(from, tag int, ctx uint64, epoch int) int {
	for i, env := range m.arrived {
		if env.ctx == ctx && env.epoch == epoch && matches(from, tag, env.src, env.tag) {
			return i
		}
	}
	return -1
}

// deliver hands one message to the mailbox, eager sends and chaos
// frames alike: the earliest posted receive of the context and epoch
// that matches completes straight from data, with no intermediate copy;
// otherwise an eager copy waits in a pooled envelope. So, as in MPI, no
// message crosses communicators, nor a pre-failure send into a
// post-recovery receive. A non-nil fail is a poisoned chaos delivery:
// its receive completes with that error. An aborted mailbox drops it.
//
//gpaw:hotpath
func (m *mailbox) deliver(src, tag int, ctx uint64, epoch int, data []float64, arriveAt int64, fail error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.aborted {
		return
	}
	defer m.cond.Broadcast()
	for i, pr := range m.posted {
		if pr != nil && pr.ctx == ctx && pr.epoch == epoch && matches(pr.prSrc, pr.prTag, src, tag) {
			m.posted[i] = nil
			completeRecv(pr, src, tag, data, arriveAt, fail)
			return
		}
	}
	env := m.getEnvelope(len(data))
	copy(env.data, data)
	env.src, env.tag, env.ctx, env.epoch, env.arriveAt, env.fail = src, tag, ctx, epoch, arriveAt, fail
	//lint:ignore hotpathalloc arrived-list growth: its capacity is warm once the message pattern repeats
	m.arrived = append(m.arrived, env)
}

// sleep blocks the caller, which holds m.mu, on the mailbox's condition
// variable until the next delivery, completion, abort, revocation or
// timer tick; the caller re-checks what it waits for. A zero deadline
// waits without bound. Past its deadline sleep releases m.mu and panics
// with a *TimeoutError for the world rank waiting on (peer, tag). The
// mailbox's one timer stays set for the earliest deadline of its
// waiters: a waiter re-arms it when it is unset or set later.
func (m *mailbox) sleep(w *World, rank, peer, tag int, deadline time.Time) {
	if !deadline.IsZero() {
		now := time.Now()
		if !now.Before(deadline) {
			m.mu.Unlock()
			panic(&TimeoutError{After: time.Duration(w.opTimeout.Load()), Rank: rank, Peer: peer, Tag: tag, Pending: w.PendingOps()})
		}
		if m.armed.IsZero() || deadline.Before(m.armed) {
			if m.watch == nil {
				m.watch = time.AfterFunc(deadline.Sub(now), m.tick)
			} else {
				m.watch.Reset(deadline.Sub(now))
			}
			m.armed = deadline
		}
	}
	m.cond.Wait()
}

// tick is the timer's callback: every waiter wakes to check its
// deadline, and the earliest left re-arms the timer.
func (m *mailbox) tick() {
	m.mu.Lock()
	m.armed = time.Time{}
	m.cond.Broadcast()
	m.mu.Unlock()
}

// World is a set of ranks that can exchange messages. It corresponds to
// MPI_COMM_WORLD plus the process runtime.
type World struct {
	size  int
	mode  ThreadMode
	boxes []*mailbox

	// Fault-tolerance state (see fault.go). ftOn gates every hot-path
	// check behind one atomic load, so worlds that never arm faults pay
	// nothing beyond it.
	ftOn         atomic.Bool
	plan         *FaultPlan
	killAt       []int64 // per-rank op-count kill threshold, -1 = never
	ops          []int64 // per-rank op counters, guarded by deadMu
	deadMu       sync.Mutex
	dead         []bool
	deadList     []int        // world ranks in death order
	epoch        atomic.Int64 // current epoch, advanced by Shrink
	revokedEpoch atomic.Int64 // highest poisoned epoch (-1: none)
	opTimeout    atomic.Int64 // blocking-wait timeout in ns (0: off)

	agreeMu     sync.Mutex
	agreeCond   *sync.Cond
	agreeRounds map[agreeKey]*agreeRound

	// Network-model state (see netmodel.go). netOn gates every hot-path
	// check behind one atomic load, like ftOn: worlds that never arm the
	// model pay nothing beyond it.
	netOn   atomic.Bool
	net     *NetModel
	clocks  []rankClock
	netBase time.Time

	// Tracing state (see trace.go and internal/trace). trcOn gates every
	// emission site behind one atomic load, exactly like ftOn and netOn:
	// worlds that never arm a tracer pay nothing beyond it.
	trcOn  atomic.Bool
	tracer *trace.Tracer

	// Chaos-transport state (see chaos.go). chaosOn gates the lossy
	// delivery path behind one atomic load, like ftOn/netOn/trcOn:
	// worlds that never arm message faults pay nothing beyond it.
	chaosOn atomic.Bool
	chaos   *chaosState

	// Context ids (newCtx): the children still being built, and the
	// last id drawn.
	ctxMu   sync.Mutex
	ctxs    map[ctxKey]ctxEntry
	lastCtx uint64
}

// NewWorld creates a world of n ranks with the given thread mode.
func NewWorld(n int, mode ThreadMode) *World {
	if n < 1 {
		panic(fmt.Sprintf("mpi: world of %d ranks", n))
	}
	w := &World{size: n, mode: mode, ctxs: make(map[ctxKey]ctxEntry)}
	w.boxes = make([]*mailbox, n)
	for i := range w.boxes {
		w.boxes[i] = newMailbox()
	}
	w.revokedEpoch.Store(-1)
	w.agreeCond = sync.NewCond(&w.agreeMu)
	return w
}

// errAborted is delivered to every blocked request when a rank panics,
// so the remaining ranks unwind instead of deadlocking.
var errAborted = fmt.Errorf("mpi: world aborted after a rank failure")

// abort completes every posted receive with errAborted, marks every
// mailbox aborted so later posts fail at once, and wakes all mailbox
// waiters. Called once when any rank panics.
func (w *World) abort() {
	w.walkPosted(func(*Request) error { return errAborted }, func(b *mailbox) {
		b.aborted = true
		b.cond.Broadcast()
	})
}

// walkPosted visits every mailbox in rank order under its lock: visit
// runs on each receive posted there that no message has matched yet,
// and a receive for which it returns an error leaves the list and
// completes with that error under the same lock, the one lock that
// guards the request. after, when non-nil, then runs on the mailbox in
// the same hold and wakes its waiters. Must not be called with a
// mailbox lock held.
func (w *World) walkPosted(visit func(*Request) error, after func(*mailbox)) {
	for _, b := range w.boxes {
		b.mu.Lock()
		for i, r := range b.posted {
			if r == nil {
				continue
			}
			if err := visit(r); err != nil {
				b.posted[i] = nil
				r.completeErr(AnySource, AnyTag, 0, err)
			}
		}
		if after != nil {
			after(b)
		}
		b.mu.Unlock()
	}
}

// Size returns the number of ranks in the world.
func (w *World) Size() int { return w.size }

// Mode returns the world's thread support level.
func (w *World) Mode() ThreadMode { return w.mode }

// Comm is a communicator: a view of a subset of world ranks with its own
// rank numbering. The zero value is not usable.
type Comm struct {
	world *World
	rank  int   // rank within this communicator
	group []int // communicator rank -> world rank

	active *int32 // concurrent-call detector shared per (world rank)
	coll   uint64 // per-rank collective sequence number (local, no lock)

	// ctx is the communicator's context id, the analogue of an MPI
	// context: messages match only within it, so traffic on communicators
	// sharing ranks (a domain and a band communicator, a process grid and
	// its row/column sub-communicators) never cross-matches, even when a
	// fast rank races ahead into a sibling's collectives. The world has
	// ctx 0; Split and Shrink draw each child's from the world's table
	// (newCtx), so every member agrees on it without any communication.
	ctx uint64
	// splits counts Split calls on this communicator. The ranks of one
	// color make the same sequence of Split calls, so the local counter
	// agrees across a child's members and names the child in newCtx.
	splits uint64

	// epoch is the fault-tolerance epoch the communicator belongs to.
	// The initial world and everything Split from it live in epoch 0; a
	// rank death revokes the current epoch (all its operations fail
	// fast) and Shrink starts the next. Requests and envelopes carry
	// their communicator's epoch, and matching requires equal epochs.
	epoch int
	// agreeSeq counts Agree calls, like coll for collectives: all ranks
	// call Agree in the same order, so the local counters line up.
	agreeSeq uint64

	// Collective scratch, so no collective allocates per call: red
	// receives ReduceFunc's contributions at the root (grown once to the
	// largest reduction), sum holds the one-value reductions' operands
	// (AllreduceSum, AllreduceMax), which a posted receive would
	// otherwise move to the heap.
	red []float64
	sum [2]float64
}

// Rank returns the caller's rank within the communicator.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return len(c.group) }

// World returns the underlying world.
func (c *Comm) World() *World { return c.world }

// enter/exit implement the SINGLE-mode misuse detector and, once the
// fault machinery is armed, the per-operation fault hook (poisoned-
// epoch fail-fast, injected jitter, scheduled kills).
func (c *Comm) enter() {
	if c.world.netOn.Load() {
		// Accrue the wall time the rank spent computing since its last
		// MPI call before any fault jitter sleeps, so injected delay is
		// never mistaken for compute.
		c.world.netEnter(c.group[c.rank])
	}
	if c.world.ftOn.Load() {
		c.faultPoint()
	}
	if c.world.mode == ThreadSingle {
		if n := atomic.AddInt32(c.active, 1); n > 1 {
			panic("mpi: concurrent MPI calls from multiple threads in SINGLE mode")
		}
	}
}

func (c *Comm) exit() {
	if c.world.mode == ThreadSingle {
		atomic.AddInt32(c.active, -1)
	}
	if c.world.netOn.Load() {
		c.world.netExit(c.group[c.rank])
	}
}

// Run spawns n goroutine ranks executing body and waits for all of them.
// A panic in any rank is recovered and returned as an error (first one
// wins); remaining ranks may deadlock-free finish or be abandoned — the
// world must not be reused after an error. A rank killed by a fault plan
// (World.SetFaultPlan) or by Comm.Fail exits quietly rather than failing
// the world: surviving ranks observe the death as *ErrRankFailed panics
// and decide for themselves whether to recover (Agree/Shrink) or unwind;
// only an unrecovered panic reaching Run is reported as the returned
// error.
func Run(n int, mode ThreadMode, body func(c *Comm)) error {
	return NewWorld(n, mode).runRanks(body)
}

// runRanks spawns one goroutine per rank of the (possibly pre-armed)
// world and waits for all of them — the engine behind Run and World.Run.
func (w *World) runRanks(body func(c *Comm)) error {
	n := w.size
	var wg sync.WaitGroup
	var firstErr atomic.Value
	group := make([]int, n)
	for i := range group {
		group[i] = i
	}
	for r := 0; r < n; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					if _, ok := p.(rankKilled); ok {
						// Injected death: the rank just exits.
						return
					}
					if w.isDead(r) {
						// Death throes of an already-killed rank (e.g. a
						// worker thread unwinding with the failure error).
						return
					}
					firstErr.CompareAndSwap(nil, fmt.Errorf("mpi: rank %d panicked: %v", r, p))
					// Unblock every other rank so the process can unwind.
					w.abort()
				}
			}()
			var active int32
			c := &Comm{world: w, rank: r, group: group, active: &active}
			body(c)
		}()
	}
	wg.Wait()
	if e := firstErr.Load(); e != nil {
		return e.(error)
	}
	return nil
}

// worldRank maps a communicator rank to the world rank.
func (c *Comm) worldRank(commRank int) int {
	if commRank < 0 || commRank >= len(c.group) {
		panic(fmt.Sprintf("mpi: rank %d out of range [0,%d)", commRank, len(c.group)))
	}
	return c.group[commRank]
}

// Send delivers an eager copy of data to rank `to` with the given tag.
// It corresponds to a buffered MPI_Send and never blocks.
//
//gpaw:hotpath
func (c *Comm) Send(to, tag int, data []float64) {
	c.enter()
	defer c.exit()
	c.send(to, tag, data)
}

//gpaw:hotpath
func (c *Comm) send(to, tag int, data []float64) {
	if tag < 0 {
		//lint:ignore hotpathalloc panic path: formatting the message as we die is fine
		panic(fmt.Sprintf("mpi: negative user tag %d", tag))
	}
	c.sendInternal(to, tag, data)
}

// sendInternal is send without the tag-sign restriction; collectives use
// negative tags so they can never collide with user point-to-point
// traffic. When tracing is armed it records one send span per message
// (virtual duration = the modeled post cost).
//
//gpaw:hotpath
func (c *Comm) sendInternal(to, tag int, data []float64) {
	if rk := c.traceRank(); rk != nil {
		defer rk.BeginComm("mpi.send", trace.KindSend, c.worldRank(to), tag, int64(len(data))*8).End()
	}
	c.sendDeliver(to, tag, data)
}

// sendDeliver performs the untraced eager delivery.
//
//gpaw:hotpath
func (c *Comm) sendDeliver(to, tag int, data []float64) {
	toW := c.worldRank(to)
	if c.world.ftOn.Load() {
		c.world.checkPeer(c.epoch, toW)
	}
	// Modeled delivery cost: charge the sender's CPU and injection path
	// and stamp the virtual arrival time before the physical (eager)
	// delivery below, which is unchanged by the model.
	var arriveAt int64
	if c.world.netOn.Load() {
		arriveAt = c.world.sendCost(c.group[c.rank], toW, len(data))
	}
	if c.world.chaosOn.Load() {
		// Lossy transport armed: route through the chaos layer's framed,
		// sequenced, retransmitting delivery path (see chaos.go).
		c.chaosSend(toW, tag, data, arriveAt)
		return
	}
	c.world.boxes[toW].deliver(c.rank, tag, c.ctx, c.epoch, data, arriveAt, nil)
}

// completeRecv copies a message payload into the posted buffer and
// completes the request; a non-nil fail completes it with that error
// instead. Caller holds the owner's mailbox lock and wakes its waiters.
// A message larger than the posted buffer is a truncation error,
// surfaced as a panic at the receiver's Wait (never in the sender's
// goroutine, which may be a different rank). Callers complete only a
// request they take out of posted (or never posted) in the same hold,
// so a request a revocation completed never has its buffer written.
func completeRecv(pr *Request, src, tag int, data []float64, arriveAt int64, fail error) {
	if fail == nil && len(data) > len(pr.buf) {
		fail = fmt.Errorf("mpi: message of %d values truncated into buffer of %d", len(data), len(pr.buf))
	}
	pr.completeErr(src, tag, copy(pr.buf, data), fail)
	pr.arriveAt = arriveAt
}

// Recv blocks until a message matching (from, tag) arrives, copies it
// into buf, and returns the source rank, tag and value count. from may be
// AnySource and tag may be AnyTag.
//
//gpaw:hotpath
func (c *Comm) Recv(from, tag int, buf []float64) (src, gotTag, n int) {
	c.enter()
	defer c.exit()
	return c.recv(from, tag, buf)
}

// recv is a blocking receive that returns its request to the rank's
// mailbox: the form every blocking receive of the package takes.
//
//gpaw:hotpath
func (c *Comm) recv(from, tag int, buf []float64) (src, gotTag, n int) {
	req := c.irecv(from, tag, buf)
	src, gotTag, n = req.Wait()
	Reclaim(req)
	return src, gotTag, n
}

// Isend initiates a non-blocking send and returns its request. With the
// eager-copy transport the request is already complete; the object exists
// so protocol code can be written exactly as with a real MPI.
//
//gpaw:hotpath
func (c *Comm) Isend(to, tag int, data []float64) *Request {
	c.enter()
	defer c.exit()
	c.send(to, tag, data)
	me := c.group[c.rank]
	box := c.world.boxes[me]
	box.mu.Lock()
	r := box.getRequest(c.world)
	r.owner = me
	r.completeErr(c.rank, tag, len(data), nil)
	box.mu.Unlock()
	return r
}

// Irecv posts a non-blocking receive into buf and returns its request.
//
//gpaw:hotpath
func (c *Comm) Irecv(from, tag int, buf []float64) *Request {
	c.enter()
	defer c.exit()
	return c.irecv(from, tag, buf)
}

// testHookIrecv, when set by a test, runs on entry to every receive
// post, before the mailbox is locked — the window in which a peer's
// death must still fail the receive.
var testHookIrecv func()

//gpaw:hotpath
func (c *Comm) irecv(from, tag int, buf []float64) *Request {
	if testHookIrecv != nil {
		testHookIrecv()
	}
	if c.world.netOn.Load() {
		c.world.chargePost(c.group[c.rank])
	}
	me := c.group[c.rank]
	box := c.world.boxes[me]
	box.mu.Lock()
	req := box.getRequest(c.world)
	req.prSrc, req.prTag, req.buf = from, tag, buf
	req.owner = me
	req.ctx, req.epoch = c.ctx, c.epoch
	if i := box.find(from, tag, c.ctx, c.epoch); i >= 0 {
		env := box.arrived[i]
		last := len(box.arrived) - 1
		copy(box.arrived[i:], box.arrived[i+1:])
		box.arrived[last] = nil
		box.arrived = box.arrived[:last]
		// Copy out under the mailbox lock: once the envelope is back on
		// the free list, the next unmatched send may reuse it.
		completeRecv(req, env.src, env.tag, env.data, env.arriveAt, env.fail)
		box.putEnvelope(env)
		box.mu.Unlock()
		return req
	}
	if box.aborted {
		req.completeErr(AnySource, AnyTag, 0, errAborted)
		box.mu.Unlock()
		return req
	}
	//lint:ignore hotpathalloc posted-receive list of the warm mailbox; capacity is stable once the exchange pattern repeats
	box.posted = append(box.posted, req)
	idx := len(box.posted) - 1
	// Fault checks come after the post, in the same hold of the mailbox
	// lock, so a revocation can never strand the request: revoke stores
	// revokedEpoch before it takes any mailbox lock and then sweeps each
	// posted list under that list's lock. Either its sweep of this
	// mailbox comes after this hold and finds the request, or it came
	// before and the check below sees the epoch. abort's sweep and the
	// aborted check above pair the same way. ftOn is loaded here, not on
	// entry: an un-planned world arms it at the first death (die stores
	// it before revoke sweeps), which may fall between this call's entry
	// and the post above.
	var failErr error
	var deadPeer = -1
	if c.world.ftOn.Load() {
		if int64(c.epoch) <= c.world.revokedEpoch.Load() {
			failErr = c.world.failure()
		} else if from != AnySource && from >= 0 && from < len(c.group) {
			if fw := c.group[from]; c.world.isDead(fw) {
				//lint:ignore hotpathalloc fault path: a receive posted to a dead peer allocates its error, never the healthy steady state
				failErr = &ErrRankFailed{Rank: fw}
				deadPeer = fw
			}
		}
		if failErr != nil {
			box.posted[idx] = nil
			req.completeErr(AnySource, AnyTag, 0, failErr)
		}
	}
	// Garbage-collect matched slots occasionally to bound growth.
	if len(box.posted) > 64 {
		live := box.posted[:0]
		for _, p := range box.posted {
			if p != nil {
				//lint:ignore hotpathalloc in-place compaction into posted[:0] — never grows the backing array
				live = append(live, p)
			}
		}
		box.posted = live
	}
	box.mu.Unlock()
	if deadPeer >= 0 {
		c.world.revoke(int64(c.epoch), deadPeer)
	}
	return req
}

// Sendrecv sends one buffer and receives another in a single, deadlock-
// free operation (MPI_Sendrecv).
func (c *Comm) Sendrecv(to, sendTag int, sendBuf []float64, from, recvTag int, recvBuf []float64) (n int) {
	c.enter()
	defer c.exit()
	req := c.irecv(from, recvTag, recvBuf)
	c.send(to, sendTag, sendBuf)
	_, _, n = req.Wait()
	Reclaim(req)
	return n
}

// Probe blocks until a matching message is available without receiving
// it, returning its source, tag, and length. Like Wait, it is bounded
// by the world's op timeout (World.SetOpTimeout).
func (c *Comm) Probe(from, tag int) (src, gotTag, n int) {
	c.enter()
	defer c.exit()
	me := c.group[c.rank]
	box := c.world.boxes[me]
	deadline := c.world.opDeadline()
	var fail error
	var arriveAt int64
	box.mu.Lock()
	for {
		if box.aborted {
			box.mu.Unlock()
			panic(errAborted)
		}
		if c.world.ftOn.Load() {
			if c.world.isDead(me) {
				box.mu.Unlock()
				panic(rankKilled{me})
			}
			if int64(c.epoch) <= c.world.revokedEpoch.Load() {
				box.mu.Unlock()
				panic(c.world.failure())
			}
		}
		if i := box.find(from, tag, c.ctx, c.epoch); i >= 0 {
			env := box.arrived[i]
			src, gotTag, n, fail, arriveAt = env.src, env.tag, len(env.data), env.fail, env.arriveAt
			break
		}
		box.sleep(c.world, me, from, tag, deadline)
	}
	box.mu.Unlock()
	if fail != nil {
		panic(fail)
	}
	// A probe observes the message, so the observer's clock advances to
	// its modeled arrival.
	if c.world.netOn.Load() {
		c.world.advanceTo(me, arriveAt)
	}
	return src, gotTag, n
}

// Self returns a one-rank communicator on a world of its own, the
// analogue of MPI_COMM_SELF: the calling goroutine is rank 0. There is
// no World.Run and no rank goroutine, so a panic unwinds the caller
// directly.
func Self() *Comm {
	var active int32
	return &Comm{world: NewWorld(1, ThreadSingle), group: []int{0}, active: &active}
}
