package mpi

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/trace"
)

// Fault tolerance. This file adds a ULFM-flavoured failure model to the
// in-process runtime, standing in for the node losses that dominate at
// Blue Gene scale:
//
//   - Deterministic fault injection: a FaultPlan kills a chosen rank
//     after a chosen number of MPI operations (plus optional seeded
//     message-delay jitter), so chaos tests replay bit-identically.
//   - Failure detection: every operation that would involve a dead peer
//     fails with a typed *ErrRankFailed instead of hanging.
//   - Auto-revoke: a rank death immediately poisons the current epoch —
//     all pending requests complete with *ErrRankFailed and every
//     subsequent operation on a poisoned communicator fails fast, so
//     survivors unwind instead of deadlocking (MPI_Comm_revoke, invoked
//     implicitly by the runtime the moment a failure is detected).
//   - Agreement and shrink: Comm.Agree converges all survivors on the
//     same membership view (MPIX_Comm_agree) and Comm.Shrink builds a
//     fresh communicator of exactly the survivors in a new epoch
//     (MPIX_Comm_shrink), with pre-shrink traffic purged.
//
// Epochs are what make recovery sound: every communicator, request and
// in-flight envelope is stamped with the epoch it belongs to, a death
// revokes the current epoch, and Shrink starts the next one. Matching
// requires equal epochs, so a straggler message from before a failure
// can never satisfy a receive posted after recovery.

// ErrRankFailed reports that an MPI operation could not complete
// because a peer rank died. Rank is the world rank of the failed peer
// (-1 when the specific culprit is unknown). It surfaces as a panic in
// the calling goroutine — the same convention as every other mpi
// delivery error — and is recoverable with AsRankFailure or errors.As.
type ErrRankFailed struct{ Rank int }

func (e *ErrRankFailed) Error() string {
	if e.Rank < 0 {
		return "mpi: peer rank failed"
	}
	return fmt.Sprintf("mpi: rank %d failed", e.Rank)
}

// AsRankFailure reports whether a recovered panic value represents a
// peer-rank failure, returning the typed error when it does. It is the
// hook fault-tolerant drivers use in their recover blocks to separate
// recoverable failures from genuine bugs.
func AsRankFailure(p any) (*ErrRankFailed, bool) {
	err, ok := p.(error)
	if !ok {
		return nil, false
	}
	var rf *ErrRankFailed
	if errors.As(err, &rf) {
		return rf, true
	}
	return nil, false
}

// rankKilled is the panic value a rank dies with, and the error its own
// in-flight requests complete with. Run recognizes it and lets the
// goroutine exit quietly instead of treating the injected death as a
// program error.
type rankKilled struct{ rank int }

func (k rankKilled) Error() string {
	return fmt.Sprintf("mpi: rank %d killed by fault injection", k.rank)
}

// Kill schedules the death of one rank: the rank dies when it is about
// to perform its (AfterOps+1)-th MPI operation (sends, receives, probes
// and collective entries all count as one operation).
type Kill struct {
	Rank     int
	AfterOps int
}

// FaultPlan is a deterministic, seedable fault schedule, armed on a
// world by World.SetFaultPlan. Kills are exact (operation-count
// triggered, so a plan replays identically run to run); MaxDelay > 0
// additionally injects a seeded pseudo-random delay before every
// operation, shaking out schedule-dependent bugs without changing any
// result.
type FaultPlan struct {
	Seed     int64
	MaxDelay time.Duration
	Kills    []Kill
	// Msg arms message-level fault injection (drop, duplicate, reorder,
	// payload bit-flip, delay spikes) together with the reliability
	// sublayer that heals them; see MsgFaults in chaos.go. nil leaves
	// the transport lossless.
	Msg *MsgFaults
}

// splitmix64 is the mixing function behind the plan's deterministic
// jitter; a hash, not a stateful generator, so concurrent threads of a
// MULTIPLE-mode rank need no locking.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// delay returns the jitter before the op-th operation of a rank.
func (p *FaultPlan) delay(rank int, op int64) time.Duration {
	if p.MaxDelay <= 0 {
		return 0
	}
	h := splitmix64(uint64(p.Seed)<<20 ^ uint64(rank)<<40 ^ uint64(op))
	return time.Duration(h % uint64(p.MaxDelay))
}

// installPlan arms the world's fault machinery with a plan.
func (w *World) installPlan(plan *FaultPlan) {
	w.plan = plan
	w.killAt = make([]int64, w.size)
	for i := range w.killAt {
		w.killAt[i] = -1
	}
	for _, k := range plan.Kills {
		if k.Rank < 0 || k.Rank >= w.size {
			panic(fmt.Sprintf("mpi: fault plan kills rank %d of a %d-rank world", k.Rank, w.size))
		}
		w.killAt[k.Rank] = int64(k.AfterOps)
	}
	w.ops = make([]int64, w.size)
	w.ftOn.Store(true)
	if plan.Msg != nil {
		w.SetMsgFaults(plan.Msg)
	}
}

// isDead reports whether a world rank has failed.
func (w *World) isDead(rank int) bool {
	w.deadMu.Lock()
	d := w.dead != nil && w.dead[rank]
	w.deadMu.Unlock()
	return d
}

// failure returns the representative error for the current revocation:
// the first rank known to have died.
func (w *World) failure() error {
	w.deadMu.Lock()
	defer w.deadMu.Unlock()
	if len(w.deadList) == 0 {
		return &ErrRankFailed{Rank: -1}
	}
	return &ErrRankFailed{Rank: w.deadList[0]}
}

// die marks a world rank dead and revokes the current epoch. Idempotent.
func (w *World) die(rank int) {
	w.deadMu.Lock()
	if w.dead == nil {
		w.dead = make([]bool, w.size)
	}
	if w.dead[rank] {
		w.deadMu.Unlock()
		return
	}
	w.dead[rank] = true
	w.deadList = append(w.deadList, rank)
	w.deadMu.Unlock()
	if rk := w.traceRankFor(rank); rk != nil {
		rk.Mark("ft.dead", -1, -1, 0)
	}
	w.ftOn.Store(true)
	w.revoke(w.epoch.Load(), rank)
}

// revoke poisons every epoch up to and including the given one: all
// receives posted in those epochs complete with a failure error and
// every blocked waiter (mailbox conds, agreement rounds) is woken so it
// re-checks the failure state. Survivors therefore always unwind with a typed error —
// the "never a hang" half of the failure model. culprit is the world
// rank whose death triggered the revocation.
//
// revoke must not be called with any mailbox lock held.
func (w *World) revoke(epoch int64, culprit int) {
	for {
		cur := w.revokedEpoch.Load()
		if epoch <= cur || w.revokedEpoch.CompareAndSwap(cur, epoch) {
			break
		}
	}
	// The epoch is stored before the sweep takes any mailbox lock, so a
	// receive posted after the sweep passed its mailbox sees it (irecv).
	// Receives of later epochs are spared: survivors that already shrank
	// may post them while the sweep is still on its way to their mailbox.
	w.walkPosted(func(r *Request) error {
		if int64(r.epoch) > epoch {
			return nil
		}
		if r.owner == culprit {
			// The dying rank's own threads unwind as part of the death,
			// not as witnesses of a peer failure.
			return rankKilled{culprit}
		}
		return &ErrRankFailed{Rank: culprit}
	}, func(b *mailbox) { b.cond.Broadcast() })
	w.agreeMu.Lock()
	if w.agreeCond != nil {
		w.agreeCond.Broadcast()
	}
	w.agreeMu.Unlock()
}

// faultPoint is the per-operation fault hook, called from enter() when
// the fault machinery is armed: it fails fast on a poisoned epoch,
// applies the plan's jitter, and executes scheduled kills.
func (c *Comm) faultPoint() {
	w := c.world
	me := c.group[c.rank]
	if w.isDead(me) {
		panic(rankKilled{me})
	}
	// Plan bookkeeping runs before the poisoned-epoch check: attempts
	// that will fail still count as operations, so a kill scheduled
	// after another rank's death still fires.
	if p := w.plan; p != nil {
		w.deadMu.Lock()
		w.ops[me]++
		n := w.ops[me]
		w.deadMu.Unlock()
		if d := p.delay(me, n); d > 0 {
			time.Sleep(d)
		}
		if ka := w.killAt[me]; ka >= 0 && n > ka {
			w.die(me)
			panic(rankKilled{me})
		}
	}
	if int64(c.epoch) <= w.revokedEpoch.Load() {
		panic(w.failure())
	}
}

// checkPeer fails fast when an operation is about to involve a dead
// peer (given as a world rank), revoking the epoch first so every other
// survivor unwinds too. Must not be called with a mailbox lock held.
func (w *World) checkPeer(epoch int, peer int) {
	if err := w.peerFailure(epoch, peer); err != nil {
		panic(err)
	}
}

// peerFailure is checkPeer returning the failure instead of raising it,
// for callers that must clean up before they unwind.
func (w *World) peerFailure(epoch int, peer int) error {
	if int64(epoch) <= w.revokedEpoch.Load() {
		return w.failure()
	}
	if w.isDead(peer) {
		w.revoke(int64(epoch), peer)
		return &ErrRankFailed{Rank: peer}
	}
	return nil
}

// Fail kills the calling rank at once, as if its node were lost — the
// solver-level fault-injection hook (iteration-precise kills; FaultPlan
// gives operation-precise ones). It never returns: the rank's goroutine
// unwinds and exits, survivors observe *ErrRankFailed.
func (c *Comm) Fail() {
	me := c.group[c.rank]
	c.world.die(me)
	panic(rankKilled{me})
}

// agreeRound is the shared state of one agreement; all members of the
// communicator rendezvous on it keyed by (context id, per-rank call
// sequence).
type agreeRound struct {
	arrived []bool // by comm rank
	result  []int  // survivor comm ranks, once decided
	taken   int
}

type agreeKey struct {
	ctx uint64
	seq uint64
}

// Agree is the failure detector's agreement collective (MPIX_Comm_agree):
// it blocks until every live member of the communicator has entered it,
// then returns the sorted communicator ranks of the survivors — the
// same slice contents on every caller, even when ranks keep dying while
// the agreement is in flight (the first rank to observe completion
// freezes the result; later deaths surface in the next Agree). Every
// live member must call Agree; dead members are excused. The result is
// what Comm.Shrink consumes.
func (c *Comm) Agree() []int {
	w := c.world
	me := c.group[c.rank]
	if w.isDead(me) {
		panic(rankKilled{me})
	}
	if rk := w.traceRankFor(me); rk != nil {
		defer rk.BeginComm("mpi.agree", trace.KindCollective, -1, -1, 0).End()
	}
	w.agreeMu.Lock()
	if w.agreeRounds == nil {
		w.agreeRounds = make(map[agreeKey]*agreeRound)
	}
	key := agreeKey{ctx: c.ctx, seq: c.agreeSeq}
	c.agreeSeq++
	rd := w.agreeRounds[key]
	if rd == nil {
		rd = &agreeRound{arrived: make([]bool, len(c.group))}
		w.agreeRounds[key] = rd
	}
	rd.arrived[c.rank] = true
	for rd.result == nil {
		if w.agreeComplete(c, rd) {
			rd.result = w.liveMembers(c)
			w.agreeCond.Broadcast()
			break
		}
		w.agreeCond.Wait()
	}
	res := append([]int(nil), rd.result...)
	rd.taken++
	if rd.taken >= len(rd.result) {
		delete(w.agreeRounds, key)
	}
	w.agreeMu.Unlock()
	if w.isDead(me) {
		panic(rankKilled{me})
	}
	return res
}

// agreeComplete reports whether every member of the communicator has
// either entered the round or died.
func (w *World) agreeComplete(c *Comm, rd *agreeRound) bool {
	w.deadMu.Lock()
	defer w.deadMu.Unlock()
	for cr, wr := range c.group {
		if !rd.arrived[cr] && (w.dead == nil || !w.dead[wr]) {
			return false
		}
	}
	return true
}

// liveMembers returns the sorted comm ranks of c's surviving members.
func (w *World) liveMembers(c *Comm) []int {
	w.deadMu.Lock()
	defer w.deadMu.Unlock()
	live := make([]int, 0, len(c.group))
	for cr, wr := range c.group {
		if w.dead == nil || !w.dead[wr] {
			live = append(live, cr)
		}
	}
	return live
}

// Shrink builds the survivors' replacement communicator
// (MPIX_Comm_shrink): a fresh communicator whose members are exactly
// the given comm ranks of c — pass the result of Agree, so every
// survivor constructs the identical group — renumbered 0..len(live)-1
// in the old rank order. The new communicator lives in the next epoch:
// the caller's mailbox is purged of pre-shrink traffic, and epoch-
// stamped matching guarantees no straggler from before the failure can
// ever satisfy a post-recovery receive. The caller must be in live.
func (c *Comm) Shrink(live []int) *Comm {
	w := c.world
	me := c.group[c.rank]
	if w.isDead(me) {
		panic(rankKilled{me})
	}
	newEpoch := c.epoch + 1
	for {
		cur := w.epoch.Load()
		if int64(newEpoch) <= cur || w.epoch.CompareAndSwap(cur, int64(newEpoch)) {
			break
		}
	}
	box := w.boxes[me]
	box.mu.Lock()
	keepEnv := box.arrived[:0]
	for _, env := range box.arrived {
		if env != nil && env.epoch >= newEpoch {
			keepEnv = append(keepEnv, env)
		}
	}
	for i := len(keepEnv); i < len(box.arrived); i++ {
		box.arrived[i] = nil
	}
	box.arrived = keepEnv
	keepPost := box.posted[:0]
	for _, p := range box.posted {
		if p != nil && p.epoch >= newEpoch {
			keepPost = append(keepPost, p)
		}
	}
	for i := len(keepPost); i < len(box.posted); i++ {
		box.posted[i] = nil
	}
	box.posted = keepPost
	box.mu.Unlock()

	group := make([]int, len(live))
	newRank := -1
	for i, cr := range live {
		group[i] = c.group[cr]
		if cr == c.rank {
			newRank = i
		}
	}
	if newRank < 0 {
		panic(fmt.Sprintf("mpi: rank %d shrinking out of its own survivor set %v", c.rank, live))
	}
	if rk := w.traceRankFor(me); rk != nil {
		rk.Mark("ft.shrink", -1, -1, int64(len(live)))
	}
	return &Comm{
		world:  w,
		rank:   newRank,
		group:  group,
		active: c.active,
		ctx:    uint64(newEpoch),
		epoch:  newEpoch,
	}
}

// PendingOp describes one outstanding receive in a timeout diagnostic:
// the world rank waiting, the communicator rank it expects a message
// from (AnySource for a wildcard) and the tag (negative tags are
// collective-internal).
type PendingOp struct {
	Rank, Peer, Tag int
}

// TimeoutError reports a blocking Wait/Recv/Waitall/Probe that exceeded
// the world's operation timeout, with a dump of every receive that was
// still pending world-wide at that moment — a deadlock turned into an
// actionable error.
type TimeoutError struct {
	After   time.Duration
	Rank    int // world rank that timed out
	Peer    int // comm rank the timed-out receive expected
	Tag     int
	Pending []PendingOp
}

func (e *TimeoutError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "mpi: rank %d blocked longer than %v waiting for a message from rank %d tag %d; pending receives:",
		e.Rank, e.After, e.Peer, e.Tag)
	for _, p := range e.Pending {
		fmt.Fprintf(&b, "\n  rank %d <- rank %d tag %d", p.Rank, p.Peer, p.Tag)
	}
	if len(e.Pending) == 0 {
		b.WriteString(" (none)")
	}
	return b.String()
}

// PendingOps snapshots every outstanding receive in the world — the
// posted receives no message has matched yet — sorted for stable
// diagnostics.
func (w *World) PendingOps() []PendingOp {
	var ops []PendingOp
	w.walkPosted(func(r *Request) error {
		ops = append(ops, PendingOp{Rank: r.owner, Peer: r.prSrc, Tag: r.prTag})
		return nil
	}, nil)
	sort.Slice(ops, func(i, j int) bool {
		if ops[i].Rank != ops[j].Rank {
			return ops[i].Rank < ops[j].Rank
		}
		if ops[i].Peer != ops[j].Peer {
			return ops[i].Peer < ops[j].Peer
		}
		return ops[i].Tag < ops[j].Tag
	})
	return ops
}

// SetOpTimeout bounds every subsequent blocking Wait (and therefore
// Recv, Waitall and the collectives built on them) and Probe: a wait
// exceeding d panics with a *TimeoutError carrying the world-wide
// pending-receive dump instead of deadlocking forever. Zero disables
// the timeout (the default). Intended for tests and long-running
// services, not as a failure detector — fault injection has its own,
// exact detection path.
func (w *World) SetOpTimeout(d time.Duration) { w.opTimeout.Store(int64(d)) }

// opDeadline is the deadline of a wait starting now under the op
// timeout, or zero when none is set.
func (w *World) opDeadline() time.Time {
	if to := w.opTimeout.Load(); to > 0 {
		return time.Now().Add(time.Duration(to))
	}
	return time.Time{}
}
