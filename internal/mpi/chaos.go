package mpi

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Chaos transport + reliable delivery. This file layers seedable
// message-level fault injection (drop, duplicate, reorder, payload
// bit-flip, delay spike) under the eager transport, together with the
// reliability sublayer that heals every injected fault: per-message
// CRC32C framing, per-(sender, receiver) sequence numbers with
// duplicate suppression and in-order release, and synchronous
// retransmission with capped exponential backoff. The layer models a
// lossy interconnect the way Blue Gene-scale deployments experience
// one — links flip bits and drop packets, the messaging layer re-sends
// — while preserving the runtime's headline contract: matching stays
// FIFO per (source, tag), payloads reach the application bit-exact,
// and solver results are bit-identical with the chaos layer on or off.
//
// Faults are deterministic: every (message sequence number, delivery
// attempt) pair hashes through splitmix64 under the plan's seed, so a
// chaotic run replays identically. Retransmission is bounded — when
// MaxRetries attempts all drop, the sender panics with a typed
// *ErrDeliveryFailed and the receiver's matching receive completes
// with the same error through a poisoned envelope, so exhaustion
// surfaces on both sides as typed errors, never a hang. The layer
// composes with the fault-tolerance machinery (a dead peer or revoked
// epoch preempts retransmission with the usual *ErrRankFailed) and
// with the network model (delay spikes push the modeled arrival stamp
// instead of sleeping when a model is armed).
//
// Like ftOn/netOn/trcOn, the whole layer hides behind one atomic load
// (chaosOn) in sendDeliver: worlds that never arm message faults pay
// nothing beyond it.

// ErrDeliveryFailed reports that the reliability sublayer exhausted its
// retransmission budget for one message: every attempt was dropped (or
// rejected by the receiver's CRC framing). From and To are world ranks.
// It surfaces as a panic in the sending goroutine and as the completion
// error of the receiver's matching receive — both sides unwind with
// the typed error, never a hang — and is recoverable with
// AsDeliveryFailure or errors.As.
type ErrDeliveryFailed struct {
	From, To, Tag int
	Attempts      int
}

func (e *ErrDeliveryFailed) Error() string {
	return fmt.Sprintf("mpi: delivery from rank %d to rank %d tag %d failed after %d attempts",
		e.From, e.To, e.Tag, e.Attempts)
}

// AsDeliveryFailure reports whether a recovered panic value represents
// a delivery failure of the reliable chaos transport, returning the
// typed error when it does — the delivery-failure twin of
// AsRankFailure.
func AsDeliveryFailure(p any) (*ErrDeliveryFailed, bool) {
	err, ok := p.(error)
	if !ok {
		return nil, false
	}
	var df *ErrDeliveryFailed
	if errors.As(err, &df) {
		return df, true
	}
	return nil, false
}

// MsgFaults is a seedable message-level fault schedule, armed through
// FaultPlan.Msg or World.SetMsgFaults. Probabilities are per delivery
// attempt in [0, 1]; every decision hashes (seed, sender, receiver,
// sequence number, attempt), so runs replay bit-identically.
type MsgFaults struct {
	Seed int64
	// Drop is the probability an attempt is lost in flight (the sender
	// retransmits after backoff).
	Drop float64
	// Dup is the probability a delivered attempt arrives twice (the
	// receiver suppresses the duplicate by sequence number).
	Dup float64
	// Reorder is the probability a delivered message is held back so
	// later traffic on the pair overtakes it physically (the receiver's
	// resequencer restores order before anything is matched).
	Reorder float64
	// Corrupt is the probability a delivered attempt has one payload
	// bit flipped in flight (the receiver's CRC32C framing rejects the
	// frame and the sender retransmits; the application never sees the
	// corruption). Empty payloads are never corrupted.
	Corrupt float64
	// DelayProb is the probability an attempt suffers a delay spike of
	// up to Delay: added to the modeled arrival stamp when a network
	// model is armed, slept in wall time otherwise.
	DelayProb float64
	// Delay bounds one delay spike (0: 50µs).
	Delay time.Duration
	// MaxRetries bounds retransmission per message (0: 16); exhaustion
	// surfaces *ErrDeliveryFailed on both endpoints.
	MaxRetries int
	// RetryBase is the first backoff step (0: 20µs); backoff doubles
	// per retry, capped at 64x the base.
	RetryBase time.Duration
}

// Fate kinds salt the per-decision hash so the drop/dup/reorder/
// corrupt/delay rolls of one attempt are independent.
const (
	fateDrop uint64 = iota + 1
	fateDup
	fateReorder
	fateCorrupt
	fateDelay
	fateBit
	fateDelayLen
)

// hash derives the deterministic decision word for one fate of one
// delivery attempt.
func (f *MsgFaults) hash(kind uint64, src, dst int, seq uint64, attempt int) uint64 {
	h := splitmix64(uint64(f.Seed) ^ kind*0x9e3779b97f4a7c15)
	h = splitmix64(h ^ uint64(src)<<32 ^ uint64(dst))
	h = splitmix64(h ^ seq)
	return splitmix64(h ^ uint64(attempt)<<8)
}

// roll maps a decision word to [0, 1).
func (f *MsgFaults) roll(kind uint64, src, dst int, seq uint64, attempt int) float64 {
	return float64(f.hash(kind, src, dst, seq, attempt)>>11) / (1 << 53)
}

// chaosFrame is one reliably-delivered message: an owned copy of the
// payload (retransmission, reordering and duplication all outlive the
// caller's buffer) framed with its CRC32C and pair sequence number.
type chaosFrame struct {
	commSrc  int // sender's rank in the destination communicator
	tag      int
	ctx      uint64
	epoch    int
	seq      uint64
	data     []float64
	crc      uint32
	arriveAt int64
	fail     error // poisoned delivery: budget exhausted, complete the receive with this
}

// chaosPair is the per-(sender, receiver) reliability state. sendSeq
// numbers outgoing messages; nextSeq/pending form the receiver-side
// resequencer (frames are released to the mailbox strictly in sequence
// order, so FIFO matching survives physical reordering); stash holds
// one reorder-delayed frame. The lock orders strictly before any
// mailbox lock and is held through mailbox delivery, which serializes
// the pair's release order.
type chaosPair struct {
	mu      sync.Mutex
	sendSeq uint64
	nextSeq uint64
	pending map[uint64]*chaosFrame
	stash   *chaosFrame
}

// relCounters is one world rank's reliability accounting; sender-side
// events count at the sender, receiver-side events at the receiver.
type relCounters struct {
	sent, dropped, duplicated, corrupted, delayed, reordered atomic.Int64
	retransmits, failed                                      atomic.Int64
	dupSuppressed, crcRejected, outOfOrder                   atomic.Int64
}

// RelStats is a snapshot of one rank's (or the world's) reliability
// counters. Sender-side: Sent counts messages (not attempts), Dropped/
// Duplicated/Corrupted/Delayed/Reordered count injected faults,
// Retransmits counts re-sent attempts and Failed exhausted budgets.
// Receiver-side: DupSuppressed counts sequence-suppressed duplicates,
// CRCRejected frames rejected by the framing checksum, OutOfOrder
// frames that arrived ahead of a sequence gap and were resequenced.
type RelStats struct {
	Sent, Dropped, Duplicated, Corrupted, Delayed, Reordered int64
	Retransmits, Failed                                      int64
	DupSuppressed, CRCRejected, OutOfOrder                   int64
}

func (c *relCounters) snapshot() RelStats {
	return RelStats{
		Sent: c.sent.Load(), Dropped: c.dropped.Load(), Duplicated: c.duplicated.Load(),
		Corrupted: c.corrupted.Load(), Delayed: c.delayed.Load(), Reordered: c.reordered.Load(),
		Retransmits: c.retransmits.Load(), Failed: c.failed.Load(),
		DupSuppressed: c.dupSuppressed.Load(), CRCRejected: c.crcRejected.Load(),
		OutOfOrder: c.outOfOrder.Load(),
	}
}

func (s *RelStats) add(o RelStats) {
	s.Sent += o.Sent
	s.Dropped += o.Dropped
	s.Duplicated += o.Duplicated
	s.Corrupted += o.Corrupted
	s.Delayed += o.Delayed
	s.Reordered += o.Reordered
	s.Retransmits += o.Retransmits
	s.Failed += o.Failed
	s.DupSuppressed += o.DupSuppressed
	s.CRCRejected += o.CRCRejected
	s.OutOfOrder += o.OutOfOrder
}

// chaosState is the world's chaos-transport state: the (normalized)
// fault schedule, the n x n pair matrix and the per-rank counters.
type chaosState struct {
	f        MsgFaults
	pairs    [][]*chaosPair
	counters []relCounters
}

func (cs *chaosState) pair(src, dst int) *chaosPair { return cs.pairs[src][dst] }

// chaosStashFlush bounds how long a reorder-stashed frame is held when
// no later traffic displaces it, guaranteeing progress on quiet pairs.
const chaosStashFlush = 200 * time.Microsecond

// SetMsgFaults arms message-level fault injection and the reliability
// sublayer on the world. Call before any rank communicates, like
// SetNetModel and SetTracer (FaultPlan.Msg does it through
// installPlan). nil is a no-op.
func (w *World) SetMsgFaults(f *MsgFaults) {
	if f == nil {
		return
	}
	cs := &chaosState{f: *f}
	if cs.f.MaxRetries <= 0 {
		cs.f.MaxRetries = 16
	}
	if cs.f.RetryBase <= 0 {
		cs.f.RetryBase = 20 * time.Microsecond
	}
	if cs.f.Delay <= 0 {
		cs.f.Delay = 50 * time.Microsecond
	}
	cs.pairs = make([][]*chaosPair, w.size)
	for i := range cs.pairs {
		row := make([]*chaosPair, w.size)
		for j := range row {
			row[j] = &chaosPair{}
		}
		cs.pairs[i] = row
	}
	cs.counters = make([]relCounters, w.size)
	w.chaos = cs
	w.chaosOn.Store(true)
}

// NetRelStats snapshots one world rank's reliability counters (zeros
// when no message faults are armed).
func (w *World) NetRelStats(rank int) RelStats {
	if !w.chaosOn.Load() {
		return RelStats{}
	}
	return w.chaos.counters[rank].snapshot()
}

// NetRelTotals sums the reliability counters over all ranks.
func (w *World) NetRelTotals() RelStats {
	var total RelStats
	if !w.chaosOn.Load() {
		return total
	}
	for r := range w.chaos.counters {
		total.add(w.chaos.counters[r].snapshot())
	}
	return total
}

var crc32cTable = crc32.MakeTable(crc32.Castagnoli)

// crcFloats computes the CRC32C frame checksum over the payload's
// float64 bit patterns.
func crcFloats(data []float64) uint32 {
	var b [8]byte
	crc := uint32(0)
	for _, v := range data {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		crc = crc32.Update(crc, crc32cTable, b[:])
	}
	return crc
}

// chaosSend is sendDeliver's delivery path when message faults are
// armed: frame the payload, then attempt delivery until the frame is
// accepted, retransmitting dropped or CRC-rejected attempts with
// capped exponential backoff. A dead peer or revoked epoch preempts
// the loop with the usual typed rank-failure panic; an exhausted
// retry budget poisons the receiver's matching receive and panics
// *ErrDeliveryFailed in the sender — both sides always unwind typed,
// never hang.
func (c *Comm) chaosSend(toW, tag int, data []float64, arriveAt int64) {
	w := c.world
	cs := w.chaos
	srcW := c.group[c.rank]
	pair := cs.pair(srcW, toW)
	ctr := &cs.counters[srcW]

	pair.mu.Lock()
	seq := pair.sendSeq
	pair.sendSeq++
	pair.mu.Unlock()

	fr := &chaosFrame{commSrc: c.rank, tag: tag, ctx: c.ctx, epoch: c.epoch, seq: seq,
		data: append([]float64(nil), data...), arriveAt: arriveAt}
	fr.crc = crcFloats(fr.data)
	ctr.sent.Add(1)

	f := &cs.f
	for attempt := 0; ; attempt++ {
		if w.ftOn.Load() {
			// Rank failure preempts retransmission: a dead peer (or a
			// revoked epoch) is not a lossy link. The frame already holds
			// the pair's sequence number, so it is released poisoned in
			// that place first: the receiver's resequencer would otherwise
			// wait for the number forever and hold back every later frame
			// on the pair, the post-recovery traffic included.
			if err := w.peerFailure(c.epoch, toW); err != nil {
				fr.fail, fr.data = err, nil
				cs.inject(w, pair, srcW, toW, fr)
				panic(err)
			}
		}
		if attempt > f.MaxRetries {
			cs.failDelivery(w, pair, srcW, toW, fr, attempt)
		}
		if attempt > 0 {
			ctr.retransmits.Add(1)
			if rk := w.traceRankFor(srcW); rk != nil {
				rk.Mark("net.retry", toW, tag, int64(len(fr.data))*8)
			}
			shift := attempt - 1
			if shift > 6 {
				shift = 6 // cap backoff at 64x the base
			}
			time.Sleep(f.RetryBase << shift)
		}
		if cs.attempt(w, pair, srcW, toW, fr, attempt) {
			return
		}
	}
}

// attempt plays one delivery attempt's fates and reports whether the
// frame was accepted by the receiver (false: the sender must
// retransmit).
func (cs *chaosState) attempt(w *World, pair *chaosPair, srcW, toW int, fr *chaosFrame, attempt int) bool {
	f := &cs.f
	ctr := &cs.counters[srcW]
	if f.Drop > 0 && f.roll(fateDrop, srcW, toW, fr.seq, attempt) < f.Drop {
		ctr.dropped.Add(1)
		return false
	}
	if f.Corrupt > 0 && len(fr.data) > 0 && f.roll(fateCorrupt, srcW, toW, fr.seq, attempt) < f.Corrupt {
		// One bit of the payload flips in flight. The receiver's CRC
		// framing rejects the frame, so the corruption acts like a drop:
		// the sender retransmits and the application never sees it.
		ctr.corrupted.Add(1)
		bad := *fr
		bad.data = append([]float64(nil), fr.data...)
		bit := f.hash(fateBit, srcW, toW, fr.seq, attempt) % uint64(len(bad.data)*64)
		i, b := bit/64, bit%64
		bad.data[i] = math.Float64frombits(math.Float64bits(bad.data[i]) ^ 1<<b)
		cs.inject(w, pair, srcW, toW, &bad)
		return false
	}
	if f.DelayProb > 0 && f.roll(fateDelay, srcW, toW, fr.seq, attempt) < f.DelayProb {
		ctr.delayed.Add(1)
		spike := int64(f.hash(fateDelayLen, srcW, toW, fr.seq, attempt) % uint64(f.Delay))
		if w.netOn.Load() && fr.arriveAt != 0 {
			// Compose with the network model: the spike pushes the modeled
			// arrival stamp out instead of sleeping.
			fr.arriveAt += spike
		} else {
			time.Sleep(time.Duration(spike))
		}
	}
	dup := f.Dup > 0 && f.roll(fateDup, srcW, toW, fr.seq, attempt) < f.Dup
	if f.Reorder > 0 && f.roll(fateReorder, srcW, toW, fr.seq, attempt) < f.Reorder {
		ctr.reordered.Add(1)
		cs.stashFrame(w, pair, srcW, toW, fr)
	} else {
		cs.inject(w, pair, srcW, toW, fr)
	}
	if dup {
		ctr.duplicated.Add(1)
		cs.inject(w, pair, srcW, toW, fr)
	}
	return true
}

// stashFrame holds a frame back so later traffic on the pair overtakes
// it physically. The stash is displaced by the next stashed frame (the
// older frame is injected then, genuinely behind any traffic that
// passed it) and drained by a flush timer, so a held frame can delay
// delivery but never prevent it. The receiver's resequencer restores
// sequence order either way.
func (cs *chaosState) stashFrame(w *World, pair *chaosPair, srcW, toW int, fr *chaosFrame) {
	pair.mu.Lock()
	prev := pair.stash
	pair.stash = fr
	pair.mu.Unlock()
	if prev != nil {
		cs.inject(w, pair, srcW, toW, prev)
	}
	time.AfterFunc(chaosStashFlush, func() {
		pair.mu.Lock()
		held := pair.stash == fr
		if held {
			pair.stash = nil
		}
		pair.mu.Unlock()
		if held {
			cs.inject(w, pair, srcW, toW, fr)
		}
	})
}

// inject presents one physically-arriving frame to the receiver: CRC
// framing check, duplicate suppression, and resequencing — frames are
// released to the mailbox strictly in sequence order, so the matching
// layer above sees per-pair FIFO no matter what the chaos layer did to
// physical arrival order. Holding pair.mu through mailbox delivery
// serializes the release order (lock order: pair.mu, then box.mu).
func (cs *chaosState) inject(w *World, pair *chaosPair, srcW, toW int, fr *chaosFrame) {
	rctr := &cs.counters[toW]
	if fr.fail == nil && crcFloats(fr.data) != fr.crc {
		rctr.crcRejected.Add(1)
		return
	}
	pair.mu.Lock()
	defer pair.mu.Unlock()
	if fr.seq < pair.nextSeq {
		rctr.dupSuppressed.Add(1)
		if rk := w.traceRankFor(toW); rk != nil {
			rk.Mark("net.dup", srcW, fr.tag, int64(len(fr.data))*8)
		}
		return
	}
	if fr.seq > pair.nextSeq {
		if pair.pending == nil {
			pair.pending = make(map[uint64]*chaosFrame)
		}
		if _, dup := pair.pending[fr.seq]; dup {
			rctr.dupSuppressed.Add(1)
			if rk := w.traceRankFor(toW); rk != nil {
				rk.Mark("net.dup", srcW, fr.tag, int64(len(fr.data))*8)
			}
			return
		}
		pair.pending[fr.seq] = fr
		rctr.outOfOrder.Add(1)
		return
	}
	// Release the frame, then every pending frame it unblocks, in order.
	// The mailbox copies each payload, as it copies an eager send's.
	for ; fr != nil; fr = pair.pending[pair.nextSeq] {
		delete(pair.pending, pair.nextSeq)
		w.boxes[toW].deliver(fr.commSrc, fr.tag, fr.ctx, fr.epoch, fr.data, fr.arriveAt, fr.fail)
		pair.nextSeq++
	}
}

// failDelivery surfaces retransmission-budget exhaustion: the frame is
// poisoned and released through the resequencer — so the receiver's
// matching receive completes with the typed error in FIFO position —
// and the sender panics with the same *ErrDeliveryFailed. Never
// returns.
func (cs *chaosState) failDelivery(w *World, pair *chaosPair, srcW, toW int, fr *chaosFrame, attempts int) {
	cs.counters[srcW].failed.Add(1)
	err := &ErrDeliveryFailed{From: srcW, To: toW, Tag: fr.tag, Attempts: attempts}
	fr.fail = err
	fr.data = nil
	cs.inject(w, pair, srcW, toW, fr)
	panic(err)
}
