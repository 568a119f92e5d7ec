package mpi

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"
)

// chaosTraffic runs a deterministic mixed workload — tagged
// point-to-point ring exchanges, a reduction, a broadcast and barriers
// (the barrier exercises the empty-payload frame) — and returns each
// rank's final digest. The digest folds every received payload in, so
// any lost, duplicated, reordered or corrupted value changes it.
func chaosTraffic(t *testing.T, p int, f *MsgFaults) ([]float64, RelStats) {
	t.Helper()
	digests := make([]float64, p)
	w := testWorld(p, ThreadSingle)
	if f != nil {
		w.SetMsgFaults(f)
	}
	err := w.Run(func(c *Comm) {
		me := c.Rank()
		acc := 0.0
		buf := make([]float64, 8)
		for round := 0; round < 30; round++ {
			to := (me + 1) % p
			from := (me + p - 1) % p
			out := make([]float64, 8)
			for i := range out {
				out[i] = float64(me*1000+round*10+i) * 1.5
			}
			req := c.Irecv(from, round%5, buf)
			c.Send(to, round%5, out)
			_, _, n := req.Wait()
			for _, v := range buf[:n] {
				acc = acc*1.0000001 + v
			}
			if round%7 == 0 {
				c.Barrier()
			}
		}
		sum := []float64{acc}
		got := make([]float64, 1)
		c.Allreduce(OpSum, sum, got)
		root := []float64{0}
		if me == 0 {
			root[0] = got[0] * 0.5
		}
		c.Bcast(0, root)
		digests[me] = acc + got[0] + root[0]
	})
	if err != nil {
		t.Fatal(err)
	}
	return digests, w.NetRelTotals()
}

func TestChaosFaultClassesDeliverIdentical(t *testing.T) {
	// Under every fault class, with multiple seeds, the reliable
	// delivery layer must heal the transport completely: every rank's
	// digest bit-identical to the fault-free run, the class's injection
	// counter nonzero (the faults really fired), and zero delivery
	// failures.
	const p = 4
	want, clean := chaosTraffic(t, p, nil)
	if clean != (RelStats{}) {
		t.Fatalf("unarmed run has nonzero reliability counters: %+v", clean)
	}
	classes := []struct {
		name  string
		f     MsgFaults
		count func(RelStats) int64
	}{
		{"drop", MsgFaults{Drop: 0.2}, func(s RelStats) int64 { return s.Dropped }},
		{"dup", MsgFaults{Dup: 0.3}, func(s RelStats) int64 { return s.Duplicated }},
		{"reorder", MsgFaults{Reorder: 0.3}, func(s RelStats) int64 { return s.Reordered }},
		{"corrupt", MsgFaults{Corrupt: 0.2}, func(s RelStats) int64 { return s.Corrupted }},
		{"delay", MsgFaults{DelayProb: 0.3, Delay: 30 * time.Microsecond}, func(s RelStats) int64 { return s.Delayed }},
		{"all", MsgFaults{Drop: 0.1, Dup: 0.1, Reorder: 0.1, Corrupt: 0.1, DelayProb: 0.1}, func(s RelStats) int64 { return s.Injected() }},
	}
	for _, cl := range classes {
		for _, seed := range []int64{1, 2, 3} {
			f := cl.f
			f.Seed = seed
			got, stats := chaosTraffic(t, p, &f)
			for r := range got {
				if math.Float64bits(got[r]) != math.Float64bits(want[r]) {
					t.Errorf("%s seed %d: rank %d digest %x, want %x", cl.name, seed, r, math.Float64bits(got[r]), math.Float64bits(want[r]))
				}
			}
			if cl.count(stats) == 0 {
				t.Errorf("%s seed %d: fault class never fired: %+v", cl.name, seed, stats)
			}
			if stats.Failed != 0 {
				t.Errorf("%s seed %d: %d delivery failures in a healable run", cl.name, seed, stats.Failed)
			}
		}
	}
}

func TestChaosDeterministicReplay(t *testing.T) {
	// The same seed must inject exactly the same faults: counters and
	// digests identical across runs.
	f := MsgFaults{Seed: 42, Drop: 0.15, Dup: 0.1, Reorder: 0.1, Corrupt: 0.1}
	d1, s1 := chaosTraffic(t, 3, &f)
	d2, s2 := chaosTraffic(t, 3, &f)
	for r := range d1 {
		if math.Float64bits(d1[r]) != math.Float64bits(d2[r]) {
			t.Fatalf("rank %d digests differ across replays", r)
		}
	}
	if s1.Dropped != s2.Dropped || s1.Duplicated != s2.Duplicated ||
		s1.Corrupted != s2.Corrupted || s1.Reordered != s2.Reordered {
		t.Fatalf("injection counters differ across replays: %+v vs %+v", s1, s2)
	}
}

func TestChaosRetransmitHealsDropsAndCorruption(t *testing.T) {
	// Dropped and corrupted attempts must be retransmitted (nonzero
	// retransmit and CRC-reject counters) and duplicates suppressed, all
	// invisible to the application.
	f := MsgFaults{Seed: 7, Drop: 0.25, Corrupt: 0.2, Dup: 0.3}
	_, stats := chaosTraffic(t, 4, &f)
	if stats.Retransmits == 0 {
		t.Errorf("no retransmissions despite 25%% drop: %+v", stats)
	}
	if stats.CRCRejected == 0 {
		t.Errorf("no CRC rejections despite 20%% corruption: %+v", stats)
	}
	if stats.DupSuppressed == 0 {
		t.Errorf("no duplicate suppression despite 30%% duplication: %+v", stats)
	}
}

func TestChaosBudgetExhaustionTypedError(t *testing.T) {
	// A link that drops everything must exhaust the retransmission
	// budget and surface *ErrDeliveryFailed on BOTH endpoints — typed,
	// recovered in the rank bodies, never a hang. (Run wraps rank panics
	// as flat errors, so the typed assertion must happen inside the
	// rank.)
	w := testWorld(2, ThreadSingle)
	w.SetMsgFaults(&MsgFaults{Seed: 1, Drop: 1.0, MaxRetries: 3, RetryBase: time.Microsecond})
	var mu sync.Mutex
	typed := map[int]*ErrDeliveryFailed{}
	err := w.Run(func(c *Comm) {
		defer func() {
			if p := recover(); p != nil {
				df, ok := AsDeliveryFailure(p)
				if !ok {
					panic(p)
				}
				mu.Lock()
				typed[c.Rank()] = df
				mu.Unlock()
			}
		}()
		if c.Rank() == 0 {
			c.Send(1, 9, []float64{1, 2, 3})
		} else {
			buf := make([]float64, 3)
			c.Recv(0, 9, buf)
		}
		panic(fmt.Sprintf("rank %d completed over a 100%%-loss link", c.Rank()))
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 2; r++ {
		df := typed[r]
		if df == nil {
			t.Fatalf("rank %d did not observe a typed delivery failure", r)
		}
		if df.From != 0 || df.To != 1 || df.Tag != 9 || df.Attempts != 4 {
			t.Errorf("rank %d: %+v, want From=0 To=1 Tag=9 Attempts=4", r, df)
		}
	}
	if got := w.NetRelTotals().Failed; got != 1 {
		t.Errorf("Failed counter = %d, want 1", got)
	}
}

func TestChaosDeliveryFailedErrorsAs(t *testing.T) {
	var err error = fmt.Errorf("wrapped: %w", &ErrDeliveryFailed{From: 1, To: 2, Tag: 3, Attempts: 4})
	var df *ErrDeliveryFailed
	if !errors.As(err, &df) || df.To != 2 {
		t.Fatalf("errors.As failed to recover the wrapped delivery failure")
	}
	if got, ok := AsDeliveryFailure(err); !ok || got != df {
		t.Fatalf("AsDeliveryFailure(%v) = %v, %v", err, got, ok)
	}
	if _, ok := AsDeliveryFailure("not an error"); ok {
		t.Fatal("AsDeliveryFailure accepted a non-error")
	}
	if _, ok := AsDeliveryFailure(errors.New("mpi: delivery from rank 0 to rank 1 tag 2 failed after 3 attempts")); ok {
		t.Fatal("AsDeliveryFailure matched by message text")
	}
}

func TestChaosComposesWithNetModel(t *testing.T) {
	// Message faults layered over the calibrated network model: results
	// still bit-identical to the clean eager run, and delay spikes push
	// the modeled clock instead of sleeping.
	const p = 4
	want, _ := chaosTraffic(t, p, nil)
	digests := make([]float64, p)
	w := testWorld(p, ThreadSingle)
	w.SetNetModel(&NetModel{Params: testParams()})
	w.SetMsgFaults(&MsgFaults{Seed: 5, Drop: 0.15, Reorder: 0.15, DelayProb: 0.3})
	err := w.Run(func(c *Comm) {
		me := c.Rank()
		acc := 0.0
		buf := make([]float64, 8)
		for round := 0; round < 30; round++ {
			to := (me + 1) % p
			from := (me + p - 1) % p
			out := make([]float64, 8)
			for i := range out {
				out[i] = float64(me*1000+round*10+i) * 1.5
			}
			req := c.Irecv(from, round%5, buf)
			c.Send(to, round%5, out)
			_, _, n := req.Wait()
			for _, v := range buf[:n] {
				acc = acc*1.0000001 + v
			}
			if round%7 == 0 {
				c.Barrier()
			}
		}
		sum := []float64{acc}
		got := make([]float64, 1)
		c.Allreduce(OpSum, sum, got)
		root := []float64{0}
		if me == 0 {
			root[0] = got[0] * 0.5
		}
		c.Bcast(0, root)
		digests[me] = acc + got[0] + root[0]
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := range digests {
		if math.Float64bits(digests[r]) != math.Float64bits(want[r]) {
			t.Errorf("rank %d: modeled+chaotic digest differs from clean eager run", r)
		}
	}
	if stats := w.NetRelTotals(); stats.Injected() == 0 {
		t.Errorf("no faults injected under the model: %+v", stats)
	}
}

func TestChaosRankFailurePreemptsRetry(t *testing.T) {
	// A send retransmitting toward a rank that dies must stop with the
	// usual typed rank failure, not spin out its whole retry budget
	// against a corpse.
	plan := &FaultPlan{
		Msg: &MsgFaults{Seed: 3, Drop: 1.0, MaxRetries: 1 << 20, RetryBase: 20 * time.Microsecond},
	}
	done := make(chan *ErrRankFailed, 1)
	err := runRanksWithFaults(2, ThreadSingle, plan, func(c *Comm) {
		if c.Rank() == 0 {
			rf := recoverFailure(func() {
				c.Send(1, 4, []float64{1}) // retransmits until rank 1 dies
			})
			done <- rf
		} else {
			time.Sleep(5 * time.Millisecond)
			c.Fail()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	rf := <-done
	if rf == nil || rf.Rank != 1 {
		t.Fatalf("sender got %v, want typed failure of rank 1", rf)
	}
}

func TestChaosRevokedSendReleasesSequenceNumber(t *testing.T) {
	// A send has taken its pair sequence number when an epoch revoked
	// during its retransmission backoff stops it. Traffic on the same
	// world pair after Shrink must still arrive: the receiver's
	// resequencer may not wait for the stopped frame's number forever.
	const drop, burst = 0.5, 12
	seed := int64(0)
	for ; ; seed++ {
		// The first frame 0 -> 1 drops on burst attempts in a row (the
		// rank death lands in that window); the next three get through
		// within a few attempts.
		f := MsgFaults{Seed: seed, Drop: drop}
		ok := true
		for a := 0; a < burst && ok; a++ {
			ok = f.roll(fateDrop, 0, 1, 0, a) < drop
		}
		for seq := uint64(1); seq <= 3 && ok; seq++ {
			ok = f.roll(fateDrop, 0, 1, seq, 0) >= drop || f.roll(fateDrop, 0, 1, seq, 1) >= drop
		}
		if ok {
			break
		}
	}
	w := NewWorld(3, ThreadSingle)
	w.SetOpTimeout(10 * time.Second)
	w.SetMsgFaults(&MsgFaults{Seed: seed, Drop: drop, RetryBase: time.Millisecond})
	err := w.Run(func(c *Comm) {
		switch c.Rank() {
		case 0:
			if recoverFailure(func() { c.Send(1, 7, []float64{-1}) }) == nil {
				panic("send completed across the revoked epoch")
			}
		case 2:
			for w.chaos.counters[0].dropped.Load() == 0 {
				time.Sleep(100 * time.Microsecond)
			}
			c.Fail()
		}
		for !w.isDead(2) {
			time.Sleep(100 * time.Microsecond)
		}
		nc := c.Shrink(c.Agree())
		for i := 1; i <= 3; i++ {
			if nc.Rank() == 0 {
				nc.Send(1, 7, []float64{float64(i)})
				continue
			}
			buf := []float64{0}
			nc.Recv(0, 7, buf)
			if buf[0] != float64(i) {
				panic(fmt.Sprintf("post-recovery message %d carried %v", i, buf[0]))
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestChaosCollectivesUnderFaults(t *testing.T) {
	// The tree collectives route through the same transport; a lossy
	// link must not perturb any of them (Barrier's empty payload
	// included — frames with no bits to flip).
	const p = 8
	for _, seed := range []int64{11, 12, 13} {
		w := testWorld(p, ThreadSingle)
		w.SetMsgFaults(&MsgFaults{Seed: seed, Drop: 0.2, Dup: 0.2, Reorder: 0.2, Corrupt: 0.2})
		sums := make([]float64, p)
		err := w.Run(func(c *Comm) {
			me := c.Rank()
			c.Barrier()
			in := []float64{float64(me + 1), float64(me * me)}
			out := make([]float64, 2)
			c.Allreduce(OpSum, in, out)
			buf := []float64{0}
			if me == 2 {
				buf[0] = out[0] * out[1]
			}
			c.Bcast(2, buf)
			c.Barrier()
			sums[me] = out[0] + out[1] + buf[0]
		})
		if err != nil {
			t.Fatal(err)
		}
		want := sums[0]
		for r, s := range sums {
			if math.Float64bits(s) != math.Float64bits(want) {
				t.Errorf("seed %d: rank %d collective result differs", seed, r)
			}
		}
	}
}

func TestChaosProbeSeesPoisonedEnvelope(t *testing.T) {
	// A Probe blocked on a message whose delivery budget was exhausted
	// must panic with the typed error, never hang.
	w := testWorld(2, ThreadSingle)
	w.SetMsgFaults(&MsgFaults{Seed: 2, Drop: 1.0, MaxRetries: 2, RetryBase: time.Microsecond})
	var mu sync.Mutex
	typed := map[int]bool{}
	err := w.Run(func(c *Comm) {
		defer func() {
			if p := recover(); p != nil {
				if _, ok := AsDeliveryFailure(p); ok {
					mu.Lock()
					typed[c.Rank()] = true
					mu.Unlock()
					return
				}
				panic(p)
			}
		}()
		if c.Rank() == 0 {
			c.Send(1, 5, []float64{9})
		} else {
			c.Probe(0, 5)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !typed[0] || !typed[1] {
		t.Fatalf("typed failures seen = %v, want both ranks", typed)
	}
}

// Injected returns the total number of injected message faults.
func (s RelStats) Injected() int64 {
	return s.Dropped + s.Duplicated + s.Corrupted + s.Delayed + s.Reordered
}
