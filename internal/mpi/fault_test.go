package mpi

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// recoverFailure runs f and returns the *ErrRankFailed it panicked
// with, or nil if it returned normally. Any other panic propagates.
func recoverFailure(f func()) (rf *ErrRankFailed) {
	defer func() {
		if p := recover(); p != nil {
			var ok bool
			if rf, ok = AsRankFailure(p); ok {
				return
			}
			panic(p)
		}
	}()
	f()
	return nil
}

func TestFaultPlanKillsAtOpCount(t *testing.T) {
	// Rank 1 dies after 3 operations; every survivor must observe a
	// typed *ErrRankFailed naming rank 1, never a hang, and the run as
	// a whole must not report an error (injected deaths are not bugs).
	const p = 4
	plan := &FaultPlan{Seed: 1, Kills: []Kill{{Rank: 1, AfterOps: 3}}}
	var mu sync.Mutex
	seen := map[int]int{}
	err := runRanksWithFaults(p, ThreadSingle, plan, func(c *Comm) {
		rf := recoverFailure(func() {
			for i := 0; i < 100; i++ {
				c.Barrier()
			}
		})
		if rf == nil {
			panic(fmt.Sprintf("rank %d finished 100 barriers despite the kill", c.Rank()))
		}
		mu.Lock()
		seen[c.Rank()] = rf.Rank
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < p; r++ {
		if r == 1 {
			if _, ok := seen[r]; ok {
				t.Fatalf("dead rank 1 reported a survivor-side failure")
			}
			continue
		}
		if got, ok := seen[r]; !ok || got != 1 {
			t.Fatalf("rank %d: failed peer = %d (seen %v), want 1", r, got, ok)
		}
	}
}

func TestFaultPlanDeterministicOpCount(t *testing.T) {
	// The same plan must kill at exactly the same point in the victim's
	// op sequence on every run: with AfterOps 10 the victim always
	// completes exactly 10 barriers and dies entering the 11th.
	// (Survivor-side counts may trail by one — a revocation is global
	// and can interrupt a survivor still finishing the previous barrier
	// — so only the victim's count is asserted exactly.)
	counts := func() []int {
		done := make([]int, 3)
		plan := &FaultPlan{Seed: 7, Kills: []Kill{{Rank: 2, AfterOps: 10}}}
		err := runRanksWithFaults(3, ThreadSingle, plan, func(c *Comm) {
			recoverFailure(func() {
				for i := 0; i < 50; i++ {
					c.Barrier()
					done[c.Rank()]++
				}
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		return done
	}
	for trial := 0; trial < 3; trial++ {
		done := counts()
		if done[2] != 10 {
			t.Fatalf("trial %d: victim completed %d barriers, want exactly 10", trial, done[2])
		}
		for _, r := range []int{0, 1} {
			if done[r] < 9 || done[r] > 10 {
				t.Fatalf("trial %d: survivor %d completed %d barriers, want 9 or 10", trial, r, done[r])
			}
		}
	}
}

func TestBlockedRecvUnblockedByDeath(t *testing.T) {
	// Rank 0 blocks in Recv on a message rank 1 will never send; when
	// rank 1 dies, the blocked receive must complete with the typed
	// failure instead of hanging.
	plan := &FaultPlan{Kills: []Kill{{Rank: 1, AfterOps: 1}}}
	err := runRanksWithFaults(2, ThreadSingle, plan, func(c *Comm) {
		if c.Rank() == 0 {
			rf := recoverFailure(func() {
				buf := make([]float64, 1)
				c.Recv(1, 42, buf) // rank 1 never sends tag 42
			})
			if rf == nil || rf.Rank != 1 {
				panic(fmt.Sprintf("blocked recv: failure = %v, want rank 1", rf))
			}
		} else {
			for i := 0; ; i++ { // dies at the second send
				c.Send(0, 99, []float64{float64(i)})
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendToDeadPeerFails(t *testing.T) {
	plan := &FaultPlan{Kills: []Kill{{Rank: 1, AfterOps: 0}}}
	err := runRanksWithFaults(2, ThreadSingle, plan, func(c *Comm) {
		if c.Rank() == 1 {
			c.Send(0, 1, []float64{1}) // dies here (op 1 > threshold 0)
			return
		}
		// Wait until rank 1 is dead, then every op must fail typed.
		for c.world.ftOn.Load() == false || !c.world.isDead(1) {
			time.Sleep(time.Millisecond)
		}
		rf := recoverFailure(func() { c.Send(1, 5, []float64{2}) })
		if rf == nil || rf.Rank != 1 {
			panic(fmt.Sprintf("send to dead peer: failure = %v, want rank 1", rf))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestVoluntaryFailAndShrink(t *testing.T) {
	// Rank 1 kills itself mid-run; survivors agree on the membership,
	// shrink, and complete a correct allreduce on the new communicator.
	const p = 4
	var mu sync.Mutex
	sums := map[int]float64{}
	views := map[int]string{}
	err := runRanks(p, ThreadSingle, func(c *Comm) {
		if c.Rank() == 1 {
			c.Barrier()
			c.Fail()
		}
		rf := recoverFailure(func() {
			for i := 0; i < 100; i++ {
				c.Barrier()
			}
		})
		if rf == nil {
			panic("survivor completed all barriers despite the kill")
		}
		live := c.Agree()
		nc := c.Shrink(live)
		sum := nc.AllreduceSum(float64(nc.Rank() + 1))
		mu.Lock()
		sums[c.Rank()] = sum
		views[c.Rank()] = fmt.Sprint(live)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprint([]int{0, 2, 3})
	for _, r := range []int{0, 2, 3} {
		if views[r] != want {
			t.Fatalf("rank %d agreed on %s, want %s", r, views[r], want)
		}
		if sums[r] != 6 { // 1+2+3 over the 3 survivors
			t.Fatalf("rank %d post-shrink allreduce = %v, want 6", r, sums[r])
		}
	}
}

func TestAgreeConsistentUnderRacingKills(t *testing.T) {
	// Two ranks die at different points while survivors race into the
	// agreement; every survivor must come back with the same view.
	const p = 6
	plan := &FaultPlan{Seed: 3, MaxDelay: 50 * time.Microsecond,
		Kills: []Kill{{Rank: 2, AfterOps: 4}, {Rank: 5, AfterOps: 9}}}
	var mu sync.Mutex
	views := map[int]string{}
	err := runRanksWithFaults(p, ThreadSingle, plan, func(c *Comm) {
		recoverFailure(func() {
			for i := 0; i < 100; i++ {
				c.Barrier()
			}
		})
		// Keep burning operations so the second, later kill fires even
		// though the epoch is already poisoned (failed attempts count).
		for i := 0; i < 20; i++ {
			recoverFailure(func() { c.Barrier() })
		}
		if !c.Alive() {
			return
		}
		// Keep agreeing until the view stabilizes across two rounds;
		// deaths during an agreement surface in the next one. Round
		// results are frozen world-wide, so every survivor sees the
		// identical round sequence and stops at the same round.
		prev := ""
		for {
			view := fmt.Sprint(c.Agree())
			if view == prev {
				break
			}
			prev = view
		}
		mu.Lock()
		views[c.Rank()] = prev
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	var want string
	for r, v := range views {
		if want == "" {
			want = v
		}
		if v != want {
			t.Fatalf("rank %d view %s differs from %s", r, v, want)
		}
	}
	if want != fmt.Sprint([]int{0, 1, 3, 4}) {
		t.Fatalf("agreed view %s, want [0 1 3 4]", want)
	}
}

func TestShrinkPurgesStaleTraffic(t *testing.T) {
	// A message sent before a failure must never satisfy a receive
	// posted after recovery, even with identical source rank and tag.
	err := runRanks(3, ThreadSingle, func(c *Comm) {
		if c.Rank() == 2 {
			c.Fail()
		}
		if c.Rank() == 1 {
			// Pre-shrink payload; may land or fail depending on how far
			// the death has propagated — either way it must be invisible
			// after recovery.
			recoverFailure(func() { c.Send(0, 9, []float64{-1}) })
		}
		// Wait for the death to be observable everywhere.
		for !c.world.isDead(2) {
			time.Sleep(time.Millisecond)
		}
		recoverFailure(func() { c.Barrier() })
		live := c.Agree()
		nc := c.Shrink(live)
		if nc.Rank() == 1 {
			nc.Send(0, 9, []float64{+1})
		}
		if nc.Rank() == 0 {
			buf := make([]float64, 1)
			nc.Recv(1, 9, buf)
			if buf[0] != +1 {
				panic(fmt.Sprintf("post-shrink recv got stale payload %v", buf[0]))
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDelayJitterPreservesResults(t *testing.T) {
	// Jitter shakes schedules without changing any result.
	plan := &FaultPlan{Seed: 11, MaxDelay: 100 * time.Microsecond}
	err := runRanksWithFaults(4, ThreadSingle, plan, func(c *Comm) {
		sum := c.AllreduceSum(float64(c.Rank()))
		if sum != 6 {
			panic(fmt.Sprintf("allreduce under jitter = %v, want 6", sum))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestOpTimeoutDumpsPending(t *testing.T) {
	// With no fault injection at all, a receive that can never be
	// matched must fail after the op timeout with a diagnostic naming
	// the blocked (rank, peer, tag) instead of deadlocking.
	var got *TimeoutError
	err := Run(2, ThreadSingle, func(c *Comm) {
		if c.Rank() == 1 {
			return // never sends
		}
		c.world.SetOpTimeout(50 * time.Millisecond)
		defer func() {
			p := recover()
			te, ok := p.(*TimeoutError)
			if !ok {
				panic(p)
			}
			got = te
		}()
		buf := make([]float64, 1)
		c.Recv(1, 77, buf)
		panic("recv returned without a sender")
	})
	if err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("no TimeoutError observed")
	}
	if got.Rank != 0 || got.Peer != 1 || got.Tag != 77 {
		t.Fatalf("timeout at rank %d <- %d tag %d, want 0 <- 1 tag 77", got.Rank, got.Peer, got.Tag)
	}
	found := false
	for _, op := range got.Pending {
		if op.Rank == 0 && op.Peer == 1 && op.Tag == 77 {
			found = true
		}
	}
	if !found {
		t.Fatalf("pending dump %v missing the blocked receive", got.Pending)
	}
}

// TestOpTimeoutBoundsProbe: a probe for a message that is never sent
// is bounded by the op timeout like a receive, failing with a
// *TimeoutError that names the probing rank, the peer and the tag. The
// test's own deadline turns an unbounded probe into a failure, not a
// hang.
func TestOpTimeoutBoundsProbe(t *testing.T) {
	w := NewWorld(2, ThreadSingle)
	w.SetOpTimeout(50 * time.Millisecond)
	var got *TimeoutError
	done := make(chan error, 1)
	go func() {
		done <- w.Run(func(c *Comm) {
			if c.Rank() == 1 {
				return // never sends
			}
			defer func() {
				te, ok := recover().(*TimeoutError)
				if !ok {
					panic("probe did not time out")
				}
				got = te
			}()
			c.Probe(1, 41)
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("Probe still blocked after 3s under a 50ms op timeout")
	}
	if got.Rank != 0 || got.Peer != 1 || got.Tag != 41 {
		t.Fatalf("probe timed out at rank %d <- %d tag %d, want 0 <- 1 tag 41", got.Rank, got.Peer, got.Tag)
	}
}

// TestOpTimeoutSharedMailbox: the threads of a MULTIPLE-mode rank share
// its mailbox's one op-timeout timer. Four threads block on receives of
// their own; a peer satisfies three of them in reverse post order, and
// those complete with their payloads while the fourth alone times out,
// naming its own peer and tag.
func TestOpTimeoutSharedMailbox(t *testing.T) {
	const timeout = 500 * time.Millisecond
	w := NewWorld(3, ThreadMultiple)
	w.SetOpTimeout(timeout)
	var got [4]float64
	var ended [4]any
	err := w.Run(func(c *Comm) {
		switch c.Rank() {
		case 0:
			var wg sync.WaitGroup
			for k := range 4 {
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer func() { ended[k] = recover() }()
					peer := 1
					if k == 3 {
						peer = 2 // rank 2 never sends
					}
					buf := make([]float64, 1)
					c.Recv(peer, 10+k, buf)
					got[k] = buf[0]
				}()
			}
			wg.Wait()
		case 1:
			if !waitFor(timeout/2, func() bool { return countPending(w, 0) == 4 }) {
				t.Errorf("rank 0 never posted its four receives: pending %v", w.PendingOps())
			}
			for tag := 12; tag >= 10; tag-- {
				c.Send(0, tag, []float64{float64(100 + tag)})
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for k := range 3 {
		if ended[k] != nil || got[k] != float64(110+k) {
			t.Errorf("receive of tag %d ended with %v and payload %v, want payload %d", 10+k, ended[k], got[k], 110+k)
		}
	}
	te, ok := ended[3].(*TimeoutError)
	if !ok {
		t.Fatalf("unsatisfied receive ended with %v, want a *TimeoutError", ended[3])
	}
	if te.Rank != 0 || te.Peer != 2 || te.Tag != 13 || len(te.Pending) != 1 {
		t.Fatalf("timeout at rank %d <- %d tag %d with pending %v, want 0 <- 2 tag 13 alone", te.Rank, te.Peer, te.Tag, te.Pending)
	}
}

func TestErrRankFailedErrorsAs(t *testing.T) {
	var err error = fmt.Errorf("wrapped: %w", &ErrRankFailed{Rank: 3})
	var rf *ErrRankFailed
	if !errors.As(err, &rf) || rf.Rank != 3 {
		t.Fatalf("errors.As failed on wrapped ErrRankFailed")
	}
	if rf2, ok := AsRankFailure(error(&ErrRankFailed{Rank: 5})); !ok || rf2.Rank != 5 {
		t.Fatal("AsRankFailure rejected a direct failure")
	}
	if _, ok := AsRankFailure("some panic"); ok {
		t.Fatal("AsRankFailure accepted a non-error panic")
	}
	if _, ok := AsRankFailure(rankKilled{1}); ok {
		t.Fatal("AsRankFailure accepted the victim's own death panic")
	}
}

func TestPipeFailsOnDeadStage(t *testing.T) {
	// A relay chain of plain Send/Recv: a dead upstream stage must
	// surface as the typed failure in downstream Recv calls.
	plan := &FaultPlan{Kills: []Kill{{Rank: 0, AfterOps: 2}}}
	err := runRanksWithFaults(3, ThreadSingle, plan, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 1, []float64{1})
			c.Send(1, 1, []float64{2})
			c.Send(1, 1, []float64{3}) // dies at op 3
			return
		}
		if c.Rank() == 1 {
			rf := recoverFailure(func() {
				buf := make([]float64, 1)
				for i := 0; i < 10; i++ {
					c.Recv(0, 1, buf)
					c.Send(2, 1, buf)
				}
			})
			if rf == nil || rf.Rank != 0 {
				panic(fmt.Sprintf("stage 1: failure = %v, want rank 0", rf))
			}
			return
		}
		rf := recoverFailure(func() {
			buf := make([]float64, 1)
			for i := 0; i < 10; i++ {
				c.Recv(1, 1, buf)
			}
		})
		if rf == nil {
			panic("stage 2 drained 10 values from a killed pipeline")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRecvPostedAcrossFirstDeathFails is the regression test for the
// lost wake-up on an un-planned world: ftOn is false until the first
// death arms it, so a receive that entered irecv before the death and is
// tracked after revoke's sweep must re-read ftOn — or it waits forever.
// The hook holds rank 0 inside irecv while rank 1 dies.
func TestRecvPostedAcrossFirstDeathFails(t *testing.T) {
	entered, died := make(chan struct{}), make(chan struct{})
	var once sync.Once
	testHookIrecv = func() {
		once.Do(func() {
			close(entered)
			<-died
		})
	}
	defer func() { testHookIrecv = nil }()
	w := NewWorld(3, ThreadSingle)
	w.SetOpTimeout(5 * time.Second) // a stranded receive fails the test instead of hanging it
	err := w.Run(func(c *Comm) {
		switch c.Rank() {
		case 0:
			rf := recoverFailure(func() { c.Recv(2, 7, make([]float64, 1)) }) // rank 2 never sends
			if rf == nil || rf.Rank != 1 {
				panic(fmt.Sprintf("receive posted across the death: failure = %v, want rank 1", rf))
			}
		case 1:
			<-entered
			defer close(died) // runs as Fail unwinds, after the revocation swept
			c.Fail()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Alive reports whether the calling rank is still a live member of the
// world (false once it has been killed by fault injection).
func (c *Comm) Alive() bool { return !c.world.isDead(c.group[c.rank]) }

// waitFor polls cond until it holds or d has passed and reports which.
// Tests use it to order a rank's action after state other ranks reach
// inside the runtime (a posted receive, an aborted mailbox).
func waitFor(d time.Duration, cond func() bool) bool {
	for deadline := time.Now().Add(d); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			return false
		}
	}
	return true
}

// countPending counts the world's pending receives owned by world rank r.
func countPending(w *World, r int) int {
	n := 0
	for _, op := range w.PendingOps() {
		if op.Rank == r {
			n++
		}
	}
	return n
}

// TestRankPanicUnblocksPeers drives the abort path: rank 0 panics while
// rank 1 is blocked in Recv, rank 2 in Waitall and rank 3 in a
// collective, and rank 4 posts its receive only once its mailbox is
// aborted. Run must report the panic and every peer must unwind with
// errAborted — the sweep of posted receives frees the first three, the
// aborted check at post time the fourth. The op timeout turns a
// stranded peer into a wrong panic value instead of a hang.
func TestRankPanicUnblocksPeers(t *testing.T) {
	const n = 5
	w := NewWorld(n, ThreadSingle)
	w.SetOpTimeout(5 * time.Second)
	got := make([]any, n)
	err := w.Run(func(c *Comm) {
		me := c.Rank()
		if me == 0 {
			blocked := func() bool {
				return countPending(w, 1) == 1 && countPending(w, 2) == 2 && countPending(w, 3) >= 1
			}
			if !waitFor(5*time.Second, blocked) {
				t.Errorf("peers never blocked: pending %v", w.PendingOps())
			}
			panic("boom")
		}
		defer func() { got[me] = recover() }()
		buf := make([]float64, 1)
		switch me {
		case 1:
			c.Recv(0, 1, buf)
		case 2:
			Waitall(c.Irecv(0, 2, buf), c.Irecv(0, 3, make([]float64, 1)))
		case 3:
			c.Barrier()
		case 4:
			box := w.boxes[4]
			aborted := func() bool {
				box.mu.Lock()
				defer box.mu.Unlock()
				return box.aborted
			}
			if !waitFor(5*time.Second, aborted) {
				t.Error("rank 4's mailbox never aborted")
			}
			c.Recv(0, 4, buf)
		}
	})
	if err == nil || !strings.Contains(err.Error(), "rank 0 panicked") {
		t.Fatalf("Run returned %v, want the rank 0 panic", err)
	}
	for r := 1; r < n; r++ {
		if got[r] != errAborted {
			t.Errorf("rank %d unwound with %v, want errAborted", r, got[r])
		}
	}
}

// TestPendingOpsListsOnlyUnmatched pins what the pending dump lists:
// exactly the posted receives no message has matched yet, across
// ranks. A matched receive leaves the list at once, an unexpected
// message never enters it, a quiescent world lists nothing, and no
// receive stays listed after a revocation.
func TestPendingOpsListsOnlyUnmatched(t *testing.T) {
	const n = 3
	// phase returns a one-shot rendezvous of the n rank goroutines,
	// outside the runtime so it posts no receives of its own.
	phase := func() func() {
		var wg sync.WaitGroup
		wg.Add(n)
		return func() { wg.Done(); wg.Wait() }
	}
	posted, checked, drained := phase(), phase(), phase()
	w := testWorld(n, ThreadSingle)
	expect := func(stage string, want ...PendingOp) {
		t.Helper()
		if got := w.PendingOps(); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: pending %v, want %v", stage, got, want)
		}
	}
	err := w.Run(func(c *Comm) {
		buf := make([]float64, 1)
		switch c.Rank() {
		case 0:
			posted()
			expect("posted", PendingOp{1, 0, 5}, PendingOp{1, 2, 6}, PendingOp{2, AnySource, 7})
			c.Send(1, 5, []float64{5})
			expect("one matched", PendingOp{1, 2, 6}, PendingOp{2, AnySource, 7})
			c.Send(2, 8, []float64{8}) // unexpected: waits in an envelope
			expect("unexpected arrived", PendingOp{1, 2, 6}, PendingOp{2, AnySource, 7})
			checked()
			c.Send(2, 7, []float64{7})
			drained()
			expect("quiescent")
		case 1:
			a, b := c.Irecv(0, 5, buf), c.Irecv(2, 6, make([]float64, 1))
			posted()
			checked()
			Waitall(a, b)
			Reclaim(a, b)
			drained()
		case 2:
			r := c.Irecv(AnySource, 7, buf)
			posted()
			checked()
			c.Send(1, 6, []float64{6})
			r.Wait()
			Reclaim(r)
			c.Recv(0, 8, buf)
			drained()
		}
	})
	if err != nil {
		t.Fatal(err)
	}

	w = testWorld(n, ThreadSingle)
	err = w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			blocked := func() bool { return len(w.PendingOps()) == 2 }
			if !waitFor(5*time.Second, blocked) {
				t.Errorf("survivors never blocked: pending %v", w.PendingOps())
			}
			c.Fail()
		}
		if rf := recoverFailure(func() { c.Recv(0, c.Rank(), make([]float64, 1)) }); rf == nil || rf.Rank != 0 {
			t.Errorf("rank %d: failure = %v, want rank 0", c.Rank(), rf)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	expect("revoked")
}

// TestRevokeSparesLaterEpochs: a revocation fails the receives posted in
// the epochs it poisons and no others. Survivors that already shrank
// post receives of the next epoch while a slow sweep of the old one may
// still be on its way to their mailboxes; such a receive must not fail
// with the death its communicator has already recovered from.
func TestRevokeSparesLaterEpochs(t *testing.T) {
	w := NewWorld(2, ThreadSingle)
	var active int32
	at := func(epoch int) *Comm {
		return &Comm{world: w, group: []int{0, 1}, active: &active, ctx: uint64(epoch), epoch: epoch}
	}
	old := at(0).irecv(1, 5, make([]float64, 1))
	later := at(1).irecv(1, 6, make([]float64, 1))
	w.revoke(0, 1)
	if rf := recoverFailure(func() { old.Wait() }); rf == nil || rf.Rank != 1 {
		t.Errorf("epoch-0 receive: failure = %v, want rank 1", rf)
	}
	if later.Test() {
		t.Error("the revocation of epoch 0 completed an epoch-1 receive")
	}
	if got, want := fmt.Sprint(w.PendingOps()), fmt.Sprint([]PendingOp{{0, 1, 6}}); got != want {
		t.Errorf("pending %s, want %s", got, want)
	}
}
