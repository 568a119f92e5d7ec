package gpaw

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/topology"
)

// Fault-tolerant SCF driver. RunSCFFT wraps the distributed
// self-consistent loop in the ULFM-style recovery protocol the mpi
// fault layer supports: when a rank dies, every survivor's next
// communication fails with a typed *mpi.ErrRankFailed (never a hang),
// the survivors agree on the surviving membership (Comm.Agree), shrink
// to a replacement communicator (Comm.Shrink), re-decompose the global
// grid onto a process grid that fits the smaller world, re-tile the
// last committed checkpoint onto it and resume. Because every reduction
// in the solver stack is exact (internal/detsum) and checkpoint restore
// is a bit-exact re-tiling, the recovered run's eigenvalues, energies,
// iteration counts and fields are bit-identical to an undisturbed run —
// whatever rank died, whenever it died.

// FTConfig configures fault handling around a distributed SCF run.
type FTConfig struct {
	// Store receives the periodic checkpoints; nil disables
	// checkpointing, in which case recovery restarts the SCF from
	// scratch on the survivors (still bit-identical, just slower).
	Store Store
	// Every is the checkpoint cadence in SCF iterations (<= 1: every
	// iteration).
	Every int
	// Keep bounds the retained checkpoint generations (<= 0: all).
	// Rollback needs at least 2 so a corrupted newest generation still
	// leaves a valid one to fall back to.
	Keep int
	// Recover enables shrink-to-survivors recovery, for as long as at
	// least one rank survives. When false, a rank failure is returned to
	// the caller as a *mpi.ErrRankFailed on every survivor.
	Recover bool
	// Configure, when set, is applied to each attempt's SCF before
	// it runs — the hook for tolerances and iteration hooks (SCF.OnIteration).
	Configure func(*SCF)
	// OnResult, when set, runs on every active rank of the successful
	// attempt with its Dist and local result before parked ranks are
	// released — the hook for gathering fields while the final process
	// grid still exists.
	OnResult func(*Dist, *SCFResult)
}

// chooseProcs picks the process grid for n ranks deterministically:
// the topology.DecomposeGrid layout of the largest rank count p <= n
// whose layout grid.NewDecomp accepts for global. Every survivor
// computes the same grid from the same n.
func chooseProcs(global topology.Dims, n, halo int) (topology.Dims, int) {
	for p := n; p > 1; p-- {
		procs := topology.DecomposeGrid(p, global)
		if _, err := grid.NewDecomp(global, procs, halo); err == nil {
			return procs, p
		}
	}
	return topology.Dims{1, 1, 1}, 1
}

// scfAttempt runs one SCF attempt on the active communicator,
// converting a survivor-side rank-failure panic into an error so the
// caller can recover. A victim's own kill panic is re-raised — the dead
// rank's goroutine must unwind out of the runtime entirely.
func scfAttempt(body func() (*SCFResult, error)) (res *SCFResult, err error) {
	defer func() {
		if p := recover(); p != nil {
			rf, ok := mpi.AsRankFailure(p)
			if !ok {
				panic(p)
			}
			res, err = nil, rf
		}
	}()
	return body()
}

// ftOutcome broadcasts the attempt's outcome from active rank 0 of the
// full communicator to everyone — the release that lets parked ranks
// (those beyond the shrunken process grid) return the same scalars the
// actives computed. Layout: [status, energy, iterations, residual,
// eigenvalues...]. Status 3 signals a silent-data-corruption detection;
// parked ranks reconstruct the typed error (Index/Got/Want ride in the
// scalar slots) so their driver loop rolls back in lockstep with the
// actives instead of returning while the actives retry.
func ftOutcome(c *mpi.Comm, m int, res *SCFResult, err error) (*SCFResult, error) {
	buf := make([]float64, 4+m)
	if res != nil {
		if err != nil {
			buf[0] = 1
		}
		buf[1] = res.TotalEnergy
		buf[2] = float64(res.Iterations)
		buf[3] = res.Residual
		copy(buf[4:], res.Eigenvalues)
	} else {
		var sdc *ErrSDCDetected
		if errors.As(err, &sdc) {
			buf[0] = 3
			buf[1] = float64(sdc.Index)
			buf[2] = sdc.Got
			buf[3] = sdc.Want
		} else {
			buf[0] = 2
		}
	}
	c.Bcast(0, buf)
	if res != nil {
		return res, err
	}
	// Parked (or result-less) rank: reconstruct the outcome the actives
	// broadcast; the placeholder error passed in is discarded.
	switch buf[0] {
	case 0, 1:
		out := &SCFResult{Eigenvalues: append([]float64(nil), buf[4:]...),
			TotalEnergy: buf[1], Iterations: int(buf[2]), Residual: buf[3]}
		if buf[0] == 1 {
			return out, fmt.Errorf("gpaw: SCF did not converge (residual %g)", out.Residual)
		}
		return out, nil
	case 3:
		return nil, &ErrSDCDetected{Op: "ft.peer", Index: int(buf[1]), Got: buf[2], Want: buf[3]}
	default:
		if err == nil {
			err = fmt.Errorf("gpaw: distributed SCF failed on the active ranks")
		}
		return nil, err
	}
}

// RunSCFFT runs the distributed SCF fault-tolerantly on the given
// communicator. The first attempt uses cfg's process grid and band
// layout as given (cfg.Bands * cfg.Procs.Count() must equal the
// communicator size); after a failure the survivors re-decompose with
// chooseProcs — the surface-minimizing topology.DecomposeGrid layout,
// on fewer ranks where that one is too thin for the halo — and a
// single band group. Ranks beyond the shrunken
// process grid park in the outcome broadcast and return the successful
// attempt's scalar results (their grid fields are nil — they own no
// sub-domain of the final layout).
//
// With ft.Recover false, a rank failure surfaces as an error matching
// *mpi.ErrRankFailed (via errors.As) on every survivor.
func RunSCFFT(comm *mpi.Comm, cfg DistConfig, sys System, ft FTConfig) (*SCFResult, error) {
	m := (sys.Electrons + 1) / 2
	c := comm
	procs, bands := cfg.Procs, cfg.Bands
	if bands < 1 {
		bands = 1
	}
	for {
		active := bands * procs.Count()
		sub := c
		if active < c.Size() {
			sub = c.Split(firstRanks(active))
		} else if active > c.Size() {
			return nil, fmt.Errorf("gpaw: layout %d x %v needs %d ranks, have %d", bands, procs, active, c.Size())
		}

		res, err := scfAttempt(func() (*SCFResult, error) {
			if sub == nil {
				// Parked: wait for the actives' outcome (or a failure).
				return ftOutcome(c, m, nil, errors.New("gpaw: parked rank released without outcome"))
			}
			// Every active path — success, solver error, even a setup
			// error — must reach the outcome broadcast, or parked ranks
			// would wait forever on a fault-free failure.
			var d *Dist
			res, err := func() (*SCFResult, error) {
				acfg := cfg
				acfg.Procs, acfg.Bands = procs, bands
				var err error
				d, err = NewDist(sub, acfg)
				if err != nil {
					return nil, err
				}
				s := NewDistSCF(d, sys)
				if ft.Store != nil {
					s.Ckpt = &Checkpointer{Store: ft.Store, Every: ft.Every, Keep: ft.Keep}
				}
				if ft.Configure != nil {
					ft.Configure(s)
				}
				rs, err := latestRestart(d, ft.Store, s.MaxIter)
				if err != nil {
					return nil, err
				}
				if rs != nil {
					return s.Resume(rs)
				}
				return s.Run()
			}()
			if d != nil {
				defer d.Close()
			}
			if res != nil && ft.OnResult != nil {
				ft.OnResult(d, res)
			}
			return ftOutcome(c, m, res, err)
		})

		var sdc *ErrSDCDetected
		var rf *mpi.ErrRankFailed
		lost := errors.As(err, &rf)
		if !ft.Recover || !lost && !errors.As(err, &sdc) {
			return res, err
		}
		// Silent corruption leaves the membership intact: every rank
		// re-enters the attempt loop on the same layout, and latestRestart
		// rolls the whole world back together. A lost rank shrinks it.
		if lost {
			// Stabilize the membership view: Agree freezes each round's
			// result world-wide, so repeating until two consecutive
			// rounds match leaves every survivor with the same view even
			// when ranks keep dying during the agreement.
			view := c.Agree()
			for {
				next := c.Agree()
				if slices.Equal(view, next) {
					break
				}
				view = next
			}
			c = c.Shrink(view)
			procs, _ = chooseProcs(cfg.Global, c.Size(), cfg.Halo)
			bands = 1
		}
		// Recovery milestone on the timeline: bytes carries the size of
		// the world that retries.
		c.TraceRank().Mark("ft.recover", -1, -1, int64(c.Size()))
	}
}

// latestRestart restores onto d the newest committed step before
// iteration maxIter that RestoreSCF can restore, or returns nil. World
// rank 0 lists the steps and broadcasts each candidate, newest first. A
// step whose agreed verdict is corrupt or unreadable is passed over with
// a ckpt.fallback mark; any other failure ends recovery. Only agreed
// values steer the walk, so every rank walks back together.
func latestRestart(d *Dist, st Store, maxIter int) (*SCFRestart, error) {
	if st == nil {
		return nil, nil
	}
	var steps []int
	var listErr error
	if d.World.Rank() == 0 {
		steps, listErr = st.Steps()
		steps = steps[:sort.SearchInts(steps, maxIter)]
	}
	for i := len(steps) - 1; ; i-- {
		pick := [1]float64{-1} // a step; -1: none left; -2: the listing failed
		if listErr != nil {
			pick[0] = -2
		} else if i >= 0 {
			pick[0] = float64(steps[i])
		}
		d.World.Bcast(0, pick[:])
		switch step := int(pick[0]); step {
		case -2:
			return nil, errors.Join(fmt.Errorf("%w: world rank 0 could not list the committed steps", ErrCheckpointUnreadable), listErr)
		case -1:
			return nil, nil
		default:
			// RestoreSCF's error is of the agreed class on every rank.
			rs, err := RestoreSCF(d, st, step)
			if !errors.Is(err, ErrCheckpointCorrupt) && !errors.Is(err, ErrCheckpointUnreadable) {
				return rs, err
			}
			d.Cart.TraceRank().Mark("ckpt.fallback", -1, -1, int64(step))
		}
	}
}
