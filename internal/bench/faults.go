package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/gpaw"
	"repro/internal/mpi"
	"repro/internal/topology"
)

// Faults demonstrates the fault-tolerant runtime live: the distributed
// SCF runs with a rank killed mid-flight, the survivors agree on the
// new membership, shrink, re-tile the last checkpoint onto the smaller
// process grid and resume — and every recovered energy must still match
// the serial solver bit for bit. One row per (ranks, victim, kill
// iteration); the "grid after" column shows the survivor decomposition
// recovery chose.
func Faults(opts Options) *Experiment {
	e := &Experiment{
		Name: "faults",
		Caption: "fault injection + shrink-to-survivors recovery: SCF on a harmonic trap, 8^3\n" +
			"grid; a rank is killed at the named iteration, survivors recover from the last\n" +
			"checkpoint; E_band must remain bit-identical to serial",
		Header: []string{"ranks", "victim", "kill at", "grid after", "E_band (Ha)", "iters", "recovered", "time"},
	}
	global := topology.Dims{8, 8, 8}
	h := 0.7
	sys := gpaw.System{
		Dims:      global,
		Spacing:   h,
		BC:        gpaw.Dirichlet,
		Vext:      gpaw.HarmonicPotential(global, h, 1),
		Electrons: 2,
	}
	scf := gpaw.NewSCF(sys)
	scf.Tol = 1e-4
	serial, err := scf.Run()
	if err != nil {
		panic(fmt.Sprintf("bench: serial SCF: %v", err))
	}
	e.AddRow("1", "-", "-", "serial", fmt.Sprintf("%.12f", serial.TotalEnergy),
		fmt.Sprintf("%d", serial.Iterations), "-", "-")

	type kill struct {
		ranks, victim, at int
		procs             topology.Dims
	}
	mid := (serial.Iterations + 1) / 2
	cases := []kill{
		{4, 1, 1, topology.Dims{2, 2, 1}},
		{4, 3, mid, topology.Dims{2, 2, 1}},
		{8, 7, serial.Iterations, topology.Dims{2, 4, 1}},
	}
	if opts.Quick {
		cases = cases[1:2]
	}
	identical := true
	for _, k := range cases {
		store := gpaw.NewMemStore()
		var res *gpaw.SCFResult
		var after topology.Dims
		start := time.Now()
		err := mpi.Run(k.ranks, mpi.ThreadSingle, func(c *mpi.Comm) {
			ft := gpaw.FTConfig{
				Store: store, Every: 1, Recover: true,
				Configure: func(s *gpaw.SCF) {
					s.Tol = 1e-4
					s.OnIteration = func(it int) {
						if it == k.at && c.Rank() == k.victim {
							c.Fail()
						}
					}
				},
				OnResult: func(d *gpaw.Dist, r *gpaw.SCFResult) {
					if d.World.Rank() == 0 {
						after = d.Decomp.Procs
					}
				},
			}
			r, err := gpaw.RunSCFFT(c, gpaw.DistConfig{
				Global: global, Procs: k.procs, Halo: 2, BC: sys.BC,
				Approach: core.FlatOptimized, Threads: 1, Batch: 2,
			}, sys, ft)
			if err != nil {
				panic(err)
			}
			if c.Rank() == 0 {
				res = r
			}
		})
		if err != nil {
			panic(fmt.Sprintf("bench: faults %d ranks: %v", k.ranks, err))
		}
		if res.TotalEnergy != serial.TotalEnergy {
			identical = false
		}
		e.AddRow(fmt.Sprintf("%d", k.ranks), fmt.Sprintf("%d", k.victim),
			fmt.Sprintf("it %d", k.at), after.String(),
			fmt.Sprintf("%.12f", res.TotalEnergy), fmt.Sprintf("%d", res.Iterations),
			"yes", fmt.Sprintf("%7.3fs", time.Since(start).Seconds()))
	}
	if identical {
		e.AddNote("every recovered run reproduced the serial total energy bit for bit")
	} else {
		e.AddNote("DEVIATION: a recovered run broke the determinism contract")
	}
	e.AddNote("recovery = typed failure detection (never a hang) + Agree/Shrink membership + " +
		"checkpoint re-tiling onto the survivor grid; exact reductions keep the resumed " +
		"iterations bitwise on any decomposition")
	return e
}
