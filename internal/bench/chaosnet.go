package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/gpaw"
	"repro/internal/mpi"
	"repro/internal/topology"
)

// ChaosNet demonstrates the lossy-transport chaos layer and the
// silent-data-corruption defense live. The distributed SCF runs over a
// transport that drops, duplicates, reorders, bit-flips and delays
// messages while the reliability sublayer (CRC32C framing, sequence
// numbers, retransmit with backoff) heals every fault; a second battery
// flips a bit in live solver state and lets the SDC guard detect it and
// the FT driver roll back to the last good checkpoint. Every run's
// energy must still match the serial solver bit for bit, with the
// reliability counters showing how much chaos was absorbed on the way.
func ChaosNet(opts Options) *Experiment {
	e := &Experiment{
		Name: "chaosnet",
		Caption: "lossy transport + SDC defense: SCF on a harmonic trap, 8^3 grid; messages are\n" +
			"dropped/duplicated/reordered/bit-flipped/delayed and healed by the reliability\n" +
			"sublayer; one run additionally suffers injected bit-rot and rolls back to the\n" +
			"last good checkpoint; E_band must remain bit-identical to serial",
		Header: []string{"scenario", "ranks", "injected", "retransmits", "dup-suppr", "crc-rej", "E_band (Ha)", "identical", "time"},
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
	e.AddRow("serial reference", "1", "-", "-", "-", "-",
		fmt.Sprintf("%.12f", serial.TotalEnergy), "-", "-")

	type scenario struct {
		name  string
		ranks int
		procs topology.Dims
		msg   *mpi.MsgFaults
		sdc   bool // inject bit-rot into solver state, recover via rollback
	}
	scenarios := []scenario{
		{"drop 2%", 4, topology.Dims{2, 2, 1}, &mpi.MsgFaults{Seed: 1, Drop: 0.02}, false},
		{"dup 5% + reorder 10%", 4, topology.Dims{2, 2, 1}, &mpi.MsgFaults{Seed: 2, Dup: 0.05, Reorder: 0.1}, false},
		{"bit-flip 2% + delay 5%", 4, topology.Dims{2, 2, 1}, &mpi.MsgFaults{Seed: 3, Corrupt: 0.02, DelayProb: 0.05}, false},
		{"all faults, 8 ranks", 8, topology.Dims{2, 4, 1}, &mpi.MsgFaults{Seed: 4, Drop: 0.01, Dup: 0.02, Reorder: 0.05, Corrupt: 0.01, DelayProb: 0.02}, false},
		{"SDC bit-rot + rollback", 4, topology.Dims{2, 2, 1}, &mpi.MsgFaults{Seed: 5, Drop: 0.01, Corrupt: 0.01}, true},
	}
	if opts.Quick {
		scenarios = []scenario{scenarios[0], scenarios[4]}
	}
	identical := true
	for _, sc := range scenarios {
		store := gpaw.NewMemStore()
		var res *gpaw.SCFResult
		var rel mpi.RelStats
		start := time.Now()
		err := mpi.RunWithFaults(sc.ranks, mpi.ThreadSingle, &mpi.FaultPlan{Msg: sc.msg}, func(c *mpi.Comm) {
			inj := gpaw.NewBitRotInjector(2)
			ft := gpaw.FTConfig{
				Store: store, Every: 1, Keep: 3, Recover: true,
				Configure: func(s *gpaw.SCF) {
					s.Tol = 1e-4
					if sc.sdc && c.Rank() == 0 {
						s.Guard.Tamper = inj
					}
				},
			}
			r, err := gpaw.RunSCFFT(c, gpaw.DistConfig{
				Global: global, Procs: sc.procs, Halo: 2, BC: sys.BC,
				Approach: core.FlatOptimized, Threads: 1, Batch: 2, ABFT: true,
			}, sys, ft)
			if err != nil {
				panic(err)
			}
			c.Barrier()
			if c.Rank() == 0 {
				res = r
				rel = c.World().NetRelTotals()
			}
		})
		if err != nil {
			panic(fmt.Sprintf("bench: chaosnet %q: %v", sc.name, err))
		}
		same := res.TotalEnergy == serial.TotalEnergy && res.Iterations == serial.Iterations
		if !same {
			identical = false
		}
		e.AddRow(sc.name, fmt.Sprintf("%d", sc.ranks),
			fmt.Sprintf("%d", rel.Injected()), fmt.Sprintf("%d", rel.Retransmits),
			fmt.Sprintf("%d", rel.DupSuppressed), fmt.Sprintf("%d", rel.CRCRejected),
			fmt.Sprintf("%.12f", res.TotalEnergy), fmt.Sprintf("%v", same),
			fmt.Sprintf("%7.3fs", time.Since(start).Seconds()))
	}
	if identical {
		e.AddNote("every chaos run reproduced the serial total energy bit for bit")
	} else {
		e.AddNote("DEVIATION: a chaos run broke the determinism contract")
	}
	e.AddNote("reliable delivery = CRC32C framing + sequence numbers + retransmit with capped " +
		"exponential backoff; SDC defense = ABFT checksums on the dense kernels + field/residual " +
		"sanity monitors + rollback to the newest checkpoint generation that passes CRC64 validation")
	return e
}
