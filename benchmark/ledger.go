package main

import (
	"repro/internal/trace"
)

// profileMetrics turns the traced operation's profile into ledger rows.
// rankNs is ranks x duration summed over the worlds the operation ran;
// whatever share of it no span's self time covers is reported as
// unaccounted rather than spread over the rows.
func profileMetrics(m metrics, tr *trace.Tracer, clock trace.Clock, rankNs int64) *trace.Profile {
	p := tr.Profile(clock)
	self := map[string]int64{}
	total := map[string]int64{}
	var collCalls, collBytes, p2pMsgs, p2pBytes int64
	for _, ph := range p.Phases {
		self[ph.Name] += ph.SelfNs
		total[ph.Name] += ph.TotalNs
		switch ph.Kind {
		case trace.KindCollective.String():
			collCalls += ph.Count
			collBytes += ph.Bytes
		case trace.KindSend.String():
			p2pMsgs += ph.Count
			p2pBytes += ph.Bytes
		}
	}
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }

	m["gpaw.eigen_solve_ms"] = ms(self["eigen.solve"])
	m["gpaw.eigen_apply_ms"] = ms(self["eigen.apply"])
	m["gpaw.hartree_ms"] = ms(self["poisson.hartree"] + self["poisson.cg"])
	m["gpaw.density_ms"] = ms(self["scf.density"])
	m["gpaw.bands_orthonormalize_ms"] = ms(self["bands.orthonormalize"])
	m["gpaw.bands_rayleighritz_ms"] = ms(self["bands.rayleighritz"])

	m["core.halo_post_ms"] = ms(self["halo.post"])
	m["core.halo_wait_hidden_ms"] = ms(p.HiddenWaitNs)
	m["core.halo_wait_visible_ms"] = ms(p.VisibleWaitNs)
	m["core.interior_ms"] = ms(p.InteriorNs)
	m["core.shell_ms"] = ms(p.ShellNs)
	m["core.overlap_eff"] = p.OverlapEfficiency

	// A collective's row includes the reduce, bcast, send and wait spans
	// nested in it: that is the time a caller of Allreduce waits, and
	// the number a collectives rewrite moves. Send and wait are leaves.
	m["mpi.allreduce_ms"] = ms(total["mpi.allreduce"])
	m["mpi.bcast_ms"] = ms(total["mpi.bcast"])
	m["mpi.reduce_ms"] = ms(total["mpi.reduce"])
	m["mpi.allgather_ms"] = ms(total["mpi.allgather"])
	m["mpi.wait_ms"] = ms(self["mpi.wait"])
	m["mpi.send_ms"] = ms(self["mpi.send"])
	m["mpi.collective_calls"] = float64(collCalls)
	m["mpi.collective_bytes"] = float64(collBytes)
	m["mpi.p2p_msgs"] = float64(p2pMsgs)
	m["mpi.p2p_bytes"] = float64(p2pBytes)

	m["checkpoint.save_ms"] = ms(total["ckpt.save"])
	m["checkpoint.restore_ms"] = ms(total["ckpt.restore"])

	if rankNs > 0 {
		m["ledger.comm_frac"] = float64(p.CommNs) / float64(rankNs)
		m["ledger.unaccounted_frac"] = 1 - float64(p.CommNs+p.ComputeNs)/float64(rankNs)
	}
	m["trace.dropped"] = float64(p.Dropped)

	applies, cg := solverCounts(tr.RankEvents(0))
	m["gpaw.eigen_apply_count"] = float64(applies)
	m["gpaw.cg_iters"] = float64(cg)
	return p
}

// solverCounts reads two solver counters off rank 0's timeline:
// Hamiltonian applications in the eigensolver, and conjugate-gradient
// iterations of the Hartree solves. Each CG iteration makes exactly one
// fused operator sweep, recorded as a compute.interior span when halo
// exchange is overlapped and a compute.sweep span when it is not; one
// more sweep per solve forms the initial residual. Events arrive in
// completion order, so a solve's sweeps precede its own span.
func solverCounts(events []trace.Event) (eigenApplies, cgIters int) {
	sweeps := 0
	for _, e := range events {
		switch e.Name {
		case "eigen.apply":
			eigenApplies++
			sweeps = 0
		case "compute.interior", "compute.sweep":
			sweeps++
		case "poisson.cg":
			cgIters += max(sweeps-1, 0)
			sweeps = 0
		case "eigen.solve", "bands.rayleighritz", "scf.density":
			sweeps = 0
		}
	}
	return eigenApplies, cgIters
}
