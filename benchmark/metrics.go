package main

// metrics maps a metric name to its value within one pass.
type metrics map[string]float64

// metricDef names one reported metric. Bound is the share of the
// parent's median by which an end-to-end metric may worsen before a
// change counts as a regression; per-layer metrics carry none.
type metricDef struct {
	Name  string
	Unit  string
	Bound float64
}

// endToEnd is what someone waiting for a result sees. Lower is better
// for all three. SCF iteration counts and the calibrated virtual
// makespan are deterministic, so they are enforced as exact checks
// (selfcheck, and bit-identity with the serial run) and reported per
// layer instead: a metric here must be meaningful, and non-zero, on
// every workload.
var endToEnd = []metricDef{
	{"wall_s", "s", 0.25},
	{"alloc_mb", "MB", 0.05},
	{"setup_s", "s", 0.25},
}

// perLayer is the ledger under the end-to-end numbers. Names are
// layer.metric with this repository's package names as layers. A layer
// a workload bypasses reports 0 there, which is itself the evidence
// that the workload bypasses it.
var perLayer = []metricDef{
	// gpaw: profile rows (self time summed over ranks) and rank-0 counts.
	{Name: "gpaw.scf_iters", Unit: "count"},
	{Name: "gpaw.eigen_solve_ms", Unit: "ms"},
	{Name: "gpaw.eigen_apply_ms", Unit: "ms"},
	{Name: "gpaw.hartree_ms", Unit: "ms"},
	{Name: "gpaw.density_ms", Unit: "ms"},
	{Name: "gpaw.bands_orthonormalize_ms", Unit: "ms"},
	{Name: "gpaw.bands_rayleighritz_ms", Unit: "ms"},
	{Name: "gpaw.eigen_apply_count", Unit: "count"},
	{Name: "gpaw.cg_iters", Unit: "count"},
	// stencil: probes on the workload's per-rank block.
	{Name: "stencil.apply_ns_per_pt", Unit: "ns/pt"},
	{Name: "stencil.step_ns_per_pt", Unit: "ns/pt"},
	{Name: "stencil.applydot_ns_per_pt", Unit: "ns/pt"},
	{Name: "stencil.flops_per_byte", Unit: "flop/byte"},
	{Name: "stencil.gbytes_per_s_computed", Unit: "GB/s"},
	// detsum: probes.
	{Name: "detsum.add_ns_per_elem", Unit: "ns/elem"},
	{Name: "detsum.dot_ns_per_elem", Unit: "ns/elem"},
	{Name: "detsum.naive_dot_ns_per_elem", Unit: "ns/elem"},
	{Name: "detsum.tax_ratio", Unit: "ratio"},
	{Name: "detsum.merge_ns", Unit: "ns"},
	{Name: "detsum.transport_bytes", Unit: "bytes"},
	// grid: probes, and the traffic counter over the traced operation.
	{Name: "grid.pack_ns_per_byte", Unit: "ns/byte"},
	{Name: "grid.unpack_ns_per_byte", Unit: "ns/byte"},
	{Name: "grid.axpy_ns_per_elem", Unit: "ns/elem"},
	{Name: "grid.traffic_passes_per_op", Unit: "count"},
	// core: fd_batch timed loops, engine counters, exchange probe, profile.
	{Name: "core.fd_ns_per_pt.flat_original", Unit: "ns/pt"},
	{Name: "core.fd_ns_per_pt.flat_optimized", Unit: "ns/pt"},
	{Name: "core.fd_ns_per_pt.hybrid_multiple", Unit: "ns/pt"},
	{Name: "core.fd_ns_per_pt.hybrid_master_only", Unit: "ns/pt"},
	{Name: "core.msgs_per_op", Unit: "count"},
	{Name: "core.bytes_per_op", Unit: "bytes"},
	{Name: "core.largest_msg_bytes", Unit: "bytes"},
	{Name: "core.exchange_us", Unit: "us"},
	{Name: "core.halo_post_ms", Unit: "ms"},
	{Name: "core.halo_wait_hidden_ms", Unit: "ms"},
	{Name: "core.halo_wait_visible_ms", Unit: "ms"},
	{Name: "core.interior_ms", Unit: "ms"},
	{Name: "core.shell_ms", Unit: "ms"},
	{Name: "core.overlap_eff", Unit: "frac"},
	{Name: "core.overlap_gain_virt", Unit: "ratio"},
	// mpi: the modelled makespan, probes on the workload's world size,
	// and profile rows (collective rows are inclusive of their nested
	// reduce/bcast/wait; send and wait rows are self time).
	{Name: "mpi.virt_makespan_ms", Unit: "ms"},
	{Name: "mpi.allreduce_us_eager", Unit: "us"},
	{Name: "mpi.allreduce_us_virt", Unit: "us"},
	{Name: "mpi.allreduce_acc_us_virt", Unit: "us"},
	{Name: "mpi.bcast_us_virt", Unit: "us"},
	{Name: "mpi.pingpong_us", Unit: "us"},
	{Name: "mpi.allocs_per_allreduce", Unit: "count"},
	{Name: "mpi.allreduce_ms", Unit: "ms"},
	{Name: "mpi.bcast_ms", Unit: "ms"},
	{Name: "mpi.reduce_ms", Unit: "ms"},
	{Name: "mpi.allgather_ms", Unit: "ms"},
	{Name: "mpi.wait_ms", Unit: "ms"},
	{Name: "mpi.send_ms", Unit: "ms"},
	{Name: "mpi.collective_calls", Unit: "count"},
	{Name: "mpi.collective_bytes", Unit: "bytes"},
	{Name: "mpi.p2p_msgs", Unit: "count"},
	{Name: "mpi.p2p_bytes", Unit: "bytes"},
	// pblas / linalg: probes at the workloads' four states.
	{Name: "pblas.summa_us", Unit: "us"},
	{Name: "pblas.cholesky_us", Unit: "us"},
	{Name: "linalg.subspace_us", Unit: "us"},
	// checkpoint: profile spans, the store decorator, one real-disk commit.
	{Name: "checkpoint.save_ms", Unit: "ms"},
	{Name: "checkpoint.restore_ms", Unit: "ms"},
	{Name: "checkpoint.store_write_ms", Unit: "ms"},
	{Name: "checkpoint.store_read_ms", Unit: "ms"},
	{Name: "checkpoint.bytes_per_step", Unit: "bytes"},
	{Name: "checkpoint.shards_per_step", Unit: "count"},
	{Name: "checkpoint.dirstore_commit_ms", Unit: "ms"},
	// ledger / trace: how much of the run the rows above account for.
	{Name: "ledger.comm_frac", Unit: "frac"},
	{Name: "ledger.unaccounted_frac", Unit: "frac"},
	{Name: "ledger.strong_scaling_eff_8to64", Unit: "frac"},
	{Name: "trace.overhead_frac", Unit: "frac"},
	{Name: "trace.dropped", Unit: "count"},
}
