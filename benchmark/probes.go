package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"repro/internal/bgpsim"
	"repro/internal/core"
	"repro/internal/detsum"
	"repro/internal/gpaw"
	"repro/internal/grid"
	"repro/internal/linalg"
	"repro/internal/mpi"
	"repro/internal/pblas"
	"repro/internal/stencil"
	"repro/internal/topology"
)

// Probes time public functions of single layers from outside, on the
// workload's per-rank block and world size, so a layer's own rate can
// be read beside the end-to-end number it feeds.

// timeCalls repeats f until minNs have passed and returns ns per call.
// One unmeasured call first lets caches and lazy set-up settle.
func timeCalls(minNs int64, f func()) float64 {
	f()
	calls := 0
	start := time.Now()
	for {
		f()
		calls++
		if el := int64(time.Since(start)); el >= minNs {
			return float64(el) / float64(calls)
		}
	}
}

// noisyGrid returns a block filled, halos included, with values of
// mixed sign and magnitude so the exact accumulator sees a realistic
// spread of exponents.
func noisyGrid(dims topology.Dims, phase float64) *grid.Grid {
	g := grid.NewDims(dims, 2)
	for i, d := 0, g.Data(); i < len(d); i++ {
		x := float64(i)*0.37 + phase
		d[i] = math.Sin(x) * math.Exp(3*math.Cos(0.11*x))
	}
	return g
}

// sink keeps probe results alive so the compiler cannot drop the loops.
var sink float64

// kernelProbes covers stencil, detsum and grid on one block.
func kernelProbes(m metrics, block topology.Dims, minNs int64) {
	src, dst, v := noisyGrid(block, 0), grid.NewDims(block, 2), noisyGrid(block, 1)
	pts := float64(block.Count())
	op := stencil.Laplacian(2, scfSpacing)
	pool := stencil.NewPool(1)
	defer pool.Close()

	apply := timeCalls(minNs, func() { op.Apply(dst, src) }) / pts
	m["stencil.apply_ns_per_pt"] = apply
	m["stencil.step_ns_per_pt"] = timeCalls(minNs, func() { op.ApplyStep(pool, dst, src, v, -0.1, 1) }) / pts
	var acc detsum.Acc
	m["stencil.applydot_ns_per_pt"] = timeCalls(minNs, func() {
		acc.Reset()
		op.ApplyDotAcc(pool, dst, src, &acc)
	}) / pts
	// Computed from the operator's shape, not measured: bytes assume one
	// read and one write per point with neighbours served by cache.
	m["stencil.flops_per_byte"] = float64(op.FlopsPerPoint()) / float64(op.BytesPerPoint())
	m["stencil.gbytes_per_s_computed"] = float64(op.BytesPerPoint()) / apply

	xs, ys := src.Data(), v.Data()
	elems := float64(len(xs))
	m["detsum.add_ns_per_elem"] = timeCalls(minNs, func() {
		acc.Reset()
		for _, x := range xs {
			acc.Add(x)
		}
	}) / elems
	sink += acc.Round()
	dot := timeCalls(minNs, func() { sink += src.Dot(v) }) / pts
	naive := timeCalls(minNs, func() {
		s := 0.0
		for i, x := range xs {
			s += x * ys[i]
		}
		sink += s
	}) / elems
	m["detsum.dot_ns_per_elem"] = dot
	m["detsum.naive_dot_ns_per_elem"] = naive
	m["detsum.tax_ratio"] = dot / naive
	var a, b detsum.Acc
	for _, x := range xs[:256] {
		a.Add(x)
		b.Add(-0.5 * x)
	}
	const merges = 64
	m["detsum.merge_ns"] = timeCalls(minNs, func() {
		for i := 0; i < merges; i++ {
			a.Merge(&b)
		}
	}) / merges
	sink += a.Round()
	m["detsum.transport_bytes"] = 8 * detsum.TransportLen

	faces, largest := 0, 0
	for dim := 0; dim < 3; dim++ {
		faces += 2 * src.FaceLen(dim, 2)
		largest = max(largest, src.FaceLen(dim, 2))
	}
	faceBytes := 8 * float64(faces)
	buf := make([]float64, largest)
	m["grid.pack_ns_per_byte"] = timeCalls(minNs, func() {
		for dim := 0; dim < 3; dim++ {
			src.PackFace(dim, grid.Low, 2, buf)
			src.PackFace(dim, grid.High, 2, buf)
		}
	}) / faceBytes
	m["grid.unpack_ns_per_byte"] = timeCalls(minNs, func() {
		for dim := 0; dim < 3; dim++ {
			dst.UnpackHalo(dim, grid.Low, 2, buf)
			dst.UnpackHalo(dim, grid.High, 2, buf)
		}
	}) / faceBytes
	m["grid.axpy_ns_per_elem"] = timeCalls(minNs, func() { dst.Axpy(1e-3, src) }) / pts
}

// collectives times f, called calls times back to back on every rank
// of an n-rank world, and returns microseconds per call: wall on the
// eager transport, virtual makespan under the calibrated model.
func collectives(n, calls int, modelled bool, f func(c *mpi.Comm)) (float64, error) {
	body := func(c *mpi.Comm) {
		for i := 0; i < calls; i++ {
			f(c)
		}
	}
	if modelled {
		nm := bgpsim.NetModelFor(n)
		nm.NoComputeWall = true
		virt, err := mpi.RunModeled(n, mpi.ThreadSingle, nm, body)
		return float64(virt) / 1e3 / float64(calls), err
	}
	var ns int64
	err := mpi.Run(n, mpi.ThreadSingle, func(c *mpi.Comm) {
		f(c) // first touch of the communicator's buffers and tags
		c.Barrier()
		start := time.Now()
		body(c)
		c.Barrier()
		if c.Rank() == 0 {
			ns = int64(time.Since(start))
		}
	})
	return float64(ns) / 1e3 / float64(calls), err
}

// mpiProbes times the collectives and a ping-pong on the workload's
// world size.
func mpiProbes(m metrics, ranks, calls int) error {
	scalar := func(c *mpi.Comm) { c.AllreduceSum(1) }
	var errs []error
	rec := func(name string, us float64, err error) {
		m[name] = us
		errs = append(errs, err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	us, err := collectives(ranks, calls, false, scalar)
	runtime.ReadMemStats(&after)
	rec("mpi.allreduce_us_eager", us, err)
	// World start-up and the first call allocate too; they are spread
	// over the calls, so the count is an upper bound that tightens as
	// calls grows and still moves one-for-one with the per-call cost.
	m["mpi.allocs_per_allreduce"] = float64(after.Mallocs-before.Mallocs) / float64(calls+1)

	us, err = collectives(ranks, calls, true, scalar)
	rec("mpi.allreduce_us_virt", us, err)
	// The 69-word exact-sum transport every solver dot product ships.
	us, err = collectives(ranks, calls, true, func(c *mpi.Comm) {
		var in, out [detsum.TransportLen]float64
		in[0] = float64(c.Rank())
		c.AllreduceFunc(in[:], out[:], detsum.MergeTransport)
	})
	rec("mpi.allreduce_acc_us_virt", us, err)
	us, err = collectives(ranks, calls, true, func(c *mpi.Comm) {
		var buf [1]float64
		c.Bcast(0, buf[:])
	})
	rec("mpi.bcast_us_virt", us, err)

	m["mpi.pingpong_us"] = 0
	if ranks >= 2 {
		us, err = collectives(2, calls, false, func(c *mpi.Comm) {
			var buf [1]float64
			if c.Rank() == 0 {
				c.Send(1, 7, buf[:])
				c.Recv(1, 7, buf[:])
			} else {
				c.Recv(0, 7, buf[:])
				c.Send(0, 7, buf[:])
			}
		})
		rec("mpi.pingpong_us", us/2, err)
	}
	return errors.Join(errs...)
}

// exchangeProbe times one single-grid halo exchange through the engine
// on the workload's domain process grid and block.
func exchangeProbe(m metrics, global, procs topology.Dims, periodic bool, calls int) error {
	decomp, err := grid.NewDecomp(global, procs, 2)
	if err != nil {
		return err
	}
	n := procs.Count()
	errs := make([]error, n)
	var ns int64
	runErr := mpi.Run(n, mpi.ThreadSingle, func(c *mpi.Comm) {
		cart := c.CartCreate(procs, [3]bool{periodic, periodic, periodic}, true)
		eng, err := core.NewEngine(cart, decomp, stencil.Laplacian(2, 1), periodic, core.OptionsFor(core.FlatOptimized, 1, 1))
		if err != nil {
			errs[c.Rank()] = err
			return
		}
		defer eng.Close()
		gs := []*grid.Grid{eng.NewLocalGrid()}
		eng.Exchange(gs)
		c.Barrier()
		start := time.Now()
		for i := 0; i < calls; i++ {
			eng.Exchange(gs)
		}
		c.Barrier()
		if c.Rank() == 0 {
			ns = int64(time.Since(start))
		}
	})
	m["core.exchange_us"] = float64(ns) / 1e3 / float64(calls)
	return errors.Join(append(errs, runErr)...)
}

// subspaceMatrix is a symmetric positive definite m x m matrix shaped
// like a near-orthonormal overlap.
func subspaceMatrix(m int) linalg.Matrix {
	a := linalg.NewMatrix(m, m)
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			a[i][j] = 0.1 / float64(1+i+j)
		}
		a[i][i] += 1
	}
	return a
}

// algebraProbes times the dense subspace algebra at the workloads'
// state count: the distributed routines on a band communicator of the
// given size, and the serial ones they mirror.
func algebraProbes(m metrics, bands, calls int) error {
	const states = scfElectrons / 2
	s := subspaceMatrix(states)
	var subErr error
	start := time.Now()
	for i := 0; i < calls; i++ {
		l, err := linalg.Cholesky(s)
		if err != nil {
			subErr = err
			break
		}
		_ = linalg.InvertLower(l)
		if _, _, err := linalg.SymEig(s); err != nil {
			subErr = err
			break
		}
	}
	m["linalg.subspace_us"] = float64(time.Since(start)) / 1e3 / float64(calls)

	errs := make([]error, bands)
	var summa, chol float64
	runErr := mpi.Run(bands, mpi.ThreadSingle, func(c *mpi.Comm) {
		pr, pc := pblas.Squarish(bands)
		g, err := pblas.NewGrid2D(c, pr, pc)
		if err != nil {
			errs[c.Rank()] = err
			return
		}
		ds := pblas.FromReplicated(g, s, 2, 2)
		// Every rank makes the same calls the same number of times: the
		// routines are collective over the band communicator.
		timed := func(f func() error) (float64, error) {
			err := f()
			c.Barrier()
			start := time.Now()
			for i := 0; i < calls; i++ {
				err = errors.Join(err, f())
			}
			c.Barrier()
			return float64(time.Since(start)) / 1e3 / float64(calls), err
		}
		a, err := timed(func() error { _, err := pblas.MatMul(ds, ds); return err })
		b, err2 := timed(func() error { _, err := pblas.Cholesky(ds); return err })
		errs[c.Rank()] = errors.Join(err, err2)
		if c.Rank() == 0 {
			summa, chol = a, b
		}
	})
	m["pblas.summa_us"], m["pblas.cholesky_us"] = summa, chol
	return errors.Join(append(errs, runErr, subErr)...)
}

// dirStoreProbe times one checkpoint generation — shards then the
// committing manifest — through the on-disk store, on the real disk
// under the working directory. Informational: it measures this host's
// filesystem, not the program.
func dirStoreProbe(m metrics, shards, shardBytes int) error {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(buildDir, "dirstore-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := gpaw.NewDirStore(dir)
	if err != nil {
		return err
	}
	data := make([]byte, shardBytes)
	start := time.Now()
	for r := 0; r < shards; r++ {
		if err := st.PutShard(1, r, data); err != nil {
			return err
		}
	}
	if err := st.Commit(1, []byte(fmt.Sprintf(`{"ranks":%d}`, shards))); err != nil {
		return err
	}
	m["checkpoint.dirstore_commit_ms"] = float64(time.Since(start)) / 1e6
	return nil
}
