package gpaw

import (
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/stencil"
)

// Pipelined wavefront SOR: the distributed lexicographic Gauss–Seidel
// sweep without the rank-0 gather.
//
// The serial sweep visits points in ascending (i, j, k) order; each
// update reads already-updated values on the -x/-y/-z sides and
// pre-sweep values on the +x/+y/+z sides (and across periodic wraps,
// whose halos are filled before the sweep starts). Because the
// operator's taps are axis-aligned, a rank's dependence on its upstream
// neighbours is exactly the last `radius` planes / rows / z-columns of
// their updated sub-domains:
//
//   - the -x neighbour's last radius planes, once, before the rank's
//     first local plane;
//   - per local plane i, the -y neighbour's last radius rows of its
//     plane i, and the -z neighbour's plane-i boundary column (the last
//     radius z values of each of its rows).
//
// So the sweep runs as a software pipeline over the process grid: every
// rank sweeps plane-by-plane with SORSweepPlanes, receiving updated
// upstream boundaries into its halo just before they are read and
// streaming its own boundaries downstream the moment a plane completes
// (mpi.Pipe lanes, FIFO per plane). Ranks ahead in the lexicographic
// order are already several planes further on — the wavefront. All
// pre-sweep +side and wrap halo values come from the ordinary halo
// exchange that precedes the sweep, exactly mirroring a halo fill of
// the undecomposed grid: periodic wrap reads see pre-sweep values even
// where the source interior has since been updated, because the serial
// kernel reads the stale halo copy, not the live interior.
//
// Every point therefore reads bit-for-bit the values the serial sweep
// reads, in a schedule that differs only between independent points —
// the distributed iterates are bitwise identical to SORSweep's
// (asserted by TestWavefrontSweepMatchesSerial and the SOR solver
// differential harness).

// wavefrontTag is the base tag of the sweep's pipeline lanes (one per
// dimension), inside the solver layer's tag space and clear of the
// engine's halo-exchange tags.
const wavefrontTag = distTag + 8

// sorWavefront holds the pipeline lanes and reusable boundary buffers
// of one rank for the lifetime of a solve — no per-iteration
// allocation.
type sorWavefront struct {
	d  *Dist
	op *stencil.Operator
	up [3]*mpi.Pipe // updated boundaries arriving from the -side neighbour
	dn [3]*mpi.Pipe // this rank's boundaries streaming to the +side neighbour
	bx []float64    // -x block boundary: radius planes over the local y*z footprint
	by []float64    // per-plane -y boundary: radius rows
	bz []float64    // per-plane -z boundary column
}

// newSORWavefront builds the rank's pipeline. Lanes exist only toward
// interior neighbours of the process grid: wrap-around neighbours read
// pre-sweep values, which the preceding halo exchange supplies, so the
// pipeline never crosses the periodic seam (that is what keeps it a DAG
// and deadlock-free).
func newSORWavefront(d *Dist, op *stencil.Operator) *sorWavefront {
	w := &sorWavefront{d: d, op: op}
	procs := d.Decomp.Procs
	for dim := 0; dim < 3; dim++ {
		upPeer, dnPeer := mpi.ProcNull, mpi.ProcNull
		if d.coord[dim] > 0 {
			c := d.coord
			c[dim]--
			upPeer = d.Cart.RankOf(c)
		}
		if d.coord[dim] < procs[dim]-1 {
			c := d.coord
			c[dim]++
			dnPeer = d.Cart.RankOf(c)
		}
		w.up[dim] = d.Cart.NewPipe(upPeer, wavefrontTag+dim)
		w.dn[dim] = d.Cart.NewPipe(dnPeer, wavefrontTag+dim)
	}
	t := op.R
	w.bx = make([]float64, t*d.local[1]*d.local[2])
	w.by = make([]float64, t*d.local[2])
	w.bz = make([]float64, d.local[1]*t)
	return w
}

// sweep performs one pipelined Gauss–Seidel sweep of op(phi) = rhs.
// phi's halos must hold pre-sweep values (one Dist.Exchange before the
// call); on return phi's interior equals the serial SORSweep result for
// the assembled global grid, bit for bit.
func (w *sorWavefront) sweep(phi, rhs *grid.Grid, omega float64) {
	defer w.d.Cart.TraceRank().Region("sor.wavefront").End()
	t := w.op.R
	w.up[0].Recv(w.bx)
	if w.up[0].Active() {
		phi.UnpackHalo(0, grid.Low, t, w.bx)
	}
	for i := 0; i < phi.Nx; i++ {
		w.up[1].Recv(w.by)
		if w.up[1].Active() {
			phi.UnpackPlaneHalo(i, 1, grid.Low, t, w.by)
		}
		w.up[2].Recv(w.bz)
		if w.up[2].Active() {
			phi.UnpackPlaneHalo(i, 2, grid.Low, t, w.bz)
		}
		w.op.SORSweepPlanes(phi, rhs, omega, i, i+1)
		// One plane of modeled compute per pipeline stage, charged
		// before the downstream sends so the wavefront's fill latency
		// shows in virtual time.
		w.d.chargePoints(phi.Ny * phi.Nz)
		if w.dn[1].Active() {
			phi.PackPlaneFace(i, 1, grid.High, t, w.by)
			w.dn[1].Send(w.by)
		}
		if w.dn[2].Active() {
			phi.PackPlaneFace(i, 2, grid.High, t, w.bz)
			w.dn[2].Send(w.bz)
		}
	}
	if w.dn[0].Active() {
		phi.PackFace(0, grid.High, t, w.bx)
		w.dn[0].Send(w.bx)
	}
}
