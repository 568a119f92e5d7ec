// Package gpaw is a miniature real-space density-functional-theory stack
// patterned after GPAW, the application whose finite-difference kernel
// the paper optimizes. It supplies the workload context of the paper —
// Poisson and Kohn–Sham equations solved with finite-difference stencils
// on real-space grids, with thousands of wave-function grids all
// decomposed identically — using the operators of internal/stencil.
//
// There is one solver stack. Every solver is built on a Dist — one
// rank's share of a bands x domain layout over an MPI communicator
// (dist.go) — and a serial calculation is the one-rank instance
// (SelfDist): the same code over mpi.Self, on the calling goroutine and
// the process-wide worker pool. Only the unfused, unpreconditioned
// SolveCGReference is a separate formulation, kept as the oracle the
// fused solver is tested against.
//
// Every solver runs on the shared-memory worker pool of
// internal/stencil and on its fused kernels, so each iteration makes
// roughly half the full-grid memory passes of the textbook chains
// (see the internal/stencil package comment for the traffic model).
//
// Units are Hartree atomic units: the kinetic operator is -(1/2)∇², the
// Hartree potential solves ∇²v = -4πn.
package gpaw

import (
	"math"

	"repro/internal/grid"
	"repro/internal/stencil"
)

// Boundary selects the boundary condition of a solver.
type Boundary int

const (
	// Periodic wraps the domain in all three dimensions.
	Periodic Boundary = iota
	// Dirichlet imposes zero values just outside the domain.
	Dirichlet
)

// String implements fmt.Stringer.
func (b Boundary) String() string {
	if b == Periodic {
		return "periodic"
	}
	return "dirichlet"
}

// Poisson solves ∇²φ = rhs on the local sub-domains of a Dist with a
// finite-difference Laplacian, by conjugate gradients preconditioned
// with one multigrid V-cycle, starting from whatever φ holds. For the
// periodic problem the right-hand side must integrate to zero (the
// solver removes the mean defensively) and the solution is fixed to
// zero mean. Iterates are bit-identical for every rank count, process
// grid and thread count.
type Poisson struct {
	D       *Dist // the distributed context
	Op      *stencil.Operator
	Tol     float64 // relative residual target; the SCF sets it per solve
	MaxIter int

	h float64 // grid spacing: the preconditioner rediscretizes per level
}

// NewDistPoisson builds the solver on d with the paper's radius-2
// Laplacian: phi and rhs are d's local sub-domains, and every rank of d
// calls each solve.
func NewDistPoisson(d *Dist, h float64) *Poisson {
	return &Poisson{D: d, Op: stencil.Laplacian(2, h), Tol: 1e-8, MaxIter: 10000, h: h}
}

// SolveCG runs preconditioned conjugate gradients on the negated
// (positive-definite) Laplacian from the initial guess phi holds. The
// sign is folded into the operator coefficients; an iteration is one
// V-cycle (multigrid: reduction-free) and four fused sweeps — exchange +
// apply-with-dot, axpy, axpy-with-norm, axpy-with-scale — with three
// exact global reductions (a fourth on periodic grids: the mean of z),
// on work grids the Dist owns. It returns the iterations run and the
// relative residual reached.
func (ps *Poisson) SolveCG(phi, rhs *grid.Grid) (int, float64, error) {
	return ps.solveNegated(phi, rhs, -1)
}

// negated returns -op, derived on the first call for op and kept, so a
// Dist's solves share one negated operator.
func (d *Dist) negated(op *stencil.Operator) *stencil.Operator {
	if d.negOf != op {
		d.neg, d.negOf = op.Scaled(-1), op
	}
	return d.neg
}

// solveNegated is SolveCG's body on the symmetric positive
// (semi-)definite problem (-∇²) phi = scale*src.
func (ps *Poisson) solveNegated(phi, src *grid.Grid, scale float64) (int, float64, error) {
	d := ps.D
	defer d.Cart.TraceRank().Region("poisson.cg").End()
	mg, err := d.hierarchy(ps.h)
	if err != nil {
		return 0, 0, err
	}
	neg := d.negated(ps.Op)
	f := &d.fields
	b := d.scratchGrid(&f.cgB)
	b.CopyInteriorFrom(src)
	b.Scale(scale)
	if d.BC == Periodic {
		d.removeMean(b)
	}
	norm0 := d.Norm2(b)
	if norm0 == 0 {
		phi.Fill(0)
		return 0, 0, nil
	}
	r, ap, p := d.scratchGrid(&f.cgR), d.scratchGrid(&f.cgAp), d.scratchGrid(&f.cgP)
	d.acc.Reset()
	d.withOverlap(d.eng, r, phi, sweep{k: neg.Residual(b), acc: &d.acc})
	// On periodic grids b is mean-free and A maps onto mean-free fields,
	// so r is mean-free up to rounding; z is projected every iteration,
	// which keeps p — hence phi's update — in the same subspace.
	rr := d.reduceAcc(&d.acc)
	var rzold float64
	for it := 0; ; it++ {
		rel := math.Sqrt(rr) / norm0
		if rel < ps.Tol {
			if d.BC == Periodic {
				d.removeMean(phi)
			}
			return it, rel, nil
		}
		if it == ps.MaxIter {
			return it, rel, errNotConverged("CG", rel)
		}
		d.cgIters++
		z := mg.precondition(r)
		rz := d.Dot(r, z)
		if it == 0 {
			p.CopyInteriorFrom(z)
		} else {
			p.AxpyScale(1, z, rz/rzold) // p = z + beta*p in one sweep
		}
		rzold = rz
		// ap = A p and <p, Ap>, the deep interior computed while p's
		// halo messages are in flight.
		d.acc.Reset()
		d.withOverlap(d.eng, ap, p, sweep{k: neg.Dot(), acc: &d.acc})
		alpha := rz / d.reduceAcc(&d.acc)
		phi.Axpy(alpha, p)
		rr = d.AxpyDot(r, -alpha, ap) // r -= alpha*Ap and <r, r> in one sweep
	}
}

// HartreePotential solves ∇²v = -4πn for the given density and returns
// v (zero-mean for periodic boundaries).
func (ps *Poisson) HartreePotential(n *grid.Grid) (*grid.Grid, error) {
	v := grid.NewDims(n.Dims(), n.H)
	if err := ps.hartreeInto(v, n); err != nil {
		return nil, err
	}
	return v, nil
}

// hartreeInto is HartreePotential into a caller-owned v, from the guess
// v holds — the SCF hands back the previous step's potential.
func (ps *Poisson) hartreeInto(v, n *grid.Grid) error {
	defer ps.D.Cart.TraceRank().Region("poisson.hartree").End()
	_, _, err := ps.solveNegated(v, n, 4*math.Pi)
	return err
}
