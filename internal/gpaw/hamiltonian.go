package gpaw

import (
	"math"

	"repro/internal/grid"
	"repro/internal/stencil"
)

// Kinetic returns the -(1/2)∇² operator of the given radius and spacing:
// the paper's 13-point stencil scaled for the Kohn–Sham equation.
func Kinetic(r int, h float64) *stencil.Operator {
	return stencil.Laplacian(r, h).Scaled(-0.5)
}

// Hamiltonian is a one-particle Kohn–Sham Hamiltonian H = -(1/2)∇² + V
// with a local effective potential, on the sub-domains of a Dist.
type Hamiltonian struct {
	D *Dist             // the distributed context
	T *stencil.Operator // kinetic operator
	V *grid.Grid        // local effective potential (may be nil)
}

// NewDistHamiltonian builds H on d with the paper's radius-2 kinetic
// stencil: v and the wave-functions are d's local sub-domains.
func NewDistHamiltonian(d *Dist, h float64, v *grid.Grid) *Hamiltonian {
	return &Hamiltonian{D: d, T: Kinetic(2, h), V: v}
}

// Apply computes dst = H psi in one fused sweep (kinetic stencil plus
// potential term) behind one halo exchange of psi.
func (h *Hamiltonian) Apply(dst, psi *grid.Grid) {
	h.D.one = [2]*grid.Grid{dst, psi}
	h.applyStates(h.D.one[:1], h.D.one[1:], nil, 1, 0, 0)
}

// applyStates computes dsts[i] = beta*psis[i] + alpha*(H psis[i]) +
// gamma*prevs[i] for every state (prevs nil: no third term; prevs may
// be dsts), with halo exchange and compute structured by the Dist's
// approach (batched exchange, per-thread communication or per-grid
// fork-join) and no reduction. Overlapped contexts run each state's
// fused step split-phase: the deep interior sweeps while the batch's
// halo messages are in flight, the boundary shell after they land. The
// Chebyshev filter's steps and RayleighRitz's H·psi go through it, so
// the overlap covers the bands x domain layout too.
//
//gpaw:hotpath
func (h *Hamiltonian) applyStates(dsts, psis, prevs []*grid.Grid, alpha, beta, gamma float64) {
	defer h.D.Cart.TraceRank().Region("eigen.apply").End()
	h.D.forEachExchanged(sweep{k: h.T.Step(h.V, alpha, beta, gamma), dst: dsts, src: psis, prev: prevs})
}

// kineticBound returns the kinetic part of the spectral bound: the sum
// of the operator's absolute coefficients. It depends only on the
// stencil, so every rank computes it identically.
func kineticBound(op *stencil.Operator) float64 {
	bound := 0.0
	for _, c := range op.X {
		//lint:ignore detsumcheck sum over the static stencil coefficient table, identical on every rank — no cross-rank reduction
		bound += math.Abs(c)
	}
	for _, c := range op.Y {
		//lint:ignore detsumcheck sum over the static stencil coefficient table, identical on every rank — no cross-rank reduction
		bound += math.Abs(c)
	}
	for _, c := range op.Z {
		//lint:ignore detsumcheck sum over the static stencil coefficient table, identical on every rank — no cross-rank reduction
		bound += math.Abs(c)
	}
	return bound + math.Abs(op.Center)
}

// maxPotential returns the maximum interior value of v, floored at 0 —
// the potential term of the spectral bound. Max is associative, so the
// per-rank maxima folded with an MPI max-reduction give the global
// maximum exactly, for every decomposition.
func maxPotential(v *grid.Grid) float64 {
	vmax := 0.0
	d := v.Dims()
	for i := 0; i < d[0]; i++ {
		for j := 0; j < d[1]; j++ {
			for k := 0; k < d[2]; k++ {
				if val := v.At(i, j, k); val > vmax {
					vmax = val
				}
			}
		}
	}
	return vmax
}

// SpectralBound returns an upper bound on H's largest eigenvalue — the
// upper edge of the interval the eigensolver's Chebyshev filter damps:
// the kinetic bound (sum of |coefficients|) plus the global potential
// maximum.
func (h *Hamiltonian) SpectralBound() float64 {
	bound := kineticBound(h.T)
	if h.V != nil {
		bound += h.D.Cart.AllreduceMax(maxPotential(h.V))
	}
	return bound
}
