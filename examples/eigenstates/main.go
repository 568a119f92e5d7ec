// Eigenstates: the Kohn-Sham half of GPAW's workload — find the lowest
// states of a 3-D harmonic oscillator by applying the finite-difference
// Hamiltonian to a set of wave-function grids with Chebyshev-filtered
// subspace iteration, and compare against the analytic levels ω(n + 3/2).
package main

import (
	"fmt"

	"repro/internal/gpaw"
	"repro/internal/topology"
)

func main() {
	dims := topology.Dims{24, 24, 24}
	h := 0.5
	omega := 1.0

	v := gpaw.HarmonicPotential(dims, h, omega)
	d := gpaw.SelfDist(dims, gpaw.Dirichlet)
	solver := gpaw.NewEigenSolver(gpaw.NewDistHamiltonian(d, h, v))

	// Four levels wanted, five states asked for: the top state of the
	// block is the solver's guard — it bounds the filter and is not
	// converged itself.
	analytic := []float64{1.5, 2.5, 2.5, 2.5} // ω(n+3/2), first shell triple
	psis := d.InitGuessBand(len(analytic)+1, [3]int{dims[0], dims[1], dims[2]})
	eig, err := solver.Solve(len(psis), psis)
	if err != nil {
		panic(err)
	}

	fmt.Println("state   E (FD)   E (analytic)   error")
	for i, e := range eig[:len(analytic)] {
		fmt.Printf("%5d  %7.4f  %13.1f  %6.2f%%\n",
			i, e, analytic[i], 100*(e-analytic[i])/analytic[i])
	}
}
