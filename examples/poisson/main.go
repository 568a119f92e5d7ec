// Poisson: solve ∇²v = -4πρ for a Gaussian charge with the
// finite-difference stencil (the electrostatic half of GPAW's workload)
// and compare against the analytic potential q·erf(r/σ√2)/r.
package main

import (
	"fmt"
	"math"

	"repro/internal/gpaw"
	"repro/internal/topology"
)

func main() {
	dims := topology.Dims{32, 32, 32}
	h := 0.45
	sigma := 1.0
	q := 1.0

	rho := gpaw.GaussianDensity(dims, h, sigma, q)
	solver := gpaw.NewDistPoisson(gpaw.SelfDist(dims, gpaw.Dirichlet), h)
	v, err := solver.HartreePotential(rho)
	if err != nil {
		panic(err)
	}

	c := (dims[0] - 1) / 2
	cx := float64(float64(dims[0]-1) / 2) // a product by 0.5: keep it out of the subtractions below
	fmt.Println("    r        v(FD)   v(analytic)+C")
	// The Dirichlet box shifts the potential by a constant; estimate it
	// at one radius and show the match elsewhere.
	analytic := func(r float64) float64 { return q * math.Erf(r/(sigma*math.Sqrt2)) / r }
	rRef := (float64(c+5) - cx) * h
	offset := v.At(c+5, c, c) - analytic(rRef)
	for d := 2; d <= 12; d += 2 {
		r := (float64(c+d) - cx) * h
		fmt.Printf("%6.2f  %10.5f  %12.5f\n", r, v.At(c+d, c, c), analytic(r)+offset)
	}
	fmt.Printf("\n(constant offset %.5f from the finite Dirichlet box)\n", offset)
}
