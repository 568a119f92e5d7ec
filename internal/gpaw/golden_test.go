package gpaw

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/topology"
)

// The frozen oracle. testdata/serial_golden.json was generated once, at
// the last commit that carried a separate serial solver stack, from that
// stack: iteration counts, residuals, exact solution sums, eigenvalues
// and SCF results of the differential harness's problems, as
// math.Float64bits. The differential tests compare the one-rank run
// with the P-rank run — the same code twice; this test pins both to
// numbers produced by code that no longer exists.

type goldenFile struct {
	Poisson []struct {
		Solver, BC           string
		Spacing              float64
		Iters                int
		Residual, Sum, SumSq string
	}
	Eigen []struct {
		BC          string
		States      int
		Eigenvalues []string
	}
	SCF []struct {
		BC                    string
		Electrons, Iterations int
		Energy, Residual      string
		Eigenvalues           []string
		DensitySum            string `json:"density_sum"`
		HartreeSumSq          string `json:"hartree_sumsq"`
	}
}

func hexBits(v float64) string { return fmt.Sprintf("0x%016x", math.Float64bits(v)) }

func boundaryNamed(t *testing.T, name string) Boundary {
	for _, bc := range []Boundary{Dirichlet, Periodic} {
		if bc.String() == name {
			return bc
		}
	}
	t.Fatalf("golden file names unknown boundary %q", name)
	return 0
}

// goldenLayouts are the contexts every golden case runs on: the
// one-rank context of the serial constructors (nil), and two P-rank
// layouts.
var goldenLayouts = []struct {
	procs topology.Dims
	a     core.Approach
}{
	{},
	{topology.Dims{2, 2, 1}, core.FlatOptimized},
	{topology.Dims{1, 1, 2}, core.HybridMultiple},
}

// onGoldenLayouts runs body once per golden layout: with a nil Dist for
// the serial constructors, then on each rank of the P-rank layouts.
func onGoldenLayouts(t *testing.T, global topology.Dims, bc Boundary, body func(d *Dist, where string)) {
	t.Helper()
	for _, l := range goldenLayouts {
		if l.procs.Count() == 0 {
			body(nil, "one rank")
			continue
		}
		runDist(t, global, l.procs, bc, l.a, func(d *Dist) {
			body(d, fmt.Sprintf("procs %v %v", l.procs, l.a))
		})
	}
}

func TestSerialGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the frozen bits are amd64's (other targets may fuse multiply-adds)")
	}
	raw, err := os.ReadFile("testdata/serial_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var gold goldenFile
	if err := json.Unmarshal(raw, &gold); err != nil {
		t.Fatal(err)
	}
	if len(gold.Poisson) == 0 || len(gold.Eigen) == 0 || len(gold.SCF) == 0 {
		t.Fatalf("golden file is missing a section: %d poisson, %d eigen, %d scf", len(gold.Poisson), len(gold.Eigen), len(gold.SCF))
	}
	expect := func(what, where, got, want string) {
		t.Helper()
		if got != want {
			t.Errorf("%s on %s: %s, frozen serial value %s", what, where, got, want)
		}
	}

	global := topology.Dims{16, 16, 16}
	rhs := poissonRHS(global)
	for _, g := range gold.Poisson {
		bc := boundaryNamed(t, g.BC)
		onGoldenLayouts(t, global, bc, func(d *Dist, where string) {
			phi, b := grid.NewDims(global, 2), rhs
			ps := NewPoisson(g.Spacing, bc)
			if d != nil {
				phi, b, ps = d.NewLocalGrid(), d.ScatterReplicated(rhs), NewDistPoisson(d, g.Spacing)
			}
			var it int
			var res float64
			var err error
			switch g.Solver {
			case "cg":
				it, res, err = ps.SolveCG(phi, b)
			case "multigrid":
				mg, mgErr := NewMultigrid(global, g.Spacing, bc)
				if d != nil {
					mg, mgErr = NewDistMultigrid(d, g.Spacing)
				}
				if mgErr != nil {
					panic(mgErr)
				}
				it, res, err = mg.Solve(phi, b)
			default:
				panic("golden file names unknown solver " + g.Solver)
			}
			if err != nil {
				panic(err)
			}
			sum, sumsq := phi.Sum(), phi.Dot(phi)
			if d != nil {
				sum, sumsq = d.Sum(phi), d.Dot(phi, phi)
			}
			what := g.Solver + " " + g.BC
			if it != g.Iters {
				t.Errorf("%s on %s: %d iterations, frozen serial value %d", what, where, it, g.Iters)
			}
			expect(what+" residual", where, hexBits(res), g.Residual)
			expect(what+" Σφ", where, hexBits(sum), g.Sum)
			expect(what+" Σφ²", where, hexBits(sumsq), g.SumSq)
		})
	}

	small := topology.Dims{8, 8, 8}
	vext := HarmonicPotential(small, 0.5, 1)
	for _, g := range gold.Eigen {
		bc := boundaryNamed(t, g.BC)
		onGoldenLayouts(t, small, bc, func(d *Dist, where string) {
			ham, psis := NewHamiltonian(0.5, vext, bc), InitGuess(g.States, [3]int(small), 2)
			if d != nil {
				ham, psis = NewDistHamiltonian(d, 0.5, d.ScatterReplicated(vext)), d.InitGuessBand(g.States, [3]int(small))
			}
			es := NewEigenSolver(ham)
			es.Tol = 1e-7
			es.MaxIter = 500
			eig, err := es.Solve(g.States, psis)
			if err != nil {
				panic(err)
			}
			for i, want := range g.Eigenvalues {
				expect(fmt.Sprintf("eigen %s m=%d ε[%d]", g.BC, g.States, i), where, hexBits(eig[i]), want)
			}
		})
	}

	for _, g := range gold.SCF {
		sys := scfSystem(small, 0.7)
		sys.BC, sys.Electrons = boundaryNamed(t, g.BC), g.Electrons
		onGoldenLayouts(t, small, sys.BC, func(d *Dist, where string) {
			scf := NewSCF(sys)
			if d != nil {
				scf = NewDistSCF(d, sys)
			}
			scf.Tol = 1e-4
			res, err := scf.Run()
			if err != nil {
				panic(err)
			}
			nSum, vhSq := res.Density.Sum(), res.VHartree.Dot(res.VHartree)
			if d != nil {
				nSum, vhSq = d.Sum(res.Density), d.Dot(res.VHartree, res.VHartree)
			}
			what := fmt.Sprintf("SCF %s %d electrons", g.BC, g.Electrons)
			if res.Iterations != g.Iterations {
				t.Errorf("%s on %s: %d iterations, frozen serial value %d", what, where, res.Iterations, g.Iterations)
			}
			expect(what+" energy", where, hexBits(res.TotalEnergy), g.Energy)
			expect(what+" residual", where, hexBits(res.Residual), g.Residual)
			expect(what+" Σn", where, hexBits(nSum), g.DensitySum)
			expect(what+" Σv_H²", where, hexBits(vhSq), g.HartreeSumSq)
			for i, want := range g.Eigenvalues {
				expect(fmt.Sprintf("%s ε[%d]", what, i), where, hexBits(res.Eigenvalues[i]), want)
			}
		})
	}
}
