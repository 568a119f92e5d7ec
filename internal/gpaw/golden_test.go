package gpaw

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/topology"
)

// The frozen oracle. testdata/serial_golden.json holds iteration counts,
// residuals, exact solution sums, eigenvalues and SCF results of the
// differential harness's problems, as math.Float64bits. The differential
// tests compare the one-rank run with the P-rank run — the same code
// twice; this test pins both to recorded numbers. The records are
// re-baselined, as a reviewed step in a commit of its own, whenever a PR
// changes a solver on purpose (last: PR 24, V-cycle-preconditioned,
// warm-started conjugate gradients — Poisson and SCF records; the eigen
// records are PR 22's):
//
//	go test ./internal/gpaw -run TestSerialGolden -update
//
// rewrites the records that moved from the one-rank run and leaves every
// other byte of the file alone.

var updateGolden = flag.Bool("update", false, "rewrite the records of testdata/serial_golden.json from the one-rank run")

// goldenFile mirrors the file field for field, in file order, so that
// -update re-marshals the records it does not touch byte for byte.
type goldenFile struct {
	Note    string `json:"note"`
	Poisson []struct {
		Solver   string  `json:"solver"`
		BC       string  `json:"bc"`
		Spacing  float64 `json:"spacing"`
		Iters    int     `json:"iters"`
		Residual string  `json:"residual"`
		Sum      string  `json:"sum"`
		SumSq    string  `json:"sumsq"`
	} `json:"poisson"`
	// Eigen: States is the block Solve is asked for — the recorded
	// levels plus the guard, or a lone unguarded state.
	Eigen []struct {
		BC          string   `json:"bc"`
		States      int      `json:"states"`
		Eigenvalues []string `json:"eigenvalues"`
	} `json:"eigen"`
	SCF []struct {
		BC           string   `json:"bc"`
		Electrons    int      `json:"electrons"`
		Energy       string   `json:"energy"`
		Eigenvalues  []string `json:"eigenvalues"`
		Iterations   int      `json:"iterations"`
		Residual     string   `json:"residual"`
		DensitySum   string   `json:"density_sum"`
		HartreeSumSq string   `json:"hartree_sumsq"`
	} `json:"scf"`
}

func hexBits(v float64) string { return fmt.Sprintf("0x%016x", math.Float64bits(v)) }

func hexBitsOf(vs []float64) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = hexBits(v)
	}
	return out
}

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
	for gi := range gold.Poisson {
		g := &gold.Poisson[gi]
		bc := boundaryNamed(t, g.BC)
		onGoldenLayouts(t, global, bc, func(d *Dist, where string) {
			phi, b := grid.NewDims(global, 2), rhs
			ps := NewDistPoisson(SelfDist(global, bc), g.Spacing)
			if d != nil {
				phi, b, ps = d.NewLocalGrid(), d.ScatterReplicated(rhs), NewDistPoisson(d, g.Spacing)
			}
			if g.Solver != "cg" {
				panic("golden file names unknown solver " + g.Solver)
			}
			it, res, err := ps.SolveCG(phi, b)
			if err != nil {
				panic(err)
			}
			sum, sumsq := phi.Sum(), phi.Dot(phi)
			if d != nil {
				sum, sumsq = d.Sum(phi), d.Dot(phi, phi)
			}
			if *updateGolden && d == nil {
				g.Iters, g.Residual, g.Sum, g.SumSq = it, hexBits(res), hexBits(sum), hexBits(sumsq)
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
	for gi := range gold.Eigen {
		g := &gold.Eigen[gi]
		bc := boundaryNamed(t, g.BC)
		onGoldenLayouts(t, small, bc, func(d *Dist, where string) {
			self := SelfDist(small, bc)
			ham, psis := NewDistHamiltonian(self, 0.5, vext), self.InitGuessBand(g.States, [3]int(small))
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
			if *updateGolden && d == nil {
				g.Eigenvalues = hexBitsOf(eig[:max(1, g.States-guardStates)])
			}
			for i, want := range g.Eigenvalues {
				expect(fmt.Sprintf("eigen %s m=%d ε[%d]", g.BC, g.States, i), where, hexBits(eig[i]), want)
			}
		})
	}

	for gi := range gold.SCF {
		g := &gold.SCF[gi]
		sys := scfSystem(small, 0.7)
		sys.BC, sys.Electrons = boundaryNamed(t, g.BC), g.Electrons
		onGoldenLayouts(t, small, sys.BC, func(d *Dist, where string) {
			scf := NewDistSCF(SelfDist(sys.Dims, sys.BC), sys)
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
			if *updateGolden && d == nil {
				g.Iterations, g.Eigenvalues = res.Iterations, hexBitsOf(res.Eigenvalues)
				g.Energy, g.Residual = hexBits(res.TotalEnergy), hexBits(res.Residual)
				g.DensitySum, g.HartreeSumSq = hexBits(nSum), hexBits(vhSq)
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

	if *updateGolden && !t.Failed() {
		out, err := json.MarshalIndent(&gold, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("testdata/serial_golden.json", append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
