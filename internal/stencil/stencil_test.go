package stencil

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/detsum"
	"repro/internal/grid"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestCentralWeightsSecondDerivativeRadius1(t *testing.T) {
	// Classic [1, -2, 1]/h^2.
	w := CentralWeights(1, 2, 0.5)
	want := []float64{4, -8, 4}
	for i := range want {
		if !almost(w[i], want[i], 1e-12) {
			t.Fatalf("w = %v, want %v", w, want)
		}
	}
}

func TestCentralWeightsSecondDerivativeRadius2(t *testing.T) {
	// Fourth-order: [-1/12, 4/3, -5/2, 4/3, -1/12]/h^2 — the paper's
	// per-axis coefficients.
	w := CentralWeights(2, 2, 1)
	want := []float64{-1.0 / 12, 4.0 / 3, -5.0 / 2, 4.0 / 3, -1.0 / 12}
	for i := range want {
		if !almost(w[i], want[i], 1e-12) {
			t.Fatalf("w = %v, want %v", w, want)
		}
	}
}

func TestCentralWeightsFirstDerivative(t *testing.T) {
	// [-1/2, 0, 1/2]/h.
	w := CentralWeights(1, 1, 2)
	want := []float64{-0.25, 0, 0.25}
	for i := range want {
		if !almost(w[i], want[i], 1e-12) {
			t.Fatalf("w = %v, want %v", w, want)
		}
	}
}

func TestCentralWeightsSymmetry(t *testing.T) {
	// Even derivatives have even-symmetric weights; odd derivatives
	// odd-symmetric.
	for r := 1; r <= 4; r++ {
		for m := 1; m <= 2; m++ {
			w := CentralWeights(r, m, 1)
			sign := 1.0
			if m%2 == 1 {
				sign = -1.0
			}
			for o := 1; o <= r; o++ {
				if !almost(w[r+o], sign*w[r-o], 1e-10) {
					t.Fatalf("r=%d m=%d: w[%d]=%g vs w[%d]=%g", r, m, r+o, w[r+o], r-o, w[r-o])
				}
			}
		}
	}
}

// Property: an order-2R central second-derivative stencil is exact on
// polynomials up to degree 2R+1 (error term is O(h^{2R})).
func TestWeightsPolynomialExactness(t *testing.T) {
	for r := 1; r <= 3; r++ {
		w := CentralWeights(r, 2, 1)
		for deg := 0; deg <= 2*r+1; deg++ {
			// f(x) = x^deg around x=5; exact second derivative.
			x0 := 5.0
			applied := 0.0
			for o := -r; o <= r; o++ {
				applied += w[o+r] * math.Pow(x0+float64(o), float64(deg))
			}
			var exact float64
			if deg >= 2 {
				exact = float64(deg) * float64(deg-1) * math.Pow(x0, float64(deg-2))
			}
			if !almost(applied, exact, 1e-6*math.Max(1, math.Abs(exact))) {
				t.Fatalf("r=%d deg=%d: applied %g, exact %g", r, deg, applied, exact)
			}
		}
	}
}

func TestWeightsPanicsOnTooFewPoints(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Weights with too few points did not panic")
		}
	}()
	Weights(0, []float64{0, 1}, 2)
}

func TestCentralWeightsPanicsOnZeroRadius(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("radius 0 did not panic")
		}
	}()
	CentralWeights(0, 2, 1)
}

func TestLaplacianIs13Point(t *testing.T) {
	op := Laplacian(2, 1)
	if op.Points() != 13 {
		t.Fatalf("Points = %d, want 13", op.Points())
	}
	if op.FlopsPerPoint() != 25 {
		t.Fatalf("FlopsPerPoint = %d, want 25", op.FlopsPerPoint())
	}
	if op.BytesPerPoint() != 16 {
		t.Fatalf("BytesPerPoint = %d", op.BytesPerPoint())
	}
	// Center: 3 * (-5/2) = -7.5 for h=1.
	if !almost(op.Center, -7.5, 1e-12) {
		t.Fatalf("Center = %g, want -7.5", op.Center)
	}
	// Axis center entries must be zeroed after merging.
	if op.X[2] != 0 || op.Y[2] != 0 || op.Z[2] != 0 {
		t.Fatal("axis center coefficients not merged")
	}
}

func TestNewOperatorPanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad coefficient length did not panic")
		}
	}()
	NewOperator(2, []float64{1, 2, 3}, make([]float64, 5), make([]float64, 5))
}

func TestApplyConstantField(t *testing.T) {
	// Laplacian of a constant is zero (weights sum to zero).
	op := Laplacian(2, 0.3)
	src := grid.New(6, 6, 6, 2)
	dst := grid.New(6, 6, 6, 2)
	src.Fill(3.7)
	op.ApplyPeriodicReference(dst, src)
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			for k := 0; k < 6; k++ {
				if !almost(dst.At(i, j, k), 0, 1e-11) {
					t.Fatalf("laplacian of constant = %g at (%d,%d,%d)", dst.At(i, j, k), i, j, k)
				}
			}
		}
	}
}

func TestApplyPlaneWaveEigenfunction(t *testing.T) {
	// cos(2*pi*m*x/L) is an eigenfunction of the discrete periodic
	// Laplacian; the discrete eigenvalue for the radius-2 operator is
	// sum_o w_o * cos(2*pi*m*o/N).
	n := 16
	h := 0.25
	op := Laplacian(2, h)
	w := CentralWeights(2, 2, h)
	m := 3
	eig := 0.0
	for o := -2; o <= 2; o++ {
		eig += w[o+2] * math.Cos(2*math.Pi*float64(m*o)/float64(n))
	}
	src := grid.New(n, n, n, 2)
	dst := grid.New(n, n, n, 2)
	src.FillFunc(func(i, j, k int) float64 {
		return math.Cos(2 * math.Pi * float64(m*i) / float64(n))
	})
	op.ApplyPeriodicReference(dst, src)
	for i := 0; i < n; i++ {
		want := eig * math.Cos(2*math.Pi*float64(m*i)/float64(n))
		if got := dst.At(i, 5, 7); !almost(got, want, 1e-10) {
			t.Fatalf("plane wave at i=%d: got %g, want %g", i, got, want)
		}
	}
}

func TestApplyConvergesToContinuumLaplacian(t *testing.T) {
	// On f = sin(x)sin(y)sin(z), ∇²f = -3f. Fourth-order operator error
	// should drop ~16x when h halves.
	errFor := func(n int) float64 {
		h := 2 * math.Pi / float64(n)
		op := Laplacian(2, h)
		src := grid.New(n, n, n, 2)
		dst := grid.New(n, n, n, 2)
		src.FillFunc(func(i, j, k int) float64 {
			return math.Sin(h*float64(i)) * math.Sin(h*float64(j)) * math.Sin(h*float64(k))
		})
		op.ApplyPeriodicReference(dst, src)
		max := 0.0
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				for k := 0; k < n; k++ {
					want := -3 * src.At(i, j, k)
					if d := math.Abs(dst.At(i, j, k) - want); d > max {
						max = d
					}
				}
			}
		}
		return max
	}
	e1 := errFor(8)
	e2 := errFor(16)
	ratio := e1 / e2
	if ratio < 10 || ratio > 24 {
		t.Fatalf("convergence ratio %g, want ~16 (4th order)", ratio)
	}
}

func TestApplyPanics(t *testing.T) {
	op := Laplacian(2, 1)
	a := grid.New(4, 4, 4, 2)
	b := grid.New(4, 4, 5, 2)
	thin := grid.New(4, 4, 4, 1)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("extent mismatch did not panic")
			}
		}()
		op.Apply(a, b)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("thin halo did not panic")
			}
		}()
		op.Apply(a, thin)
	}()
}

func TestApplyLinearityProperty(t *testing.T) {
	// op(a*f + g) == a*op(f) + op(g), exercised on random small fields.
	op := Laplacian(2, 0.7)
	f := func(seed int64, aRaw uint8) bool {
		a := float64(aRaw%9) - 4
		n := 6
		fg := grid.New(n, n, n, 2)
		gg := grid.New(n, n, n, 2)
		rng := seed
		next := func() float64 {
			rng = rng*6364136223846793005 + 1442695040888963407
			return float64(rng%1000) / 250
		}
		fg.FillFunc(func(i, j, k int) float64 { return next() })
		gg.FillFunc(func(i, j, k int) float64 { return next() })
		comb := grid.New(n, n, n, 2)
		comb.CopyInteriorFrom(gg)
		comb.Axpy(a, fg)

		outF := grid.New(n, n, n, 2)
		outG := grid.New(n, n, n, 2)
		outC := grid.New(n, n, n, 2)
		op.ApplyPeriodicReference(outF, fg)
		op.ApplyPeriodicReference(outG, gg)
		op.ApplyPeriodicReference(outC, comb)
		outG.Axpy(a, outF)
		return outC.MaxAbsDiff(outG) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestApplyZeroReference(t *testing.T) {
	// With Dirichlet zero halos, applying to a constant field gives
	// nonzero values only near the boundary (within the stencil radius).
	op := Laplacian(2, 1)
	n := 8
	src := grid.New(n, n, n, 2)
	dst := grid.New(n, n, n, 2)
	src.Fill(1)
	op.ApplyZeroReference(dst, src)
	if v := dst.At(n/2, n/2, n/2); !almost(v, 0, 1e-12) {
		t.Fatalf("deep interior value %g, want 0", v)
	}
	if v := dst.At(0, n/2, n/2); almost(v, 0, 1e-12) {
		t.Fatal("boundary-adjacent value should feel the zero halo")
	}
}

func TestGeneralRadiusKernelMatchesUnrolled(t *testing.T) {
	// Radius-1 (7-point) and radius-3 (19-point) exercise the generic
	// tap loop; verify against a direct computation.
	for _, r := range []int{1, 3} {
		h := 0.5
		op := Laplacian(r, h)
		n := 8
		src := grid.New(n, n, n, r)
		dst := grid.New(n, n, n, r)
		src.FillFunc(func(i, j, k int) float64 { return float64((i*5+j*2+k*3)%13) / 3 })
		op.ApplyPeriodicReference(dst, src)
		w := CentralWeights(r, 2, h)
		wrap := func(v int) int { return ((v % n) + n) % n }
		for _, p := range [][3]int{{0, 0, 0}, {3, 4, 5}, {n - 1, n - 1, n - 1}} {
			want := 0.0
			for o := -r; o <= r; o++ {
				want += w[o+r] * src.At(wrap(p[0]+o), p[1], p[2])
				want += w[o+r] * src.At(p[0], wrap(p[1]+o), p[2])
				want += w[o+r] * src.At(p[0], p[1], wrap(p[2]+o))
			}
			if got := dst.At(p[0], p[1], p[2]); !almost(got, want, 1e-10) {
				t.Fatalf("r=%d at %v: got %g, want %g", r, p, got, want)
			}
		}
	}
}

// stencilRowOracle is stencilRow in indexed form, every tap read as
// in[s+off]: the centre product, then for radius 2 three groups of four
// taps in tap order, else one tap at a time. Products are rounded before
// they are added, so the oracle is the same on every architecture.
func stencilRowOracle(out, in []float64, s0, n int, center float64, taps []tap) {
	for k := 0; k < n; k++ {
		s := s0 + k
		v := float64(center * in[s])
		if t := taps; len(t) == 12 {
			v += float64(t[0].c*in[s+t[0].off]) + float64(t[1].c*in[s+t[1].off]) +
				float64(t[2].c*in[s+t[2].off]) + float64(t[3].c*in[s+t[3].off])
			v += float64(t[4].c*in[s+t[4].off]) + float64(t[5].c*in[s+t[5].off]) +
				float64(t[6].c*in[s+t[6].off]) + float64(t[7].c*in[s+t[7].off])
			v += float64(t[8].c*in[s+t[8].off]) + float64(t[9].c*in[s+t[9].off]) +
				float64(t[10].c*in[s+t[10].off]) + float64(t[11].c*in[s+t[11].off])
		} else {
			for _, tp := range t {
				v += float64(tp.c * in[s+tp.off])
			}
		}
		out[k] = v
	}
}

// TestStencilRowMatchesOracle holds the row kernel to the indexed
// oracle bit for bit: random coefficients and rows mixing ordinary
// values, ±0 and subnormals, every row length the sweeps produce from
// empty to 48, radii 1-3 (the unrolled radius-2 path and the generic
// one) and several grid layouts.
func TestStencilRowMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	value := func() float64 {
		switch rng.IntN(6) {
		case 0:
			return 0
		case 1:
			return math.Copysign(0, -1)
		case 2:
			return (rng.Float64() - 0.5) * 1e4 * math.SmallestNonzeroFloat64
		default:
			return (rng.Float64() - 0.5) * math.Pow(10, float64(rng.IntN(9)-4))
		}
	}
	coeffs := func(r int) []float64 {
		c := make([]float64, 2*r+1)
		for i := range c {
			c[i] = value()
			if c[i] == 0 {
				c[i] = rng.Float64() + 0.5 // keep every tap
			}
		}
		return c
	}
	for _, r := range []int{1, 2, 3} {
		op := NewOperator(r, coeffs(r), coeffs(r), coeffs(r))
		// Layouts as (y rows, z row length) of the padded grid: tiny
		// overlapping strides, a flat slab, 24^3 with halo 3 and 48^3
		// with halo 2.
		for _, l := range [][2]int{{4, 3}, {24, 6}, {30, 30}, {52, 52}} {
			sx, sy := l[0]*l[1], l[1]
			taps := op.taps(sx, sy)
			for _, n := range []int{0, 1, 2, 3, 24, 48} {
				s0 := r * sx
				in := make([]float64, s0+n+r*sx)
				for i := range in {
					in[i] = value()
				}
				got, want := make([]float64, n), make([]float64, n)
				stencilRow(got, in, s0, n, op.Center, taps)
				stencilRowOracle(want, in, s0, n, op.Center, taps)
				for k := range want {
					if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
						t.Fatalf("r=%d layout %v n=%d: out[%d] = %g (%#x), oracle %g (%#x)",
							r, l, n, k, got[k], math.Float64bits(got[k]), want[k], math.Float64bits(want[k]))
					}
				}
			}
		}
	}
}

// BenchmarkApply reports the serial 13-point kernel's cost per point at
// the local extents the benchmark's workloads sweep: 24^3 (the SCF
// system), 48^3 (fd_batch's grids) and 64^3, with the AVX2 block body
// (simd, skipped on a host without AVX2) and with the Go loop alone
// (scalar).
func BenchmarkApply(b *testing.B) {
	for _, n := range []int{24, 48, 64} {
		for _, simd := range []bool{true, false} {
			b.Run(fmt.Sprintf("%d/%s", n, rowBodyName(simd)), func(b *testing.B) {
				setRowSIMD(b, simd)
				op := Laplacian(2, 1)
				src := grid.New(n, n, n, 2)
				dst := grid.New(n, n, n, 2)
				src.FillFunc(func(i, j, k int) float64 { return float64(i + j + k) })
				src.FillHalosPeriodic()
				b.SetBytes(int64(src.Points() * op.BytesPerPoint()))
				for b.Loop() {
					op.Apply(dst, src)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(src.Points()), "ns/pt")
			})
		}
	}
}

// BenchmarkFused reports the fused kernels' cost per point on one
// goroutine at a coarse multigrid level's extent (12x6x6) and at the
// SCF grid's 24^3: a Step without prev is a Hamiltonian application,
// with prev a Chebyshev filter step, Smooth a Jacobi relaxation,
// Residual the residual with its exact norm, Dot CG's A·p with
// <p, Ap>; each with the AVX2 block kernel
// (simd, skipped on a host without AVX2) and with the Go row loops
// (scalar).
func BenchmarkFused(b *testing.B) {
	op := Laplacian(2, 0.6)
	for _, d := range [][3]int{{12, 6, 6}, {24, 24, 24}} {
		grids := make([]*grid.Grid, 4)
		for i := range grids {
			grids[i] = grid.New(d[0], d[1], d[2], 2)
			grids[i].FillFunc(func(x, y, z int) float64 { return math.Sin(float64(x + 2*y + 3*z + i)) })
			grids[i].FillHalosPeriodic()
		}
		src, v, prev, dst := grids[0], grids[1], grids[2], grids[3]
		kernels := []struct {
			name string
			run  func()
		}{
			{"step", func() { op.ApplyStep(nil, dst, src, v, 1, 0) }},
			{"recurrence", func() { op.Step(v, 0.7, -0.3, -1).Apply(nil, dst, src, prev, nil) }},
			{"smooth", func() { op.Smooth(v, 0.1).Apply(nil, dst, src, nil, nil) }},
			{"residual", func() {
				var acc detsum.Acc
				op.Residual(v).Apply(nil, dst, src, nil, &acc)
			}},
			{"dot", func() {
				var acc detsum.Acc
				op.ApplyDotAcc(nil, dst, src, &acc)
			}},
		}
		for _, k := range kernels {
			for _, simd := range []bool{true, false} {
				b.Run(fmt.Sprintf("%dx%dx%d/%s/%s", d[0], d[1], d[2], k.name, rowBodyName(simd)), func(b *testing.B) {
					setRowSIMD(b, simd)
					for b.Loop() {
						k.run()
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(src.Points()), "ns/pt")
				})
			}
		}
	}
}
