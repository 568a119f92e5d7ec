package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomSym(rng *rand.Rand, n int) Matrix {
	a := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			v := rng.NormFloat64()
			a[i][j], a[j][i] = v, v
		}
	}
	return a
}

func randomSPD(rng *rand.Rand, n int) Matrix {
	b := NewMatrix(n, n)
	for i := range b {
		for j := range b[i] {
			b[i][j] = rng.NormFloat64()
		}
	}
	a := MatMul(b, Transpose(b))
	for i := 0; i < n; i++ {
		a[i][i] += float64(n) // well conditioned
	}
	return a
}

// identity returns the n x n identity.
func identity(n int) Matrix {
	a := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		a[i][i] = 1
	}
	return a
}

func TestMatMulKnown(t *testing.T) {
	a := Matrix{{1, 2}, {3, 4}}
	b := Matrix{{5, 6}, {7, 8}}
	c := MatMul(a, b)
	want := Matrix{{19, 22}, {43, 50}}
	if MaxAbsDiff(c, want) != 0 {
		t.Fatalf("MatMul = %v", c)
	}
}

func TestMatMulShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("shape mismatch did not panic")
		}
	}()
	MatMul(Matrix{{1, 2}}, Matrix{{1, 2}})
}

func TestTranspose(t *testing.T) {
	a := Matrix{{1, 2, 3}, {4, 5, 6}}
	at := Transpose(a)
	if len(at) != 3 || len(at[0]) != 2 || at[2][1] != 6 || at[0][1] != 4 {
		t.Fatalf("Transpose = %v", at)
	}
}

func TestSymEigDiagonal(t *testing.T) {
	a := Matrix{{3, 0, 0}, {0, 1, 0}, {0, 0, 2}}
	eig, vecs, err := SymEig(a)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 3}
	for i := range want {
		if math.Abs(eig[i]-want[i]) > 1e-12 {
			t.Fatalf("eig = %v", eig)
		}
	}
	// Eigenvector for eigenvalue 1 is e_1 (up to sign).
	if math.Abs(math.Abs(vecs[1][0])-1) > 1e-12 {
		t.Fatalf("vecs = %v", vecs)
	}
}

func TestSymEigKnown2x2(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 1 and 3.
	eig, vecs, err := SymEig(Matrix{{2, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(eig[0]-1) > 1e-12 || math.Abs(eig[1]-3) > 1e-12 {
		t.Fatalf("eig = %v", eig)
	}
	// Eigenvector for 3 is (1,1)/sqrt(2) up to sign.
	if math.Abs(math.Abs(vecs[0][1])-1/math.Sqrt2) > 1e-10 {
		t.Fatalf("vecs = %v", vecs)
	}
}

func TestSymEigReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(9)
		a := randomSym(rng, n)
		eig, v, err := SymEig(a)
		if err != nil {
			t.Fatal(err)
		}
		// Ascending order.
		for i := 1; i < n; i++ {
			if eig[i] < eig[i-1] {
				t.Fatal("eigenvalues not ascending")
			}
		}
		// A = V diag(eig) Vᵀ.
		d := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			d[i][i] = eig[i]
		}
		rec := MatMul(MatMul(v, d), Transpose(v))
		if MaxAbsDiff(rec, a) > 1e-9 {
			t.Fatalf("trial %d: reconstruction error %g", trial, MaxAbsDiff(rec, a))
		}
		// Columns orthonormal: VᵀV = I.
		vv := MatMul(Transpose(v), v)
		if MaxAbsDiff(vv, identity(n)) > 1e-10 {
			t.Fatal("eigenvectors not orthonormal")
		}
	}
}

func TestSymEigTraceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		a := randomSym(rng, n)
		eig, _, err := SymEig(a)
		if err != nil {
			return false
		}
		trace, sum := 0.0, 0.0
		for i := 0; i < n; i++ {
			trace += a[i][i]
			sum += eig[i]
		}
		return math.Abs(trace-sum) < 1e-9*math.Max(1, math.Abs(trace))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCholeskyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(8)
		a := randomSPD(rng, n)
		l, err := Cholesky(a)
		if err != nil {
			t.Fatal(err)
		}
		rec := MatMul(l, Transpose(l))
		if MaxAbsDiff(rec, a) > 1e-9 {
			t.Fatalf("LLᵀ reconstruction error %g", MaxAbsDiff(rec, a))
		}
		// Upper triangle of L must be zero.
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if l[i][j] != 0 {
					t.Fatal("L not lower triangular")
				}
			}
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	if _, err := Cholesky(Matrix{{1, 0}, {0, -1}}); err == nil {
		t.Fatal("indefinite matrix accepted")
	}
}

func TestTriangularSolves(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randomSPD(rng, 6)
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, 6)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	// Solve A x = b via L (Lᵀ x) = b.
	y := ForwardSolveInto(make([]float64, 6), l, b)
	x := BackSolveInto(make([]float64, 6), l, y)
	// Check residual.
	for i := 0; i < 6; i++ {
		sum := 0.0
		for j := 0; j < 6; j++ {
			sum += a[i][j] * x[j]
		}
		if math.Abs(sum-b[i]) > 1e-9 {
			t.Fatalf("residual %g at row %d", sum-b[i], i)
		}
	}
}

func TestInvertLower(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randomSPD(rng, 5)
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	inv := InvertLower(l)
	prod := MatMul(l, inv)
	if MaxAbsDiff(prod, identity(5)) > 1e-10 {
		t.Fatalf("L*L^-1 != I (err %g)", MaxAbsDiff(prod, identity(5)))
	}
}

// TestSymEigTieBreakStable: exactly degenerate eigenvalues keep the
// Jacobi column order — for a scalar matrix the eigenvector basis is the
// identity, in order.
func TestSymEigTieBreakStable(t *testing.T) {
	a := Matrix{{2, 0, 0}, {0, 2, 0}, {0, 0, 2}}
	eig, vecs, err := SymEig(a)
	if err != nil {
		t.Fatal(err)
	}
	for i := range eig {
		if eig[i] != 2 {
			t.Fatalf("eig = %v", eig)
		}
	}
	if MaxAbsDiff(vecs, identity(3)) != 0 {
		t.Fatalf("degenerate eigenvectors reordered: %v", vecs)
	}
}

// TestSymEigCanonicalSign: every returned eigenvector has a non-negative
// largest-magnitude component, and repeated diagonalizations of the same
// matrix are bit-identical.
func TestSymEigCanonicalSign(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(7)
		a := randomSym(rng, n)
		eig, v, err := SymEig(a)
		if err != nil {
			t.Fatal(err)
		}
		for col := 0; col < n; col++ {
			pivot := 0
			for r := 1; r < n; r++ {
				if math.Abs(v[r][col]) > math.Abs(v[pivot][col]) {
					pivot = r
				}
			}
			if v[pivot][col] < 0 {
				t.Fatalf("trial %d col %d: pivot component %g negative", trial, col, v[pivot][col])
			}
		}
		eig2, v2, err := SymEig(a)
		if err != nil {
			t.Fatal(err)
		}
		for i := range eig {
			if eig[i] != eig2[i] {
				t.Fatalf("trial %d: eigenvalues not reproducible", trial)
			}
		}
		if MaxAbsDiff(v, v2) != 0 {
			t.Fatalf("trial %d: eigenvectors not reproducible", trial)
		}
	}
}

// TestSymEigNonConvergence: a skew-symmetric input (outside the
// symmetric contract) never converges under symmetric Jacobi rotations
// and must surface as an explicit error, not a silent bad basis.
func TestSymEigNonConvergence(t *testing.T) {
	a := Matrix{{0, 1}, {-1, 0}}
	if _, _, err := SymEig(a); err == nil {
		t.Fatal("want non-convergence error for skew-symmetric input")
	}
}

// TestIntoFormsReuseTheirStorage: with outputs and a Work sized once,
// every routine of the subspace step runs without a heap allocation,
// over outputs holding a previous call's values, with the bits of the
// allocating forms.
func TestIntoFormsReuseTheirStorage(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n = 5
	s, h := randomSPD(rng, n), randomSym(rng, n)
	l, inv, invT, prod, vecs := NewMatrix(n, n), NewMatrix(n, n), NewMatrix(n, n), NewMatrix(n, n), NewMatrix(n, n)
	eig, x := make([]float64, n), make([]float64, n)
	ws := NewWork(n)
	step := func() {
		if err := CholeskyInto(l, s); err != nil {
			t.Fatal(err)
		}
		InvertLowerInto(inv, l, ws)
		TransposeInto(invT, inv)
		MatMulInto(prod, inv, h)
		if err := SymEigInto(eig, vecs, h, ws); err != nil {
			t.Fatal(err)
		}
		copy(x, eig)
		BackSolveInto(x, l, ForwardSolveInto(x, l, x))
	}
	if allocs := testing.AllocsPerRun(10, step); allocs != 0 {
		t.Errorf("the Into forms made %v allocations per step, want 0", allocs)
	}
	wantL, _ := Cholesky(s)
	wantInv := InvertLower(wantL)
	wantEig, wantVecs, _ := SymEig(h)
	wantX := BackSolveInto(make([]float64, n), wantL, ForwardSolveInto(make([]float64, n), wantL, wantEig))
	same := func(a, b Matrix) bool {
		for i := range a {
			for j := range a[i] {
				if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
					return false
				}
			}
		}
		return true
	}
	if !same(l, wantL) || !same(inv, wantInv) || !same(invT, Transpose(wantInv)) ||
		!same(prod, MatMul(wantInv, h)) || !same(vecs, wantVecs) ||
		!same(Matrix{eig, x}, Matrix{wantEig, wantX}) {
		t.Error("an Into form deviates from its allocating form")
	}
}
