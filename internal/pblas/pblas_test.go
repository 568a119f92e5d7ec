package pblas

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/linalg"
	"repro/internal/mpi"
)

// The pblas differential harness: every distributed kernel must be
// bit-identical to its replicated internal/linalg counterpart, for
// multiple grid shapes (1x1, 1x2, 2x1, 2x2, 1x4, 4x1, 2x4) and block
// sizes (1, 2, 3, 5, larger-than-matrix).

// gridShapes lists the process-grid shapes exercised per rank count.
func gridShapes(p int) [][2]int {
	switch p {
	case 1:
		return [][2]int{{1, 1}}
	case 2:
		return [][2]int{{1, 2}, {2, 1}}
	case 4:
		return [][2]int{{2, 2}, {1, 4}, {4, 1}}
	case 8:
		return [][2]int{{2, 4}, {4, 2}}
	}
	return nil
}

var blockSizes = []int{1, 2, 3, 5, 64}

// randMatrix builds a deterministic pseudo-random matrix.
func randMatrix(rng *rand.Rand, m, n int) linalg.Matrix {
	a := linalg.NewMatrix(m, n)
	for i := range a {
		for j := range a[i] {
			a[i][j] = rng.NormFloat64()
			if rng.Intn(7) == 0 {
				a[i][j] = 0 // exercise the zero-skip path of MatMul
			}
		}
	}
	return a
}

// randSPD builds a deterministic symmetric positive-definite matrix.
func randSPD(rng *rand.Rand, n int) linalg.Matrix {
	b := randMatrix(rng, n, n)
	a := linalg.MatMul(b, linalg.Transpose(b))
	for i := 0; i < n; i++ {
		a[i][i] += float64(n)
	}
	return a
}

// onGrids runs body on every grid shape for every rank count, with a
// fresh world each time.
func onGrids(t *testing.T, body func(t *testing.T, g *Grid2D)) {
	t.Helper()
	for _, p := range []int{1, 2, 4, 8} {
		for _, shape := range gridShapes(p) {
			pr, pc := shape[0], shape[1]
			err := testWorld(p).Run(func(c *mpi.Comm) {
				g, err := NewGrid2D(c, pr, pc)
				if err != nil {
					panic(err)
				}
				body(t, g)
			})
			if err != nil {
				t.Fatalf("grid %dx%d: %v", pr, pc, err)
			}
		}
	}
}

// bitEqual reports whether two replicated matrices match bitwise
// (signed zeros distinguished: the contract is verbatim value
// transport, not just numeric equality).
func bitEqual(a, b linalg.Matrix) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}

func TestNumroc(t *testing.T) {
	// Dealing n indices in blocks of nb over np procs must cover each
	// index exactly once.
	for _, n := range []int{0, 1, 5, 16, 17, 31} {
		for _, nb := range []int{1, 2, 3, 7, 40} {
			for _, np := range []int{1, 2, 3, 4} {
				total := 0
				for ip := 0; ip < np; ip++ {
					total += numroc(n, nb, ip, np)
				}
				if total != n {
					t.Fatalf("numroc(%d,%d,*,%d) covers %d indices", n, nb, np, total)
				}
			}
		}
	}
}

func TestSquarish(t *testing.T) {
	cases := map[int][2]int{1: {1, 1}, 2: {1, 2}, 3: {1, 3}, 4: {2, 2}, 6: {2, 3}, 8: {2, 4}, 12: {3, 4}}
	for p, want := range cases {
		pr, pc := Squarish(p)
		if pr != want[0] || pc != want[1] {
			t.Errorf("Squarish(%d) = %dx%d, want %dx%d", p, pr, pc, want[0], want[1])
		}
	}
}

// TestIndexMapsRoundTrip: global->local->global is the identity on
// owned indices, and every global index has exactly one owner.
func TestIndexMapsRoundTrip(t *testing.T) {
	onGrids(t, func(t *testing.T, g *Grid2D) {
		a := NewDist(g, 17, 13, 3, 2)
		for lr := 0; lr < a.LocalRows(); lr++ {
			gi := a.GlobalRow(lr)
			if a.RowOwner(gi) != g.Myrow || a.LocalRow(gi) != lr {
				t.Errorf("grid %dx%d: row map broken at lr=%d gi=%d", g.Pr, g.Pc, lr, gi)
			}
		}
		for lc := 0; lc < a.LocalCols(); lc++ {
			gj := a.GlobalCol(lc)
			if a.ColOwner(gj) != g.Mycol || a.LocalCol(gj) != lc {
				t.Errorf("grid %dx%d: col map broken at lc=%d gj=%d", g.Pr, g.Pc, lc, gj)
			}
		}
	})
}

// TestReplicateRoundTrip: FromReplicated followed by Replicate is the
// bitwise identity for every grid shape and block size.
func TestReplicateRoundTrip(t *testing.T) {
	for _, bs := range blockSizes {
		bs := bs
		onGrids(t, func(t *testing.T, g *Grid2D) {
			rng := rand.New(rand.NewSource(42))
			a := randMatrix(rng, 11, 7)
			d := FromReplicated(g, a, bs, bs)
			if got := d.Replicate(); !bitEqual(got, a) {
				t.Errorf("grid %dx%d block %d: replicate round trip deviates", g.Pr, g.Pc, bs)
			}
		})
	}
}

// TestSUMMADifferential: distributed MatMul equals linalg.MatMul bitwise
// for rectangular operands, all grid shapes, several block sizes.
func TestSUMMADifferential(t *testing.T) {
	shapes := [][3]int{{9, 12, 7}, {16, 16, 16}, {5, 3, 8}, {1, 6, 1}}
	for _, bs := range blockSizes {
		bs := bs
		onGrids(t, func(t *testing.T, g *Grid2D) {
			rng := rand.New(rand.NewSource(int64(1000 + bs)))
			for _, sh := range shapes {
				m, k, n := sh[0], sh[1], sh[2]
				a := randMatrix(rng, m, k)
				b := randMatrix(rng, k, n)
				want := linalg.MatMul(a, b)
				da := FromReplicated(g, a, bs, bs)
				db := FromReplicated(g, b, bs, bs)
				dc, err := MatMul(da, db)
				if err != nil {
					t.Fatalf("grid %dx%d block %d: %v", g.Pr, g.Pc, bs, err)
				}
				if got := dc.Replicate(); !bitEqual(got, want) {
					t.Errorf("grid %dx%d block %d shape %v: SUMMA deviates from linalg.MatMul",
						g.Pr, g.Pc, bs, sh)
				}
			}
		})
	}
}

// TestCholeskyDifferential: distributed Cholesky equals linalg.Cholesky
// bitwise, including the zeroed strict upper triangle.
func TestCholeskyDifferential(t *testing.T) {
	for _, bs := range blockSizes {
		bs := bs
		onGrids(t, func(t *testing.T, g *Grid2D) {
			rng := rand.New(rand.NewSource(int64(2000 + bs)))
			for _, n := range []int{1, 4, 9, 16} {
				a := randSPD(rng, n)
				want, err := linalg.Cholesky(a)
				if err != nil {
					t.Fatal(err)
				}
				dl, err := Cholesky(FromReplicated(g, a, bs, bs))
				if err != nil {
					t.Fatalf("grid %dx%d block %d n=%d: %v", g.Pr, g.Pc, bs, n, err)
				}
				if got := dl.Replicate(); !bitEqual(got, want) {
					t.Errorf("grid %dx%d block %d n=%d: Cholesky deviates from linalg.Cholesky",
						g.Pr, g.Pc, bs, n)
				}
			}
		})
	}
}

// TestCholeskyNotPD: a non-positive-definite matrix fails on every rank
// with the pivot the serial factorization reports.
func TestCholeskyNotPD(t *testing.T) {
	onGrids(t, func(t *testing.T, g *Grid2D) {
		a := linalg.Matrix{{1, 0, 0}, {0, -2, 0}, {0, 0, 3}}
		if _, err := linalg.Cholesky(a); err == nil {
			t.Fatal("serial Cholesky accepted an indefinite matrix")
		}
		_, err := Cholesky(FromReplicated(g, a, 2, 2))
		if err == nil {
			t.Fatalf("grid %dx%d: distributed Cholesky accepted an indefinite matrix", g.Pr, g.Pc)
		}
		if !strings.Contains(err.Error(), "pivot 1") {
			t.Errorf("grid %dx%d: error %q does not name pivot 1", g.Pr, g.Pc, err)
		}
	})
}
