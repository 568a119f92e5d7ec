package pblas

import (
	"fmt"

	"repro/internal/linalg"
	"repro/internal/mpi"
)

// DistMatrix is an M x N dense matrix distributed block-cyclically over
// a 2D process grid: global row block ib lives on process row ib % Pr,
// global column block jb on process column jb % Pc, and each rank packs
// its blocks contiguously in block-cyclic order (ScaLAPACK's local
// storage scheme). Row blocks are MB rows tall, column blocks NB columns
// wide; trailing blocks may be short.
type DistMatrix struct {
	G      *Grid2D
	M, N   int // global extents
	MB, NB int // block sizes

	// Local holds this rank's lm x ln tile, row-major. Local row lr
	// corresponds to global row GlobalRow(lr), and likewise for columns.
	Local  linalg.Matrix
	lm, ln int
}

// numroc (number of rows or columns) counts how many of n global indices
// dealt in blocks of nb over np processes land on process ip.
func numroc(n, nb, ip, np int) int {
	count := 0
	for b := ip; b*nb < n; b += np {
		w := nb
		if r := n - b*nb; r < w {
			w = r
		}
		count += w
	}
	return count
}

// NewDist allocates a zero M x N block-cyclic matrix on the grid.
func NewDist(g *Grid2D, m, n, mb, nb int) *DistMatrix {
	if m < 0 || n < 0 || mb < 1 || nb < 1 {
		panic(fmt.Sprintf("pblas: bad distributed matrix %dx%d blocks %dx%d", m, n, mb, nb))
	}
	a := &DistMatrix{G: g, M: m, N: n, MB: mb, NB: nb}
	a.lm = numroc(m, mb, g.Myrow, g.Pr)
	a.ln = numroc(n, nb, g.Mycol, g.Pc)
	a.Local = linalg.NewMatrix(a.lm, a.ln)
	return a
}

// LocalRows and LocalCols return the local tile extents.
func (a *DistMatrix) LocalRows() int { return a.lm }

// LocalCols returns the number of local columns.
func (a *DistMatrix) LocalCols() int { return a.ln }

// GlobalRow maps a local row index to its global row.
func (a *DistMatrix) GlobalRow(lr int) int {
	lb := lr / a.MB
	return (lb*a.G.Pr+a.G.Myrow)*a.MB + lr%a.MB
}

// GlobalCol maps a local column index to its global column.
func (a *DistMatrix) GlobalCol(lc int) int {
	lb := lc / a.NB
	return (lb*a.G.Pc+a.G.Mycol)*a.NB + lc%a.NB
}

// RowOwner returns the process row owning global row i.
func (a *DistMatrix) RowOwner(i int) int { return (i / a.MB) % a.G.Pr }

// ColOwner returns the process column owning global column j.
func (a *DistMatrix) ColOwner(j int) int { return (j / a.NB) % a.G.Pc }

// LocalRow maps a global row to the local row index on its owner.
func (a *DistMatrix) LocalRow(i int) int {
	return (i/a.MB/a.G.Pr)*a.MB + i%a.MB
}

// LocalCol maps a global column to the local column index on its owner.
func (a *DistMatrix) LocalCol(j int) int {
	return (j/a.NB/a.G.Pc)*a.NB + j%a.NB
}

// FromReplicated distributes a replicated matrix: each rank copies its
// owned entries locally, no communication. Every rank must hold a
// bit-identical replica for the distributed matrix to be consistent.
func FromReplicated(g *Grid2D, a linalg.Matrix, mb, nb int) *DistMatrix {
	m := len(a)
	n := 0
	if m > 0 {
		n = len(a[0])
	}
	d := NewDist(g, m, n, mb, nb)
	for lr := 0; lr < d.lm; lr++ {
		gi := d.GlobalRow(lr)
		for lc := 0; lc < d.ln; lc++ {
			d.Local[lr][lc] = a[gi][d.GlobalCol(lc)]
		}
	}
	return d
}

// Clone deep-copies the distributed matrix (same grid).
func (a *DistMatrix) Clone() *DistMatrix {
	out := NewDist(a.G, a.M, a.N, a.MB, a.NB)
	for lr := range a.Local {
		copy(out.Local[lr], a.Local[lr])
	}
	return out
}

// Replicate gathers the distributed matrix into a replicated
// linalg.Matrix on every rank. Values travel verbatim (ownership-masked
// merge), so the replica is bit-identical to the distributed content.
func (a *DistMatrix) Replicate() linalg.Matrix {
	mn := a.M * a.N
	in := make([]float64, 2*mn)
	for lr := 0; lr < a.lm; lr++ {
		gi := a.GlobalRow(lr)
		for lc := 0; lc < a.ln; lc++ {
			idx := gi*a.N + a.GlobalCol(lc)
			in[idx] = a.Local[lr][lc]
			in[mn+idx] = 1
		}
	}
	out := make([]float64, 2*mn)
	a.G.Comm.AllreduceFunc(in, out, mpi.MergeMasked)
	rep := linalg.NewMatrix(a.M, a.N)
	for i := 0; i < a.M; i++ {
		copy(rep[i], out[i*a.N:(i+1)*a.N])
	}
	return rep
}

// blockWidth returns the width of global block b for extent n and block
// size nb (trailing blocks may be short).
func blockWidth(n, nb, b int) int {
	w := nb
	if r := n - b*nb; r < w {
		w = r
	}
	return w
}
