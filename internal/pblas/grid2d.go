// Package pblas is a small SUMMA/Cholesky library: block-cyclic
// distributed dense matrices over a 2D process grid built from
// mpi.Comm.Split row/column sub-communicators, a SUMMA matrix product
// and a blocked right-looking Cholesky, each bit-identical to its
// replicated internal/linalg counterpart for every grid shape and block
// size. No solver calls it — the subspace step of internal/gpaw runs
// replicated internal/linalg on every rank — its callers are the
// benchmark ledger's pblas.summa_us / pblas.cholesky_us probes and its
// own tests (differentials against linalg, SUMMA placement under the
// calibrated network model).
//
// Determinism contract: pblas contains no floating-point reduction whose
// grouping depends on the distribution. The k-dimension of the matrix
// product and of every triangular update is traversed in ascending
// global order through panel broadcasts, so each output element sees the
// exact addition sequence of the serial algorithm; gathers move rounded
// values verbatim (mpi.MergeMasked, never summation).
package pblas

import (
	"fmt"

	"repro/internal/mpi"
)

// Grid2D is a Pr x Pc process grid over a communicator, with row and
// column sub-communicators for panel broadcasts. Grid rank r maps to
// grid coordinate (r/Pc, r%Pc) — row-major, like ScaLAPACK's default.
type Grid2D struct {
	Comm   *mpi.Comm
	Pr, Pc int
	// Myrow, Mycol are this rank's grid coordinates.
	Myrow, Mycol int
	// Row spans my process row; its rank numbering equals the column
	// coordinate. Col spans my process column; its rank numbering equals
	// the row coordinate.
	Row, Col *mpi.Comm
}

// NewGrid2D builds a pr x pc grid over the communicator (pr*pc must
// equal its size) and splits the row/column sub-communicators. It sends
// no message; every rank of the communicator calls it.
func NewGrid2D(comm *mpi.Comm, pr, pc int) (*Grid2D, error) {
	if pr < 1 || pc < 1 || pr*pc != comm.Size() {
		return nil, fmt.Errorf("pblas: grid %dx%d needs %d ranks, have %d", pr, pc, pr*pc, comm.Size())
	}
	r := comm.Rank()
	g := &Grid2D{Comm: comm, Pr: pr, Pc: pc, Myrow: r / pc, Mycol: r % pc}
	// Split numbers by old rank, which within a row ascends with the
	// column and within a column with the row, so Row rank == Mycol and
	// Col rank == Myrow — panel broadcasts can name roots by grid
	// coordinate directly.
	g.Row = comm.Split(func(r int) int { return r / pc })
	g.Col = comm.Split(func(r int) int { return r % pc })
	return g, nil
}

// Squarish returns the most square pr x pc factorization of p with
// pr <= pc — the default grid shape for p ranks.
func Squarish(p int) (pr, pc int) {
	pr = 1
	for d := 2; d*d <= p; d++ {
		if p%d == 0 {
			pr = d
		}
	}
	return pr, p / pr
}
