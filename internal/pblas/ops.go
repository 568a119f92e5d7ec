package pblas

import (
	"fmt"
	"math"

	"repro/internal/mpi"
	"repro/internal/trace"
)

// region opens a named trace span on the grid's communicator — the
// kernels show up on the timeline under pblas.* names alongside their
// own broadcasts. End the returned span with .End(); the nil path
// (tracing off) costs one atomic load.
func (g *Grid2D) region(name string) trace.Span {
	//lint:ignore tracepair thin forwarder: the constant-name contract binds its call sites, which tracepair checks because this returns trace.Span
	return g.Comm.TraceRank().Region(name)
}

// This file implements the distributed dense kernels. Each one is
// bit-identical to its replicated internal/linalg counterpart because
// the k-dimension is traversed in ascending global order through panel
// broadcasts: every output element experiences exactly the serial
// algorithm's sequence of rounded multiply-accumulate operations, just
// with the panels arriving over the wire instead of from local memory.

// localRowsBelow returns how many of this rank's local rows lie in
// global row blocks with index < gb.
func (a *DistMatrix) localRowsBelow(gb int) int {
	count := 0
	for b := a.G.Myrow; b < gb; b += a.G.Pr {
		count += blockWidth(a.M, a.MB, b)
	}
	return count
}

// localColsBelow returns how many of this rank's local columns lie in
// global column blocks with index < gb.
func (a *DistMatrix) localColsBelow(gb int) int {
	count := 0
	for b := a.G.Mycol; b < gb; b += a.G.Pc {
		count += blockWidth(a.N, a.NB, b)
	}
	return count
}

// MatMul computes C = A*B with the SUMMA algorithm: for every global
// k-block in ascending order, the owning process column broadcasts its
// A panel along process rows, the owning process row broadcasts its B
// panel along process columns, and every rank accumulates into its local
// C tile. A and B must share the grid and satisfy A.N == B.M and
// A.NB == B.MB (the k block size). The ascending-k traversal — with the
// same skip of exact-zero A elements — makes the result bit-identical to
// linalg.MatMul of the replicated operands.
func MatMul(a, b *DistMatrix) (*DistMatrix, error) {
	if a.G != b.G {
		return nil, fmt.Errorf("pblas: matmul operands on different grids")
	}
	if a.N != b.M || a.NB != b.MB {
		return nil, fmt.Errorf("pblas: matmul %dx%d (NB %d) by %dx%d (MB %d)",
			a.M, a.N, a.NB, b.M, b.N, b.MB)
	}
	g := a.G
	c := NewDist(g, a.M, b.N, a.MB, b.NB)
	defer g.region("pblas.summa").End()
	kbs := a.NB
	nkb := (a.N + kbs - 1) / kbs
	for kb := 0; kb < nkb; kb++ {
		kw := blockWidth(a.N, kbs, kb)
		// A panel: my local rows x kw, from process column kb % Pc.
		apan := make([]float64, a.lm*kw)
		if g.Mycol == kb%g.Pc {
			lcB := a.LocalCol(kb * kbs)
			for lr := 0; lr < a.lm; lr++ {
				copy(apan[lr*kw:(lr+1)*kw], a.Local[lr][lcB:lcB+kw])
			}
		}
		g.Row.Bcast(kb%g.Pc, apan)
		// B panel: kw x my local columns, from process row kb % Pr.
		bpan := make([]float64, kw*b.ln)
		if g.Myrow == kb%g.Pr {
			lrB := b.LocalRow(kb * kbs)
			for t := 0; t < kw; t++ {
				copy(bpan[t*b.ln:(t+1)*b.ln], b.Local[lrB+t])
			}
		}
		g.Col.Bcast(kb%g.Pr, bpan)
		// Local rank-kw update, ascending k within the panel.
		for lr := 0; lr < c.lm; lr++ {
			out := c.Local[lr]
			for t := 0; t < kw; t++ {
				ail := apan[lr*kw+t]
				if ail == 0 {
					continue
				}
				row := bpan[t*b.ln : (t+1)*b.ln]
				for lc := range out {
					out[lc] += float64(ail * row[lc])
				}
			}
		}
	}
	return c, nil
}

// replicateDiag gathers the global diagonal of a square distributed
// matrix onto every rank (values verbatim).
func replicateDiag(a *DistMatrix) []float64 {
	n := a.N
	in := make([]float64, 2*n)
	for lr := 0; lr < a.lm; lr++ {
		gi := a.GlobalRow(lr)
		if a.ColOwner(gi) == a.G.Mycol {
			in[gi] = a.Local[lr][a.LocalCol(gi)]
			in[n+gi] = 1
		}
	}
	out := make([]float64, 2*n)
	a.G.Comm.AllreduceFunc(in, out, mpi.MergeMasked)
	return out[:n]
}

// Cholesky factors a symmetric positive-definite distributed matrix as
// L*Lᵀ, returning lower-triangular L (strict upper zeroed), by blocked
// right-looking elimination: factor the diagonal block, solve the panel
// below it on the owning process column, broadcast the panel along rows
// and its transpose pieces along columns, update the trailing lower
// triangle, advance. Every element's subtraction chain runs in the
// serial algorithm's ascending-k order with identical per-step rounding,
// and the positive-definiteness test uses the same relative tolerance
// against the original diagonal, so both the factor and the error
// behaviour are bit-identical to linalg.Cholesky for every grid shape
// and block size.
func Cholesky(a *DistMatrix) (*DistMatrix, error) {
	if a.M != a.N || a.MB != a.NB {
		return nil, fmt.Errorf("pblas: Cholesky needs a square matrix with square blocks, have %dx%d blocks %dx%d",
			a.M, a.N, a.MB, a.NB)
	}
	g := a.G
	defer g.region("pblas.cholesky").End()
	n, b := a.N, a.MB
	l := a.Clone()
	diag := replicateDiag(a)
	nblocks := (n + b - 1) / b
	for kb := 0; kb < nblocks; kb++ {
		bw := blockWidth(n, b, kb)
		pr0, pc0 := kb%g.Pr, kb%g.Pc
		// 1. Factor the diagonal block on its owner; broadcast the block
		// and a status word (a non-positive pivot must fail on every rank).
		status := make([]float64, 1+bw*bw)
		if g.Myrow == pr0 && g.Mycol == pc0 {
			lrB, lcB := l.LocalRow(kb*b), l.LocalCol(kb*b)
			status[0] = 1
		factor:
			for i := 0; i < bw; i++ {
				for j := 0; j <= i; j++ {
					sum := l.Local[lrB+i][lcB+j]
					for t := 0; t < j; t++ {
						//lint:ignore detsumcheck diagonal-block Cholesky factor in ascending t order on one rank — the serial algorithm's exact rounding sequence
						sum -= float64(l.Local[lrB+i][lcB+t] * l.Local[lrB+j][lcB+t])
					}
					if i == j {
						// Same relative tolerance as linalg.Cholesky,
						// against the original global diagonal.
						if sum <= 1e-12*math.Abs(diag[kb*b+i]) {
							status[0] = -float64(kb*b+i) - 1
							break factor
						}
						l.Local[lrB+i][lcB+i] = math.Sqrt(sum)
					} else {
						l.Local[lrB+i][lcB+j] = sum / l.Local[lrB+j][lcB+j]
					}
				}
			}
			for i := 0; i < bw; i++ {
				for j := 0; j <= i; j++ {
					status[1+i*bw+j] = l.Local[lrB+i][lcB+j]
				}
			}
		}
		g.Comm.Bcast(pr0*g.Pc+pc0, status)
		if status[0] != 1 {
			return nil, fmt.Errorf("pblas: matrix not positive definite at pivot %d", int(-status[0])-1)
		}
		lkk := status[1:]
		// 2. Panel solve on process column pc0: rows in blocks > kb get
		// L[i][j] = (A[i][j] - Σ_{t<j} L[i][t]·Lkk[j][t]) / Lkk[j][j].
		lrStart := l.localRowsBelow(kb + 1)
		panRows := l.lm - lrStart
		panel := make([]float64, panRows*bw)
		if g.Mycol == pc0 {
			lcB := l.LocalCol(kb * b)
			for r := 0; r < panRows; r++ {
				row := l.Local[lrStart+r]
				for j := 0; j < bw; j++ {
					sum := row[lcB+j]
					for t := 0; t < j; t++ {
						//lint:ignore detsumcheck panel column solve in ascending t order against the broadcast diagonal block — fixed-order rank-local update
						sum -= float64(row[lcB+t] * lkk[j*bw+t])
					}
					row[lcB+j] = sum / lkk[j*bw+j]
				}
				copy(panel[r*bw:(r+1)*bw], row[lcB:lcB+bw])
			}
		}
		// 3. Row-broadcast: every rank receives the panel rows for the
		// global rows it owns.
		g.Row.Bcast(pc0, panel)
		// 4. Column-broadcast the transpose pieces: for each of my local
		// column blocks jb > kb, fetch L[jb][kb] from process row jb % Pr
		// (which just received it in step 3). Every rank of a process
		// column iterates the same jb set, so the broadcasts pair up.
		trail := make(map[int][]float64)
		for jb := kb + 1; jb < nblocks; jb++ {
			if jb%g.Pc != g.Mycol {
				continue
			}
			bwj := blockWidth(n, b, jb)
			buf := make([]float64, bwj*bw)
			if g.Myrow == jb%g.Pr {
				lrB := l.LocalRow(jb * b)
				for r := 0; r < bwj; r++ {
					copy(buf[r*bw:(r+1)*bw], panel[(lrB-lrStart+r)*bw:(lrB-lrStart+r+1)*bw])
				}
			}
			g.Col.Bcast(jb%g.Pr, buf)
			trail[jb] = buf
		}
		// 5. Trailing update of the lower triangle: for global (i, j)
		// with j in blocks > kb and j <= i, subtract the panel's rank-bw
		// contribution in ascending k.
		lcStart := l.localColsBelow(kb + 1)
		for lr := lrStart; lr < l.lm; lr++ {
			gi := l.GlobalRow(lr)
			prow := panel[(lr-lrStart)*bw : (lr-lrStart+1)*bw]
			for lc := lcStart; lc < l.ln; lc++ {
				gj := l.GlobalCol(lc)
				if gj > gi {
					continue
				}
				ljk := trail[gj/b][(gj%b)*bw:]
				v := l.Local[lr][lc]
				for t := 0; t < bw; t++ {
					//lint:ignore detsumcheck trailing update walks the k panel in ascending global order, matching the replicated Cholesky's rounding sequence element-wise
					v -= float64(prow[t] * ljk[t])
				}
				l.Local[lr][lc] = v
			}
		}
	}
	// Zero the strictly upper local entries, matching the replicated
	// factor's layout.
	for lr := 0; lr < l.lm; lr++ {
		gi := l.GlobalRow(lr)
		for lc := 0; lc < l.ln; lc++ {
			if l.GlobalCol(lc) > gi {
				l.Local[lr][lc] = 0
			}
		}
	}
	return l, nil
}
