package thermal

import (
	"fmt"
	"math"
)

// ichol is a zero-fill incomplete Cholesky factor A ≈ L·Lᵀ of a
// symmetric matrix: L keeps exactly the lower-triangle sparsity of A
// and drops every fill-in entry. The transient stepper's shifted
// operator G + C/Δt is an SPD M-matrix, for which IC(0) exists and is
// stable (Meijerink–van der Vorst), and it is time-invariant, so the
// factor is built once per Stepper and reused on every step.
//
// Apply is a serial forward substitution with L followed by a serial
// back substitution with Lᵀ, so it is deterministic at any GOMAXPROCS.
// It needs no scratch buffer and holds no mutable state; the factor
// depends only on the matrix.
type ichol struct {
	// l is the strict lower triangle of L, columns ascending.
	l *csrMat
	// invD holds 1/L[i][i].
	invD []float64
}

// newIChol factors the matrix with strict lower triangle l (see
// strictLower) and diagonal diag, in place of l's values. A
// non-positive pivot, which an SPD M-matrix cannot produce, is
// reported with its node.
func newIChol(l *csrMat, diag []float64) (*ichol, error) {
	n := len(diag)
	lPtr, lCol, lVal := l.rowPtr, l.colIdx, l.val
	ic := &ichol{l: l, invD: make([]float64, n)}
	// slot[j] is the position of L[i][j] in lVal while row i is being
	// factored, -1 otherwise: a dense scatter makes every row update
	// O(len(row k)) even against the extras' layer-wide rows.
	slot := make([]int32, n)
	for j := range slot {
		slot[j] = -1
	}
	for i := 0; i < n; i++ {
		lo, hi := lPtr[i], lPtr[i+1]
		for p := lo; p < hi; p++ {
			slot[lCol[p]] = p
		}
		d := diag[i]
		for p := lo; p < hi; p++ {
			k := lCol[p]
			v := lVal[p]
			for q := lPtr[k]; q < lPtr[k+1]; q++ {
				if sp := slot[lCol[q]]; sp >= 0 {
					v -= lVal[sp] * lVal[q]
				}
			}
			v *= ic.invD[k]
			lVal[p] = v
			d -= v * v
		}
		for p := lo; p < hi; p++ {
			slot[lCol[p]] = -1
		}
		if !(d > 0) {
			return nil, fmt.Errorf("thermal: incomplete Cholesky pivot %g at node %d is not positive; matrix not SPD", d, i)
		}
		ic.invD[i] = 1 / math.Sqrt(d)
	}
	return ic, nil
}

// strictLower returns the strict lower triangle of a in CSR with
// ascending columns. A grid row's lower neighbours are its down, south
// and west couplings, in that column order. An extra row's are built
// as the transpose of the extras' strict upper entries: appending k to
// row i for every stored (k, i) with i > k, rows k in order, is a
// bucket sort and sorts no row on its own. a is symmetric, so A[k][i]
// stands in for A[i][k]. Model.Validate keeps every grid coupling
// positive, so each present neighbour is a stored entry.
func strictLower(a *stencil) *csrMat {
	n := len(a.diag)
	nx, nc := a.nx, a.nx*a.ny
	grid := a.layers * nc
	l := &csrMat{rowPtr: make([]int32, n+1)}
	for r := 0; r < grid; r++ {
		if r >= nc {
			l.rowPtr[r+1]++
		}
		if r%nc >= nx {
			l.rowPtr[r+1]++
		}
		if r%nx > 0 {
			l.rowPtr[r+1]++
		}
	}
	for r := 0; r+1 < len(a.xPtr); r++ {
		for k := a.xPtr[r]; k < a.xPtr[r+1]; k++ {
			if c := a.xCol[k]; int(c) > r {
				l.rowPtr[c+1]++
			}
		}
	}
	for i := 0; i < n; i++ {
		l.rowPtr[i+1] += l.rowPtr[i]
	}
	l.colIdx = make([]int32, l.rowPtr[n])
	l.val = make([]float64, l.rowPtr[n])
	next := append([]int32(nil), l.rowPtr[:n]...)
	put := func(r, c int, v float64) {
		l.colIdx[next[r]] = int32(c)
		l.val[next[r]] = v
		next[r]++
	}
	for r := 0; r < grid; r++ {
		if r >= nc {
			put(r, r-nc, a.up[r-nc])
		}
		if r%nc >= nx {
			put(r, r-nx, a.north[r-nx])
		}
		if r%nx > 0 {
			put(r, r-1, a.east[r-1])
		}
	}
	for r := 0; r+1 < len(a.xPtr); r++ {
		for k := a.xPtr[r]; k < a.xPtr[r+1]; k++ {
			if c := a.xCol[k]; int(c) > r {
				put(int(c), r, a.xVal[k])
			}
		}
	}
	return l
}

// Apply computes z = (L·Lᵀ)⁻¹·r. The back substitution walks L's rows
// as the columns of Lᵀ, so no transposed copy is stored.
func (ic *ichol) Apply(z, r []float64) {
	l := ic.l
	for i := range z {
		v := r[i]
		for p := l.rowPtr[i]; p < l.rowPtr[i+1]; p++ {
			v -= l.val[p] * z[l.colIdx[p]]
		}
		z[i] = v * ic.invD[i]
	}
	for i := len(z) - 1; i >= 0; i-- {
		zi := z[i] * ic.invD[i]
		z[i] = zi
		for p := l.rowPtr[i]; p < l.rowPtr[i+1]; p++ {
			z[l.colIdx[p]] -= l.val[p] * zi
		}
	}
}

// csrMat is a square sparse matrix in CSR form: the IC(0) factor's
// strict lower triangle.
type csrMat struct {
	rowPtr []int32
	colIdx []int32
	val    []float64
}

// Name reports the preconditioner kind.
func (ic *ichol) Name() string { return "ichol" }
