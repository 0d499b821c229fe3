package thermal

import (
	"fmt"
	"math"
)

// ichol is a zero-fill incomplete Cholesky factor A ≈ L·Lᵀ of a
// stencil operator: L keeps exactly the lower-triangle sparsity of A
// and drops every fill-in entry. The transient stepper's shifted
// operator G + C/Δt is an SPD M-matrix, for which IC(0) exists and is
// stable (Meijerink–van der Vorst), and it is time-invariant, so the
// factor is built once per Stepper and reused on every step.
//
// L is stored in the stencil's own form. A grid row's strict lower
// neighbours are its down, south and west nodes, and no two of them
// are neighbours of each other (the grid graph has no triangles), so
// IC(0) updates no grid-row entry: L[i][k] = A[i][k]/L[k][k], one
// entry per neighbour in three per-node arrays. Only the lumped
// extras' rows, which couple to whole layers, keep a CSR row with the
// full row update.
//
// Apply is a serial forward substitution with L followed by a serial
// back substitution with Lᵀ, so it is deterministic at any GOMAXPROCS.
// It needs no scratch buffer and holds no mutable state; the factor
// depends only on the matrix. Each output is bit-identical to the CSR
// row-oriented forward and column-oriented back sweep it replaced
// (TestICholStencilMatchesCSR): the sweeps subtract the same products
// in the same order, and a missing neighbour subtracts +0·+0, which
// leaves every value unchanged.
type ichol struct {
	nx, ny int
	// down, south and west hold each grid node's L entry for its
	// layer−1, j−1 and i−1 neighbour, +0 where there is none.
	down, south, west []float64
	// The extras rows' strict lower triangle, CSR over rows grid..n−1
	// (xPtr[i−grid]) with ascending columns.
	xPtr []int32
	xCol []int32
	xVal []float64
	// invD holds 1/L[i][i].
	invD []float64
	// zero is one line of zeros, standing in for a missing neighbour
	// line's couplings and values alike.
	zero []float64
}

// newIChol factors the stencil operator a. A non-positive pivot, which
// an SPD M-matrix cannot produce, is reported with its node.
func newIChol(a *stencil) (*ichol, error) {
	n := len(a.diag)
	nx, nc := a.nx, a.nx*a.ny
	grid := a.layers * nc
	ic := &ichol{
		nx: nx, ny: a.ny,
		down: make([]float64, grid), south: make([]float64, grid), west: make([]float64, grid),
		invD: make([]float64, n), zero: make([]float64, nx),
	}
	// A grid row's pivot subtracts its entries' squares in ascending
	// column order: down, south, west.
	for i := 0; i < grid; i++ {
		d := a.diag[i]
		if i >= nc {
			v := a.up[i-nc] * ic.invD[i-nc]
			ic.down[i] = v
			d -= v * v
		}
		if i%nc >= nx {
			v := a.north[i-nx] * ic.invD[i-nx]
			ic.south[i] = v
			d -= v * v
		}
		if i%nx > 0 {
			v := a.east[i-1] * ic.invD[i-1]
			ic.west[i] = v
			d -= v * v
		}
		if err := ic.pivot(i, d); err != nil {
			return nil, err
		}
	}
	ic.extrasLower(a)
	if err := ic.factorExtras(a.diag); err != nil {
		return nil, err
	}
	return ic, nil
}

// pivot stores row i's inverse diagonal from its updated pivot d.
func (ic *ichol) pivot(i int, d float64) error {
	if !(d > 0) {
		return fmt.Errorf("thermal: incomplete Cholesky pivot %g at node %d is not positive; matrix not SPD", d, i)
	}
	ic.invD[i] = 1 / math.Sqrt(d)
	return nil
}

// extrasLower fills the extras rows' CSR with A's strict lower
// triangle, built as the transpose of the strict upper entries:
// appending k to row i for every stored (k, i) with i > k, rows k in
// order, is a bucket sort and sorts no row on its own. a is symmetric,
// so A[k][i] stands in for A[i][k].
func (ic *ichol) extrasLower(a *stencil) {
	n := len(a.diag)
	grid := len(ic.down)
	ic.xPtr = make([]int32, n-grid+1)
	for r := 0; r+1 < len(a.xPtr); r++ {
		for k := a.xPtr[r]; k < a.xPtr[r+1]; k++ {
			if c := int(a.xCol[k]); c > r {
				ic.xPtr[c-grid+1]++
			}
		}
	}
	for i := 1; i < len(ic.xPtr); i++ {
		ic.xPtr[i] += ic.xPtr[i-1]
	}
	nnz := ic.xPtr[len(ic.xPtr)-1]
	ic.xCol, ic.xVal = make([]int32, nnz), make([]float64, nnz)
	next := append([]int32(nil), ic.xPtr[:n-grid]...)
	for r := 0; r+1 < len(a.xPtr); r++ {
		for k := a.xPtr[r]; k < a.xPtr[r+1]; k++ {
			if c := int(a.xCol[k]); c > r {
				ic.xCol[next[c-grid]] = int32(r)
				ic.xVal[next[c-grid]] = a.xVal[k]
				next[c-grid]++
			}
		}
	}
}

// factorExtras factors the extras rows in place of their CSR values.
// Row i's entry for column k subtracts L[i][j]·L[k][j] for every
// column j of row k that row i also holds, row k's columns ascending:
// a grid row k's are its down, south and west neighbours.
func (ic *ichol) factorExtras(diag []float64) error {
	n := len(diag)
	nx, nc := ic.nx, ic.nx*ic.ny
	grid := len(ic.down)
	// slot[j] is the position of L[i][j] in xVal while row i is being
	// factored, -1 otherwise: a dense scatter makes every row update
	// O(len(row k)) even against the extras' layer-wide rows.
	slot := make([]int32, n)
	for j := range slot {
		slot[j] = -1
	}
	for i := grid; i < n; i++ {
		lo, hi := ic.xPtr[i-grid], ic.xPtr[i-grid+1]
		for p := lo; p < hi; p++ {
			slot[ic.xCol[p]] = p
		}
		d := diag[i]
		for p := lo; p < hi; p++ {
			k := int(ic.xCol[p])
			v := ic.xVal[p]
			if k < grid {
				if k >= nc && slot[k-nc] >= 0 {
					v -= ic.xVal[slot[k-nc]] * ic.down[k]
				}
				if k%nc >= nx && slot[k-nx] >= 0 {
					v -= ic.xVal[slot[k-nx]] * ic.south[k]
				}
				if k%nx > 0 && slot[k-1] >= 0 {
					v -= ic.xVal[slot[k-1]] * ic.west[k]
				}
			} else {
				for q := ic.xPtr[k-grid]; q < ic.xPtr[k-grid+1]; q++ {
					if sp := slot[ic.xCol[q]]; sp >= 0 {
						v -= ic.xVal[sp] * ic.xVal[q]
					}
				}
			}
			v *= ic.invD[k]
			ic.xVal[p] = v
			d -= v * v
		}
		for p := lo; p < hi; p++ {
			slot[ic.xCol[p]] = -1
		}
		if err := ic.pivot(i, d); err != nil {
			return err
		}
	}
	return nil
}

// Apply computes z = (L·Lᵀ)⁻¹·r. The forward sweep runs the grid line
// by line, each node's west term carried from the node before, then
// the extras rows. The back sweep scatters the extras rows (highest
// first) and then gathers each grid node's up, north and east terms,
// the order in which a column-oriented scatter from the higher rows
// would update it.
func (ic *ichol) Apply(z, r []float64) {
	nx, nc := ic.nx, ic.nx*ic.ny
	grid := len(ic.down)
	for r0 := 0; r0 < grid; r0 += nx {
		r1 := r0 + nx
		cD, cS, cW := ic.down[r0:r1], ic.south[r0:r1], ic.west[r0:r1]
		zD, zS := ic.zero, ic.zero
		if r0 >= nc {
			zD = z[r0-nc : r1-nc]
		}
		if r0%nc >= nx {
			zS = z[r0-nx : r0]
		}
		rl, d, zl := r[r0:r1], ic.invD[r0:r1], z[r0:r1]
		_, _, _, _ = cD[nx-1], cS[nx-1], cW[nx-1], zD[nx-1]
		_, _, _, _ = zS[nx-1], rl[nx-1], d[nx-1], zl[nx-1]
		var w float64
		for i := 0; i < nx; i++ {
			w = (rl[i] - cD[i]*zD[i] - cS[i]*zS[i] - cW[i]*w) * d[i]
			zl[i] = w
		}
	}
	for i := grid; i < len(z); i++ {
		v := r[i]
		for p := ic.xPtr[i-grid]; p < ic.xPtr[i-grid+1]; p++ {
			v -= ic.xVal[p] * z[ic.xCol[p]]
		}
		z[i] = v * ic.invD[i]
	}

	for i := len(z) - 1; i >= grid; i-- {
		zi := z[i] * ic.invD[i]
		z[i] = zi
		for p := ic.xPtr[i-grid]; p < ic.xPtr[i-grid+1]; p++ {
			z[ic.xCol[p]] -= ic.xVal[p] * zi
		}
	}
	for r0 := grid - nx; r0 >= 0; r0 -= nx {
		r1 := r0 + nx
		// Node i's up, north and east nodes hold L entries for it in
		// their down, south and west arrays.
		cU, zU, cN, zN := ic.zero, ic.zero, ic.zero, ic.zero
		if r1+nc <= grid {
			cU, zU = ic.down[r0+nc:r1+nc], z[r0+nc:r1+nc]
		}
		if r0%nc+nx < nc {
			cN, zN = ic.south[r1:r1+nx], z[r1:r1+nx]
		}
		cW, d, zl := ic.west[r0:r1], ic.invD[r0:r1], z[r0:r1]
		_, _, _, _ = cU[nx-1], zU[nx-1], cN[nx-1], zN[nx-1]
		_, _, _ = cW[nx-1], d[nx-1], zl[nx-1]
		var e, cE float64
		for i := nx - 1; i >= 0; i-- {
			e = (zl[i] - cU[i]*zU[i] - cN[i]*zN[i] - cE*e) * d[i]
			zl[i] = e
			cE = cW[i]
		}
	}
}

// Name reports the preconditioner kind.
func (ic *ichol) Name() string { return "ichol" }
