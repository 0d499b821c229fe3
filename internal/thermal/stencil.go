package thermal

import (
	"fmt"

	"waterimm/internal/parallel"
)

// stencil is a layered grid operator in seven-point form: every grid
// node couples only to its in-plane and same-cell vertical neighbours,
// so the matVec finds them by index arithmetic instead of gathering
// through a CSR column index. The System carries one derived from its
// CSR matrix; every multigrid level below it carries one built by
// coarsen and no CSR at all.
//
// Each row is summed in exactly the order of the CSR row it replaces,
// which makes every kernel bit-identical to the CSR loop:
//   - System rows follow Assemble's insertion order: diag, S, W, E, N,
//     down, up, then the lumped extras' columns;
//   - coarse rows follow coarsen's slot order (ascending column):
//     diag, down, S, W, E, N, up.
//
// A neighbour the CSR row does not store contributes a zero coupling.
// A CG sum is never −0, so adding that ±0 term leaves it unchanged.
type stencil struct {
	nx, ny, layers int
	// diag holds every node's diagonal, lumped extras included; a
	// System's aliases its Diag.
	diag []float64
	// east, north and up hold each grid node's coupling to its i+1,
	// j+1 and layer+1 neighbour, 0 where there is none. The operator is
	// symmetric, so a node's west, south and down couplings are its
	// neighbours' east, north and up entries.
	east, north, up []float64
	// zFirst selects the coarse row order (vertical neighbours right
	// after the diagonal) over Assemble's.
	zFirst bool
	// The lumped extras' entries, CSR over all rows in the order the
	// System stores them: a grid row holds its extra columns, an extra
	// row all of its off-diagonals. Nil on coarse levels.
	xPtr []int32
	xCol []int32
	xVal []float64
	// zero is one line of zero couplings, standing in for a missing
	// neighbour line.
	zero []float64
}

func newStencil(nx, ny, layers, n int, zFirst bool) *stencil {
	grid := layers * nx * ny
	return &stencil{
		nx: nx, ny: ny, layers: layers, zFirst: zFirst,
		diag: make([]float64, n),
		east: make([]float64, grid), north: make([]float64, grid), up: make([]float64, grid),
		zero: make([]float64, nx),
	}
}

// Neighbour directions of a System row, in Assemble's insertion order.
const (
	dirSouth = iota
	dirWest
	dirEast
	dirNorth
	dirDown
	dirUp
	numDirs
)

// newSystemStencil derives the stencil of an assembled system from its
// CSR matrix; the stencil's diagonal aliases s.Diag. It fails when a
// row does not have Assemble's shape — diagonal first, grid neighbours
// in insertion order before any extra column — or when the grid
// couplings are not exactly symmetric, since the kernels would then
// not reproduce the CSR sums.
func newSystemStencil(s *System) (*stencil, error) {
	m := s.model
	nx, ny, layers := m.Grid.NX, m.Grid.NY, len(m.Layers)
	nc := nx * ny
	grid := layers * nc
	if grid+len(m.Extras) != s.N || len(s.Diag) != s.N {
		return nil, fmt.Errorf("thermal: system of %d nodes does not match its %d×%d×%d grid", s.N, nx, ny, layers)
	}
	a := newStencil(nx, ny, layers, 0, false)
	a.diag = s.Diag
	a.xPtr = make([]int32, s.N+1)
	bad := func(r int) error {
		return fmt.Errorf("thermal: system row %d does not fit the seven-point stencil", r)
	}
	for r := 0; r < s.N; r++ {
		k, end := s.RowPtr[r], s.RowPtr[r+1]
		if k == end || int(s.ColIdx[k]) != r || s.Val[k] != s.Diag[r] {
			return nil, bad(r)
		}
		k++
		if r < grid {
			lay, j, i := r/nc, r%nc/nx, r%nx
			col := [numDirs]int{r - nx, r - 1, r + 1, r + nx, r - nc, r + nc}
			has := [numDirs]bool{j > 0, i > 0, i < nx-1, j < ny-1, lay > 0, lay < layers-1}
			for d := 0; d < numDirs; d++ {
				if !has[d] {
					continue
				}
				var v float64
				if k < end && int(s.ColIdx[k]) == col[d] {
					v = s.Val[k]
					k++
				}
				// Forward couplings are stored; backward ones must equal
				// the neighbour's stored entry (0 when it has none).
				ok := true
				switch d {
				case dirSouth:
					ok = a.north[r-nx] == v
				case dirWest:
					ok = a.east[r-1] == v
				case dirEast:
					a.east[r] = v
				case dirNorth:
					a.north[r] = v
				case dirDown:
					ok = a.up[r-nc] == v
				case dirUp:
					a.up[r] = v
				}
				if !ok {
					return nil, bad(r)
				}
			}
		}
		for ; k < end; k++ {
			if r < grid && int(s.ColIdx[k]) < grid {
				return nil, bad(r)
			}
			a.xCol = append(a.xCol, s.ColIdx[k])
			a.xVal = append(a.xVal, s.Val[k])
		}
		a.xPtr[r+1] = int32(len(a.xCol))
	}
	if len(a.xCol) == 0 {
		a.xPtr = nil
	}
	return a, nil
}

// forLines runs fn over every grid line (run of nx nodes along i) of a
// rows-node grid, in parallel: each worker takes the lines that start
// inside its block of rows.
func forLines(rows, nx int, fn func(line int)) {
	parallel.For(rows, func(lo, hi int) {
		for line := (lo + nx - 1) / nx; line*nx < hi; line++ {
			fn(line)
		}
	})
}

// mul computes dst = A·x, or the residual dst = b − A·x when b is
// non-nil. dst must not alias x.
func (a *stencil) mul(dst, x, b []float64) {
	grid := a.layers * a.nx * a.ny
	forLines(grid, a.nx, func(line int) { a.mulLine(dst, x, b, line) })
	for r := grid; r < len(a.diag); r++ {
		sum := a.diag[r] * x[r]
		if a.xPtr != nil {
			for k := a.xPtr[r]; k < a.xPtr[r+1]; k++ {
				sum += a.xVal[k] * x[a.xCol[k]]
			}
		}
		if b != nil {
			sum = b[r] - sum
		}
		dst[r] = sum
	}
}

// mulLine computes one grid line of mul. Interior nodes run a
// branch-free loop over line slices; the two end nodes go through row.
func (a *stencil) mulLine(dst, x, b []float64, line int) {
	nx, ny, nc := a.nx, a.ny, a.nx*a.ny
	lay, j := line/ny, line%ny
	r0 := line * nx
	r1 := r0 + nx
	d, e, xc, out := a.diag[r0:r1], a.east[r0:r1], x[r0:r1], dst[r0:r1]
	// A missing neighbour line multiplies zero couplings into this
	// line's own values, which adds nothing.
	cS, xS, cN, xN := a.zero, xc, a.zero, xc
	cD, xD, cU, xU := a.zero, xc, a.zero, xc
	if j > 0 {
		cS, xS = a.north[r0-nx:r0], x[r0-nx:r0]
	}
	if j < ny-1 {
		cN, xN = a.north[r0:r1], x[r1:r1+nx]
	}
	if lay > 0 {
		cD, xD = a.up[r0-nc:r1-nc], x[r0-nc:r1-nc]
	}
	if lay < a.layers-1 {
		cU, xU = a.up[r0:r1], x[r0+nc:r1+nc]
	}
	if nx > 2 {
		_, _, _, _, _, _ = cS[nx-1], xS[nx-1], cN[nx-1], xN[nx-1], cD[nx-1], xD[nx-1]
		_, _, _, _, _ = cU[nx-1], xU[nx-1], d[nx-1], e[nx-1], out[nx-1]
		xE := xc[1:nx] // xE[i] is x at i+1
		if a.zFirst {
			for i := 1; i < nx-1; i++ {
				out[i] = d[i]*xc[i] + cD[i]*xD[i] + cS[i]*xS[i] + e[i-1]*xc[i-1] + e[i]*xE[i] + cN[i]*xN[i] + cU[i]*xU[i]
			}
		} else {
			for i := 1; i < nx-1; i++ {
				out[i] = d[i]*xc[i] + cS[i]*xS[i] + e[i-1]*xc[i-1] + e[i]*xE[i] + cN[i]*xN[i] + cD[i]*xD[i] + cU[i]*xU[i]
			}
		}
	}
	out[0] = a.row(x, r0)
	if nx > 1 {
		out[nx-1] = a.row(x, r1-1)
	}
	if ptr := a.xPtr; ptr != nil && ptr[r0] != ptr[r1] {
		ptr = ptr[r0 : r1+1]
		for i := range out {
			for k := ptr[i]; k < ptr[i+1]; k++ {
				out[i] += a.xVal[k] * x[a.xCol[k]]
			}
		}
	}
	if b != nil {
		bl := b[r0:r1]
		for i := range out {
			out[i] = bl[i] - out[i]
		}
	}
}

// row returns grid row r's seven-point sum (extras excluded), checking
// every neighbour's existence.
func (a *stencil) row(x []float64, r int) float64 {
	nx, nc := a.nx, a.nx*a.ny
	lay, j, i := r/nc, r%nc/nx, r%nx
	var s, w, e, n, down, up float64
	if j > 0 {
		s = a.north[r-nx] * x[r-nx]
	}
	if i > 0 {
		w = a.east[r-1] * x[r-1]
	}
	if i < nx-1 {
		e = a.east[r] * x[r+1]
	}
	if j < a.ny-1 {
		n = a.north[r] * x[r+nx]
	}
	if lay > 0 {
		down = a.up[r-nc] * x[r-nc]
	}
	if lay < a.layers-1 {
		up = a.up[r] * x[r+nc]
	}
	if a.zFirst {
		return a.diag[r]*x[r] + down + s + w + e + n + up
	}
	return a.diag[r]*x[r] + s + w + e + n + down + up
}
