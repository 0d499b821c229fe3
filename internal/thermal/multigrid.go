package thermal

import (
	"fmt"
	"math"
	"sync/atomic"

	"waterimm/internal/parallel"
)

// Multigrid is a geometric V-cycle preconditioner for the layered
// structured grid. Coarsening is 2×2 in-plane only — layers are never
// merged, so the stack's vertical conductance chain (die → TIM →
// spreader → coolant boundary), which spans orders of magnitude in
// magnitude and carries the physics of the paper's immersion
// comparison, is represented exactly on every level. Lumped extra
// nodes (board, heatsink, periphery) exist only on the finest level:
// their prolongation rows are empty, their columns are skipped when
// the coarse operators are built, and they are handled additively by
// the fine-level smoother's Jacobi term, which is exact-enough for a
// handful of strongly ambient-tied scalars.
//
// Smoothing is damped z-line relaxation: every in-plane cell's
// vertical column (its diagonal plus the same-cell inter-layer
// couplings) is solved exactly as a tridiagonal system. This is the
// anisotropy-robust choice — thin layers make the vertical
// conductances orders of magnitude stronger than the lateral ones, so
// a point smoother leaves in-plane-oscillatory error almost untouched
// (its eigenvalues hide below the vertical-dominated diagonal), while
// the column solve absorbs the whole vertical stiffness.
//
// Coarse operators are seven-point aggregations of the level below
// (see coarsen): on a uniform stack they equal the operator Assemble
// builds for the coarse grid, and every one is a symmetric, weakly
// diagonally dominant M-matrix. Unlike the Galerkin product Pᵀ·A·P,
// which grows each row to 34–57 entries and smears every vertical
// coupling over a 3×3 neighbourhood the z-line smoother cannot see,
// the seven-point form keeps vertical couplings same-cell and exact
// and the coarse matVec as cheap per row as the fine one. Transfers
// are cell-centered bilinear interpolation P and restriction R = Pᵀ.
// The cycle is symmetric (ν₁ = ν₂ line sweeps with a symmetric M,
// exact dense Cholesky on the coarsest level, R = Pᵀ), and the coarse
// correction P·A_c⁻¹·Pᵀ is positive semi-definite for any SPD A_c, so
// the V-cycle is a fixed SPD operator and preconditioned CG theory
// applies unchanged.
//
// A Multigrid is built once per assembled System and cached on it, so
// pooled systems in a SystemCache amortize the setup across every
// warm solve. Apply reuses per-level work buffers and is therefore
// NOT safe for concurrent use — which matches the System contract
// (exclusive ownership between Acquire and Release). Borrow returns a
// buffer-private view for a second owner; RefreshedCopy rebuilds the
// values under the same structure for a perturbed sibling system.
type Multigrid struct {
	levels []*mgLevel
	chol   *denseChol
	// omega damps the line-relaxation correction. 0.9 measured best
	// on immersion stacks; 1.0 (undamped) can cost the V-cycle its
	// positive definiteness and stalls CG.
	omega float64
	// smooths is the number of pre- and of post-smoothing sweeps.
	smooths int
}

// mgLevel is one grid level: its operator in CSR form, the z-line
// smoother factorization, the interpolation to/from the next coarser
// level, and scratch vectors sized for this level. The finest level's
// operator slices alias the System's.
type mgLevel struct {
	nx, ny, layers int
	n              int // unknowns on this level (level 0 includes extras)

	rowPtr []int32
	colIdx []int32
	val    []float64
	inv    []float64 // 1/diag

	// z-line smoother: LDLᵀ factors of each in-plane cell's vertical
	// column (the diagonal plus the same-cell inter-layer couplings).
	// The stack is vertically dominated — thin layers make the
	// inter-layer conductances orders of magnitude larger than the
	// lateral ones — so point smoothers barely touch modes that are
	// oscillatory in-plane, while an exact column solve absorbs the
	// entire vertical stiffness into the smoother. lineInvD[i] is
	// 1/d̂ per grid node (and plain 1/diag for the fine level's lumped
	// extras — their additive Jacobi term); lineC[i] couples node i to
	// the cell one layer up.
	lineInvD []float64
	lineC    []float64

	// prolong maps the next coarser level's field up to this one;
	// restrict is its transpose. Both nil on the coarsest level.
	prolong  *csrMat
	restrict *csrMat

	x, b, res []float64
}

// csrMat is a rectangular sparse matrix (rows × cols) used for the
// inter-grid transfer operators.
type csrMat struct {
	rows, cols int
	rowPtr     []int32
	colIdx     []int32
	val        []float64
}

// mgCoarsestTarget stops coarsening once both in-plane dimensions are
// this small; the remaining system is solved exactly by dense
// Cholesky. 4×4 cells × a realistic layer count stays well under the
// dense-solve cap.
const mgCoarsestTarget = 4

// mgDenseCap bounds the coarsest-level size: an n×n dense factor
// beyond this is a sign the grid could not be coarsened (degenerate
// in-plane dimensions with very many layers).
const mgDenseCap = 8192

// Multigrid returns the system's cached V-cycle preconditioner,
// building the hierarchy on first use. The hierarchy depends only on
// the conductance matrix, so it stays valid across RefreshQ /
// UpdatePower and rides along with pooled systems in a SystemCache.
func (s *System) Multigrid() (*Multigrid, error) {
	if s.mg != nil {
		return s.mg, nil
	}
	mg, err := buildMultigrid(s, nil)
	if err != nil {
		return nil, err
	}
	s.mg = mg
	return mg, nil
}

// Name identifies the preconditioner in solve stats and metrics.
func (m *Multigrid) Name() string { return PrecondMG }

// Levels reports the hierarchy depth (including the finest level).
func (m *Multigrid) Levels() int { return len(m.levels) }

// Borrow returns a view of the hierarchy that shares every operator,
// factor, and transfer array but owns private work buffers, so a
// different exclusive owner may Apply it concurrently with the
// original. Applied to a perturbed sibling system this is a *stale*
// preconditioner — it carries the builder system's values — but it
// stays a fixed SPD operator, so CG still converges to the same
// absolute tolerance, only in more iterations as the perturbation
// grows.
func (m *Multigrid) Borrow() *Multigrid {
	nm := &Multigrid{
		levels:  make([]*mgLevel, len(m.levels)),
		chol:    m.chol,
		omega:   m.omega,
		smooths: m.smooths,
	}
	for i, l := range m.levels {
		c := *l
		if l.res != nil {
			c.res = make([]float64, l.n)
		}
		if l.x != nil {
			c.x = make([]float64, l.n)
		}
		if l.b != nil {
			c.b = make([]float64, l.n)
		}
		nm.levels[i] = &c
	}
	return nm
}

// RefreshedCopy rebuilds everything value-dependent — the aggregated
// coarse operators, inverse diagonals, line-smoother factors, the dense
// coarsest factorization — from s, reusing the purely geometric
// transfer operators and level structure of the receiver. It is the
// escape hatch of stale-preconditioner reuse: when a perturbed
// solve's iteration count shows the borrowed values have drifted too
// far, the caller refreshes at a fraction of a full build. s must
// share the structure the receiver was built from.
func (m *Multigrid) RefreshedCopy(s *System) (*Multigrid, error) {
	return buildMultigrid(s, m)
}

// buildMultigrid constructs the level structure (reusing the transfer
// operators of `reuse` when given), then fills in the values.
func buildMultigrid(s *System, reuse *Multigrid) (*Multigrid, error) {
	mdl := s.model
	if mdl == nil {
		return nil, fmt.Errorf("thermal: multigrid needs the grid structure; system has no model")
	}
	layers := len(mdl.Layers)
	if s.invDiag == nil {
		var err error
		if s.invDiag, err = invertDiag(s.Diag); err != nil {
			return nil, err
		}
	}
	fine := &mgLevel{
		nx: mdl.Grid.NX, ny: mdl.Grid.NY, layers: layers, n: s.N,
		rowPtr: s.RowPtr, colIdx: s.ColIdx, val: s.Val,
		inv: s.invDiag,
		res: make([]float64, s.N),
	}
	mg := &Multigrid{levels: []*mgLevel{fine}, omega: 0.9, smooths: 1}
	if reuse != nil && (len(reuse.levels) == 0 || reuse.levels[0].n != s.N) {
		return nil, fmt.Errorf("thermal: multigrid refresh against a different structure")
	}

	extras := len(mdl.Extras)
	cur := fine
	for cur.nx > mgCoarsestTarget || cur.ny > mgCoarsestTarget {
		cnx, cny := coarseDim(cur.nx), coarseDim(cur.ny)
		coarseN := layers * cnx * cny
		if reuse != nil {
			li := len(mg.levels) - 1
			if li+1 >= len(reuse.levels) {
				return nil, fmt.Errorf("thermal: multigrid refresh structure mismatch at level %d", li)
			}
			tl, tn := reuse.levels[li], reuse.levels[li+1]
			if tl.nx != cur.nx || tl.ny != cur.ny || tn.nx != cnx || tn.ny != cny || tn.n != coarseN || tl.prolong == nil {
				return nil, fmt.Errorf("thermal: multigrid refresh structure mismatch at level %d", li)
			}
			cur.prolong, cur.restrict = tl.prolong, tl.restrict
		} else {
			p := buildProlong(cur.nx, cur.ny, cnx, cny, layers, cur.n, extras)
			cur.prolong = p
			cur.restrict = transposeCSR(p)
		}
		next := &mgLevel{nx: cnx, ny: cny, layers: layers, n: coarseN}
		mg.levels = append(mg.levels, next)
		extras = 0 // extras exist only on the finest level
		cur = next
	}
	if reuse != nil && len(reuse.levels) != len(mg.levels) {
		return nil, fmt.Errorf("thermal: multigrid refresh depth mismatch (%d vs %d levels)", len(reuse.levels), len(mg.levels))
	}
	if cur.n > mgDenseCap {
		return nil, fmt.Errorf("thermal: multigrid coarsest level too large (%d nodes > %d); grid not coarsenable", cur.n, mgDenseCap)
	}
	if err := mg.computeValues(); err != nil {
		return nil, err
	}
	return mg, nil
}

// computeValues fills in everything value-dependent across the
// hierarchy: each coarse operator aggregated from the one below it,
// inverse diagonals, line-smoother factors, the dense coarsest
// factorization, and each coarse level's work vectors. Shared by the
// initial build and RefreshedCopy.
func (m *Multigrid) computeValues() error {
	last := len(m.levels) - 1
	for li := 0; li <= last; li++ {
		l := m.levels[li]
		if li > 0 {
			if err := l.coarsen(m.levels[li-1]); err != nil {
				return err
			}
			l.x, l.b, l.res = make([]float64, l.n), make([]float64, l.n), make([]float64, l.n)
		}
		if li < last {
			if err := l.buildLineSmoother(); err != nil {
				return err
			}
		} else {
			chol, err := newDenseChol(l)
			if err != nil {
				return err
			}
			m.chol = chol
		}
	}
	return nil
}

// buildLineSmoother factors every vertical column's tridiagonal part
// (diag + same-cell inter-layer couplings) as LDLᵀ. The tridiagonal
// is diagonally dominant with a positive diagonal (it inherits both
// from the SPD level operator), so the factorization cannot break
// down on a well-posed system; the check guards hand-built matrices.
func (l *mgLevel) buildLineSmoother() error {
	nc := l.nx * l.ny
	grid := l.layers * nc
	l.lineInvD = make([]float64, l.n)
	l.lineC = make([]float64, grid)
	var bad error
	parallel.For(nc, func(lo, hi int) {
		for cell := lo; cell < hi; cell++ {
			var dhatPrev float64
			for lay := 0; lay < l.layers; lay++ {
				idx := lay*nc + cell
				d := l.val[l.rowPtr[idx]] // diagonal stored first
				if lay > 0 {
					// e couples (lay-1, cell) to (lay, cell): scan the
					// previous row for the vertical neighbour.
					prev := idx - nc
					var e float64
					for k := l.rowPtr[prev]; k < l.rowPtr[prev+1]; k++ {
						if int(l.colIdx[k]) == idx {
							e = l.val[k]
							break
						}
					}
					c := e / dhatPrev
					l.lineC[prev] = c
					d -= c * e
				}
				if d <= 0 {
					bad = fmt.Errorf("thermal: multigrid line smoother pivot %g at node %d", d, idx)
					return
				}
				l.lineInvD[idx] = 1 / d
				dhatPrev = d
			}
		}
	})
	// Lumped extras (fine level only) smooth by their plain diagonal —
	// the additive Jacobi term for nodes outside every column.
	for i := grid; i < l.n; i++ {
		l.lineInvD[i] = l.inv[i]
	}
	return bad
}

// lineSolve overwrites z with M⁻¹·z, where M is the block-diagonal
// matrix of per-column tridiagonals (plus the extras' diagonal).
func (l *mgLevel) lineSolve(z []float64) {
	nc := l.nx * l.ny
	grid := l.layers * nc
	layers := l.layers
	invD, c := l.lineInvD, l.lineC
	parallel.For(nc, func(lo, hi int) {
		for cell := lo; cell < hi; cell++ {
			// Forward substitution y = L⁻¹z, then diagonal scale.
			for lay := 1; lay < layers; lay++ {
				idx := lay*nc + cell
				z[idx] -= c[idx-nc] * z[idx-nc]
			}
			last := (layers-1)*nc + cell
			z[last] *= invD[last]
			// Back substitution with Lᵀ.
			for lay := layers - 2; lay >= 0; lay-- {
				idx := lay*nc + cell
				z[idx] = z[idx]*invD[idx] - c[idx]*z[idx+nc]
			}
		}
	})
	for i := grid; i < l.n; i++ {
		z[i] *= invD[i]
	}
}

// coarseDim halves an in-plane dimension, leaving already-small
// dimensions alone (semicoarsening for skewed grids).
func coarseDim(n int) int {
	if n <= mgCoarsestTarget {
		return n
	}
	return (n + 1) / 2
}

// interp1D returns the cell-centered linear interpolation stencil for
// fine cell i: the coarse cells it draws from and their weights.
// Fine cell centers sit at (i+½)h, coarse centers at (2j+1)h, so even
// fine cells take ¾ from their parent and ¼ from the left neighbour,
// odd cells mirror that; boundary cells clamp to pure injection.
func interp1D(i, coarseN int) (idx [2]int32, w [2]float64, cnt int) {
	var c0, c1 int
	var w0, w1 float64
	if i%2 == 0 {
		c0, w0 = i/2-1, 0.25
		c1, w1 = i/2, 0.75
	} else {
		c0, w0 = (i-1)/2, 0.75
		c1, w1 = (i-1)/2+1, 0.25
	}
	if c0 < 0 {
		return [2]int32{int32(c1)}, [2]float64{1}, 1
	}
	if c1 >= coarseN {
		return [2]int32{int32(c0)}, [2]float64{1}, 1
	}
	return [2]int32{int32(c0), int32(c1)}, [2]float64{w0, w1}, 2
}

// buildProlong assembles the prolongation matrix from a coarse level
// (layers × cnx × cny) to a fine level of n unknowns, the trailing
// `extras` of which are lumped nodes with no coarse representation
// (empty rows). When a dimension is not coarsened the 1-D stencil
// degenerates to identity.
func buildProlong(nx, ny, cnx, cny, layers, n, extras int) *csrMat {
	coarseCells := cnx * cny
	p := &csrMat{rows: n, cols: layers * coarseCells}
	p.rowPtr = make([]int32, n+1)
	// Worst case 4 entries per grid row.
	p.colIdx = make([]int32, 0, 4*(n-extras))
	p.val = make([]float64, 0, 4*(n-extras))
	ident := func(i int) ([2]int32, [2]float64, int) {
		return [2]int32{int32(i)}, [2]float64{1}, 1
	}
	for l := 0; l < layers; l++ {
		base := l * coarseCells
		for j := 0; j < ny; j++ {
			jIdx, jw, jn := interp1D(j, cny)
			if cny == ny {
				jIdx, jw, jn = ident(j)
			}
			for i := 0; i < nx; i++ {
				iIdx, iw, in := interp1D(i, cnx)
				if cnx == nx {
					iIdx, iw, in = ident(i)
				}
				row := l*nx*ny + j*nx + i
				for b := 0; b < jn; b++ {
					for a := 0; a < in; a++ {
						p.colIdx = append(p.colIdx, int32(base)+jIdx[b]*int32(cnx)+iIdx[a])
						p.val = append(p.val, jw[b]*iw[a])
					}
				}
				p.rowPtr[row+1] = int32(len(p.colIdx))
			}
		}
	}
	// Extra nodes: empty rows (rowPtr already points at the end).
	for e := 0; e < extras; e++ {
		p.rowPtr[n-extras+e+1] = int32(len(p.colIdx))
	}
	return p
}

// transposeCSR builds the explicit transpose so restriction runs as a
// parallel gather over coarse rows.
func transposeCSR(a *csrMat) *csrMat {
	t := &csrMat{rows: a.cols, cols: a.rows}
	t.rowPtr = make([]int32, t.rows+1)
	for _, c := range a.colIdx {
		t.rowPtr[c+1]++
	}
	for i := 0; i < t.rows; i++ {
		t.rowPtr[i+1] += t.rowPtr[i]
	}
	t.colIdx = make([]int32, len(a.colIdx))
	t.val = make([]float64, len(a.val))
	next := make([]int32, t.rows)
	copy(next, t.rowPtr[:t.rows])
	for r := 0; r < a.rows; r++ {
		for k := a.rowPtr[r]; k < a.rowPtr[r+1]; k++ {
			c := a.colIdx[k]
			t.colIdx[next[c]] = int32(r)
			t.val[next[c]] = a.val[k]
			next[c]++
		}
	}
	return t
}

// Slots of a seven-point coarse row, in the order coarsen writes them:
// the diagonal first (Assemble's convention), then the neighbours in
// ascending column order.
const (
	slotDiag  = iota
	slotDown  // layer − 1, same cell
	slotSouth // y − 1
	slotWest  // x − 1
	slotEast  // x + 1
	slotNorth // y + 1
	slotUp    // layer + 1, same cell
	numSlots
)

// coarsen builds l's operator from the next finer level f by
// aggregation: each coarse row sums the fine rows of its ≤4 in-plane
// children in the same layer into the seven-point stencil. A fine
// coupling between two children of one coarse cell lands on the
// diagonal; one between children of neighbouring cells lands in that
// neighbour's slot. Summing gets a lateral face's length right but not
// its centre-to-centre distance, which doubles across a coarsened axis,
// so those slots are halved and the removed half moves onto the
// diagonal. Row sums, and with them the coupling to ambient, are
// unchanged, and on a uniform stack the result is what Assemble
// produces for the coarse grid. Vertical couplings and ambient ties
// scale with cell area and are summed as they are. Columns of the
// finest level's lumped extras are skipped: their couplings already
// sit on the children's diagonals, so every coarse row stays weakly
// diagonally dominant.
//
// Rows are independent and each is summed in a fixed order, so the
// parallel build is deterministic at any GOMAXPROCS.
func (l *mgLevel) coarsen(f *mgLevel) error {
	nx, ny, layers := l.nx, l.ny, l.layers
	nc, fnc := nx*ny, f.nx*f.ny
	fgrid := f.layers * fnc
	halveX, halveY := nx != f.nx, ny != f.ny
	parent := func(i int, halve bool) int {
		if halve {
			return i / 2
		}
		return i
	}
	children := func(c, fn int, halve bool) (lo, hi int) {
		if halve {
			return 2 * c, min(2*c+2, fn)
		}
		return c, c + 1
	}
	// The pattern is geometric: a slot is stored iff its neighbour
	// exists.
	offset := [numSlots]int{0, -nc, -nx, -1, 1, nx, nc}
	present := func(r int) [numSlots]bool {
		lay, j, i := r/nc, r%nc/nx, r%nx
		return [numSlots]bool{true, lay > 0, j > 0, i > 0, i < nx-1, j < ny-1, lay < layers-1}
	}
	rowPtr := make([]int32, l.n+1)
	for r := 0; r < l.n; r++ {
		rowPtr[r+1] = rowPtr[r]
		for _, ok := range present(r) {
			if ok {
				rowPtr[r+1]++
			}
		}
	}
	colIdx := make([]int32, rowPtr[l.n])
	val := make([]float64, rowPtr[l.n])
	inv := make([]float64, l.n)

	var bad atomic.Int64
	bad.Store(-1)
	parallel.For(l.n, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			lay, cj, ci := r/nc, r%nc/nx, r%nx
			has := present(r)
			var s [numSlots]float64
			jlo, jhi := children(cj, f.ny, halveY)
			ilo, ihi := children(ci, f.nx, halveX)
			for j := jlo; j < jhi; j++ {
				for i := ilo; i < ihi; i++ {
					fr := lay*fnc + j*f.nx + i
				entries:
					for k := f.rowPtr[fr]; k < f.rowPtr[fr+1]; k++ {
						fc := int(f.colIdx[k])
						if fc >= fgrid {
							continue // a lumped extra
						}
						// The coarse cell holding fc, matched against the
						// stored slots (offsets of absent slots may alias
						// present ones on a one-cell-wide axis).
						cc := fc/fnc*nc + parent(fc%fnc/f.nx, halveY)*nx + parent(fc%f.nx, halveX)
						for slot, off := range offset {
							if has[slot] && cc == r+off {
								s[slot] += f.val[k]
								continue entries
							}
						}
						bad.CompareAndSwap(-1, int64(fr))
						return
					}
				}
			}
			if halveX {
				s[slotWest], s[slotEast] = s[slotWest]*0.5, s[slotEast]*0.5
				s[slotDiag] += s[slotWest] + s[slotEast]
			}
			if halveY {
				s[slotSouth], s[slotNorth] = s[slotSouth]*0.5, s[slotNorth]*0.5
				s[slotDiag] += s[slotSouth] + s[slotNorth]
			}
			k := rowPtr[r]
			for slot, ok := range has {
				if ok {
					colIdx[k], val[k] = int32(r+offset[slot]), s[slot]
					k++
				}
			}
			inv[r] = 1 / s[slotDiag]
		}
	})
	if r := bad.Load(); r >= 0 {
		return fmt.Errorf("thermal: multigrid fine row %d couples outside the seven-point stencil", r)
	}
	for r := 0; r < l.n; r++ {
		if d := val[rowPtr[r]]; !(d > 0) {
			return fmt.Errorf("thermal: multigrid coarse level lost positive definiteness at node %d (%g)", r, d)
		}
	}
	l.rowPtr, l.colIdx, l.val, l.inv = rowPtr, colIdx, val, inv
	return nil
}

// matVec computes dst = A_l·x over this level's CSR.
func (l *mgLevel) matVec(dst, x []float64) {
	rowPtr, colIdx, val := l.rowPtr, l.colIdx, l.val
	parallel.For(l.n, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			var sum float64
			for k := rowPtr[r]; k < rowPtr[r+1]; k++ {
				sum += val[k] * x[colIdx[k]]
			}
			dst[r] = sum
		}
	})
}

// mulCSR computes dst = M·x for a transfer operator.
func (m *csrMat) mul(dst, x []float64) {
	rowPtr, colIdx, val := m.rowPtr, m.colIdx, m.val
	parallel.For(m.rows, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			var sum float64
			for k := rowPtr[r]; k < rowPtr[r+1]; k++ {
				sum += val[k] * x[colIdx[k]]
			}
			dst[r] = sum
		}
	})
}

// Apply runs one V-cycle on r with zero initial guess, writing the
// preconditioned residual to z. z and r must have the fine level's
// length and may not alias.
func (m *Multigrid) Apply(z, r []float64) {
	m.vcycle(0, z, r)
}

// vcycle approximately solves A_l·x = b with zero initial guess.
func (m *Multigrid) vcycle(li int, x, b []float64) {
	l := m.levels[li]
	if li == len(m.levels)-1 {
		m.chol.solve(x, b)
		return
	}
	omega := m.omega
	// First pre-smooth from the zero guess collapses to x = ω·M⁻¹·b.
	copy(x, b)
	l.lineSolve(x)
	if omega != 1 {
		parallel.For(l.n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				x[i] *= omega
			}
		})
	}
	for s := 1; s < m.smooths; s++ {
		l.smooth(x, b, omega)
	}
	// Residual, restrict, recurse, correct.
	l.matVec(l.res, x)
	parallel.For(l.n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			l.res[i] = b[i] - l.res[i]
		}
	})
	next := m.levels[li+1]
	l.restrict.mul(next.b, l.res)
	m.vcycle(li+1, next.x, next.b)
	// x += P·xc, fused with the gather.
	p, xc := l.prolong, next.x
	parallel.For(l.n, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			var sum float64
			for k := p.rowPtr[r]; k < p.rowPtr[r+1]; k++ {
				sum += p.val[k] * xc[p.colIdx[k]]
			}
			x[r] += sum
		}
	})
	for s := 0; s < m.smooths; s++ {
		l.smooth(x, b, omega)
	}
}

// smooth performs one damped z-line sweep x += ω·M⁻¹·(b − A·x),
// using the level's residual buffer.
func (l *mgLevel) smooth(x, b []float64, omega float64) {
	l.matVec(l.res, x)
	res := l.res
	parallel.For(l.n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			res[i] = b[i] - res[i]
		}
	})
	l.lineSolve(res)
	parallel.For(l.n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			x[i] += omega * res[i]
		}
	})
}

// denseChol is a dense Cholesky factorization of the coarsest-level
// operator; the exact coarse solve keeps the V-cycle a fixed linear
// SPD operator.
type denseChol struct {
	n int
	f []float64 // lower-triangular factor, row-major n×n
}

func newDenseChol(l *mgLevel) (*denseChol, error) {
	n := l.n
	a := make([]float64, n*n)
	for r := 0; r < n; r++ {
		for k := l.rowPtr[r]; k < l.rowPtr[r+1]; k++ {
			a[r*n+int(l.colIdx[k])] = l.val[k]
		}
	}
	for j := 0; j < n; j++ {
		d := a[j*n+j]
		for k := 0; k < j; k++ {
			d -= a[j*n+k] * a[j*n+k]
		}
		if d <= 0 {
			return nil, fmt.Errorf("thermal: multigrid coarsest level not SPD (pivot %g at %d)", d, j)
		}
		d = math.Sqrt(d)
		a[j*n+j] = d
		for i := j + 1; i < n; i++ {
			s := a[i*n+j]
			for k := 0; k < j; k++ {
				s -= a[i*n+k] * a[j*n+k]
			}
			a[i*n+j] = s / d
		}
	}
	return &denseChol{n: n, f: a}, nil
}

// solve writes A⁻¹·b into x via forward/back substitution.
func (c *denseChol) solve(x, b []float64) {
	n, f := c.n, c.f
	copy(x, b)
	for i := 0; i < n; i++ {
		s := x[i]
		for k := 0; k < i; k++ {
			s -= f[i*n+k] * x[k]
		}
		x[i] = s / f[i*n+i]
	}
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for k := i + 1; k < n; k++ {
			s -= f[k*n+i] * x[k]
		}
		x[i] = s / f[i*n+i]
	}
}
