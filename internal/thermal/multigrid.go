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
// and the coarse matVec as cheap per row as the fine one. Every level,
// the System's included, is stored and applied as a stencil; transfers
// are cell-centered bilinear interpolation P and restriction R = Pᵀ,
// applied from per-axis weight tables. Every kernel sums each row in
// the order the CSR form it replaced did, so results are bit-identical
// to CSR loops (TestStencilKernelsMatchCSR).
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

// mgLevel is one grid level: its seven-point operator, the z-line
// smoother factorization, the interpolation to/from the next coarser
// level, and scratch vectors sized for this level. The finest level's
// operator is the System's.
type mgLevel struct {
	nx, ny, layers int
	n              int // unknowns on this level (level 0 includes extras)

	op *stencil

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

	// xfer maps the next coarser level's field up to this one and
	// restricts back down; nil on the coarsest level.
	xfer *transfer

	x, b, res []float64
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

// Borrow returns a view of the hierarchy that shares every stencil,
// factor, and transfer table but owns private work buffers, so a
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
// coarse stencils, line-smoother factors, the dense coarsest
// factorization — from s, reusing the purely geometric transfer
// tables and level structure of the receiver. It is the
// escape hatch of stale-preconditioner reuse: when a perturbed
// solve's iteration count shows the borrowed values have drifted too
// far, the caller refreshes at a fraction of a full build. s must
// share the structure the receiver was built from.
func (m *Multigrid) RefreshedCopy(s *System) (*Multigrid, error) {
	return buildMultigrid(s, m)
}

// Kernel is one multigrid kernel bound to its operands.
type Kernel struct {
	Name string
	Run  func()
}

// Kernels binds the finest level's kernels — matVec, restriction,
// prolongation, line solve — and one whole V-cycle to the hierarchy's
// work buffers, so benchmarks can time each kernel on its own. The
// line solve refreshes its input with a copy first, which keeps
// repeated runs away from subnormal values. Running a kernel
// overwrites the work buffers, so it is safe only where Apply is.
func (m *Multigrid) Kernels() []Kernel {
	l := m.levels[0]
	x, r, z := make([]float64, l.n), make([]float64, l.n), make([]float64, l.n)
	for i := range x {
		x[i] = 1 + float64(i%97)/97
		r[i] = float64(i%101) / 101
	}
	ks := []Kernel{{"matvec", func() { l.op.mul(l.res, x, nil) }}}
	if len(m.levels) > 1 {
		next := m.levels[1]
		for i := range next.x {
			next.x[i] = 1
		}
		ks = append(ks,
			Kernel{"restrict", func() { l.xfer.restrict(next.b, r) }},
			Kernel{"prolong", func() { l.xfer.prolongAdd(x, next.x) }},
			Kernel{"linesolve", func() { copy(l.res, r); l.lineSolve(l.res) }},
		)
	}
	return append(ks, Kernel{"vcycle", func() { m.Apply(z, r) }})
}

// buildMultigrid constructs the level structure (reusing the transfer
// operators of `reuse` when given), then fills in the values.
func buildMultigrid(s *System, reuse *Multigrid) (*Multigrid, error) {
	if s.model == nil || s.op == nil {
		return nil, fmt.Errorf("thermal: multigrid needs the grid structure; system has no model")
	}
	a := s.op
	fine := &mgLevel{
		nx: a.nx, ny: a.ny, layers: a.layers, n: s.N,
		op:  a,
		res: make([]float64, s.N),
	}
	mg := &Multigrid{levels: []*mgLevel{fine}, omega: 0.9, smooths: 1}
	if reuse != nil && (len(reuse.levels) == 0 || reuse.levels[0].n != s.N) {
		return nil, fmt.Errorf("thermal: multigrid refresh against a different structure")
	}

	layers := a.layers
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
			if tl.nx != cur.nx || tl.ny != cur.ny || tn.nx != cnx || tn.ny != cny || tn.n != coarseN || tl.xfer == nil {
				return nil, fmt.Errorf("thermal: multigrid refresh structure mismatch at level %d", li)
			}
			cur.xfer = tl.xfer
		} else {
			cur.xfer = newTransfer(cur.nx, cur.ny, cnx, cny, layers)
		}
		next := &mgLevel{nx: cnx, ny: cny, layers: layers, n: coarseN}
		mg.levels = append(mg.levels, next)
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
// line-smoother factors, the dense coarsest factorization, and each
// coarse level's work vectors. Shared by the initial build and
// RefreshedCopy.
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
// Columns are factored in parallel, so the first failing node any
// worker finds is recorded atomically.
func (l *mgLevel) buildLineSmoother() error {
	nc := l.nx * l.ny
	grid := l.layers * nc
	diag, up := l.op.diag, l.op.up
	l.lineInvD = make([]float64, l.n)
	l.lineC = make([]float64, grid)
	var bad atomic.Int64
	bad.Store(-1)
	var badPivot atomic.Uint64
	parallel.For(nc, func(lo, hi int) {
		for cell := lo; cell < hi; cell++ {
			var dhatPrev float64
			for lay := 0; lay < l.layers; lay++ {
				idx := lay*nc + cell
				d := diag[idx]
				if lay > 0 {
					// e couples (lay-1, cell) to (lay, cell).
					prev := idx - nc
					e := up[prev]
					c := e / dhatPrev
					l.lineC[prev] = c
					d -= c * e
				}
				if d <= 0 {
					if bad.CompareAndSwap(-1, int64(idx)) {
						badPivot.Store(math.Float64bits(d))
					}
					return
				}
				l.lineInvD[idx] = 1 / d
				dhatPrev = d
			}
		}
	})
	if idx := bad.Load(); idx >= 0 {
		return fmt.Errorf("thermal: multigrid line smoother pivot %g at node %d", math.Float64frombits(badPivot.Load()), idx)
	}
	// Lumped extras (fine level only) smooth by their plain diagonal —
	// the additive Jacobi term for nodes outside every column.
	for i := grid; i < l.n; i++ {
		if !(diag[i] > 0) {
			return fmt.Errorf("thermal: non-positive diagonal at node %d (%g); model disconnected from ambient?", i, diag[i])
		}
		l.lineInvD[i] = 1 / diag[i]
	}
	return nil
}

// lineSolve overwrites z with M⁻¹·z, where M is the block-diagonal
// matrix of per-column tridiagonals (plus the extras' diagonal). Each
// worker sweeps its block of columns plane by plane, so every pass
// runs over contiguous memory; each column sees the same operations
// in the same order as a column-at-a-time solve.
func (l *mgLevel) lineSolve(z []float64) {
	nc := l.nx * l.ny
	grid := l.layers * nc
	layers := l.layers
	invD, c := l.lineInvD, l.lineC
	parallel.For(nc, func(lo, hi int) {
		// Forward substitution y = L⁻¹z, then diagonal scale.
		for lay := 1; lay < layers; lay++ {
			o := lay * nc
			cur, below, cb := z[o+lo:o+hi], z[o-nc+lo:o-nc+hi], c[o-nc+lo:o-nc+hi]
			below, cb = below[:len(cur)], cb[:len(cur)]
			for k := range cur {
				cur[k] -= cb[k] * below[k]
			}
		}
		o := (layers - 1) * nc
		top, dt := z[o+lo:o+hi], invD[o+lo:o+hi]
		dt = dt[:len(top)]
		for k := range top {
			top[k] *= dt[k]
		}
		// Back substitution with Lᵀ.
		for lay := layers - 2; lay >= 0; lay-- {
			o := lay * nc
			cur, above, d, cc := z[o+lo:o+hi], z[o+nc+lo:o+nc+hi], invD[o+lo:o+hi], c[o+lo:o+hi]
			above, d, cc = above[:len(cur)], d[:len(cur)], cc[:len(cur)]
			for k := range cur {
				cur[k] = cur[k]*d[k] - cc[k]*above[k]
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

// transfer is the cell-centered bilinear interpolation P from a coarse
// level (layers × cnx × cny) to a fine one (layers × nx × ny) and the
// restriction R = Pᵀ, held as one table per axis: P's weight between
// fine cell (i, j) and coarse cell (ci, cj) is the product of the two
// axes' interp1D weights. Lumped extras have no coarse representation
// (empty rows of P). A dimension that is not coarsened maps by
// identity. Tables are padded to a fixed term count with zero weights
// at valid indices, so the kernels run branch-free and the padding
// adds nothing.
type transfer struct {
	nx, ny, cnx, cny, layers int
	// px[i] / py[j]: the ≤2 coarse cells fine cell i / j draws from.
	px, py []interpTerms
	// rx[ci] / ry[cj]: the ≤4 fine cells drawing from coarse cell
	// ci / cj, ascending.
	rx, ry []gatherTerms
}

type interpTerms struct {
	idx [2]int32
	w   [2]float64
}

type gatherTerms struct {
	idx [4]int32
	w   [4]float64
}

func newTransfer(nx, ny, cnx, cny, layers int) *transfer {
	t := &transfer{nx: nx, ny: ny, cnx: cnx, cny: cny, layers: layers}
	t.px, t.rx = axisTables(nx, cnx)
	t.py, t.ry = axisTables(ny, cny)
	return t
}

// axisTables builds one axis's prolongation and restriction terms.
// Fine cells are visited in ascending order, so each coarse cell's
// gather list comes out ascending.
func axisTables(fn, cn int) ([]interpTerms, []gatherTerms) {
	p := make([]interpTerms, fn)
	r := make([]gatherTerms, cn)
	cnt := make([]int, cn)
	for f := 0; f < fn; f++ {
		idx, w, n := [2]int32{int32(f)}, [2]float64{1}, 1
		if cn != fn {
			idx, w, n = interp1D(f, cn)
		}
		for k := 0; k < n; k++ {
			c := idx[k]
			g := &r[c]
			g.idx[cnt[c]], g.w[cnt[c]] = int32(f), w[k]
			cnt[c]++
		}
		for k := n; k < 2; k++ {
			idx[k] = idx[0]
		}
		p[f] = interpTerms{idx: idx, w: w}
	}
	for c := range r {
		for k := cnt[c]; k < 4; k++ {
			r[c].idx[k] = r[c].idx[0]
		}
	}
	return p, r
}

// prolongAdd computes x += P·xc over the fine grid nodes. Each fine
// row sums P's terms in the order of the CSR row it replaces: the
// j-axis term outer, the i-axis term inner.
func (t *transfer) prolongAdd(x, xc []float64) {
	nx, ny, cnx := t.nx, t.ny, t.cnx
	cnc := cnx * t.cny
	forLines(t.layers*nx*ny, nx, func(line int) {
		lay, j := line/ny, line%ny
		pj := t.py[j]
		base := lay * cnc
		c0 := xc[base+int(pj.idx[0])*cnx : base+int(pj.idx[0])*cnx+cnx]
		c1 := xc[base+int(pj.idx[1])*cnx : base+int(pj.idx[1])*cnx+cnx]
		wj0, wj1 := pj.w[0], pj.w[1]
		out := x[line*nx : line*nx+nx]
		px := t.px[:len(out)]
		for i := range out {
			pi := &px[i]
			i0, i1 := pi.idx[0], pi.idx[1]
			wi0, wi1 := pi.w[0], pi.w[1]
			out[i] += (wj0*wi0)*c0[i0] + (wj0*wi1)*c0[i1] + (wj1*wi0)*c1[i0] + (wj1*wi1)*c1[i1]
		}
	})
}

// restrict computes bc = R·res = Pᵀ·res. Each coarse row sums its
// terms in ascending fine index, the order of the CSR transpose it
// replaces.
func (t *transfer) restrict(bc, res []float64) {
	nx, ny, cnx, cny := t.nx, t.ny, t.cnx, t.cny
	fnc := nx * ny
	forLines(t.layers*cnx*cny, cnx, func(line int) {
		lay, cj := line/cny, line%cny
		g := t.ry[cj]
		base := lay * fnc
		f0 := res[base+int(g.idx[0])*nx : base+int(g.idx[0])*nx+nx]
		f1 := res[base+int(g.idx[1])*nx : base+int(g.idx[1])*nx+nx]
		f2 := res[base+int(g.idx[2])*nx : base+int(g.idx[2])*nx+nx]
		f3 := res[base+int(g.idx[3])*nx : base+int(g.idx[3])*nx+nx]
		w := g.w
		out := bc[line*cnx : line*cnx+cnx]
		rx := t.rx[:len(out)]
		for ci := range out {
			gi := &rx[ci]
			i0, i1, i2, i3 := gi.idx[0], gi.idx[1], gi.idx[2], gi.idx[3]
			u := gi.w
			out[ci] = (w[0]*u[0])*f0[i0] + (w[0]*u[1])*f0[i1] + (w[0]*u[2])*f0[i2] + (w[0]*u[3])*f0[i3] +
				(w[1]*u[0])*f1[i0] + (w[1]*u[1])*f1[i1] + (w[1]*u[2])*f1[i2] + (w[1]*u[3])*f1[i3] +
				(w[2]*u[0])*f2[i0] + (w[2]*u[1])*f2[i1] + (w[2]*u[2])*f2[i2] + (w[2]*u[3])*f2[i3] +
				(w[3]*u[0])*f3[i0] + (w[3]*u[1])*f3[i1] + (w[3]*u[2])*f3[i2] + (w[3]*u[3])*f3[i3]
		}
	})
}

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
// scale with cell area and are summed as they are. The finest level's
// lumped extras are skipped: their couplings already sit on the
// children's diagonals, so every coarse row stays weakly diagonally
// dominant.
//
// Each slot adds its children's terms child by child, diagonal before
// S, W, E, N — the order in which both row orders of f list them — so
// the result is the one a CSR walk over f produces. Rows are
// independent, so the parallel build is deterministic at any
// GOMAXPROCS, and the two rows of a coupling add the same terms in the
// same order, so the operator is exactly symmetric.
func (l *mgLevel) coarsen(f *mgLevel) error {
	nx, ny, layers := l.nx, l.ny, l.layers
	nc, fnx, fnc := nx*ny, f.nx, f.nx*f.ny
	halveX, halveY := nx != f.nx, ny != f.ny
	children := func(c, fn int, halve bool) (lo, hi int) {
		if halve {
			return 2 * c, min(2*c+2, fn)
		}
		return c, c + 1
	}
	fo := f.op
	op := newStencil(nx, ny, layers, l.n, true)
	parallel.For(l.n, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			lay, cj, ci := r/nc, r%nc/nx, r%nx
			var diag, down, s, w, e, n, up float64
			jlo, jhi := children(cj, f.ny, halveY)
			ilo, ihi := children(ci, f.nx, halveX)
			for j := jlo; j < jhi; j++ {
				for i := ilo; i < ihi; i++ {
					fr := lay*fnc + j*fnx + i
					diag += fo.diag[fr]
					if j > 0 {
						if v := fo.north[fr-fnx]; j-1 >= jlo {
							diag += v
						} else {
							s += v
						}
					}
					if i > 0 {
						if v := fo.east[fr-1]; i-1 >= ilo {
							diag += v
						} else {
							w += v
						}
					}
					if i < fnx-1 {
						if v := fo.east[fr]; i+1 < ihi {
							diag += v
						} else {
							e += v
						}
					}
					if j < f.ny-1 {
						if v := fo.north[fr]; j+1 < jhi {
							diag += v
						} else {
							n += v
						}
					}
					if lay > 0 {
						down += fo.up[fr-fnc]
					}
					if lay < layers-1 {
						up += fo.up[fr]
					}
				}
			}
			if halveX {
				w, e = w*0.5, e*0.5
				diag += w + e
			}
			if halveY {
				s, n = s*0.5, n*0.5
				diag += s + n
			}
			op.diag[r], op.east[r], op.north[r], op.up[r] = diag, e, n, up
		}
	})
	for r, d := range op.diag {
		if !(d > 0) {
			return fmt.Errorf("thermal: multigrid coarse level lost positive definiteness at node %d (%g)", r, d)
		}
	}
	l.op = op
	return nil
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
	l.op.mul(l.res, x, b)
	next := m.levels[li+1]
	l.xfer.restrict(next.b, l.res)
	m.vcycle(li+1, next.x, next.b)
	l.xfer.prolongAdd(x, next.x)
	for s := 0; s < m.smooths; s++ {
		l.smooth(x, b, omega)
	}
}

// smooth performs one damped z-line sweep x += ω·M⁻¹·(b − A·x),
// using the level's residual buffer.
func (l *mgLevel) smooth(x, b []float64, omega float64) {
	res := l.res
	l.op.mul(res, x, b)
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
	op := l.op
	nx, nc := l.nx, l.nx*l.ny
	set := func(r, c int, v float64) { a[r*n+c], a[c*n+r] = v, v }
	for r := 0; r < n; r++ {
		a[r*n+r] = op.diag[r]
		if r%nx < nx-1 {
			set(r, r+1, op.east[r])
		}
		if r%nc/nx < l.ny-1 {
			set(r, r+nx, op.north[r])
		}
		if r/nc < l.layers-1 {
			set(r, r+nc, op.up[r])
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
