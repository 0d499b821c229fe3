package thermal

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

// refCSR is a square or rectangular CSR matrix. With the functions
// below it is the reference implementation the stencil kernels
// replaced: the CSR operators, transfers and column-order line solve
// that the multigrid ran on before, kept here to pin the kernels bit
// for bit.
type refCSR struct {
	rows   int
	rowPtr []int32
	colIdx []int32
	val    []float64
}

// mul computes dst = M·x, summing each row in stored order.
func (m *refCSR) mul(dst, x []float64) {
	for r := 0; r < m.rows; r++ {
		var sum float64
		for k := m.rowPtr[r]; k < m.rowPtr[r+1]; k++ {
			sum += m.val[k] * x[m.colIdx[k]]
		}
		dst[r] = sum
	}
}

func systemCSR(s *System) *refCSR {
	return &refCSR{rows: s.N, rowPtr: s.RowPtr, colIdx: s.ColIdx, val: s.Val}
}

// stencilCSR writes a stencil out as CSR in the order its kernel sums
// each row, storing every geometrically present neighbour.
func stencilCSR(a *stencil) *refCSR {
	n := len(a.diag)
	nx, nc := a.nx, a.nx*a.ny
	grid := a.layers * nc
	c := &refCSR{rows: n, rowPtr: make([]int32, n+1)}
	add := func(col int, v float64) {
		c.colIdx = append(c.colIdx, int32(col))
		c.val = append(c.val, v)
	}
	for r := 0; r < n; r++ {
		add(r, a.diag[r])
		if r < grid {
			lay, j, i := r/nc, r%nc/nx, r%nx
			type entry struct {
				ok  bool
				col int
				v   func() float64
			}
			s := entry{j > 0, r - nx, func() float64 { return a.north[r-nx] }}
			w := entry{i > 0, r - 1, func() float64 { return a.east[r-1] }}
			e := entry{i < nx-1, r + 1, func() float64 { return a.east[r] }}
			no := entry{j < a.ny-1, r + nx, func() float64 { return a.north[r] }}
			down := entry{lay > 0, r - nc, func() float64 { return a.up[r-nc] }}
			up := entry{lay < a.layers-1, r + nc, func() float64 { return a.up[r] }}
			order := []entry{s, w, e, no, down, up}
			if a.zFirst {
				order = []entry{down, s, w, e, no, up}
			}
			for _, en := range order {
				if en.ok {
					add(en.col, en.v())
				}
			}
		}
		if a.xPtr != nil {
			for k := a.xPtr[r]; k < a.xPtr[r+1]; k++ {
				add(int(a.xCol[k]), a.xVal[k])
			}
		}
		c.rowPtr[r+1] = int32(len(c.colIdx))
	}
	return c
}

// refCoarsen is the CSR aggregation: coarse row r walks its children's
// fine CSR rows entry by entry, skipping lumped extras, and sums each
// entry into the stored slot of the coarse cell holding its column;
// slots are stored diagonal first, then in ascending column order.
func refCoarsen(f *refCSR, fnx, fny, nx, ny, layers int) *refCSR {
	nc, fnc := nx*ny, fnx*fny
	fgrid := layers * fnc
	n := layers * nc
	halveX, halveY := nx != fnx, ny != fny
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
	const diag, down, south, west, east, north, up, slots = 0, 1, 2, 3, 4, 5, 6, 7
	offset := [slots]int{0, -nc, -nx, -1, 1, nx, nc}
	c := &refCSR{rows: n, rowPtr: make([]int32, n+1)}
	for r := 0; r < n; r++ {
		lay, cj, ci := r/nc, r%nc/nx, r%nx
		has := [slots]bool{true, lay > 0, cj > 0, ci > 0, ci < nx-1, cj < ny-1, lay < layers-1}
		var s [slots]float64
		jlo, jhi := children(cj, fny, halveY)
		ilo, ihi := children(ci, fnx, halveX)
		for j := jlo; j < jhi; j++ {
			for i := ilo; i < ihi; i++ {
				fr := lay*fnc + j*fnx + i
			entries:
				for k := f.rowPtr[fr]; k < f.rowPtr[fr+1]; k++ {
					fc := int(f.colIdx[k])
					if fc >= fgrid {
						continue
					}
					cc := fc/fnc*nc + parent(fc%fnc/fnx, halveY)*nx + parent(fc%fnx, halveX)
					for slot, off := range offset {
						if has[slot] && cc == r+off {
							s[slot] += f.val[k]
							continue entries
						}
					}
					panic(fmt.Sprintf("fine row %d couples outside the seven-point stencil", fr))
				}
			}
		}
		if halveX {
			s[west], s[east] = s[west]*0.5, s[east]*0.5
			s[diag] += s[west] + s[east]
		}
		if halveY {
			s[south], s[north] = s[south]*0.5, s[north]*0.5
			s[diag] += s[south] + s[north]
		}
		for slot, ok := range has {
			if ok {
				c.colIdx = append(c.colIdx, int32(r+offset[slot]))
				c.val = append(c.val, s[slot])
			}
		}
		c.rowPtr[r+1] = int32(len(c.colIdx))
	}
	return c
}

// refProlong assembles the prolongation matrix from a coarse level to
// a fine level of n unknowns whose trailing extras have empty rows.
func refProlong(nx, ny, cnx, cny, layers, n, extras int) *refCSR {
	coarseCells := cnx * cny
	p := &refCSR{rows: n, rowPtr: make([]int32, n+1)}
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
	for e := 0; e < extras; e++ {
		p.rowPtr[n-extras+e+1] = int32(len(p.colIdx))
	}
	return p
}

// refTranspose builds the explicit transpose of a cols-column matrix;
// each of its rows lists the source rows in ascending order.
func refTranspose(a *refCSR, cols int) *refCSR {
	t := &refCSR{rows: cols, rowPtr: make([]int32, cols+1)}
	for _, c := range a.colIdx {
		t.rowPtr[c+1]++
	}
	for i := 0; i < cols; i++ {
		t.rowPtr[i+1] += t.rowPtr[i]
	}
	t.colIdx = make([]int32, len(a.colIdx))
	t.val = make([]float64, len(a.val))
	next := append([]int32(nil), t.rowPtr[:cols]...)
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

// refLineFactors factors each vertical column, scanning the CSR row
// below for the vertical coupling.
func refLineFactors(a *refCSR, nc, layers int) (invD, c []float64) {
	grid := layers * nc
	invD = make([]float64, a.rows)
	c = make([]float64, grid)
	for cell := 0; cell < nc; cell++ {
		var dhatPrev float64
		for lay := 0; lay < layers; lay++ {
			idx := lay*nc + cell
			d := a.val[a.rowPtr[idx]]
			if lay > 0 {
				prev := idx - nc
				var e float64
				for k := a.rowPtr[prev]; k < a.rowPtr[prev+1]; k++ {
					if int(a.colIdx[k]) == idx {
						e = a.val[k]
						break
					}
				}
				cc := e / dhatPrev
				c[prev] = cc
				d -= cc * e
			}
			invD[idx] = 1 / d
			dhatPrev = d
		}
	}
	for i := grid; i < a.rows; i++ {
		invD[i] = 1 / a.val[a.rowPtr[i]]
	}
	return invD, c
}

// refLineSolve is the column-at-a-time z-line solve.
func refLineSolve(z, invD, c []float64, nc, layers int) {
	for cell := 0; cell < nc; cell++ {
		for lay := 1; lay < layers; lay++ {
			idx := lay*nc + cell
			z[idx] -= c[idx-nc] * z[idx-nc]
		}
		last := (layers-1)*nc + cell
		z[last] *= invD[last]
		for lay := layers - 2; lay >= 0; lay-- {
			idx := lay*nc + cell
			z[idx] = z[idx]*invD[idx] - c[idx]*z[idx+nc]
		}
	}
	for i := layers * nc; i < len(z); i++ {
		z[i] *= invD[i]
	}
}

// refLevel is one level of the CSR reference hierarchy.
type refLevel struct {
	nc, layers  int
	a           *refCSR
	invD, lineC []float64
	p, r        *refCSR // transfers to the next coarser level
	x, b, res   []float64
}

// refHierarchy builds the CSR reference hierarchy of sys over the
// level dimensions of mg.
func refHierarchy(sys *System, mg *Multigrid) []*refLevel {
	extras := len(sys.model.Extras)
	out := make([]*refLevel, len(mg.levels))
	for li, l := range mg.levels {
		rl := &refLevel{nc: l.nx * l.ny, layers: l.layers}
		if li == 0 {
			rl.a = systemCSR(sys)
		} else {
			f := mg.levels[li-1]
			rl.a = refCoarsen(out[li-1].a, f.nx, f.ny, l.nx, l.ny, l.layers)
			out[li-1].p = refProlong(f.nx, f.ny, l.nx, l.ny, l.layers, f.n, extras)
			out[li-1].r = refTranspose(out[li-1].p, l.n)
			extras = 0
		}
		rl.invD, rl.lineC = refLineFactors(rl.a, rl.nc, rl.layers)
		rl.x, rl.b, rl.res = make([]float64, l.n), make([]float64, l.n), make([]float64, l.n)
		out[li] = rl
	}
	return out
}

// refVCycle is the V-cycle over the CSR reference hierarchy, sharing
// mg's coarsest factor and damping.
func refVCycle(levels []*refLevel, mg *Multigrid, li int, x, b []float64) {
	l := levels[li]
	if li == len(levels)-1 {
		mg.chol.solve(x, b)
		return
	}
	omega := mg.omega
	smooth := func() {
		l.a.mul(l.res, x)
		for i := range l.res {
			l.res[i] = b[i] - l.res[i]
		}
		refLineSolve(l.res, l.invD, l.lineC, l.nc, l.layers)
		for i := range x {
			x[i] += omega * l.res[i]
		}
	}
	copy(x, b)
	refLineSolve(x, l.invD, l.lineC, l.nc, l.layers)
	for i := range x {
		x[i] *= omega
	}
	for s := 1; s < mg.smooths; s++ {
		smooth()
	}
	l.a.mul(l.res, x)
	for i := range l.res {
		l.res[i] = b[i] - l.res[i]
	}
	next := levels[li+1]
	l.r.mul(next.b, l.res)
	refVCycle(levels, mg, li+1, next.x, next.b)
	corr := make([]float64, len(x))
	l.p.mul(corr, next.x)
	for i := range x {
		x[i] += corr[i]
	}
	for s := 0; s < mg.smooths; s++ {
		smooth()
	}
}

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 25 + 10*rng.Float64() - 5*rng.Float64()
	}
	return v
}

func sameVec(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, reference %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: entry %d is %.17g, reference %.17g", what, i, got[i], want[i])
		}
	}
}

func sameCSR(t *testing.T, what string, got, want *refCSR) {
	t.Helper()
	if got.rows != want.rows || len(got.colIdx) != len(want.colIdx) {
		t.Fatalf("%s: %d rows / %d entries, reference %d / %d", what, got.rows, len(got.colIdx), want.rows, len(want.colIdx))
	}
	for r := 0; r <= got.rows; r++ {
		if got.rowPtr[r] != want.rowPtr[r] {
			t.Fatalf("%s: rowPtr[%d] = %d, reference %d", what, r, got.rowPtr[r], want.rowPtr[r])
		}
	}
	for k := range want.colIdx {
		if got.colIdx[k] != want.colIdx[k] || got.val[k] != want.val[k] {
			t.Fatalf("%s: entry %d is (%d, %.17g), reference (%d, %.17g)", what, k, got.colIdx[k], got.val[k], want.colIdx[k], want.val[k])
		}
	}
}

// checkKernels compares every kernel of sys and its hierarchy mg
// (built from, or borrowed from, valSys) with the CSR reference.
func checkKernels(t *testing.T, sys, valSys *System, mg *Multigrid) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	if sys.op == nil {
		t.Fatal("system has no stencil")
	}
	// The System's stencil reproduces its CSR row by row.
	sameCSR(t, "system stencil", stencilCSR(sys.op), systemCSR(sys))
	x := randVec(rng, sys.N)
	got, want := make([]float64, sys.N), make([]float64, sys.N)
	sys.MatVec(got, x)
	systemCSR(sys).mul(want, x)
	sameVec(t, "System.MatVec", got, want)

	ref := refHierarchy(valSys, mg)
	for li, l := range mg.levels {
		rl := ref[li]
		name := func(k string) string { return fmt.Sprintf("level %d (%d×%d) %s", li, l.nx, l.ny, k) }
		if li > 0 {
			sameCSR(t, name("operator"), stencilCSR(l.op), rl.a)
		}
		x := randVec(rng, l.n)
		b := randVec(rng, l.n)
		got, want := make([]float64, l.n), make([]float64, l.n)
		l.op.mul(got, x, nil)
		rl.a.mul(want, x)
		sameVec(t, name("matVec"), got, want)
		l.op.mul(got, x, b)
		for i := range want {
			want[i] = b[i] - want[i]
		}
		sameVec(t, name("residual"), got, want)
		if li == len(mg.levels)-1 {
			continue
		}
		sameVec(t, name("lineInvD"), l.lineInvD, rl.invD)
		sameVec(t, name("lineC"), l.lineC, rl.lineC)
		copy(got, x)
		copy(want, x)
		l.lineSolve(got)
		refLineSolve(want, rl.invD, rl.lineC, rl.nc, rl.layers)
		sameVec(t, name("lineSolve"), got, want)

		next := mg.levels[li+1]
		bc, wantBC := make([]float64, next.n), make([]float64, next.n)
		l.xfer.restrict(bc, x)
		rl.r.mul(wantBC, x)
		sameVec(t, name("restrict"), bc, wantBC)
		xc := randVec(rng, next.n)
		corr := make([]float64, l.n)
		rl.p.mul(corr, xc)
		copy(got, x)
		copy(want, x)
		l.xfer.prolongAdd(got, xc)
		for i := range want {
			want[i] += corr[i]
		}
		sameVec(t, name("prolong"), got, want)
	}

	r := randVec(rng, sys.N)
	z, wantZ := make([]float64, sys.N), make([]float64, sys.N)
	mg.Apply(z, r)
	refVCycle(ref, mg, 0, wantZ, r)
	sameVec(t, "Apply", z, wantZ)
}

// assembleUnchecked is Assemble without Model.Validate, whose 2×2
// minimum would rule out one-cell-wide grids.
func assembleUnchecked(t *testing.T, m *Model) *System {
	t.Helper()
	n := m.NumNodes()
	acc := newCOO(n)
	walkConductances(m, acc.couple, acc.tie)
	sys := &System{N: n, model: m, Diag: acc.diag, RowPtr: make([]int32, n+1)}
	for r := 0; r < n; r++ {
		sys.ColIdx = append(append(sys.ColIdx, int32(r)), acc.offRow[r]...)
		sys.Val = append(append(sys.Val, acc.diag[r]), acc.offVal[r]...)
		sys.RowPtr[r+1] = int32(len(sys.ColIdx))
	}
	if err := sys.finishAssembly(acc.ambient); err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestStencilKernelsMatchCSR pins every stencil kernel — the System and
// level matVecs and residuals, restriction, prolongation, the line
// solve and a whole V-cycle — to the CSR loops they replaced, with ==:
// each kernel sums every row in the CSR row's order, so solves,
// iteration counts and goldens cannot move. It covers square, odd,
// semicoarsened and one-cell-wide grids with and without lumped
// extras, hierarchies reached through RefreshedCopy and Borrow,
// Structure.Assemble systems and the stepper's shifted copy, at
// GOMAXPROCS 1 and 2 (the parallel kernels split work differently).
func TestStencilKernelsMatchCSR(t *testing.T) {
	grids := []struct {
		name   string
		nx, ny int
	}{{"64x64", 64, 64}, {"odd33x17", 33, 17}, {"semi20x40", 20, 40}, {"semi5x64", 5, 64}, {"wide1x40", 1, 40}, {"wide40x1", 40, 1}}
	for _, procs := range []int{1, 2} {
		for _, g := range grids {
			for _, extras := range []bool{false, true} {
				t.Run(fmt.Sprintf("procs%d/%s/extras=%t", procs, g.name, extras), func(t *testing.T) {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					oneWide := g.nx == 1 || g.ny == 1
					assemble := func(m *Model) *System {
						if oneWide {
							return assembleUnchecked(t, m)
						}
						s, err := Assemble(m)
						if err != nil {
							t.Fatal(err)
						}
						return s
					}
					sys := assemble(mgStack(g.nx, g.ny, extras))
					mg, err := sys.Multigrid()
					if err != nil {
						t.Fatal(err)
					}
					t.Run("assemble", func(t *testing.T) { checkKernels(t, sys, sys, mg) })

					pert := assemble(perturbStack(g.nx, g.ny, extras))
					t.Run("refreshed", func(t *testing.T) {
						fresh, err := mg.RefreshedCopy(pert)
						if err != nil {
							t.Fatal(err)
						}
						checkKernels(t, pert, pert, fresh)
					})
					t.Run("borrow", func(t *testing.T) { checkKernels(t, pert, sys, mg.Borrow()) })
					if !oneWide {
						t.Run("structure", func(t *testing.T) {
							st, err := sys.Structure()
							if err != nil {
								t.Fatal(err)
							}
							ss, err := st.Assemble(perturbStack(g.nx, g.ny, extras))
							if err != nil {
								t.Fatal(err)
							}
							smg, err := ss.Multigrid()
							if err != nil {
								t.Fatal(err)
							}
							checkKernels(t, ss, ss, smg)
						})
					}
					t.Run("shifted", func(t *testing.T) {
						stp, err := NewStepper(sys, 1e-3)
						if err != nil {
							t.Fatal(err)
						}
						sh := stp.shifted
						shmg, err := buildMultigrid(sh, nil)
						if err != nil {
							t.Fatal(err)
						}
						checkKernels(t, sh, sh, shmg)
					})
				})
			}
		}
	}
}

// TestEverySystemHasStencil: every System the package builds from a
// model carries a stencil, so the CSR matVec serves only hand-built
// systems.
func TestEverySystemHasStencil(t *testing.T) {
	for _, extras := range []bool{false, true} {
		sys, err := Assemble(mgStack(12, 9, extras))
		if err != nil {
			t.Fatal(err)
		}
		st, err := sys.Structure()
		if err != nil {
			t.Fatal(err)
		}
		ss, err := st.Assemble(perturbStack(12, 9, extras))
		if err != nil {
			t.Fatal(err)
		}
		stp, err := NewStepper(sys, 1e-3)
		if err != nil {
			t.Fatal(err)
		}
		for name, s := range map[string]*System{"Assemble": sys, "Structure.Assemble": ss, "NewStepper": stp.shifted} {
			if s.op == nil {
				t.Errorf("extras=%t: %s system has no stencil", extras, name)
			} else if &s.op.diag[0] != &s.Diag[0] {
				t.Errorf("extras=%t: %s stencil diagonal does not alias Diag", extras, name)
			}
		}
		if &stp.shifted.op.east[0] != &sys.op.east[0] {
			t.Errorf("extras=%t: shifted stencil copies the couplings instead of sharing them", extras)
		}
		// The stepper still integrates on the stencil.
		if _, err := stp.Run(context.Background(), 2); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLineSmootherReportsBadPivot hand-builds a level whose vertical
// columns are not SPD in every worker's block: the parallel factor
// must report one failing node without a data race (CI runs it under
// -race) instead of every block writing a shared error.
func TestLineSmootherReportsBadPivot(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const nx, ny, layers = 64, 64, 3
	n := nx * ny * layers
	op := newStencil(nx, ny, layers, n, true)
	for i := range op.diag {
		op.diag[i] = 1
	}
	nc := nx * ny
	for c := 0; c < nc; c++ {
		// d̂ of the middle layer is 1 − 2²/1 < 0 in every column.
		op.up[c] = -2
	}
	l := &mgLevel{nx: nx, ny: ny, layers: layers, n: n, op: op}
	err := l.buildLineSmoother()
	if err == nil {
		t.Fatal("expected an error for a non-SPD column")
	}
	if !strings.Contains(err.Error(), "pivot -3 at node") {
		t.Errorf("error does not report the pivot and node: %v", err)
	}
	var node int
	if _, serr := fmt.Sscanf(err.Error()[strings.Index(err.Error(), "node"):], "node %d", &node); serr != nil || node < nc || node >= 2*nc {
		t.Errorf("error names node %d, want one in the middle layer [%d, %d): %v", node, nc, 2*nc, err)
	}
}

// TestSystemStencilRejectsMisfitRows: a CSR row the kernels could not
// reproduce — grid neighbours out of Assemble's order, or a coupling
// whose mirror entry differs — must fail the derivation instead of
// producing a stencil that sums differently.
func TestSystemStencilRejectsMisfitRows(t *testing.T) {
	clone := func(t *testing.T) *System {
		sys, err := Assemble(mgStack(6, 5, true))
		if err != nil {
			t.Fatal(err)
		}
		c := *sys
		c.ColIdx = append([]int32(nil), sys.ColIdx...)
		c.Val = append([]float64(nil), sys.Val...)
		return &c
	}
	// Node (1, 1) of layer 0 stores diag, S, W, E, N, up.
	r := 1*6 + 1
	t.Run("order", func(t *testing.T) {
		s := clone(t)
		k := s.RowPtr[r] + 1
		s.ColIdx[k], s.ColIdx[k+1] = s.ColIdx[k+1], s.ColIdx[k]
		s.Val[k], s.Val[k+1] = s.Val[k+1], s.Val[k]
		if _, err := newSystemStencil(s); err == nil {
			t.Error("S and W swapped: derivation accepted the row")
		}
	})
	t.Run("asymmetric", func(t *testing.T) {
		s := clone(t)
		s.Val[s.RowPtr[r]+1] *= 1.5
		if _, err := newSystemStencil(s); err == nil {
			t.Error("S coupling differs from its mirror: derivation accepted the row")
		}
	})
	t.Run("diagonal", func(t *testing.T) {
		s := clone(t)
		s.Val[s.RowPtr[r]] += 1
		if _, err := newSystemStencil(s); err == nil {
			t.Error("CSR diagonal differs from Diag: derivation accepted the row")
		}
	})
}
