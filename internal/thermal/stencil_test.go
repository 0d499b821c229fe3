package thermal

import (
	"context"
	"fmt"
	"math"
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

// refAssemble is the CSR assembly the stencil replaced, kept as the
// reference: every contribution of the model walk is accumulated per
// row in insertion order, the diagonal stored first, each
// off-diagonal found by scanning its row.
func refAssemble(m *Model) *refCSR {
	n := m.NumNodes()
	diag := make([]float64, n)
	cols := make([][]int32, n)
	vals := make([][]float64, n)
	addOff := func(r, c int, v float64) {
		for k, existing := range cols[r] {
			if existing == int32(c) {
				vals[r][k] += v
				return
			}
		}
		cols[r] = append(cols[r], int32(c))
		vals[r] = append(vals[r], v)
	}
	couple := func(a, b int, g float64) {
		if g > 0 {
			diag[a] += g
			diag[b] += g
			addOff(a, b, -g)
			addOff(b, a, -g)
		}
	}
	tie := func(a int, g float64) {
		if g > 0 {
			diag[a] += g
		}
	}
	walkConductances(m, couple, tie)
	c := &refCSR{rows: n, rowPtr: make([]int32, n+1)}
	for r := 0; r < n; r++ {
		c.colIdx = append(append(c.colIdx, int32(r)), cols[r]...)
		c.val = append(append(c.val, diag[r]), vals[r]...)
		c.rowPtr[r+1] = int32(len(c.colIdx))
	}
	return c
}

// refShifted is the reference CSR with shift[r] added to row r's
// diagonal.
func refShifted(a *refCSR, shift []float64) *refCSR {
	c := *a
	c.val = append([]float64(nil), a.val...)
	for r, s := range shift {
		c.val[c.rowPtr[r]] += s
	}
	return &c
}

// refStrictLower is the CSR IC(0) input of a reference matrix: the
// strict lower triangle of a, built as the transpose of the strict
// upper one, so columns ascend, and the diagonal.
func refStrictLower(a *refCSR) (lower *csrMat, diag []float64) {
	n := a.rows
	upper := &refCSR{rows: n, rowPtr: make([]int32, n+1)}
	diag = make([]float64, n)
	for r := 0; r < n; r++ {
		diag[r] = a.val[a.rowPtr[r]]
		for k := a.rowPtr[r]; k < a.rowPtr[r+1]; k++ {
			if c := a.colIdx[k]; int(c) > r {
				upper.colIdx = append(upper.colIdx, c)
				upper.val = append(upper.val, a.val[k])
			}
		}
		upper.rowPtr[r+1] = int32(len(upper.colIdx))
	}
	t := refTranspose(upper, n)
	return &csrMat{rowPtr: t.rowPtr, colIdx: t.colIdx, val: t.val}, diag
}

// csrMat is a square sparse matrix in CSR form: the reference IC(0)
// factor's strict lower triangle.
type csrMat struct {
	rowPtr []int32
	colIdx []int32
	val    []float64
}

// strictLower is the CSR IC(0) input of a stencil: the strict lower
// triangle with ascending columns. A grid row's lower neighbours are
// its down, south and west couplings, in that column order. An extra
// row's are built as the transpose of the extras' strict upper
// entries. Model.Validate keeps every grid coupling positive, so each
// present neighbour is a stored entry.
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

// csrIChol is the IC(0) factor the stencil form replaced, kept as the
// reference: L's strict lower triangle in CSR, every row updated
// against every earlier row it shares a column with.
type csrIChol struct {
	l    *csrMat
	invD []float64
}

// newCSRIChol factors the matrix with strict lower triangle l and
// diagonal diag, in place of l's values.
func newCSRIChol(l *csrMat, diag []float64) (*csrIChol, error) {
	n := len(diag)
	lPtr, lCol, lVal := l.rowPtr, l.colIdx, l.val
	ic := &csrIChol{l: l, invD: make([]float64, n)}
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

// Apply computes z = (L·Lᵀ)⁻¹·r: a row-oriented forward sweep, then a
// back sweep that walks L's rows as the columns of Lᵀ and scatters
// each solved value into the lower columns.
func (ic *csrIChol) Apply(z, r []float64) {
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

func (ic *csrIChol) Name() string { return "ichol" }

// icholCSR writes a stencil-form factor's strict lower triangle out as
// CSR in the reference factor's layout.
func icholCSR(ic *ichol) *refCSR {
	n := len(ic.invD)
	nx, nc := ic.nx, ic.nx*ic.ny
	grid := len(ic.down)
	c := &refCSR{rows: n, rowPtr: make([]int32, n+1)}
	add := func(col int, v float64) {
		c.colIdx = append(c.colIdx, int32(col))
		c.val = append(c.val, v)
	}
	for r := 0; r < n; r++ {
		if r < grid {
			if r >= nc {
				add(r-nc, ic.down[r])
			}
			if r%nc >= nx {
				add(r-nx, ic.south[r])
			}
			if r%nx > 0 {
				add(r-1, ic.west[r])
			}
		} else {
			for p := ic.xPtr[r-grid]; p < ic.xPtr[r-grid+1]; p++ {
				add(int(ic.xCol[p]), ic.xVal[p])
			}
		}
		c.rowPtr[r+1] = int32(len(c.colIdx))
	}
	return c
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

// refHierarchy builds the CSR reference hierarchy of the fine
// operator a over the level dimensions of mg.
func refHierarchy(a *refCSR, mg *Multigrid) []*refLevel {
	fine := mg.levels[0]
	extras := fine.n - fine.layers*fine.nx*fine.ny
	out := make([]*refLevel, len(mg.levels))
	for li, l := range mg.levels {
		rl := &refLevel{nc: l.nx * l.ny, layers: l.layers}
		if li == 0 {
			rl.a = a
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
// mg's coarsest factor and the damping mgOmega.
func refVCycle(levels []*refLevel, mg *Multigrid, li int, x, b []float64) {
	l := levels[li]
	if li == len(levels)-1 {
		mg.chol.solve(x, b)
		return
	}
	copy(x, b)
	refLineSolve(x, l.invD, l.lineC, l.nc, l.layers)
	for i := range x {
		x[i] *= mgOmega
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
	l.a.mul(l.res, x)
	for i := range l.res {
		l.res[i] = b[i] - l.res[i]
	}
	refLineSolve(l.res, l.invD, l.lineC, l.nc, l.layers)
	for i := range x {
		x[i] += mgOmega * l.res[i]
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

// checkKernels compares every kernel of sys and of its hierarchy
// against the reference CSR ref.
func checkKernels(t *testing.T, sys *System, ref *refCSR) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	// The System's stencil reproduces the reference row by row.
	sameCSR(t, "system stencil", stencilCSR(sys.op), ref)
	x := randVec(rng, sys.N)
	got, want := make([]float64, sys.N), make([]float64, sys.N)
	sys.MatVec(got, x)
	ref.mul(want, x)
	sameVec(t, "System.MatVec", got, want)

	mg, err := sys.Multigrid()
	if err != nil {
		t.Fatal(err)
	}
	levels := refHierarchy(ref, mg)
	for li, l := range mg.levels {
		rl := levels[li]
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
	refVCycle(levels, mg, 0, wantZ, r)
	sameVec(t, "Apply", z, wantZ)
}

// assembleUnchecked is Assemble without Model.Validate, whose 2×2
// minimum would rule out one-cell-wide grids.
func assembleUnchecked(t *testing.T, m *Model) *System {
	t.Helper()
	sys, err := newStructure(m).assemble(m)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// forKernelSystems runs check on every system the stencil pins cover,
// with its reference CSR: square, odd, semicoarsened and
// one-cell-wide grids with and without lumped extras, assembled by
// Assemble, by Structure.Assemble and as the stepper's shifted copy,
// at GOMAXPROCS 1 and 2 (the parallel kernels split work
// differently).
func forKernelSystems(t *testing.T, check func(t *testing.T, sys *System, ref *refCSR)) {
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
					ref := refAssemble(sys.Model())
					t.Run("assemble", func(t *testing.T) { check(t, sys, ref) })

					if !oneWide {
						t.Run("structure", func(t *testing.T) {
							pert := perturbStack(g.nx, g.ny, extras)
							st, err := sys.Structure()
							if err != nil {
								t.Fatal(err)
							}
							ss, err := st.Assemble(pert)
							if err != nil {
								t.Fatal(err)
							}
							check(t, ss, refAssemble(pert))
						})
					}
					t.Run("shifted", func(t *testing.T) {
						stp, err := NewStepper(sys, 1e-3)
						if err != nil {
							t.Fatal(err)
						}
						shift := make([]float64, sys.N)
						for r, c := range sys.Capacity {
							shift[r] = c / stp.dt
						}
						check(t, stp.shifted, refShifted(ref, shift))
					})
				})
			}
		}
	}
}

// TestStencilKernelsMatchCSR pins the assembled stencil and every
// stencil kernel — the System and level matVecs and residuals,
// restriction, prolongation, the line solve and a whole V-cycle — to
// the CSR assembly and loops they replaced, with ==: each kernel sums
// every row in the CSR row's order, so solves, iteration counts and
// goldens cannot move.
func TestStencilKernelsMatchCSR(t *testing.T) { forKernelSystems(t, checkKernels) }

// TestICholStencilMatchesCSR pins the stencil-form IC(0) factor and
// its Apply to the CSR factor and sweeps they replaced, with ==, on
// every system forKernelSystems covers: every L entry, the inverse
// diagonal and the output of two applies. TestICholStencilMatchesCSRStream
// pins a whole co-simulation stream to it.
func TestICholStencilMatchesCSR(t *testing.T) {
	forKernelSystems(t, func(t *testing.T, sys *System, ref *refCSR) {
		ic, err := newIChol(sys.op)
		if err != nil {
			t.Fatal(err)
		}
		want, err := newCSRIChol(refStrictLower(ref))
		if err != nil {
			t.Fatal(err)
		}
		sameCSR(t, "IC(0) factor", icholCSR(ic), &refCSR{rows: sys.N, rowPtr: want.l.rowPtr, colIdx: want.l.colIdx, val: want.l.val})
		sameVec(t, "IC(0) inverse diagonal", ic.invD, want.invD)
		rng := rand.New(rand.NewSource(11))
		for k := 0; k < 2; k++ {
			r := randVec(rng, sys.N)
			got, wantZ := make([]float64, sys.N), make([]float64, sys.N)
			ic.Apply(got, r)
			want.Apply(wantZ, r)
			sameVec(t, "IC(0) Apply", got, wantZ)
		}
	})
}

// TestEverySystemHasStencil: every System the package builds carries
// its stencil with the diagonal aliasing Diag, and the stepper's
// shifted copy shares the system's couplings.
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
			if &s.op.diag[0] != &s.Diag[0] {
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
