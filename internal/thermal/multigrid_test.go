package thermal

import (
	"context"
	"math"
	"testing"
)

// mgStack builds a 4-layer stack (die/TIM/spreader/lid) with a
// hotspot-heavy power map; withExtras adds a board node coupled to the
// die layer and a periphery node on the spreader edge — the lumped
// topology the heatsink path uses.
func mgStack(nx, ny int, withExtras bool) *Model {
	g := Grid{NX: nx, NY: ny, W: 0.02, H: 0.02}
	p := make([]float64, g.Cells())
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			p[j*nx+i] = 40.0 / float64(g.Cells())
			if i < nx/4 && j < ny/4 {
				p[j*nx+i] *= 8 // hotspot in one corner
			}
		}
	}
	m := &Model{
		Grid:     g,
		AmbientC: 25,
		Layers: []Layer{
			{Name: "die", Thickness: 0.3e-3, K: 120, VolHeatCap: 1.75e6, Power: p},
			{Name: "tim", Thickness: 50e-6, K: 4, VolHeatCap: 2e6},
			{Name: "spreader", Thickness: 1e-3, K: 390, VolHeatCap: 3.4e6},
			{Name: "lid", Thickness: 2e-3, K: 200, VolHeatCap: 3.4e6, TopCoeff: 800},
		},
	}
	if withExtras {
		m.Extras = []Extra{
			{Name: "board", AmbientG: 0.8, Cap: 50},
			{Name: "periphery", AmbientG: 0.3, Cap: 10},
		}
		m.Couplings = []Coupling{
			{ExtraA: 0, ExtraB: -1, Layer: 0, G: 2.0},
			{ExtraA: 1, ExtraB: -1, Layer: 2, G: 1.5, EdgeOnly: true},
			{ExtraA: 0, ExtraB: 1, G: 0.2},
		}
	}
	return m
}

// solveWith assembles the model and solves it with the named
// preconditioner, returning the field and the iteration count.
func solveWith(t *testing.T, m *Model, kind string) ([]float64, SolveStats) {
	t.Helper()
	sys, err := Assemble(m)
	if err != nil {
		t.Fatal(err)
	}
	prec, err := sys.SelectPreconditioner(kind)
	if err != nil {
		t.Fatal(err)
	}
	var stats SolveStats
	x, err := sys.SolveSteady(SolveOptions{Tol: 1e-8, Precond: prec, Stats: &stats})
	if err != nil {
		t.Fatalf("%s solve: %v", kind, err)
	}
	return x, stats
}

// TestMultigridMatchesJacobi checks the acceptance contract: the MG
// and Jacobi paths must agree within solver tolerance — the
// preconditioner changes the iteration, never the answer. The inputs
// cover plain and lumped-extras stacks, a value-perturbed stack (the
// Monte-Carlo sample shape) and a skewed grid that semicoarsens.
func TestMultigridMatchesJacobi(t *testing.T) {
	for _, tc := range []struct {
		name  string
		model func() *Model
	}{
		{"plain", func() *Model { return mgStack(32, 32, false) }},
		{"extras", func() *Model { return mgStack(32, 32, true) }},
		{"perturbed", func() *Model { return perturbStack(48, 48, true) }},
		{"skewed", func() *Model { return mgStack(8, 96, true) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			xj, sj := solveWith(t, tc.model(), PrecondJacobi)
			xm, sm := solveWith(t, tc.model(), PrecondMG)
			if sj.Preconditioner != PrecondJacobi || sm.Preconditioner != PrecondMG {
				t.Fatalf("stats report %q / %q", sj.Preconditioner, sm.Preconditioner)
			}
			ambient := tc.model().AmbientC
			var maxDiff, maxRise float64
			for i := range xj {
				maxDiff = math.Max(maxDiff, math.Abs(xj[i]-xm[i]))
				maxRise = math.Max(maxRise, xj[i]-ambient)
			}
			if maxDiff > 1e-4*maxRise {
				t.Errorf("fields differ by %.3e (max rise %.3f)", maxDiff, maxRise)
			}
			if sm.Iterations >= sj.Iterations {
				t.Errorf("MG took %d iterations, Jacobi %d — no preconditioning win",
					sm.Iterations, sj.Iterations)
			}
			t.Logf("jacobi %d iters, mg %d iters, maxdiff %.2e", sj.Iterations, sm.Iterations, maxDiff)
		})
	}
}

// TestMultigridIterationGrowth verifies near-grid-independence: the MG
// iteration count must stay within 2× as the in-plane grid refines
// 32 → 64 → 128 per axis (Jacobi roughly doubles per refinement).
func TestMultigridIterationGrowth(t *testing.T) {
	var iters []int
	for _, n := range []int{32, 64, 128} {
		_, stats := solveWith(t, mgStack(n, n, true), PrecondMG)
		iters = append(iters, stats.Iterations)
		t.Logf("%dx%d: %d MG iterations", n, n, stats.Iterations)
	}
	for i := 1; i < len(iters); i++ {
		if iters[i] > 2*iters[0] {
			t.Errorf("iterations grew from %d to %d across refinement — not grid-independent", iters[0], iters[i])
		}
	}
}

// TestMultigridHierarchyCached checks the hierarchy is built once per
// system and reused across solves.
func TestMultigridHierarchyCached(t *testing.T) {
	sys, err := Assemble(mgStack(32, 32, true))
	if err != nil {
		t.Fatal(err)
	}
	mg1, err := sys.Multigrid()
	if err != nil {
		t.Fatal(err)
	}
	mg2, err := sys.Multigrid()
	if err != nil {
		t.Fatal(err)
	}
	if mg1 != mg2 {
		t.Error("Multigrid() rebuilt the hierarchy instead of reusing it")
	}
	if mg1.Levels() < 3 {
		t.Errorf("expected a real hierarchy for 32x32, got %d levels", mg1.Levels())
	}
}

// TestMultigridSemicoarsening exercises a skewed grid where only one
// in-plane dimension is coarsenable.
func TestMultigridSemicoarsening(t *testing.T) {
	m := mgStack(4, 64, false)
	xj, _ := solveWith(t, m, PrecondJacobi)
	xm, _ := solveWith(t, mgStack(4, 64, false), PrecondMG)
	for i := range xj {
		if math.Abs(xj[i]-xm[i]) > 1e-4*(1+xj[i]-25) {
			t.Fatalf("node %d: jacobi %.6f vs mg %.6f", i, xj[i], xm[i])
		}
	}
}

// TestSelectPreconditioner covers the kind dispatch: auto picks
// Jacobi below the threshold and MG above it, and unknown kinds fail.
func TestSelectPreconditioner(t *testing.T) {
	small, err := Assemble(mgStack(16, 16, false))
	if err != nil {
		t.Fatal(err)
	}
	if p, err := small.SelectPreconditioner(PrecondAuto); err != nil || p != nil {
		t.Errorf("auto on a small grid: got %v, %v; want Jacobi (nil)", p, err)
	}
	if p, err := small.SelectPreconditioner(PrecondJacobi); err != nil || p != nil {
		t.Errorf("jacobi: got %v, %v", p, err)
	}
	if p, err := small.SelectPreconditioner(PrecondMG); err != nil || p == nil {
		t.Errorf("mg: got %v, %v", p, err)
	}
	big, err := Assemble(mgStack(128, 128, false))
	if err != nil {
		t.Fatal(err)
	}
	if p, err := big.SelectPreconditioner(""); err != nil || p == nil {
		t.Errorf("auto on a large grid: got %v, %v; want multigrid", p, err)
	}
	if _, err := small.SelectPreconditioner("ilu"); err == nil {
		t.Error("unknown preconditioner kind accepted")
	}
}

// TestMultigridTransientCompatible makes sure hoisted invDiag plays
// well with the transient stepper's hand-built shifted system.
func TestMultigridTransientCompatible(t *testing.T) {
	sys, err := Assemble(mgStack(16, 16, true))
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStepper(sys, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Run(context.Background(), 3); err != nil {
		t.Fatal(err)
	}
}

// TestCoarseOperatorIsRediscretization pins the coarse operators to
// physics: on a uniform stack, level 1 of a 32×32 hierarchy is the
// matrix Assemble builds for the same stack at 16×16 — same pattern,
// bit-equal couplings, diagonals equal to rounding. On every level of
// every hierarchy (lumped extras, odd and semicoarsened dimensions)
// each coarse row has at most seven entries, the operator is exactly
// symmetric, and a coarse row sums to its children's fine row sums
// over grid columns, so no coupling to ambient is gained or lost.
func TestCoarseOperatorIsRediscretization(t *testing.T) {
	fine, err := Assemble(mgStack(32, 32, false))
	if err != nil {
		t.Fatal(err)
	}
	mg, err := fine.Multigrid()
	if err != nil {
		t.Fatal(err)
	}
	coarse, err := Assemble(mgStack(16, 16, false))
	if err != nil {
		t.Fatal(err)
	}
	l1 := stencilCSR(mg.levels[1].op)
	asm := stencilCSR(coarse.op)
	if l1.rows != coarse.N {
		t.Fatalf("level 1 has %d nodes, the 16×16 assembly %d", l1.rows, coarse.N)
	}
	for r := 0; r < coarse.N; r++ {
		got := rowMap(l1.rowPtr, l1.colIdx, l1.val, r)
		want := rowMap(asm.rowPtr, asm.colIdx, asm.val, r)
		if len(got) != len(want) {
			t.Fatalf("row %d: %d entries, assembly has %d", r, len(got), len(want))
		}
		for c, w := range want {
			g, ok := got[c]
			switch {
			case !ok:
				t.Fatalf("row %d: column %d missing", r, c)
			case c == r && math.Abs(g-w) > 1e-14*w:
				t.Fatalf("row %d: diagonal %.17g, assembly %.17g", r, g, w)
			case c != r && g != w:
				t.Fatalf("row %d col %d: %.17g, assembly %.17g", r, c, g, w)
			}
		}
	}

	for _, tc := range []struct {
		name   string
		nx, ny int
	}{{"square", 32, 32}, {"odd", 20, 13}, {"skewed", 8, 96}} {
		t.Run(tc.name, func(t *testing.T) {
			sys, err := Assemble(mgStack(tc.nx, tc.ny, true))
			if err != nil {
				t.Fatal(err)
			}
			mg, err := sys.Multigrid()
			if err != nil {
				t.Fatal(err)
			}
			if mg.Levels() < 3 {
				t.Fatalf("only %d levels", mg.Levels())
			}
			for li := 1; li < mg.Levels(); li++ {
				checkCoarseLevel(t, li, mg.levels[li-1], mg.levels[li])
			}
		})
	}
}

// rowMap returns row r of a CSR matrix keyed by column.
func rowMap(rowPtr, colIdx []int32, val []float64, r int) map[int]float64 {
	m := make(map[int]float64)
	for k := rowPtr[r]; k < rowPtr[r+1]; k++ {
		m[int(colIdx[k])] += val[k]
	}
	return m
}

// checkCoarseLevel asserts the seven-point, symmetry and row-sum
// invariants of level li (c) against the level below it (f).
func checkCoarseLevel(t *testing.T, li int, fl, cl *mgLevel) {
	t.Helper()
	fnc, nc := fl.nx*fl.ny, cl.nx*cl.ny
	fgrid := fl.layers * fnc
	f, c := stencilCSR(fl.op), stencilCSR(cl.op)
	// Children per coarse cell along each axis.
	sx, sy := 1, 1
	if fl.nx != cl.nx {
		sx = 2
	}
	if fl.ny != cl.ny {
		sy = 2
	}
	for r := 0; r < c.rows; r++ {
		if cnt := c.rowPtr[r+1] - c.rowPtr[r]; cnt > 7 {
			t.Fatalf("level %d row %d: %d entries", li, r, cnt)
		}
		if int(c.colIdx[c.rowPtr[r]]) != r {
			t.Fatalf("level %d row %d: diagonal not stored first", li, r)
		}
		var sum float64
		for k := c.rowPtr[r]; k < c.rowPtr[r+1]; k++ {
			sum += c.val[k]
			col := int(c.colIdx[k])
			if back := rowMap(c.rowPtr, c.colIdx, c.val, col)[r]; back != c.val[k] {
				t.Fatalf("level %d: A[%d,%d] = %g but A[%d,%d] = %g", li, r, col, c.val[k], col, r, back)
			}
		}
		// The children's fine row sums over grid columns, and the
		// magnitude the rounding error scales with.
		lay, cj, ci := r/nc, r%nc/cl.nx, r%cl.nx
		var want, scale float64
		for j := cj * sy; j < min(cj*sy+sy, fl.ny); j++ {
			for i := ci * sx; i < min(ci*sx+sx, fl.nx); i++ {
				fr := lay*fnc + j*fl.nx + i
				for k := f.rowPtr[fr]; k < f.rowPtr[fr+1]; k++ {
					if int(f.colIdx[k]) < fgrid {
						want += f.val[k]
						scale += math.Abs(f.val[k])
					}
				}
			}
		}
		if math.Abs(sum-want) > 1e-13*scale {
			t.Fatalf("level %d row %d: row sum %.17g, children's %.17g", li, r, sum, want)
		}
	}
}
