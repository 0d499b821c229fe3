package thermal

import (
	"math"
	"strings"
	"testing"
)

// denseSystem hand-builds a CSR system from a small dense symmetric
// matrix, diagonal first in every row as Assemble stores it.
func denseSystem(a [][]float64, q, capacity []float64) *System {
	n := len(a)
	sys := &System{
		N: n, RowPtr: make([]int32, n+1), Diag: make([]float64, n),
		Q: q, Capacity: capacity, model: &Model{AmbientC: 25},
	}
	for r := range a {
		sys.Diag[r] = a[r][r]
		sys.ColIdx = append(sys.ColIdx, int32(r))
		sys.Val = append(sys.Val, a[r][r])
		for c, v := range a[r] {
			if c != r && v != 0 {
				sys.ColIdx = append(sys.ColIdx, int32(c))
				sys.Val = append(sys.Val, v)
			}
		}
		sys.RowPtr[r+1] = int32(len(sys.ColIdx))
	}
	return sys
}

// TestICholExactWithoutFill checks that where elimination creates no
// fill, so zero fill drops nothing, IC(0) is the exact Cholesky factor:
// the preconditioner inverts the shifted operator and CG needs at most
// one iteration. The column is a die/TIM/lid stack (vertical
// conductances in W/K, a film on the lid), built by hand because
// Grid.Validate rejects a 1×1 grid; alone it is tridiagonal. Adding a
// lumped board node coupled to every layer, as the extras couple to a
// whole layer, makes each node's later neighbours adjacent, so the
// factor stays exact only if the row update subtracts L[i][j]·L[k][j].
func TestICholExactWithoutFill(t *testing.T) {
	const gDieTim, gTimLid, gFilm, gBoard = 7.2, 7.5, 0.08, 0.3
	for _, tc := range []struct {
		name string
		a    [][]float64
		q    []float64
		c    []float64
	}{
		{"tridiagonal column", [][]float64{
			{gDieTim, -gDieTim, 0},
			{-gDieTim, gDieTim + gTimLid, -gTimLid},
			{0, -gTimLid, gTimLid + gFilm},
		}, []float64{20, 0, gFilm * 25}, []float64{0.05, 0.01, 0.7}},
		{"column with board", [][]float64{
			{gDieTim + gBoard, -gDieTim, 0, -gBoard},
			{-gDieTim, gDieTim + gTimLid + gBoard, -gTimLid, -gBoard},
			{0, -gTimLid, gTimLid + gFilm + gBoard, -gBoard},
			{-gBoard, -gBoard, -gBoard, 3*gBoard + gFilm},
		}, []float64{20, 0, gFilm * 25, gFilm * 25}, []float64{0.05, 0.01, 0.7, 2}},
	} {
		st, err := NewStepper(denseSystem(tc.a, tc.q, tc.c), 0.01)
		if err != nil {
			t.Fatal(err)
		}
		x := []float64{1, -2, 3, -4}[:len(tc.a)]
		ax := make([]float64, len(x))
		st.shifted.MatVec(ax, x)
		z := make([]float64, len(x))
		st.prec.Apply(z, ax)
		for i := range x {
			if math.Abs(z[i]-x[i]) > 1e-12*math.Abs(x[i]) {
				t.Fatalf("%s: (L·Lᵀ)⁻¹·A·x differs from x at node %d: %v vs %v", tc.name, i, z[i], x[i])
			}
		}

		for i := range st.shifted.Q {
			st.shifted.Q[i] = tc.q[i] + tc.c[i]/st.dt*st.T[i]
		}
		var stats SolveStats
		if _, err := st.shifted.SolveSteady(SolveOptions{Tol: 1e-12, Precond: st.prec, Stats: &stats}); err != nil {
			t.Fatal(err)
		}
		if stats.Iterations > 1 || stats.Preconditioner != "ichol" {
			t.Errorf("%s: exact factor took %d %s iterations, want ≤1 ichol", tc.name, stats.Iterations, stats.Preconditioner)
		}
	}
}

// TestICholRejectsNonPositivePivot hand-builds a symmetric system that
// is not positive definite, [[1, −2], [−2, 1]] with no capacity: the
// second pivot is 1 − 4 < 0 and NewStepper must name node 1.
func TestICholRejectsNonPositivePivot(t *testing.T) {
	sys := denseSystem([][]float64{{1, -2}, {-2, 1}}, make([]float64, 2), make([]float64, 2))
	_, err := NewStepper(sys, 0.01)
	if err == nil {
		t.Fatal("expected an error for a non-positive pivot")
	}
	if !strings.Contains(err.Error(), "node 1") {
		t.Errorf("error does not name the node: %v", err)
	}
}
