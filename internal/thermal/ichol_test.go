package thermal

import (
	"math"
	"strings"
	"testing"
)

// column is a one-cell die/TIM/lid stack with a water film on the lid
// and 1 W in the die, assembled without Model.Validate, whose 2×2
// minimum rules out a 1×1 grid. withBoard adds a lumped board node,
// tied to the coolant, coupled to every layer.
func column(t *testing.T, withBoard bool) *System {
	m := &Model{
		Grid:     Grid{NX: 1, NY: 1, W: 1e-3, H: 1e-3},
		AmbientC: 25,
		Layers: []Layer{
			{Name: "die", Thickness: 0.5e-3, K: 150, VolHeatCap: 1.63e6, Power: []float64{1}},
			{Name: "tim", Thickness: 0.05e-3, K: 5, VolHeatCap: 2e6},
			{Name: "lid", Thickness: 2e-3, K: 390, VolHeatCap: 3.45e6, TopCoeff: 5e3},
		},
	}
	if withBoard {
		m.Extras = []Extra{{Name: "board", AmbientG: 1e-3, Cap: 0.5}}
		for l := range m.Layers {
			m.Couplings = append(m.Couplings, Coupling{ExtraA: 0, ExtraB: -1, Layer: l, G: 0.01})
		}
	}
	return assembleUnchecked(t, m)
}

// TestICholExactWithoutFill checks that where elimination creates no
// fill, so zero fill drops nothing, IC(0) is the exact Cholesky factor:
// the preconditioner inverts the shifted operator and CG needs at most
// one iteration. A one-cell column alone is tridiagonal. Adding a
// lumped board node coupled to every layer, as the extras couple to a
// whole layer, makes each node's later neighbours adjacent, so the
// factor stays exact only if the row update subtracts L[i][j]·L[k][j].
func TestICholExactWithoutFill(t *testing.T) {
	for _, tc := range []struct {
		name  string
		board bool
	}{{"tridiagonal column", false}, {"column with board", true}} {
		st, err := NewStepper(column(t, tc.board), 0.01)
		if err != nil {
			t.Fatal(err)
		}
		x := []float64{1, -2, 3, -4}[:st.sys.N]
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
			st.shifted.Q[i] = st.sys.Q[i] + st.sys.Capacity[i]/st.dt*st.T[i]
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
// is not positive definite, a two-layer column [[1, −2], [−2, 1]] with
// no capacity: the second pivot is 1 − 4 < 0 and NewStepper must name
// node 1.
func TestICholRejectsNonPositivePivot(t *testing.T) {
	op := newStencil(1, 1, 2, 2, false)
	op.diag[0], op.diag[1] = 1, 1
	op.up[0] = -2
	sys := &System{N: 2, Diag: op.diag, Capacity: make([]float64, 2), model: &Model{AmbientC: 25}, op: op}
	_, err := NewStepper(sys, 0.01)
	if err == nil {
		t.Fatal("expected an error for a non-positive pivot")
	}
	if !strings.Contains(err.Error(), "node 1") {
		t.Errorf("error does not name the node: %v", err)
	}
}
