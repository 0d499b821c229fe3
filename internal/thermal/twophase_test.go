package thermal

import (
	"math"
	"testing"
)

// boilModel builds a minimal two-layer slab with a uniformly heated
// bottom layer and a convective top face, sized so the top-face flux
// is easy to reason about: totalW spread over 1 cm².
func boilModel(totalW float64) *Model {
	const nx, ny = 8, 8
	power := make([]float64, nx*ny)
	for i := range power {
		power[i] = totalW / float64(nx*ny)
	}
	return &Model{
		Grid:     Grid{NX: nx, NY: ny, W: 0.01, H: 0.01},
		AmbientC: 25,
		Layers: []Layer{
			{Name: "die", Thickness: 0.5e-3, K: 120, VolHeatCap: 1.6e6, Power: power},
			{Name: "lid", Thickness: 1e-3, K: 380, VolHeatCap: 3.4e6, TopCoeff: 800},
		},
	}
}

// TestSolveTwoPhaseDegradesH is the film-boiling regression: with a
// CHF limit set below the operating flux, SolveTwoPhase must collapse
// cells into film boiling and the resulting field must be hotter than
// the single-phase solve of the pristine model — degraded h is
// physical, not cosmetic.
func TestSolveTwoPhaseDegradesH(t *testing.T) {
	// 40 W over 1 cm² leaving through h=800 ⇒ top-face flux ≈
	// 4e5 W/m² at ΔT ≈ 500 K. A 1e5 W/m² limit is far below that.
	base := boilModel(40)
	single, err := Solve(base, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}

	m := boilModel(40)
	m.Layers[1].CHFLimit = 1e5
	m.Layers[1].FilmBoilCollapse = 10
	res, stats, err := SolveTwoPhase(m, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.FilmBoilingCells == 0 {
		t.Fatal("no cells collapsed into film boiling despite flux far above CHF")
	}
	if len(stats.Passes) < 2 {
		t.Errorf("expected at least one re-solve, got %d iterations", len(stats.Passes))
	}
	if res.Max() <= single.Max() {
		t.Errorf("film-boiling field (%.1f °C) not hotter than single-phase baseline (%.1f °C)",
			res.Max(), single.Max())
	}
	// The blanket divides h by 10; the steady field must still carry
	// the same total power out, so the collapsed cells' superheat
	// rises roughly tenfold.
	if res.Max() < 5*single.Max() {
		t.Errorf("collapse too weak: %.1f °C vs single-phase %.1f °C", res.Max(), single.Max())
	}
}

// TestSolveTwoPhaseNoLimitIsSinglePhase pins that a model without CHF
// limits solves bit-identically through SolveTwoPhase — the two-phase
// path is a strict superset, not a different solver.
func TestSolveTwoPhaseNoLimitIsSinglePhase(t *testing.T) {
	single, err := Solve(boilModel(40), SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, stats, err := SolveTwoPhase(boilModel(40), SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.FilmBoilingCells != 0 || stats.Violations != 0 || len(stats.Passes) != 1 {
		t.Fatalf("unexpected two-phase activity: %+v", stats)
	}
	for i := range res.T {
		if res.T[i] != single.T[i] {
			t.Fatalf("field differs at node %d: %v vs %v", i, res.T[i], single.T[i])
		}
	}
}

// TestSolveTwoPhaseBelowCHFUntouched: a generous limit leaves the
// model single-phase and FilmScale unallocated.
func TestSolveTwoPhaseBelowCHFUntouched(t *testing.T) {
	m := boilModel(1) // ~1e4 W/m² top-face flux at ΔT≈12 K: tiny
	m.Layers[1].CHFLimit = 1.1e6
	res, stats, err := SolveTwoPhase(m, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.FilmBoilingCells != 0 || res.CHFViolations() != 0 {
		t.Fatalf("sub-CHF model entered film boiling: %+v", stats)
	}
	if m.Layers[1].FilmScale != nil {
		t.Error("FilmScale allocated on a sub-CHF model")
	}
}

func TestCHFViolationsCountsAndIsNonMutating(t *testing.T) {
	m := boilModel(40)
	m.Layers[1].CHFLimit = 1e5
	res, err := Solve(m, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	n := res.CHFViolations()
	if n == 0 {
		t.Fatal("no violations counted despite flux above CHF")
	}
	if n > m.Grid.Cells() {
		t.Fatalf("violation count %d exceeds cell count", n)
	}
	if m.Layers[1].FilmScale != nil {
		t.Error("CHFViolations mutated the model")
	}
	if again := res.CHFViolations(); again != n {
		t.Errorf("scan not idempotent: %d then %d", n, again)
	}
}

func TestFilmScaleValidate(t *testing.T) {
	m := boilModel(1)
	m.Layers[1].FilmScale = []float64{1, 1} // wrong length
	if err := m.Validate(); err == nil {
		t.Error("short FilmScale passed Validate")
	}
	m.Layers[1].FilmScale = make([]float64, m.Grid.Cells())
	for i := range m.Layers[1].FilmScale {
		m.Layers[1].FilmScale[i] = 1
	}
	m.Layers[1].FilmScale[3] = 0 // zero would flip the tape's sign invariant
	if err := m.Validate(); err == nil {
		t.Error("zero film scale passed Validate")
	}
	m.Layers[1].FilmScale[3] = math.NaN()
	if err := m.Validate(); err == nil {
		t.Error("NaN film scale passed Validate")
	}
	m.Layers[1].FilmScale[3] = 0.1
	if err := m.Validate(); err != nil {
		t.Errorf("valid FilmScale rejected: %v", err)
	}
}

// TestFilmScaleStructuralTapeCompatible: a model whose film scales
// change value (but never sign) must replay through a structural tape
// recorded from the unscaled topology — the Monte-Carlo fast path and
// the two-phase regime share the assembly walk.
func TestFilmScaleStructuralTapeCompatible(t *testing.T) {
	m := boilModel(40)
	nominal, err := Assemble(m)
	if err != nil {
		t.Fatal(err)
	}
	st, err := nominal.Structure()
	if err != nil {
		t.Fatal(err)
	}
	scaled := boilModel(40)
	scaled.Layers[1].FilmScale = make([]float64, scaled.Grid.Cells())
	for i := range scaled.Layers[1].FilmScale {
		scaled.Layers[1].FilmScale[i] = 1
	}
	scaled.Layers[1].FilmScale[5] = 0.1
	sys, err := st.Assemble(scaled)
	if err != nil {
		t.Fatalf("tape replay over film-scaled model: %v", err)
	}
	ref, err := Assemble(scaled)
	if err != nil {
		t.Fatal(err)
	}
	if len(sys.op.xVal) != len(ref.op.xVal) {
		t.Fatalf("tape and full assembly disagree on the extras' nnz: %d vs %d", len(sys.op.xVal), len(ref.op.xVal))
	}
	for i := range sys.Diag {
		if math.Abs(sys.Diag[i]-ref.Diag[i]) > 1e-12*math.Abs(ref.Diag[i]) {
			t.Fatalf("diag mismatch at %d: %v vs %v", i, sys.Diag[i], ref.Diag[i])
		}
	}
}
