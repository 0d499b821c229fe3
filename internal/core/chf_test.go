package core

import (
	"context"
	"math"
	"reflect"
	"testing"

	"waterimm/internal/material"
	"waterimm/internal/power"
	"waterimm/internal/stack"
	"waterimm/internal/thermal"
)

// TestPeakPowerDensityHotspot pins the generation-side hotspot check:
// deterministic, above the uniform average (the floorplan concentrates
// power in cores), and linear in the planner's dynamic/static scales.
func TestPeakPowerDensityHotspot(t *testing.T) {
	p := NewPlanner()
	chip := power.LowPower
	top := chip.Steps()[len(chip.Steps())-1]

	d1, err := p.PeakPowerDensity(chip, top.FHz)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := p.PeakPowerDensity(chip, top.FHz)
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Fatalf("hotspot density not deterministic: %v vs %v", d1, d2)
	}
	if d1 <= 0 {
		t.Fatalf("non-positive hotspot density %v", d1)
	}

	// The hotspot must beat the chip-average density (power is not
	// uniform) but stay within a small multiple of it.
	avg := top.TotalW() / (169e-6) // low-power die is 13×13 mm
	if d1 <= avg {
		t.Errorf("hotspot density %.3e not above chip average %.3e", d1, avg)
	}
	if d1 > 10*avg {
		t.Errorf("hotspot density %.3e implausibly high vs average %.3e", d1, avg)
	}

	// Linear in the power scales: doubling both doubles the density.
	ps := NewPlanner()
	ps.DynScale, ps.StatScale = 2, 2
	dScaled, err := ps.PeakPowerDensity(chip, top.FHz)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dScaled-2*d1) > 1e-9*d1 {
		t.Errorf("scaled density %.6e, want 2× nominal %.6e", dScaled, 2*d1)
	}

	// A slower step generates less flux.
	slow := chip.Steps()[0]
	dSlow, err := p.PeakPowerDensity(chip, slow.FHz)
	if err != nil {
		t.Fatal(err)
	}
	if dSlow >= d1 {
		t.Errorf("slowest-step density %.3e not below top-step %.3e", dSlow, d1)
	}
}

// TestTwoPhasePeakMatchesSinglePhaseBelowCHF: at stock film
// coefficients the solver-side boundary flux sits far below every
// coolant's CHF, so the two-phase solve must collapse nothing and
// agree with the plain cold solve.
func TestTwoPhasePeakMatchesSinglePhaseBelowCHF(t *testing.T) {
	p := NewPlanner()
	p.Params.GridNX, p.Params.GridNY = 16, 16
	chip := power.LowPower
	top := chip.Steps()[len(chip.Steps())-1]

	out, err := p.TwoPhasePeak(context.Background(), chip, 1, material.Fluorinert, top.FHz)
	if err != nil {
		t.Fatal(err)
	}
	if out.FilmBoilingCells != 0 || out.Violations != 0 {
		t.Fatalf("stock fluorinert stack crossed CHF: %+v", out)
	}

	// The same configuration through a session solve (non-converging
	// leakage, same policy temperature) lands on the same peak.
	s, err := p.NewSession(chip, 1, material.Fluorinert)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := s.Solve(context.Background(), top.FHz)
	if err != nil {
		t.Fatal(err)
	}
	if diff := math.Abs(res.Max() - out.PeakC); diff > 1e-3 {
		t.Errorf("two-phase peak %.4f °C differs from single-phase %.4f °C by %.4g",
			out.PeakC, res.Max(), diff)
	}
}

// TestTwoPhasePeakDegradesPastCHF: shrinking the CHF limit far below
// the operating flux must push boundary cells into film boiling and
// heat the field above the single-phase solve — the physical
// infeasibility signal.
func TestTwoPhasePeakDegradesPastCHF(t *testing.T) {
	p := NewPlanner()
	p.Params.GridNX, p.Params.GridNY = 16, 16
	chip := power.LowPower
	top := chip.Steps()[len(chip.Steps())-1]

	baseline, err := p.TwoPhasePeak(context.Background(), chip, 1, material.Fluorinert, top.FHz)
	if err != nil {
		t.Fatal(err)
	}

	p.Params.CHFScale = 1e-4 // limit ≈ 14 W/m²: everything boils
	out, err := p.TwoPhasePeak(context.Background(), chip, 1, material.Fluorinert, top.FHz)
	if err != nil {
		t.Fatal(err)
	}
	if out.FilmBoilingCells == 0 {
		t.Fatal("no film boiling despite CHF far below operating flux")
	}
	if out.PeakC <= baseline.PeakC {
		t.Errorf("film-boiling peak %.2f °C not above single-phase %.2f °C",
			out.PeakC, baseline.PeakC)
	}
}

// TestTwoPhasePeakReportsEverySolve: each film-boiling pass of a
// two-phase re-solve is a planner solve, so OnSolve must see one
// report per pass, with the pass's own stats — the same passes an
// independent thermal.SolveTwoPhase of the same model runs.
func TestTwoPhasePeakReportsEverySolve(t *testing.T) {
	p := NewPlanner()
	p.Params.GridNX, p.Params.GridNY = 16, 16
	p.Params.CHFScale = 1e-4
	chip := power.LowPower
	top := chip.Steps()[len(chip.Steps())-1]
	var got []thermal.SolveStats
	p.OnSolve = func(st thermal.SolveStats) { got = append(got, st) }

	out, err := p.TwoPhasePeak(context.Background(), chip, 1, material.Fluorinert, top.FHz)
	if err != nil {
		t.Fatal(err)
	}
	if out.FilmBoilingCells == 0 {
		t.Fatal("no film boiling despite CHF far below operating flux")
	}
	m, err := p.modelAt(chip, 1, material.Fluorinert, top, p.leakTemp(chip))
	if err != nil {
		t.Fatal(err)
	}
	_, want, err := thermal.SolveTwoPhase(m, thermal.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Passes) < 2 {
		t.Fatalf("independent two-phase solve ran %d passes, want a re-solve", len(want.Passes))
	}
	if !reflect.DeepEqual(got, want.Passes) {
		t.Errorf("OnSolve saw %v, want one report per pass %v", got, want.Passes)
	}
}

// TestGeomCacheCarriesNoCHFLimits: planners with different CHF scales
// share one geometry's cached structure and nominal reference, which
// must carry no boiling limits — each planner reports the same CHF
// verdicts as it does with no cache at all.
func TestGeomCacheCarriesNoCHFLimits(t *testing.T) {
	ctx := context.Background()
	chip := power.LowPower
	top := chip.Steps()[len(chip.Steps())-1]
	type outcome struct {
		plan       Plan
		violations int
		twoPhase   TwoPhaseOutcome
	}
	run := func(scale float64, g *GeomCache) (*Planner, outcome) {
		p := NewPlanner()
		p.Params.GridNX, p.Params.GridNY = 16, 16
		p.Params.CHFScale = scale
		p.Geoms = g
		if err := p.EnsureGeomRef(ctx, chip, 1, material.Fluorinert); err != nil {
			t.Fatal(err)
		}
		// Perturbed sessions borrow the reference's basis too.
		p.Perturbed = true
		plan, res, _, err := p.MaxFrequencyEvalCtx(ctx, chip, 1, material.Fluorinert, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res == nil {
			t.Fatalf("CHF scale %g: infeasible plan, no field to check", scale)
		}
		two, err := p.TwoPhasePeak(ctx, chip, 1, material.Fluorinert, top.FHz)
		if err != nil {
			t.Fatal(err)
		}
		two.Result = nil
		return p, outcome{plan, res.CHFViolations(), *two}
	}

	g := NewGeomCache(4)
	var pinned []*geomRef
	for _, scale := range []float64{1, 0.01} {
		p, shared := run(scale, g)
		_, alone := run(scale, nil)
		pinned = append(pinned, p.pinned)
		if shared.plan.Step != alone.plan.Step || shared.violations != alone.violations {
			t.Errorf("CHF scale %g: shared cache gives step %v with %d violations, no cache %v with %d",
				scale, shared.plan.Step, shared.violations, alone.plan.Step, alone.violations)
		}
		if d := math.Abs(shared.plan.PeakC - alone.plan.PeakC); d > 1e-4 {
			t.Errorf("CHF scale %g: peaks differ by %.2e C", scale, d)
		}
		if shared.twoPhase != alone.twoPhase {
			t.Errorf("CHF scale %g: two-phase outcome %+v with shared cache, %+v without",
				scale, shared.twoPhase, alone.twoPhase)
		}
		if scale == 1 && shared.violations != 0 {
			t.Errorf("stock CHF limits violated in %d cells", shared.violations)
		}
		if scale < 1 && shared.violations == 0 {
			t.Error("CHF scale 0.01 reported no violations; this test would prove nothing")
		}
	}
	if st := g.Stats(); st.Geometries != 1 || pinned[0] == nil || pinned[0] != pinned[1] {
		t.Fatalf("the two planners did not share one geometry reference: %+v", st)
	}

	scaled := NewPlanner()
	scaled.Params.CHFScale = 0.01
	if _, err := stack.Build(stack.Config{Params: scaled.Params, Coolant: material.Water, Dies: nil}); err == nil {
		t.Error("expected error for empty dies")
	}
}
