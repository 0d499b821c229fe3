package core

import (
	"context"
	"math"
	"reflect"
	"testing"

	"waterimm/internal/material"
	"waterimm/internal/power"
	"waterimm/internal/thermal"
)

// The power scales must act identically on the warm (session basis)
// and cold (per-solve rebuild) paths, and scaling power up must heat
// the stack.
func TestPowerScalesConsistentAcrossPaths(t *testing.T) {
	peak := func(cold bool, dyn, stat float64) float64 {
		p := fastPlanner()
		p.ColdStart = cold
		p.DynScale, p.StatScale = dyn, stat
		v, err := p.PeakAt(StackSpec{Chip: power.LowPower, Chips: 2, Coolant: material.Water, FHz: 1.5e9})
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	nominal := peak(false, 0, 0)
	explicit := peak(false, 1, 1)
	if math.Abs(nominal-explicit) > 1e-9 {
		t.Errorf("explicit nominal scales moved the peak: %.6f vs %.6f", nominal, explicit)
	}
	scaledWarm := peak(false, 1.5, 1.2)
	scaledCold := peak(true, 1.5, 1.2)
	if scaledWarm <= nominal {
		t.Errorf("scaling power up did not heat the stack: %.3f <= %.3f", scaledWarm, nominal)
	}
	// Warm and cold solves converge to the same tolerance targets.
	if math.Abs(scaledWarm-scaledCold) > 0.1 {
		t.Errorf("warm/cold divergence under scales: %.4f vs %.4f", scaledWarm, scaledCold)
	}
}

// The basis superposition must stay exact under scales: a primed
// session probing many steps agrees with one-shot solves.
func TestScaledSessionMatchesOneShot(t *testing.T) {
	p := fastPlanner()
	p.DynScale, p.StatScale = 0.7, 1.3
	s, err := p.NewSession(power.LowPower, 2, material.Water)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Prime(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, f := range []float64{1.2e9, 1.6e9, 2.0e9} {
		warm, err := s.Peak(context.Background(), f)
		if err != nil {
			t.Fatal(err)
		}
		oneShot, err := p.PeakAt(StackSpec{Chip: power.LowPower, Chips: 2, Coolant: material.Water, FHz: f})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(warm-oneShot) > 0.1 {
			t.Errorf("%.1f GHz: primed %.4f vs one-shot %.4f", f/1e9, warm, oneShot)
		}
	}
}

func TestMaxFrequencyEvalCtx(t *testing.T) {
	p := fastPlanner()
	ctx := context.Background()
	steps := power.LowPower.Steps()
	evalFHz := steps[len(steps)-1].FHz

	plan, res, evalPeak, err := p.MaxFrequencyEvalCtx(ctx, power.LowPower, 2, material.Water, evalFHz)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Feasible || res == nil {
		t.Fatalf("2-chip water stack must be feasible, got %+v", plan)
	}
	if evalPeak <= p.Params.AmbientC {
		t.Errorf("eval peak %.2f cannot sit at ambient", evalPeak)
	}
	// The eval peak must match a direct solve at the eval step.
	direct, err := p.PeakAt(StackSpec{Chip: power.LowPower, Chips: 2, Coolant: material.Water, FHz: evalFHz})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(evalPeak-direct) > 0.1 {
		t.Errorf("eval peak %.4f vs direct %.4f", evalPeak, direct)
	}

	// Infeasible case: a deep air-cooled stack has no admissible step,
	// but the eval peak must still come back.
	plan, res, evalPeak, err = p.MaxFrequencyEvalCtx(ctx, power.LowPower, 8, material.Air, evalFHz)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Feasible || res != nil {
		t.Fatalf("8-chip air stack must be infeasible, got %+v", plan)
	}
	if evalPeak <= p.ThresholdC {
		t.Errorf("infeasible stack's eval peak %.2f must exceed the threshold", evalPeak)
	}

	// evalFHz 0 disables the extra solve.
	_, _, evalPeak, err = p.MaxFrequencyEvalCtx(ctx, power.LowPower, 2, material.Water, 0)
	if err != nil {
		t.Fatal(err)
	}
	if evalPeak != 0 {
		t.Errorf("evalFHz=0 must yield 0, got %g", evalPeak)
	}
}

// TestMaxFrequencyEvalSolvesEachStepOnce pins the search's solve
// budget: the basis solves plus one solve per distinct VFS step the
// search or the eval touches — the eval step and the returned field
// reuse the search's own solves. Every step solve of a primed session
// is history-free, so the plan's peak, its field and the eval peak
// must equal, bit for bit, the solves of fresh primed sessions that
// solve only that step.
func TestMaxFrequencyEvalSolvesEachStepOnce(t *testing.T) {
	ctx := context.Background()
	chip := power.LowPower
	steps := chip.Steps()
	slow, top := steps[0].FHz, steps[len(steps)-1].FHz
	seeded := NewGeomCache(4)
	planner := func(grid int, edit func(*Planner)) func() *Planner {
		return func() *Planner {
			p := NewPlanner()
			p.Params.GridNX, p.Params.GridNY = grid, grid
			if edit != nil {
				edit(p)
			}
			return p
		}
	}
	perturbed := func(p *Planner) {
		p.Geoms = seeded
		if err := p.EnsureGeomRef(ctx, chip, 2, material.Water); err != nil {
			t.Fatal(err)
		}
		p.Perturbed = true
		p.Params.DieK *= 1.21
		p.Params.TIMK *= 0.87
		p.Params.AmbientC = 31
	}
	converge := func(p *Planner) { p.ConvergeLeakage = true }
	cases := []struct {
		name     string
		mk       func() *Planner
		chips    int
		coolant  material.Coolant
		evalFHz  float64
		feasible bool
		// probes are the distinct steps the search and the eval solve.
		probes []float64
		// want is the exact solve count (0: the fixed-point leakage
		// iteration decides, so only the reference count applies).
		want int
	}{
		{"nominal 64x64 eval", planner(64, nil), 2, material.Water, top, true, []float64{slow, top}, 5},
		{"plan 32x32", planner(32, nil), 1, material.Water, 0, true, []float64{slow, top}, 5},
		{"perturbed 64x64 eval", planner(64, perturbed), 2, material.Water, top, true, []float64{slow, top}, 5},
		{"converge leakage 32x32 eval", planner(32, converge), 1, material.Water, top, true, []float64{slow, top}, 0},
		{"infeasible 32x32 eval", planner(32, nil), 8, material.Air, top, false, []float64{slow, top}, 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// fresh solves fHz on a freshly primed session and returns
			// the field with its basis and step solve counts.
			fresh := func(fHz float64) (*thermal.Result, int, int) {
				p := tc.mk()
				n := 0
				p.OnSolve = func(thermal.SolveStats) { n++ }
				s, err := p.NewSession(chip, tc.chips, tc.coolant)
				if err != nil {
					t.Fatal(err)
				}
				if err := s.Prime(ctx); err != nil {
					t.Fatal(err)
				}
				basis := n
				res, _, err := s.Solve(ctx, fHz)
				if err != nil {
					t.Fatal(err)
				}
				return res, basis, n - basis
			}
			want := 0
			for i, f := range tc.probes {
				_, basis, k := fresh(f)
				if i == 0 {
					want += basis
				}
				want += k
			}
			if tc.want != 0 && want != tc.want {
				t.Fatalf("reference sessions ran %d solves, want %d", want, tc.want)
			}

			p := tc.mk()
			got := 0
			p.OnSolve = func(thermal.SolveStats) { got++ }
			plan, res, ev, err := p.MaxFrequencyEvalCtx(ctx, chip, tc.chips, tc.coolant, tc.evalFHz)
			if err != nil {
				t.Fatal(err)
			}
			if plan.Feasible != tc.feasible || (plan.Feasible && plan.Step.FHz != top) {
				t.Fatalf("plan %+v, want feasible=%t at the top step", plan, tc.feasible)
			}
			if got != want {
				t.Errorf("search reported %d solves, want %d (basis + one per distinct step)", got, want)
			}
			if plan.Feasible {
				ref, _, _ := fresh(plan.Step.FHz)
				if plan.PeakC != ref.Max() || !reflect.DeepEqual(res.T, ref.T) {
					t.Errorf("returned field differs from a fresh session's solve at %.1f GHz (peak %v vs %v)",
						plan.Step.GHz(), plan.PeakC, ref.Max())
				}
			}
			if tc.evalFHz != 0 {
				ref, _, _ := fresh(tc.evalFHz)
				if ev != ref.Max() {
					t.Errorf("eval peak %v, fresh session's %v", ev, ref.Max())
				}
			}
		})
	}
}
