package core

import (
	"context"
	"math"
	"testing"

	"waterimm/internal/material"
	"waterimm/internal/power"
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
