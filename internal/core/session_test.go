package core

import (
	"context"
	"math"
	"testing"

	"waterimm/internal/material"
	"waterimm/internal/power"
)

// TestWarmStartMatchesColdStart is the equivalence guarantee behind
// the batch path: a frequency search through the session machinery
// (shared assembly, superposition basis, warm-started CG) must pick
// the same VFS step as the cold baseline and land on the same field
// within the solver tolerance. Equivalence is enforced by the solver
// itself — every warm solve converges against the cold-start residual
// target (SolveOptions.TolRef) — so any drift here is a bug, not
// expected numerical slack.
func TestWarmStartMatchesColdStart(t *testing.T) {
	cases := []struct {
		chip    power.Model
		chips   int
		coolant material.Coolant
		flip    bool
	}{
		{power.LowPower, 3, material.Water, false},
		{power.LowPower, 2, material.MineralOil, true},
		{power.HighFrequency, 2, material.Fluorinert, false},
	}
	for _, tc := range cases {
		warm := fastPlanner()
		warm.Flip = tc.flip
		cold := fastPlanner()
		cold.Flip = tc.flip
		cold.ColdStart = true

		ctx := context.Background()
		wPlan, wRes, _, err := warm.MaxFrequencyEvalCtx(ctx, tc.chip, tc.chips, tc.coolant, 0)
		if err != nil {
			t.Fatal(err)
		}
		cPlan, cRes, _, err := cold.MaxFrequencyEvalCtx(ctx, tc.chip, tc.chips, tc.coolant, 0)
		if err != nil {
			t.Fatal(err)
		}
		if wPlan.Feasible != cPlan.Feasible || wPlan.Step.FHz != cPlan.Step.FHz {
			t.Fatalf("%s/%d/%s: warm plan %+v diverges from cold %+v",
				tc.chip.Name, tc.chips, tc.coolant.Name, wPlan, cPlan)
		}
		if d := math.Abs(wPlan.PeakC - cPlan.PeakC); d > 1e-4 {
			t.Errorf("%s/%d/%s: peaks differ by %.2e C", tc.chip.Name, tc.chips, tc.coolant.Name, d)
		}
		if wRes == nil || cRes == nil {
			continue
		}
		var maxDiff float64
		for i := range wRes.T {
			if d := math.Abs(wRes.T[i] - cRes.T[i]); d > maxDiff {
				maxDiff = d
			}
		}
		if maxDiff > 1e-4 {
			t.Errorf("%s/%d/%s: fields differ by up to %.2e C",
				tc.chip.Name, tc.chips, tc.coolant.Name, maxDiff)
		}
	}
}

// TestLeakageFixedPointMatchesColdStart extends the equivalence to the
// ConvergeLeakage path, whose solve sequence (repeated re-solves at
// moving leakage temperatures) leans hardest on the basis guesses.
func TestLeakageFixedPointMatchesColdStart(t *testing.T) {
	spec := StackSpec{Chip: power.LowPower, Chips: 4, Coolant: material.Water, FHz: 1.5e9}
	warm := fastPlanner()
	warm.ConvergeLeakage = true
	cold := fastPlanner()
	cold.ConvergeLeakage = true
	cold.ColdStart = true

	a, err := warm.PeakAt(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := cold.PeakAt(spec)
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(a - b); d > 1e-4 {
		t.Errorf("fixed-point peaks differ by %.2e C (warm %.4f, cold %.4f)", d, a, b)
	}
}

// TestSessionBasisLifecycle pins the lazy-build contract: no basis on
// the first solve, a basis from the second on, and Prime building it
// eagerly.
func TestSessionBasisLifecycle(t *testing.T) {
	p := fastPlanner()
	ctx := context.Background()

	lazy, err := p.NewSession(power.LowPower, 2, material.Water)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lazy.Peak(ctx, 1.5e9); err != nil {
		t.Fatal(err)
	}
	if lazy.basis != nil {
		t.Fatal("basis built on the first solve")
	}
	if _, err := lazy.Peak(ctx, 1.6e9); err != nil {
		t.Fatal(err)
	}
	if lazy.basis == nil {
		t.Fatal("basis not built on the second solve")
	}

	eager, err := p.NewSession(power.LowPower, 2, material.Water)
	if err != nil {
		t.Fatal(err)
	}
	if err := eager.Prime(ctx); err != nil {
		t.Fatal(err)
	}
	if eager.basis == nil {
		t.Fatal("Prime did not build the basis")
	}
	// Primed and lazy sessions agree.
	a, err := lazy.Peak(ctx, 1.8e9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := eager.Peak(ctx, 1.8e9)
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(a - b); d > 1e-4 {
		t.Errorf("primed and lazy sessions differ by %.2e C", d)
	}
}
