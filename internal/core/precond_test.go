package core

import (
	"context"
	"math"
	"sync"
	"testing"

	"waterimm/internal/material"
	"waterimm/internal/power"
	"waterimm/internal/thermal"
)

// TestMultigridMatchesJacobiAcrossCoolants is the cross-layer half of
// the preconditioner equivalence contract: a full frequency search
// under multigrid must pick the same VFS step and land on the same
// thermal field as under Jacobi, on each of the paper's cooling
// regimes — air (heatsink path with its lumped extras), the
// water-pipe cold plate, dielectric immersion — and water immersion on
// the smallest grid the API allows.
func TestMultigridMatchesJacobiAcrossCoolants(t *testing.T) {
	// The 4×4 case has no coarse level: the fine level, lumped extras
	// included, is the coarsest one and goes straight to the dense
	// factorization.
	cases := []struct {
		coolant material.Coolant
		grid    int
	}{{material.Air, 32}, {material.WaterPipe, 32}, {material.Fluorinert, 32}, {material.Water, 4}}
	for _, tc := range cases {
		coolant := tc.coolant
		run := func(kind string) (Plan, *thermal.Result, thermal.SolveStats) {
			p := fastPlanner()
			p.Params.GridNX, p.Params.GridNY = tc.grid, tc.grid
			p.Precond = kind
			var last thermal.SolveStats
			var mu sync.Mutex
			p.OnSolve = func(st thermal.SolveStats) {
				mu.Lock()
				last = st
				mu.Unlock()
			}
			plan, res, _, err := p.MaxFrequencyEvalCtx(context.Background(), power.LowPower, 2, coolant, 0)
			if err != nil {
				t.Fatalf("%s/%s: %v", coolant.Name, kind, err)
			}
			return plan, res, last
		}
		jPlan, jRes, jStats := run(thermal.PrecondJacobi)
		mPlan, mRes, mStats := run(thermal.PrecondMG)
		if jStats.Preconditioner != thermal.PrecondJacobi || mStats.Preconditioner != thermal.PrecondMG {
			t.Fatalf("%s: stats report %q/%q", coolant.Name, jStats.Preconditioner, mStats.Preconditioner)
		}
		if jPlan.Feasible != mPlan.Feasible || jPlan.Step.FHz != mPlan.Step.FHz {
			t.Fatalf("%s: plans diverge: jacobi %+v, mg %+v", coolant.Name, jPlan, mPlan)
		}
		if d := math.Abs(jPlan.PeakC - mPlan.PeakC); d > 1e-4 {
			t.Errorf("%s: peaks differ by %.2e C", coolant.Name, d)
		}
		if jRes == nil || mRes == nil {
			continue
		}
		var maxDiff float64
		for i := range jRes.T {
			maxDiff = math.Max(maxDiff, math.Abs(jRes.T[i]-mRes.T[i]))
		}
		if maxDiff > 1e-4 {
			t.Errorf("%s: fields differ by up to %.2e C", coolant.Name, maxDiff)
		}
	}
}

// TestAutoPrecondObeysThreshold pins the auto policy: small sessions
// stay on Jacobi (hierarchy setup would not pay for itself), and the
// planner accepts only known kinds.
func TestAutoPrecondObeysThreshold(t *testing.T) {
	p := fastPlanner() // 16×16 grid — far below the auto threshold
	var got thermal.SolveStats
	p.OnSolve = func(st thermal.SolveStats) { got = st }
	if _, err := p.MaxFrequency(power.LowPower, 1, material.Water); err != nil {
		t.Fatal(err)
	}
	if got.Preconditioner != thermal.PrecondJacobi || got.Iterations == 0 {
		t.Fatalf("auto on a small grid used %q (%d iters); want jacobi", got.Preconditioner, got.Iterations)
	}

	bad := fastPlanner()
	bad.Precond = "cholesky"
	if _, err := bad.NewSession(power.LowPower, 1, material.Water); err == nil {
		t.Fatal("unknown preconditioner kind accepted")
	}
}

// TestMultigridHierarchyBuiltOncePerSession verifies the setup
// amortization: a session resolves its preconditioner to the system's
// cached hierarchy once, and every later solve of the session reuses
// it instead of rebuilding.
func TestMultigridHierarchyBuiltOncePerSession(t *testing.T) {
	p := fastPlanner()
	p.Precond = thermal.PrecondMG
	ctx := context.Background()

	s, err := p.NewSession(power.LowPower, 2, material.Water)
	if err != nil {
		t.Fatal(err)
	}
	mg, err := s.sys.Multigrid()
	if err != nil {
		t.Fatal(err)
	}
	if s.prec != thermal.Preconditioner(mg) {
		t.Fatal("session did not resolve to the system's cached hierarchy")
	}
	for _, f := range []float64{1.5e9, 1.8e9} {
		if _, err := s.Peak(ctx, f); err != nil {
			t.Fatal(err)
		}
	}
	again, err := s.sys.Multigrid()
	if err != nil {
		t.Fatal(err)
	}
	if again != mg || s.prec != thermal.Preconditioner(mg) {
		t.Fatal("session rebuilt its multigrid hierarchy between solves")
	}
}
