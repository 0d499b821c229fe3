package core

import (
	"math"
	"testing"

	"waterimm/internal/floorplan"
	"waterimm/internal/material"
	"waterimm/internal/stack"
	"waterimm/internal/thermal"
)

// coolantModel builds the real production stack model — floorplan,
// Table 2 parameters, the coolant's lumped extras — with a uniform die
// heat load, optionally value-perturbed the way a Monte-Carlo sample
// would be.
func coolantModel(t *testing.T, coolant material.Coolant, chips int, perturbed bool) *thermal.Model {
	t.Helper()
	base, err := floorplan.ForModel("low-power")
	if err != nil {
		t.Fatal(err)
	}
	params := stack.DefaultParams()
	params.GridNX, params.GridNY = 24, 24
	if perturbed {
		params.DieK *= 1.17
		params.TIMK *= 0.85
		params.AmbientC = 32
		coolant.H *= 1.2
	}
	dies := make([]*floorplan.Floorplan, chips)
	for i := range dies {
		dies[i] = base
	}
	model, err := stack.Build(stack.Config{Params: params, Coolant: coolant, Dies: dies})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < chips; i++ {
		p := model.Layers[stack.DieLayer(i)].Power
		for j := range p {
			p[j] = 0.02
		}
	}
	return model
}

// TestMultigridMatchesJacobiOnCoolantStacks pins the multigrid
// preconditioner on the real coolant stacks — air, closed-loop water
// pipe and water immersion, lumped extras included, nominal and
// perturbed: the V-cycle only changes the iteration, so the converged
// field must match a Jacobi-preconditioned solve within solver
// tolerance for every coolant physics.
func TestMultigridMatchesJacobiOnCoolantStacks(t *testing.T) {
	for _, coolant := range []material.Coolant{material.Air, material.WaterPipe, material.Water} {
		for _, perturbed := range []bool{false, true} {
			name := coolant.Name
			if perturbed {
				name += "-perturbed"
			}
			t.Run(name, func(t *testing.T) {
				solveWith := func(kind string) []float64 {
					sys, err := thermal.Assemble(coolantModel(t, coolant, 2, perturbed))
					if err != nil {
						t.Fatal(err)
					}
					prec, err := sys.SelectPreconditioner(kind)
					if err != nil {
						t.Fatal(err)
					}
					var stats thermal.SolveStats
					x, err := sys.SolveSteady(thermal.SolveOptions{Tol: 1e-8, Precond: prec, Stats: &stats})
					if err != nil {
						t.Fatal(err)
					}
					if stats.Preconditioner != kind {
						t.Fatalf("%s solve reported preconditioner %q", kind, stats.Preconditioner)
					}
					return x
				}
				mg := solveWith(thermal.PrecondMG)
				jacobi := solveWith(thermal.PrecondJacobi)
				var maxRise, maxDiff float64
				for i := range jacobi {
					maxRise = math.Max(maxRise, jacobi[i]-20)
					maxDiff = math.Max(maxDiff, math.Abs(mg[i]-jacobi[i]))
				}
				if maxDiff > 1e-4*maxRise {
					t.Errorf("%s: mg vs jacobi fields differ by %.3e (max rise %.3f)", name, maxDiff, maxRise)
				}
			})
		}
	}
}
