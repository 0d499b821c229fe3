package thermal_test

import (
	"testing"

	"waterimm/internal/core"
	"waterimm/internal/material"
	"waterimm/internal/power"
	"waterimm/internal/thermal"
)

// BenchmarkAblationSolver compares the CG default against the SOR
// oracle on a 4-chip stack system.
func BenchmarkAblationSolver(b *testing.B) {
	p := core.NewPlanner()
	res, _, err := p.Solve(core.StackSpec{
		Chip: power.HighFrequency, Chips: 4,
		Coolant: material.Water, FHz: 2.0e9,
	})
	if err != nil {
		b.Fatal(err)
	}
	sys, err := thermal.Assemble(res.Model)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("cg", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sys.SolveSteady(thermal.SolveOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sor", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sys.SolveSOR(1.8, 1e-9, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}
