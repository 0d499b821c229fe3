package core

import (
	"context"
	"fmt"

	"waterimm/internal/floorplan"
	"waterimm/internal/material"
	"waterimm/internal/mcpat"
	"waterimm/internal/power"
	"waterimm/internal/thermal"
)

// Critical-heat-flux planning support: the generation-side hotspot
// check (how many W/m² does the die's hottest cell try to push through
// its wetted boundary?) and the solver-side film-boiling re-solve for
// fields whose boundary flux actually crosses the limit.

// PeakPowerDensity returns the peak per-cell power density in W/m² of
// the chip's floorplan at the given VFS step, under the planner's
// power scales and leakage policy, rasterized on the planner's grid.
// This is the generation-side hotspot flux a wetted die face must
// carry, and the quantity the roadmap audit compares against each
// coolant's CHF limit: a hotspot that generates more flux than the
// boiling crisis admits cannot be cooled by that fluid at any film
// coefficient.
func (p *Planner) PeakPowerDensity(chip power.Model, fHz float64) (float64, error) {
	step, err := chip.StepAt(fHz)
	if err != nil {
		return 0, err
	}
	f, err := floorplan.ForModel(chip.Name)
	if err != nil {
		return 0, err
	}
	dynamicW, staticW := p.powerAt(chip, step, p.leakTemp(chip))
	if err := mcpat.AssignParts(f, chip, dynamicW, staticW); err != nil {
		return 0, err
	}
	nx, ny := p.Params.GridNX, p.Params.GridNY
	pm := f.PowerMap(nx, ny, f.W, f.H)
	peak := 0.0
	for _, w := range pm {
		if w > peak {
			peak = w
		}
	}
	cellArea := (f.W / float64(nx)) * (f.H / float64(ny))
	return peak / cellArea, nil
}

// TwoPhaseOutcome reports a film-boiling re-solve (TwoPhasePeak).
type TwoPhaseOutcome struct {
	// PeakC is the peak junction temperature with collapsed films.
	PeakC float64
	// FilmBoilingCells is how many boundary cells entered the
	// film-boiling regime.
	FilmBoilingCells int
	// Violations is the residual CHF-violation count at the
	// converged two-phase field.
	Violations int
	// Result is the converged field (its model is private to this
	// call).
	Result *thermal.Result
}

// TwoPhasePeak re-solves the stack at the given frequency with
// boiling-crisis feedback: a fresh, call-private model is built, and
// thermal.SolveTwoPhase collapses the film coefficient of every
// boundary cell whose flux exceeds its layer's CHF limit. Power is
// assigned at the planner's leakage policy temperature — the same
// policy a non-converging session solve uses — so below CHF the field
// matches the single-phase solve exactly. This is the planner's slow,
// rare path, taken only after a cheap non-mutating scan found
// violations.
func (p *Planner) TwoPhasePeak(ctx context.Context, chip power.Model, chips int, coolant material.Coolant, fHz float64) (*TwoPhaseOutcome, error) {
	if chips < 1 {
		return nil, fmt.Errorf("core: need at least one chip, got %d", chips)
	}
	step, err := chip.StepAt(fHz)
	if err != nil {
		return nil, err
	}
	model, err := p.modelAt(chip, chips, coolant, step, p.leakTemp(chip))
	if err != nil {
		return nil, err
	}
	res, stats, err := thermal.SolveTwoPhase(model, thermal.SolveOptions{Ctx: ctx})
	for _, pass := range stats.Passes {
		p.report(pass)
	}
	if err != nil {
		return nil, err
	}
	return &TwoPhaseOutcome{
		PeakC:            res.Max(),
		FilmBoilingCells: stats.FilmBoilingCells,
		Violations:       stats.Violations,
		Result:           res,
	}, nil
}
