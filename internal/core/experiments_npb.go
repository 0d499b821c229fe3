package core

import (
	"fmt"
	"math"

	"waterimm/internal/fullsys"
	"waterimm/internal/material"
	"waterimm/internal/mcpat"
	"waterimm/internal/npb"
	"waterimm/internal/power"
)

// NPBExperiment reproduces one of the application-performance figures
// (Figures 10-13): for every cooling option, plan the stack's maximum
// frequency, run the nine NPB kernels at that frequency on the
// full-system simulator, and report execution times relative to the
// figure's baseline coolant.
type NPBExperiment struct {
	Figure   string
	Chip     power.Model
	Chips    int
	Baseline material.Coolant
	Coolants []material.Coolant
	// Scale shrinks the workload for quick runs (1.0 = full class).
	Scale float64
	Seed  int64
}

// NPBResult is the outcome for one coolant.
type NPBResult struct {
	Coolant  string
	GHz      float64
	Feasible bool
	// Seconds maps benchmark name to simulated execution time.
	Seconds map[string]float64
	// Relative maps benchmark name to time/baseline-time.
	Relative map[string]float64
	// GeoMean is the geometric mean of Relative across benchmarks.
	GeoMean float64
	// EnergyJ maps benchmark name to energy-to-solution in joules
	// (activity-based dynamic power plus worst-case static power,
	// integrated over the run) — the extension metric: running
	// faster under better cooling also finishes the leakage bill
	// sooner.
	EnergyJ map[string]float64
	// EnergyGeoMean is the geometric mean of energy relative to the
	// baseline coolant.
	EnergyGeoMean float64
}

// Run executes the experiment. Infeasible coolants come back with
// Feasible == false and empty tables, mirroring the paper's missing
// bars.
func (e NPBExperiment) Run() ([]NPBResult, error) {
	if e.Scale <= 0 {
		e.Scale = 1
	}
	planner := NewPlanner()
	plan := func(c material.Coolant) (Plan, error) {
		return planner.MaxFrequency(e.Chip, e.Chips, c)
	}
	base, err := plan(e.Baseline)
	if err != nil {
		return nil, err
	}
	if !base.Feasible {
		return nil, fmt.Errorf("core: %s baseline %s cannot cool %d chips", e.Figure, e.Baseline.Name, e.Chips)
	}
	benches := npb.Benchmarks()
	type runOut struct {
		seconds map[string]float64
		energy  map[string]float64
	}
	runAll := func(step power.Step) (runOut, error) {
		out := runOut{
			seconds: make(map[string]float64, len(benches)),
			energy:  make(map[string]float64, len(benches)),
		}
		staticW := e.Chip.StaticAt(step, 80) * float64(e.Chips)
		for _, b := range benches {
			r, err := fullsys.Run(fullsys.Config{
				Chips: e.Chips, FHz: step.FHz, Benchmark: b, Scale: e.Scale, Seed: e.Seed,
			})
			if err != nil {
				return out, fmt.Errorf("core: %s %s @%.1f GHz: %w", e.Figure, b.Name, step.FHz/1e9, err)
			}
			out.seconds[b.Name] = r.Seconds
			dynW := mcpat.DynamicPower(e.Chip, step, r.Activity)
			out.energy[b.Name] = (dynW + staticW) * r.Seconds
		}
		return out, nil
	}
	baseRun, err := runAll(base.Step)
	if err != nil {
		return nil, err
	}
	// Cache per-frequency results: coolants that plan to the same VFS
	// step necessarily produce identical times.
	cache := map[float64]runOut{base.Step.FHz: baseRun}

	var results []NPBResult
	for _, c := range e.Coolants {
		pl, err := plan(c)
		if err != nil {
			return nil, err
		}
		res := NPBResult{Coolant: c.Name, Feasible: pl.Feasible}
		if pl.Feasible {
			res.GHz = pl.Step.GHz()
			run, ok := cache[pl.Step.FHz]
			if !ok {
				if run, err = runAll(pl.Step); err != nil {
					return nil, err
				}
				cache[pl.Step.FHz] = run
			}
			res.Seconds = run.seconds
			res.EnergyJ = run.energy
			res.Relative = make(map[string]float64, len(run.seconds))
			logSum, logESum, n := 0.0, 0.0, 0
			for name, t := range run.seconds {
				rel := t / baseRun.seconds[name]
				res.Relative[name] = rel
				logSum += math.Log(rel)
				logESum += math.Log(run.energy[name] / baseRun.energy[name])
				n++
			}
			res.GeoMean = math.Exp(logSum / float64(n))
			res.EnergyGeoMean = math.Exp(logESum / float64(n))
		}
		results = append(results, res)
	}
	return results, nil
}

// Fig10 reproduces Figure 10: 6-chip low-power CMP (24 threads),
// execution times relative to water-pipe cooling.
func Fig10(scale float64) ([]NPBResult, error) {
	return NPBExperiment{
		Figure: "fig10", Chip: power.LowPower, Chips: 6,
		Baseline: material.WaterPipe,
		Coolants: []material.Coolant{material.WaterPipe, material.MineralOil, material.Fluorinert, material.Water},
		Scale:    scale, Seed: 1,
	}.Run()
}

// Fig11 reproduces Figure 11: 8-chip low-power CMP (32 threads),
// relative to mineral oil — the paper switches baseline because
// water-pipe cooling cannot hold an 8-chip low-power stack under
// 80 °C.
func Fig11(scale float64) ([]NPBResult, error) {
	return NPBExperiment{
		Figure: "fig11", Chip: power.LowPower, Chips: 8,
		Baseline: material.MineralOil,
		Coolants: []material.Coolant{material.MineralOil, material.Fluorinert, material.Water},
		Scale:    scale, Seed: 1,
	}.Run()
}

// Fig12 reproduces Figure 12: 6-chip high-frequency CMP, relative to
// water-pipe cooling.
func Fig12(scale float64) ([]NPBResult, error) {
	return NPBExperiment{
		Figure: "fig12", Chip: power.HighFrequency, Chips: 6,
		Baseline: material.WaterPipe,
		Coolants: []material.Coolant{material.WaterPipe, material.MineralOil, material.Fluorinert, material.Water},
		Scale:    scale, Seed: 1,
	}.Run()
}

// Fig13 reproduces Figure 13: 8-chip high-frequency CMP. The paper's
// caption says "relative to water pipes" while its body text notes
// water-pipe cooling cannot support the 8-chip high-frequency stack;
// we follow the physics (as the paper's Figure 11 did) and baseline
// against mineral oil.
func Fig13(scale float64) ([]NPBResult, error) {
	return NPBExperiment{
		Figure: "fig13", Chip: power.HighFrequency, Chips: 8,
		Baseline: material.MineralOil,
		Coolants: []material.Coolant{material.MineralOil, material.Fluorinert, material.Water},
		Scale:    scale, Seed: 1,
	}.Run()
}
