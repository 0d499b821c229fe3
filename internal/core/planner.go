package core

import (
	"context"
	"fmt"

	"waterimm/internal/material"
	"waterimm/internal/power"
	"waterimm/internal/stack"
	"waterimm/internal/thermal"
)

// Planner evaluates stack configurations against a temperature
// threshold. The zero value is not usable; construct with NewPlanner.
type Planner struct {
	// Params is the stack geometry/material configuration.
	Params stack.Params
	// ThresholdC is the junction temperature limit; the paper
	// conservatively uses 80 °C (78 °C for the Xeon E5 in Figure 1).
	ThresholdC float64
	// Flip rotates every even-numbered die (counting from the bottom,
	// 0-based: dies 1, 3, 5, …) by 180°, the thermal-aware stacking
	// layout of Section 4.2.
	Flip bool
	// LeakageAtThreshold makes the planner evaluate static power at
	// the temperature threshold (worst case) instead of the chip's
	// reference temperature. The paper's methodology is worst-case
	// throughout, so this defaults to true in NewPlanner.
	LeakageAtThreshold bool
	// ConvergeLeakage iterates the leakage↔temperature fixed point
	// instead of assuming a single leakage temperature: solve, feed
	// the observed peak back into the static-power model, re-solve,
	// until the peak moves less than half a degree. More accurate
	// (and less conservative) than the worst-case default; an
	// ablation knob for the methodology discussion in Section 4.3.
	ConvergeLeakage bool
	// ColdStart disables cross-step system reuse and warm-started CG,
	// re-assembling the model for every solve — the pre-batch
	// baseline, kept for benchmarks and equivalence tests.
	ColdStart bool
	// Precond selects the CG preconditioner for session solves:
	// thermal.PrecondAuto (the default when empty), PrecondJacobi, or
	// PrecondMG. The choice changes iteration counts, never results,
	// so it deliberately stays out of every cache key.
	Precond string
	// OnSolve, when non-nil, observes every steady solve the planner
	// runs, two-phase re-solve passes included (iteration count,
	// preconditioner kind). The service wires this into /v1/metrics;
	// it must be safe for concurrent calls.
	OnSolve func(thermal.SolveStats)
	// DynScale and StatScale scale the chip's dynamic and static
	// power everywhere the planner assigns it (0 means nominal, i.e.
	// 1.0) — the montecarlo workload's power-model uncertainty knobs.
	// Every power split goes through powerAt, so scaled sessions stay
	// exactly as consistent as nominal ones.
	DynScale  float64
	StatScale float64
	// Geoms, when non-nil, shares per-geometry structural artifacts
	// across sessions (see GeomCache): the symbolic assembly skeleton
	// and, for perturbed sessions, the nominal reference. A nil Geoms
	// assembles every session fully; each session still reuses its
	// assembly across the solves of one frequency search.
	Geoms *GeomCache
	// Perturbed marks this planner as solving a one-shot
	// parameter-perturbed sample (a Monte-Carlo cell): its sessions
	// warm-start their basis solves from the geometry's nominal
	// reference basis instead of from the ambient field. Seed the
	// reference with EnsureGeomRef on the nominal planner, then perturb
	// that same planner so its sessions use the pinned reference.
	Perturbed bool

	// pinnedKey and pinned are the geometry reference EnsureGeomRef
	// last found or built on this planner (see geomRef).
	pinnedKey string
	pinned    *geomRef
}

// powerAt is the chip-wide dynamic/static power split at one VFS step
// and leakage temperature, under the planner's power scales (0 means
// nominal): the superposition basis, the warm and cold solves, the
// two-phase re-solve and the hotspot check all split power here.
func (p *Planner) powerAt(chip power.Model, step power.Step, leakC float64) (dynW, statW float64) {
	dynW, statW = step.DynamicW, chip.StaticAt(step, leakC)
	if p.DynScale > 0 {
		dynW *= p.DynScale
	}
	if p.StatScale > 0 {
		statW *= p.StatScale
	}
	return dynW, statW
}

// report hands one solve's stats to the OnSolve observer, when set.
// Every planner solve reaches it: session solves (runSteady), the
// cold baseline and each two-phase pass.
func (p *Planner) report(st thermal.SolveStats) {
	if p.OnSolve != nil {
		p.OnSolve(st)
	}
}

// NewPlanner returns a Planner with Table 2 parameters and the
// paper's 80 °C threshold.
func NewPlanner() *Planner {
	return &Planner{
		Params:             stack.DefaultParams(),
		ThresholdC:         80,
		LeakageAtThreshold: true,
	}
}

// StackSpec identifies one simulation point.
type StackSpec struct {
	Chip    power.Model
	Chips   int
	Coolant material.Coolant
	// FHz is the common operating frequency of every die.
	FHz float64
}

// leakTemp returns the temperature at which static power is evaluated.
func (p *Planner) leakTemp(m power.Model) float64 {
	if p.LeakageAtThreshold {
		return p.ThresholdC
	}
	return m.RefTempC
}

// Solve simulates one spec and returns the thermal field plus the VFS
// step that produced it. One-shot solves pay one assembly each;
// callers solving the same geometry repeatedly should hold a Session
// instead.
func (p *Planner) Solve(spec StackSpec) (*thermal.Result, power.Step, error) {
	s, err := p.NewSession(spec.Chip, spec.Chips, spec.Coolant)
	if err != nil {
		return nil, power.Step{}, err
	}
	return s.Solve(context.Background(), spec.FHz)
}

// PeakAt returns the peak junction temperature for a spec.
func (p *Planner) PeakAt(spec StackSpec) (float64, error) {
	res, _, err := p.Solve(spec)
	if err != nil {
		return 0, err
	}
	return res.Max(), nil
}

// Plan is the outcome of a max-frequency search.
type Plan struct {
	Chip    power.Model
	Chips   int
	Coolant material.Coolant
	// Feasible reports whether even the slowest VFS step meets the
	// threshold. The figures leave infeasible points unplotted ("air
	// cooling does not enable a 4-chip layout").
	Feasible bool
	// Step is the fastest admissible VFS step when Feasible.
	Step power.Step
	// PeakC is the peak temperature at Step.
	PeakC float64
}

// FrequencyGHz returns the planned frequency, or 0 when infeasible.
func (pl Plan) FrequencyGHz() float64 {
	if !pl.Feasible {
		return 0
	}
	return pl.Step.GHz()
}

// MaxFrequency finds the fastest VFS step whose steady-state peak
// temperature stays at or below the threshold, assuming all chips run
// at the same frequency (Section 3.2). Peak temperature is monotone
// in the VFS step (higher frequency ⇒ higher voltage and power), so a
// binary search over the table is exact.
func (p *Planner) MaxFrequency(chip power.Model, chips int, coolant material.Coolant) (Plan, error) {
	plan, _, _, err := p.MaxFrequencyEvalCtx(context.Background(), chip, chips, coolant, 0)
	return plan, err
}

// MaxFrequencyEvalCtx is MaxFrequency with cooperative cancellation —
// checked before every thermal solve of the binary search and inside
// the solver's iteration loop — that also returns, for feasible plans,
// the full thermal field at the chosen step (nil for infeasible
// plans), and, when evalFHz is non-zero, the peak temperature at that
// fixed VFS step. Unlike the search outcome, the eval peak is produced
// even when the plan is infeasible — the montecarlo exceedance
// estimate needs a temperature for every sample, especially the ones
// whose stack cannot hold the threshold.
//
// The whole search runs in one primed Session, and every step solve
// there is history-free: its guess comes from the superposition basis,
// its power from the step, and the solver starts afresh. So one
// per-frequency memo serves the binary search, the eval step and the
// returned field, and no step is solved twice.
func (p *Planner) MaxFrequencyEvalCtx(ctx context.Context, chip power.Model, chips int, coolant material.Coolant, evalFHz float64) (Plan, *thermal.Result, float64, error) {
	steps := chip.Steps()
	if len(steps) == 0 {
		return Plan{}, nil, 0, fmt.Errorf("core: chip %s has an empty VFS table", chip.Name)
	}
	plan := Plan{Chip: chip, Chips: chips, Coolant: coolant}
	s, err := p.NewSession(chip, chips, coolant)
	if err != nil {
		return Plan{}, nil, 0, err
	}
	// The search probes many VFS steps of one geometry: build the
	// superposition basis up front so every probe is a near-free
	// verification solve.
	if err := s.Prime(ctx); err != nil {
		return Plan{}, nil, 0, err
	}

	fields := make(map[float64]*thermal.Result)
	solve := func(fHz float64) (*thermal.Result, error) {
		if res, ok := fields[fHz]; ok {
			return res, nil
		}
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: frequency search cancelled: %w", err)
		}
		res, _, err := s.Solve(ctx, fHz)
		if err != nil {
			return nil, err
		}
		fields[fHz] = res
		return res, nil
	}
	// lo is the fastest admissible step found (-1: none yet), hi the
	// slowest inadmissible one (len(steps): none yet). The slowest step
	// goes first (failing it makes the plan infeasible), then, if it
	// holds, the fastest, before the bisection.
	lo, hi := -1, len(steps)
	for next := 0; hi-lo > 1; next = (lo + hi) / 2 {
		if lo == 0 && hi == len(steps) {
			next = hi - 1
		}
		res, err := solve(steps[next].FHz)
		if err != nil {
			return Plan{}, nil, 0, err
		}
		if res.Max() <= p.ThresholdC {
			lo = next
		} else {
			hi = next
		}
	}
	var ev float64
	if evalFHz != 0 {
		res, err := solve(evalFHz)
		if err != nil {
			return Plan{}, nil, 0, err
		}
		ev = res.Max()
	}
	if lo < 0 {
		return plan, nil, ev, nil
	}
	res := fields[steps[lo].FHz]
	plan.Feasible, plan.Step, plan.PeakC = true, steps[lo], res.Max()
	return plan, res, ev, nil
}

// MaxFrequencySweep runs MaxFrequency for chip counts 1..maxChips and
// every coolant in the given list, producing the data behind Figures
// 1, 7, 8 and 17. The result is indexed [coolant][chips-1].
func (p *Planner) MaxFrequencySweep(chip power.Model, maxChips int, coolants []material.Coolant) ([][]Plan, error) {
	out := make([][]Plan, len(coolants))
	for ci, c := range coolants {
		out[ci] = make([]Plan, maxChips)
		for n := 1; n <= maxChips; n++ {
			pl, err := p.MaxFrequency(chip, n, c)
			if err != nil {
				return nil, fmt.Errorf("core: sweep %s/%s/%d chips: %w", chip.Name, c.Name, n, err)
			}
			out[ci][n-1] = pl
			// Once a chip count is infeasible, deeper stacks are
			// strictly hotter; skip the remaining solves.
			if !pl.Feasible {
				for k := n + 1; k <= maxChips; k++ {
					out[ci][k-1] = Plan{Chip: chip, Chips: k, Coolant: c}
				}
				break
			}
		}
	}
	return out, nil
}
