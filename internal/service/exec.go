package service

import (
	"context"
	"fmt"

	"waterimm/internal/api"
	"waterimm/internal/core"
	"waterimm/internal/cosim"
	"waterimm/internal/material"
	"waterimm/internal/npb"
	"waterimm/internal/power"
	"waterimm/internal/stack"
)

// execute dispatches a validated, normalized request to its solver.
// The context is threaded into the solver loops, so cancelling it
// abandons the simulation promptly. The orchestrated kinds (sweep,
// montecarlo, audit, cosimstream) never reach here; Submit hands them
// to orchestrate instead.
func (e *Engine) execute(ctx context.Context, req api.Request) (any, error) {
	switch r := req.(type) {
	case *api.PlanRequest:
		return e.runPlan(ctx, r)
	case *api.CosimRequest:
		return e.runCosim(ctx, r)
	}
	return nil, fmt.Errorf("service: unknown request kind %q", req.Kind())
}

func (e *Engine) runPlan(ctx context.Context, r *api.PlanRequest) (*api.PlanResponse, error) {
	chip, err := power.ModelByName(r.Chip)
	if err != nil {
		return nil, err
	}
	coolant, err := material.ByName(r.Coolant)
	if err != nil {
		return nil, err
	}
	p := core.NewPlanner()
	p.ThresholdC = r.ThresholdC
	p.Flip = r.Flip
	p.ConvergeLeakage = r.ConvergeLeakage
	p.Params.GridNX, p.Params.GridNY = r.GridNX, r.GridNY
	// The engine-wide CHF scale rides on the stack parameters so every
	// built model carries the (possibly margin-adjusted) boiling
	// limits; 0 means the literature value.
	p.Params.CHFScale = e.cfg.CHFScale
	// The engine-wide assembly cache: concurrent jobs over the same
	// geometry (sweep cells differing only in threshold, repeated
	// requests) share the assembled conductance system.
	p.Cache = e.sysCache
	// The structural cache rides alongside: perturbed Monte-Carlo
	// cells reuse the geometry's sparsity skeleton and borrow its
	// reference multigrid hierarchy (nil when disabled by config).
	p.Geoms = e.geoms
	// Every CG solve reports its iteration count and preconditioner
	// kind to /v1/metrics (observeSolve is lock-protected, so the
	// concurrent sessions of a sweep can share the observer).
	p.OnSolve = e.metrics.observeSolve
	applyPerturb(p, &coolant, r.Perturb)
	if p.Perturbed && e.geoms != nil {
		// Seed the geometry's shared nominal reference (hierarchy +
		// basis) before the perturbed cell solves: a one-time cost per
		// geometry that every sample then borrows. Building it from
		// nominal values — never from whichever sample got here first —
		// keeps Monte-Carlo statistics bitwise reproducible under
		// concurrent cell scheduling.
		if err := e.ensureGeomRef(ctx, r, chip); err != nil {
			return nil, err
		}
	}

	// EvalGHz asks for an extra fixed-step solve inside the same
	// session: the peak temperature at that step comes back even when
	// no step is admissible, which is what exceedance statistics need.
	plan, res, evalPeak, err := p.MaxFrequencyEvalCtx(ctx, chip, r.Chips, coolant, r.EvalGHz*1e9)
	if err != nil {
		return nil, err
	}
	resp := &api.PlanResponse{Feasible: plan.Feasible, EvalPeakC: evalPeak}

	// Generation-side hotspot check: how much flux does the die's
	// hottest cell try to push through its wetted face, against the
	// coolant's critical-heat-flux limit? Evaluated at the eval step
	// when the caller pinned one (the roadmap audit does), else at the
	// chosen step — an infeasible plan with no eval step has no
	// operating point to check. Crossing CHF is the boiling crisis: no
	// film coefficient carries that flux, so the verdict is reported
	// even when the plan is otherwise temperature-feasible.
	hotFHz := 0.0
	if r.EvalGHz > 0 {
		hotFHz = r.EvalGHz * 1e9
	} else if plan.Feasible {
		hotFHz = plan.Step.FHz
	}
	if hotFHz > 0 {
		if limit, ok := stack.CHFLimitFor(p.Params, coolant); ok {
			hotspot, err := p.PeakPowerDensity(chip, hotFHz)
			if err != nil {
				return nil, err
			}
			resp.HotspotWCM2 = hotspot / 1e4
			resp.CHFLimitWCM2 = limit / 1e4
			if hotspot > limit {
				resp.CHFExceeded = true
				e.metrics.add(&e.metrics.chfHotspotExceedances, 1)
			}
		}
	}
	if !plan.Feasible {
		return resp, nil
	}
	resp.FrequencyGHz = plan.Step.GHz()
	resp.VoltageV = plan.Step.V
	resp.PeakC = plan.PeakC
	resp.ChipPowerW = plan.Step.TotalW()
	// The search's session hands back the full field at the chosen
	// step, so the per-die breakdown costs no extra solve.
	resp.DiePeaksC = make([]float64, r.Chips)
	for i := range resp.DiePeaksC {
		resp.DiePeaksC[i] = res.LayerMax(stack.DieLayer(i))
	}

	// Solver-side boiling crisis: the converged single-phase field at
	// the chosen step pushes more flux through a wetted boundary cell
	// than its layer's CHF limit admits. The single-phase answer is
	// then optimistic — past CHF a vapor film blankets the surface and
	// the local heat-transfer coefficient collapses — so the plan is
	// re-solved with film-boiling feedback and, if the degraded field
	// breaks the threshold, walked down the VFS ladder to the fastest
	// step that is feasible under two-phase physics. At stock film
	// coefficients this scan finds nothing (the temperature-feasible
	// envelope sits below every coolant's CHF); it engages when
	// operators tighten -chf-scale or model weaker coolants.
	if viol := res.CHFViolations(); viol > 0 {
		e.metrics.add(&e.metrics.chfBoundaryCells, uint64(viol))
		if err := e.resolveTwoPhase(ctx, p, chip, coolant, r, plan.Step.FHz, resp); err != nil {
			return nil, err
		}
	}
	return resp, nil
}

// resolveTwoPhase handles a plan whose chosen-step field crossed a CHF
// limit: re-solve with film-boiling collapse at the chosen step and,
// while the degraded peak breaks the threshold, step down the VFS
// ladder. No two-phase-feasible step leaves the plan infeasible — the
// physical verdict the single-phase solver cannot reach.
func (e *Engine) resolveTwoPhase(ctx context.Context, p *core.Planner, chip power.Model, coolant material.Coolant, r *api.PlanRequest, chosenFHz float64, resp *api.PlanResponse) error {
	steps := chip.Steps()
	chosen := len(steps) - 1
	for i, s := range steps {
		if s.FHz == chosenFHz {
			chosen = i
		}
	}
	for i := chosen; i >= 0; i-- {
		out, err := p.TwoPhasePeak(ctx, chip, r.Chips, coolant, steps[i].FHz)
		if err != nil {
			return err
		}
		if i == chosen {
			resp.FilmBoilingCells = out.FilmBoilingCells
			e.metrics.add(&e.metrics.filmBoilingCells, uint64(out.FilmBoilingCells))
		}
		if out.PeakC <= p.ThresholdC {
			resp.FrequencyGHz = steps[i].GHz()
			resp.VoltageV = steps[i].V
			resp.PeakC = out.PeakC
			resp.ChipPowerW = steps[i].TotalW()
			for d := range resp.DiePeaksC {
				resp.DiePeaksC[d] = out.Result.LayerMax(stack.DieLayer(d))
			}
			return nil
		}
	}
	resp.Feasible = false
	resp.FrequencyGHz, resp.VoltageV, resp.PeakC, resp.ChipPowerW = 0, 0, 0, 0
	resp.DiePeaksC = nil
	return nil
}

// ensureGeomRef seeds the structural cache's nominal reference for a
// perturbed request's geometry: a nominal planner (same grid and flip,
// unperturbed values, default leakage policy) builds the hierarchy and
// superposition basis exactly once per geometry; concurrent cells
// coalesce on the build. The nominal planner shares the engine's
// system pool, so its assembled system is the same one nominal plan
// requests hit.
func (e *Engine) ensureGeomRef(ctx context.Context, r *api.PlanRequest, chip power.Model) error {
	coolant, err := material.ByName(r.Coolant)
	if err != nil {
		return err
	}
	p := core.NewPlanner()
	p.Flip = r.Flip
	p.Params.GridNX, p.Params.GridNY = r.GridNX, r.GridNY
	// Match the perturbed planners' stack identity: the nominal
	// reference must live under the same CHF scale, or the pooled
	// system and the cells' structural key would diverge.
	p.Params.CHFScale = e.cfg.CHFScale
	p.Cache = e.sysCache
	p.Geoms = e.geoms
	p.OnSolve = e.metrics.observeSolve
	return p.EnsureGeomRef(ctx, chip, r.Chips, coolant)
}

// applyPerturb lands a Monte-Carlo sample cell's perturbation vector
// on the planner and coolant: scale factors over material
// conductivities, film coefficients and chip power, plus an absolute
// inlet temperature. The geometry scales change the planner's stack
// parameters (and coolant), so a perturbed cell gets its own
// assembly-cache identity; the power scales ride the planner and stay
// exact under basis superposition.
func applyPerturb(p *core.Planner, coolant *material.Coolant, pb *api.Perturb) {
	if pb == nil {
		return
	}
	// A perturbed sample is a one-shot system: its parameter values
	// are unique to this draw, so pooling it would only evict the
	// reusable nominal geometries from the SystemCache. Perturbed
	// sessions assemble outside the pool (via the structural cache's
	// value-only path) and drop their system on Close.
	p.Perturbed = true
	scale := func(dst *float64, s float64) {
		if s > 0 {
			*dst *= s
		}
	}
	scale(&p.Params.DieK, pb.DieK)
	scale(&p.Params.BondK, pb.BondK)
	scale(&p.Params.TIMK, pb.TIMK)
	scale(&p.Params.PipeCoeff, pb.PipeH)
	scale(&p.Params.BoardAirCoeff, pb.BoardH)
	scale(&coolant.H, pb.H)
	if pb.AmbientC > 0 {
		p.Params.AmbientC = pb.AmbientC
	}
	p.DynScale, p.StatScale = pb.PDyn, pb.PStat
}

func (e *Engine) runCosim(ctx context.Context, r *api.CosimRequest) (*api.CosimResponse, error) {
	bench, err := npb.ByName(r.Benchmark)
	if err != nil {
		return nil, err
	}
	chip, err := power.ModelByName(r.Chip)
	if err != nil {
		return nil, err
	}
	coolant, err := material.ByName(r.Coolant)
	if err != nil {
		return nil, err
	}
	params := stack.DefaultParams()
	params.GridNX, params.GridNY = r.GridNX, r.GridNY
	cfg := cosim.Config{
		Chip: chip, Chips: r.Chips, Coolant: coolant, Params: params,
		Benchmark: bench, Scale: r.Scale, Seed: r.Seed,
		FHz: r.GHz * 1e9, IntervalS: r.IntervalS, DurationS: r.DurationS,
		OnSolve: e.metrics.observeSolve,
	}
	if r.DVFSSetpointC > 0 {
		cfg.DVFS = &cosim.DVFSPolicy{SetpointC: r.DVFSSetpointC, HysteresisC: r.DVFSHysteresisC}
	}
	res, err := cosim.RunCtx(ctx, cfg)
	if err != nil {
		return nil, err
	}
	resp := &api.CosimResponse{
		Seconds:            res.Seconds,
		Iterations:         res.Iterations,
		MaxPeakC:           res.MaxPeakC,
		SteadyPlannerPeakC: res.SteadyPlannerPeakC,
		Throttles:          res.Throttles,
		MeanGHz:            res.MeanGHz,
		Intervals:          len(res.Samples),
	}
	for _, i := range decimate(len(res.Samples), r.MaxSamples) {
		s := res.Samples[i]
		resp.Series = append(resp.Series, api.CosimSample{
			TimeS: s.TimeS, GHz: s.FHz / 1e9, PeakC: s.PeakC,
			DynamicW: s.DynamicW, StaticW: s.StaticW, GIPS: s.IPS / 1e9,
		})
	}
	return resp, nil
}

// decimate picks at most max evenly spaced indices out of [0, n),
// always keeping the first and last points. A non-positive max means
// "no cap" and returns every index: api.CosimRequest normalization
// defaults the cap before requests reach here, but a direct caller
// passing 0 (meaning "default") or a negative value must get the full
// series — not an empty one, and not a panic from make with a
// negative length.
func decimate(n, max int) []int {
	if n <= 0 {
		return nil
	}
	if max <= 0 || max >= n {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		return idx
	}
	if max == 1 {
		return []int{n - 1}
	}
	idx := make([]int, max)
	for i := range idx {
		idx[i] = i * (n - 1) / (max - 1)
	}
	return idx
}
