package core

import (
	"context"
	"fmt"
	"math"

	"waterimm/internal/floorplan"
	"waterimm/internal/mcpat"
	"waterimm/internal/power"
	"waterimm/internal/stack"
	"waterimm/internal/thermal"

	"waterimm/internal/material"
)

// Session is a reusable solve context for one stack geometry: the
// conductance matrix depends only on the geometry, coolant and grid —
// not on the power vector — so a session assembles the thermal system
// once and re-solves it for every VFS step of a frequency search,
// seeding each conjugate-gradient solve from its superposition basis
// (see sessionBasis). This is what makes sweeps batch-shaped: the
// planner's binary search costs one assembly instead of one per
// solve, and warm starts cut the CG iteration count on top.
//
// A session assembles its own system — through the planner's
// GeomCache when one is configured, so same-topology sessions skip the
// symbolic pattern search — and owns it until the session is garbage.
// A session is not safe for concurrent use.
type Session struct {
	p       *Planner
	chip    power.Model
	chips   int
	coolant material.Coolant

	sys     *thermal.System
	model   *thermal.Model
	prec    thermal.Preconditioner
	base    *floorplan.Floorplan
	flipped *floorplan.Floorplan

	// Structural-reuse state (see GeomCache). gkey is the topology
	// key; ref is the geometry's borrowed nominal reference (nil when
	// none is seeded, or for non-perturbed sessions).
	gkey string
	ref  *geomRef

	// guess is the buffer for the superposed warm start solveAt builds
	// from the basis; nil until the basis exists (the first solve runs
	// cold).
	guess []float64
	// basis, once built, makes further solves nearly free: see
	// buildBasis. solves counts solveAt calls to trigger it lazily.
	basis  *sessionBasis
	solves int
}

// sessionBasis exploits the linearity of both the thermal system and
// the power model: mcpat assigns every unit dynamicW·shareDyn +
// staticW·shareStatic, so the heat-source vector at ANY VFS step and
// leakage temperature is base + a·(dynamic shape) + b·(static shape)
// with scalars a, b — and since G·T = q is linear, so is the
// temperature field. Three solves (zero-power base, one per shape)
// therefore let every later solve start from a superposed guess whose
// residual is already at the solver's tolerance; CG merely verifies it
// against the cold-start target (SolveOptions.TolRef), keeping the
// results exactly as converged as independent cold solves.
type sessionBasis struct {
	// refDyn/refStat are the shape magnitudes in watts (the top VFS
	// step's, so combination coefficients stay ≤ ~1 and never amplify
	// the basis fields' solver error).
	refDyn, refStat float64
	// base is the zero-die-power field (ambient plus lumped extras);
	// dyn and stat are the delta fields of refDyn/refStat watts of
	// pure-dynamic/pure-static power (nil when the chip has no such
	// component). A step's field is base + (DynamicW/refDyn)·dyn +
	// (StaticAt/refStat)·stat.
	base, dyn, stat []float64
}

// NewSession prepares a reusable solve context for the given stack
// configuration. The planner's Params, Flip and leakage settings are
// captured by reference: they must not change while the session is
// live.
func (p *Planner) NewSession(chip power.Model, chips int, coolant material.Coolant) (*Session, error) {
	if chips < 1 {
		return nil, fmt.Errorf("core: need at least one chip, got %d", chips)
	}
	s := &Session{p: p, chip: chip, chips: chips, coolant: coolant}
	if p.ColdStart {
		// Diagnostic baseline: every solve rebuilds from scratch.
		return s, nil
	}
	base, err := floorplan.ForModel(chip.Name)
	if err != nil {
		return nil, err
	}
	s.base = base
	if p.Flip {
		s.flipped = base.Rotate180()
	}
	s.gkey = p.geomKey(chip, chips, coolant)
	if p.Perturbed {
		// One-shot perturbed sample: borrow the geometry's nominal
		// basis as warm starts.
		s.ref = p.geomRef(s.gkey)
	}
	model, err := p.stackModel(coolant, chips, base, s.flipped)
	if err != nil {
		return nil, err
	}
	// Same-topology models reuse the geometry's cached sparsity
	// pattern; a nil Geoms assembles fully.
	if s.sys, err = p.Geoms.AssembleModel(s.gkey, model); err != nil {
		return nil, err
	}
	s.model = s.sys.Model()
	// Resolve the preconditioner once per session: the system's own
	// hierarchy, built from this session's values.
	if s.prec, err = s.sys.SelectPreconditioner(p.Precond); err != nil {
		return nil, err
	}
	return s, nil
}

// runSteady is the session's single SolveSteady choke point: it
// attaches the resolved preconditioner and reports the solve.
func (s *Session) runSteady(opt thermal.SolveOptions) ([]float64, error) {
	var stats thermal.SolveStats
	opt.Precond, opt.Stats = s.prec, &stats
	t, err := s.sys.SolveSteady(opt)
	if err == nil {
		s.p.report(stats)
	}
	return t, err
}

// setPower assigns the given chip-wide dynamic/static power split to
// every die layer of the stack model and re-folds the right-hand side.
func (s *Session) setPower(dynamicW, staticW float64) error {
	if err := mcpat.AssignParts(s.base, s.chip, dynamicW, staticW); err != nil {
		return err
	}
	g := s.model.Grid
	mBase := s.base.PowerMap(g.NX, g.NY, g.W, g.H)
	var mFlip []float64
	if s.p.Flip {
		if err := mcpat.AssignParts(s.flipped, s.chip, dynamicW, staticW); err != nil {
			return err
		}
		mFlip = s.flipped.PowerMap(g.NX, g.NY, g.W, g.H)
	}
	for i := 0; i < s.chips; i++ {
		dst := s.model.Layers[stack.DieLayer(i)].Power
		if s.p.Flip && i%2 == 1 {
			copy(dst, mFlip)
		} else {
			copy(dst, mBase)
		}
	}
	s.sys.UpdatePower()
	return nil
}

// buildBasis runs the three basis solves of sessionBasis. The base
// solve is nearly free (the uniform ambient field already solves the
// zero-power problem up to the lumped extras), so a basis costs about
// two extra solves — which the very next step evaluation pays back.
func (s *Session) buildBasis(ctx context.Context) error {
	steps := s.chip.Steps()
	if len(steps) == 0 {
		return fmt.Errorf("core: chip %s has an empty VFS table", s.chip.Name)
	}
	ref := steps[len(steps)-1]
	// The planner's power scales fold into the reference magnitudes
	// (and, symmetrically, into every step's coefficients in solveAt),
	// so a scaled session's basis is as exact as a nominal one.
	b := &sessionBasis{}
	b.refDyn, b.refStat = s.p.powerAt(s.chip, ref, s.p.leakTemp(s.chip))
	// One absolute residual target for all three basis solves: the
	// cold-start residual of the reference step's full power. Without
	// it the near-trivial base solve (whose own initial residual is
	// microscopic) would grind hundreds of iterations chasing a
	// meaninglessly tight relative target.
	if err := s.setPower(b.refDyn, b.refStat); err != nil {
		return err
	}
	tolRef := s.sys.ColdStartResidual()
	solve := func(dynW, statW float64, guess []float64) ([]float64, error) {
		if err := s.setPower(dynW, statW); err != nil {
			return nil, err
		}
		return s.runSteady(thermal.SolveOptions{Ctx: ctx, Guess: guess, TolRef: tolRef})
	}
	base, err := solve(0, 0, s.refBaseGuess())
	if err != nil {
		return err
	}
	b.base = base
	// shape solves one pure power component (dynW or statW watts, the
	// other zero) and returns its delta field over base; nil when the
	// chip has no such component. nominal picks the reference basis's
	// field and magnitude of the same component.
	shape := func(dynW, statW float64, nominal func(*sessionBasis) ([]float64, float64)) ([]float64, error) {
		w := dynW + statW
		if w <= 0 {
			return nil, nil
		}
		t, err := solve(dynW, statW, s.refShapeGuess(base, w, nominal))
		if err != nil {
			return nil, err
		}
		for i := range t {
			t[i] -= base[i]
		}
		return t, nil
	}
	if b.dyn, err = shape(b.refDyn, 0, func(rb *sessionBasis) ([]float64, float64) { return rb.dyn, rb.refDyn }); err != nil {
		return err
	}
	if b.stat, err = shape(0, b.refStat, func(rb *sessionBasis) ([]float64, float64) { return rb.stat, rb.refStat }); err != nil {
		return err
	}
	s.basis = b
	return nil
}

// refBaseGuess warm-starts the zero-power basis solve from the
// nominal reference basis, shifted by the sample's ambient offset (the
// zero-power field tracks the ambient uniformly up to the lumped
// extras). Nil — meaning "use the solver's ambient start" — when no
// reference is borrowed.
func (s *Session) refBaseGuess() []float64 {
	rb := s.refBasisFields()
	if rb == nil || rb.base == nil {
		return nil
	}
	g := make([]float64, len(rb.base))
	shift := s.p.Params.AmbientC - s.ref.ambientC
	for i := range g {
		g[i] = rb.base[i] + shift
	}
	return g
}

// refShapeGuess warm-starts a basis shape solve of w watts: the
// session's own base field plus the nominal reference's delta shape
// rescaled to w. For samples that only perturb the right-hand side
// (ambient, power scales) the guess is exact up to solver tolerance;
// for conductance perturbations it is off by the perturbation's few
// percent — either way CG starts decades below a cold start. nominal
// picks the reference's shape and its magnitude in watts.
func (s *Session) refShapeGuess(base []float64, w float64, nominal func(*sessionBasis) ([]float64, float64)) []float64 {
	rb := s.refBasisFields()
	if rb == nil {
		return base
	}
	shape, refW := nominal(rb)
	f := w / refW
	if shape == nil || len(shape) != len(base) || f <= 0 || math.IsInf(f, 0) || math.IsNaN(f) {
		return base
	}
	g := make([]float64, len(base))
	for i := range g {
		g[i] = base[i] + f*shape[i]
	}
	return g
}

// refBasisFields returns the borrowed nominal basis, or nil when the
// session has none (non-perturbed, no reference seeded yet).
func (s *Session) refBasisFields() *sessionBasis {
	if s.ref == nil {
		return nil
	}
	return s.ref.basis
}

// Prime eagerly builds the superposition basis, so every subsequent
// solve of the session starts from a near-converged guess. Callers
// that know they will solve many VFS steps (frequency searches,
// sweeps) Prime once; one-shot callers skip it — the session then
// builds the basis lazily on its second solve. Prime is a no-op in
// ColdStart mode or when the basis already exists.
func (s *Session) Prime(ctx context.Context) error {
	if s.p.ColdStart || s.basis != nil {
		return nil
	}
	return s.buildBasis(ctx)
}

// solveAt solves the session's stack with power assigned at the given
// VFS step and leakage temperature. The returned Result shares the
// session's model; its power maps are transient scratch state that
// the next solve overwrites, while Grid and layer structure stay
// valid for inspection.
//
// The first solve runs cold; from the second on, the session builds
// its superposition basis and seeds CG with a near-exact field, so
// the marginal cost of a frequency-search probe drops to a few
// verification iterations. Every solve converges against the
// cold-start residual target, so the fields match independent cold
// solves within the solver tolerance.
func (s *Session) solveAt(ctx context.Context, step power.Step, leakTemp float64) (*thermal.Result, error) {
	if s.p.ColdStart {
		return s.coldSolveAt(ctx, step, leakTemp)
	}
	dynamicW, staticW := s.p.powerAt(s.chip, step, leakTemp)
	s.solves++
	if s.basis == nil && s.solves >= 2 {
		if err := s.buildBasis(ctx); err != nil {
			return nil, err
		}
	}
	if err := s.setPower(dynamicW, staticW); err != nil {
		return nil, err
	}
	if b := s.basis; b != nil {
		if s.guess == nil {
			s.guess = make([]float64, len(b.base))
		}
		var a, c float64
		if b.dyn != nil {
			a = dynamicW / b.refDyn
		}
		if b.stat != nil {
			c = staticW / b.refStat
		}
		for i := range s.guess {
			g := b.base[i]
			if b.dyn != nil {
				g += a * b.dyn[i]
			}
			if b.stat != nil {
				g += c * b.stat[i]
			}
			s.guess[i] = g
		}
	}
	t, err := s.runSteady(thermal.SolveOptions{
		Ctx: ctx, Guess: s.guess, TolRef: s.sys.ColdStartResidual(),
	})
	if err != nil {
		return nil, err
	}
	return &thermal.Result{Model: s.model, T: t}, nil
}

// coldSolveAt is the pre-batch baseline: rebuild the floorplan, the
// stack model and the conductance matrix and cold-start CG, exactly
// as N independent plan requests would. Kept behind Planner.ColdStart
// for benchmarks and the equivalence tests.
func (s *Session) coldSolveAt(ctx context.Context, step power.Step, leakTemp float64) (*thermal.Result, error) {
	model, err := s.p.modelAt(s.chip, s.chips, s.coolant, step, leakTemp)
	if err != nil {
		return nil, err
	}
	// The baseline deliberately stays on the default Jacobi path, but
	// still reports its stats so cold/warm comparisons show up in the
	// same metrics.
	var stats thermal.SolveStats
	res, err := thermal.Solve(model, thermal.SolveOptions{Ctx: ctx, Stats: &stats})
	if err == nil {
		s.p.report(stats)
	}
	return res, err
}

// stackModel builds the stack model of chips dies: base on every die,
// or flipped on the odd ones under the planner's Flip layout. The dies
// carry whatever power their floorplans were assigned.
func (p *Planner) stackModel(coolant material.Coolant, chips int, base, flipped *floorplan.Floorplan) (*thermal.Model, error) {
	dies := make([]*floorplan.Floorplan, chips)
	for i := range dies {
		if p.Flip && i%2 == 1 {
			dies[i] = flipped
		} else {
			dies[i] = base
		}
	}
	return stack.Build(stack.Config{Params: p.Params, Coolant: coolant, Dies: dies})
}

// modelAt builds a fresh stack model with every die's power assigned
// at the given VFS step and leakage temperature.
func (p *Planner) modelAt(chip power.Model, chips int, coolant material.Coolant, step power.Step, leakC float64) (*thermal.Model, error) {
	base, err := floorplan.ForModel(chip.Name)
	if err != nil {
		return nil, err
	}
	dynamicW, staticW := p.powerAt(chip, step, leakC)
	if err := mcpat.AssignParts(base, chip, dynamicW, staticW); err != nil {
		return nil, err
	}
	return p.stackModel(coolant, chips, base, base.Rotate180())
}

// Solve simulates the session's stack at the given frequency,
// including the planner's leakage policy, and returns the thermal
// field plus the VFS step that produced it.
func (s *Session) Solve(ctx context.Context, fHz float64) (*thermal.Result, power.Step, error) {
	step, err := s.chip.StepAt(fHz)
	if err != nil {
		return nil, power.Step{}, err
	}
	if !s.p.ConvergeLeakage {
		res, err := s.solveAt(ctx, step, s.p.leakTemp(s.chip))
		return res, step, err
	}
	// Fixed point: leakage evaluated at the observed peak. The
	// leakage coefficient (~1 %/°C) keeps the map a contraction for
	// any stack the threshold would accept, so a handful of damped
	// iterations converge.
	leakTemp := s.chip.RefTempC
	var res *thermal.Result
	for iter := 0; iter < 8; iter++ {
		res, err = s.solveAt(ctx, step, leakTemp)
		if err != nil {
			return nil, power.Step{}, err
		}
		peak := res.Max()
		if math.Abs(peak-leakTemp) < 0.5 {
			return res, step, nil
		}
		leakTemp = (leakTemp + peak) / 2
	}
	return res, step, nil
}

// Peak returns the peak junction temperature at the given frequency.
func (s *Session) Peak(ctx context.Context, fHz float64) (float64, error) {
	res, _, err := s.Solve(ctx, fHz)
	if err != nil {
		return 0, err
	}
	return res.Max(), nil
}
