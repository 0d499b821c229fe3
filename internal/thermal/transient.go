package thermal

import (
	"context"
	"fmt"
	"math"
)

// Stepper integrates the transient heat equation C·dT/dt = q − G·T
// with backward Euler: (C/Δt + G)·Tₙ₊₁ = (C/Δt)·Tₙ + q. Backward
// Euler is unconditionally stable, so the step size is limited only
// by the accuracy the caller wants — important because package time
// constants (seconds) and die time constants (sub-millisecond) differ
// by orders of magnitude.
//
// The paper's evaluation is worst-case steady state; the stepper
// backs the DTM extension: cosim.Stream's interval loop, which also
// drives cosim.RunCtx, advances the field through it.
//
// The shifted operator G + C/Δt is time-invariant, so NewStepper
// factors it once with zero-fill incomplete Cholesky (IC(0)) and every
// step's CG uses that factor as its preconditioner instead of the
// Jacobi default, which cuts the iterations per step about fivefold
// on the 32×32 stacks the co-simulation runs. The factor depends only
// on the matrix, so a checkpoint restored into a fresh Stepper resumes
// bit-identically without carrying it.
type Stepper struct {
	sys *System
	dt  float64
	// shifted holds the CSR values with C/Δt added on the diagonal.
	shifted *System
	// prec is the IC(0) factor of shifted; nil selects Jacobi.
	prec Preconditioner
	// x receives each step's solve, so a failed step leaves T intact.
	x []float64
	// T is the current temperature field; callers may read it
	// between steps but must not resize it.
	T    []float64
	time float64
	// OnSolve, when non-nil, observes every step's CG solve (its
	// iteration count, preconditioner "ichol") after it converges.
	OnSolve func(SolveStats)
}

// NewStepper creates a transient integrator over an assembled system
// with fixed step dt (seconds), starting from a uniform ambient field.
func NewStepper(sys *System, dt float64) (*Stepper, error) {
	if dt <= 0 {
		return nil, fmt.Errorf("thermal: non-positive time step %g", dt)
	}
	for i, c := range sys.Capacity {
		// +Inf must be rejected alongside NaN and negatives: an infinite
		// C/Δt would make the shifted diagonal infinite and its invDiag
		// silently zero, wedging the solve.
		if c < 0 || math.IsNaN(c) || math.IsInf(c, 0) {
			return nil, fmt.Errorf("thermal: invalid capacity %g at node %d", c, i)
		}
	}
	st := &Stepper{sys: sys, dt: dt, T: make([]float64, sys.N)}
	for i := range st.T {
		st.T[i] = sys.model.AmbientC
	}
	st.shifted = st.buildShifted()
	ic, err := newIChol(st.shifted)
	if err != nil {
		return nil, err
	}
	st.prec = ic
	st.x = make([]float64, sys.N)
	return st, nil
}

// buildShifted copies the system and adds C/Δt to each diagonal. The
// diagonal is the first stored entry of every CSR row (see Assemble).
// The copy's stencil shares the system's couplings and takes the
// shifted diagonal.
func (st *Stepper) buildShifted() *System {
	src := st.sys
	dst := &System{
		N:      src.N,
		RowPtr: src.RowPtr,
		ColIdx: src.ColIdx,
		Val:    append([]float64(nil), src.Val...),
		Diag:   append([]float64(nil), src.Diag...),
		Q:      make([]float64, src.N),
		model:  src.model,
	}
	for r := 0; r < src.N; r++ {
		shift := src.Capacity[r] / st.dt
		dst.Val[src.RowPtr[r]] += shift
		dst.Diag[r] += shift
	}
	if src.op != nil {
		op := *src.op
		op.diag = dst.Diag
		dst.op = &op
	}
	return dst
}

// Time returns the simulated time in seconds.
func (st *Stepper) Time() float64 { return st.time }

// Step advances one backward-Euler step. The model's power maps may
// be mutated between steps (after calling sys.UpdatePower) to drive
// time-varying workloads.
//
// Each solve warm-starts from the current field and converges against
// the steady system's cold-start residual at the current power — a
// step-independent absolute target. Relative to the step's own initial
// residual (the old criterion) this is the same accuracy the first
// step from ambient gets, but it stays an honest target as the run
// approaches quasi-steady state, where the per-step change (and with
// it the old, self-tightening reference) shrinks toward zero and
// would otherwise force full-depth CG on every near-converged step.
//
// Ctx is polled between CG iterations inside the solve, so a long
// integration honors cancel/deadline mid-step, not just between steps.
func (st *Stepper) Step(ctx context.Context) error {
	for i := range st.shifted.Q {
		st.shifted.Q[i] = st.sys.Q[i] + st.sys.Capacity[i]/st.dt*st.T[i]
	}
	var stats SolveStats
	err := st.shifted.solveCG(SolveOptions{
		Ctx: ctx, Guess: st.T, Tol: 1e-6, TolRef: st.sys.ColdStartResidual(), Precond: st.prec, Stats: &stats,
	}, st.x)
	if err != nil {
		return fmt.Errorf("thermal: transient step at t=%.4gs: %w", st.time, err)
	}
	if st.OnSolve != nil {
		st.OnSolve(stats)
	}
	copy(st.T, st.x)
	st.time += st.dt
	return nil
}

// Run advances n steps and returns the peak grid temperature after
// the last one.
func (st *Stepper) Run(ctx context.Context, n int) (float64, error) {
	for i := 0; i < n; i++ {
		if err := st.Step(ctx); err != nil {
			return 0, err
		}
	}
	res := &Result{Model: st.sys.model, T: st.T}
	return res.Max(), nil
}

// Result snapshots the current field.
func (st *Stepper) Result() *Result {
	t := make([]float64, len(st.T))
	copy(t, st.T)
	return &Result{Model: st.sys.model, T: t}
}

// Checkpoint is a serializable snapshot of a Stepper's integration
// state: the temperature field plus the simulated time. Go's JSON
// encoding round-trips float64 values exactly (shortest-representation
// marshaling), so a checkpoint restored from disk resumes the
// trajectory bit-identically to an uninterrupted run.
type Checkpoint struct {
	TimeS float64   `json:"time_s"`
	T     []float64 `json:"t"`
}

// Checkpoint snapshots the stepper's resumable state. The returned
// value owns its field copy; mutating it does not disturb the stepper.
func (st *Stepper) Checkpoint() *Checkpoint {
	t := make([]float64, len(st.T))
	copy(t, st.T)
	return &Checkpoint{TimeS: st.time, T: t}
}

// Restore rewinds (or fast-forwards) the stepper to a checkpoint taken
// from an identically-assembled system. The checkpoint must carry one
// finite temperature per node and a finite non-negative time.
func (st *Stepper) Restore(c *Checkpoint) error {
	if c == nil {
		return fmt.Errorf("thermal: nil checkpoint")
	}
	if len(c.T) != st.sys.N {
		return fmt.Errorf("thermal: checkpoint has %d nodes, stepper has %d", len(c.T), st.sys.N)
	}
	if c.TimeS < 0 || math.IsNaN(c.TimeS) || math.IsInf(c.TimeS, 0) {
		return fmt.Errorf("thermal: invalid checkpoint time %g", c.TimeS)
	}
	for i, v := range c.T {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("thermal: invalid checkpoint temperature %g at node %d", v, i)
		}
	}
	copy(st.T, c.T)
	st.time = c.TimeS
	return nil
}
