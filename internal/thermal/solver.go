package thermal

import (
	"context"
	"fmt"
	"math"

	"waterimm/internal/faultinject"
	"waterimm/internal/parallel"
)

// Preconditioner approximates G⁻¹ for the conjugate gradient: Apply
// computes z = M⁻¹·r. Implementations must be fixed symmetric
// positive-definite linear operators (CG's convergence theory assumes
// the preconditioner does not change between iterations) and safe to
// call repeatedly with the same receiver; z and r never alias.
type Preconditioner interface {
	Apply(z, r []float64)
	// Name identifies the preconditioner kind in stats and metrics
	// (e.g. "mg"). The built-in nil default reports "jacobi".
	Name() string
}

// Preconditioner kinds accepted by SelectPreconditioner.
const (
	// PrecondAuto picks multigrid for systems with at least
	// mgAutoThreshold grid unknowns and Jacobi below it, where V-cycle
	// setup would cost more than the iterations it saves.
	PrecondAuto = "auto"
	// PrecondJacobi is the diagonal-scaling default.
	PrecondJacobi = "jacobi"
	// PrecondMG is the geometric multigrid V-cycle (see multigrid.go).
	PrecondMG = "mg"
)

// mgAutoThreshold is the grid-unknown count above which PrecondAuto
// switches from Jacobi to multigrid. Measured on the 4-layer stack
// fixture, a cold solve (hierarchy build included) breaks even with
// Jacobi-CG at ≈6.4k unknowns and wins 1.2× at 9.2k, 1.6× at 16k and
// 2.9× at 65k; per-solve with the build amortized (pooled systems,
// borrowed reference hierarchies) multigrid is ahead at every size
// measured. 8192 sits just above the cold break-even, so auto never
// picks MG where the setup could lose, while deep stacks on the
// default 32×32 grid (8+ layers) now get the V-cycle's near-constant
// iteration count.
const mgAutoThreshold = 8192

// SelectPreconditioner resolves a preconditioner kind ("", "auto",
// "jacobi", "mg") for this system. A nil result means the built-in
// Jacobi path. The multigrid hierarchy is built on first selection and
// cached on the System, so systems pooled in a SystemCache pay setup
// once across all the solves that reuse them.
func (s *System) SelectPreconditioner(kind string) (Preconditioner, error) {
	mg, err := s.WantsMG(kind)
	if err != nil || !mg {
		return nil, err
	}
	return s.Multigrid()
}

// WantsMG reports whether kind resolves to the multigrid path for
// this system, without building the hierarchy — callers deciding
// whether to borrow a shared reference hierarchy instead of building
// their own ask this first.
func (s *System) WantsMG(kind string) (bool, error) {
	switch kind {
	case "", PrecondAuto:
		return s.model != nil && s.model.NumNodes()-len(s.model.Extras) >= mgAutoThreshold, nil
	case PrecondJacobi:
		return false, nil
	case PrecondMG:
		return true, nil
	}
	return false, fmt.Errorf("thermal: unknown preconditioner %q (want auto, jacobi or mg)", kind)
}

// SolveStats reports what a steady solve did; pass a pointer in
// SolveOptions.Stats to collect it.
type SolveStats struct {
	// Iterations is the number of CG iterations run.
	Iterations int
	// Preconditioner is the kind used ("jacobi" or a
	// Preconditioner.Name()).
	Preconditioner string
}

// SolveOptions tunes the conjugate-gradient solve.
type SolveOptions struct {
	// Tol is the relative residual target ‖r‖/‖q‖; default 1e-9.
	Tol float64
	// MaxIter caps CG iterations; default 20·√N + 200.
	MaxIter int
	// Guess, if non-nil, seeds the iteration (e.g. the previous VFS
	// step's field during a frequency sweep).
	Guess []float64
	// TolRef, if positive, replaces the initial residual norm as the
	// convergence reference: the solve stops at ‖r‖ ≤ Tol·TolRef.
	// Without it a warm start is self-defeating — a good guess shrinks
	// ‖r₀‖ and therefore tightens its own target by the same factor.
	// Warm-started callers pass ColdStartResidual() so they converge
	// to exactly the absolute target a cold solve would have.
	TolRef float64
	// Precond, if non-nil, replaces the default Jacobi (diagonal)
	// preconditioner — see System.Multigrid and SelectPreconditioner.
	// The choice must not change the converged field beyond solver
	// tolerance, only how fast CG gets there, so it is deliberately
	// absent from every cache key.
	Precond Preconditioner
	// Stats, if non-nil, receives the solve's iteration count and
	// preconditioner kind on return (set on success and on
	// non-convergence; unset on validation errors).
	Stats *SolveStats
	// Ctx, if non-nil, is polled between CG iterations so a cancelled
	// request (service timeout, client disconnect) abandons the solve
	// promptly instead of iterating to convergence. The returned error
	// wraps ctx.Err().
	Ctx context.Context
}

func (o SolveOptions) withDefaults(n int) SolveOptions {
	if o.Tol <= 0 {
		o.Tol = 1e-9
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 20*int(math.Sqrt(float64(n))) + 200
	}
	return o
}

// MatVec computes y = G·x on the system's stencil, parallelised over
// grid lines. This is the solver's hot loop. Hand-built systems
// without a stencil run the CSR loop, which sums every row in the same
// order.
func (s *System) MatVec(y, x []float64) {
	if s.op != nil {
		s.op.mul(y, x, nil)
		return
	}
	rowPtr, colIdx, val := s.RowPtr, s.ColIdx, s.Val
	parallel.For(s.N, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			var sum float64
			for k := rowPtr[r]; k < rowPtr[r+1]; k++ {
				sum += val[k] * x[colIdx[k]]
			}
			y[r] = sum
		}
	})
}

func dot(a, b []float64) float64 {
	return parallel.ReduceSum(len(a), func(lo, hi int) float64 {
		var s float64
		for i := lo; i < hi; i++ {
			s += a[i] * b[i]
		}
		return s
	})
}

// ColdStartResidual returns ‖q − G·x₀‖ where x₀ is the uniform
// ambient field a cold solve starts from. Warm-started steady solves
// pass this as SolveOptions.TolRef so their convergence target is the
// same absolute residual a cold solve would stop at — which is what
// makes warm starts actually cheaper rather than merely
// better-targeted. O(N) using cached row sums of G.
func (s *System) ColdStartResidual() float64 {
	if s.rowSum == nil {
		s.rowSum = make([]float64, s.N)
		for r := 0; r < s.N; r++ {
			var sum float64
			for k := s.RowPtr[r]; k < s.RowPtr[r+1]; k++ {
				sum += s.Val[k]
			}
			s.rowSum[r] = sum
		}
	}
	amb := s.model.AmbientC
	return math.Sqrt(parallel.ReduceSum(s.N, func(lo, hi int) float64 {
		var acc float64
		for i := lo; i < hi; i++ {
			d := s.Q[i] - amb*s.rowSum[i]
			acc += d * d
		}
		return acc
	}))
}

// SolveSteady solves G·T = q and returns the temperature field.
//
// The iteration is preconditioned CG with fused vector kernels: the
// x/r update shares one pass with the ‖r‖² reduction, and the default
// Jacobi preconditioner application shares one pass with the r·z
// reduction, so a Jacobi iteration makes three sweeps over the solver
// vectors (matvec+pᵀGp, x/r/‖r‖², z/r·z/p) instead of the five the
// unfused form needs — the iteration is memory-bound, so fewer sweeps
// are a direct wall-clock win.
func (s *System) SolveSteady(opt SolveOptions) ([]float64, error) {
	x := make([]float64, s.N)
	if err := s.solveCG(opt, x); err != nil {
		return nil, err
	}
	return x, nil
}

// cgWork holds CG's four scratch vectors. Each System keeps one for
// its exclusive owner's solves: every vector is written in full before
// it is read, so reuse cannot change a result.
type cgWork struct {
	r, z, p, ap []float64
}

// solveCG is SolveSteady into a caller-owned x (the transient stepper
// keeps one for its lifetime). On error x holds a partial iterate.
func (s *System) solveCG(opt SolveOptions, x []float64) error {
	opt = opt.withDefaults(s.N)
	n := s.N
	if s.cg == nil {
		s.cg = &cgWork{
			r: make([]float64, n), z: make([]float64, n),
			p: make([]float64, n), ap: make([]float64, n),
		}
	}
	r, z, p, ap := s.cg.r, s.cg.z, s.cg.p, s.cg.ap
	if opt.Guess != nil && len(opt.Guess) == n {
		copy(x, opt.Guess)
	} else {
		// Ambient is a reasonable starting field.
		for i := range x {
			x[i] = s.model.AmbientC
		}
	}

	// invDiag is normally built by Assemble; hand-built systems fall
	// back to a lazy construction with the same validation. The
	// transient stepper's shifted copy has none: it is solved with its
	// incomplete Cholesky factor, and only builds invDiag here if it is
	// ever solved on the Jacobi path.
	invDiag := s.invDiag
	if invDiag == nil && opt.Precond == nil {
		var err error
		if invDiag, err = invertDiag(s.Diag); err != nil {
			return err
		}
		s.invDiag = invDiag
	}
	precName := PrecondJacobi
	if opt.Precond != nil {
		precName = opt.Precond.Name()
	}
	record := func(iters int) {
		if opt.Stats != nil {
			*opt.Stats = SolveStats{Iterations: iters, Preconditioner: precName}
		}
	}

	s.MatVec(ap, x)
	// Converge relative to the *initial residual*, not ‖q‖: the
	// transient stepper folds C/Δt·T into q, whose magnitude dwarfs
	// the physically meaningful imbalance and would make a ‖q‖-based
	// criterion declare victory before the first iteration. The
	// residual fill is fused with its norm reduction.
	q := s.Q
	rn := math.Sqrt(parallel.ReduceSum(n, func(lo, hi int) float64 {
		var sum float64
		for i := lo; i < hi; i++ {
			ri := q[i] - ap[i]
			r[i] = ri
			sum += ri * ri
		}
		return sum
	}))
	ref := rn
	if opt.TolRef > 0 {
		ref = opt.TolRef
	}
	// Convergence is tested before every preconditioner apply, so a
	// solve that converges (or starts converged: a zero residual, or a
	// warm start already within target) never computes a z it would
	// throw away — the apply is the dominant cost of an MG iteration.
	if rn <= opt.Tol*ref {
		record(0)
		return nil
	}
	// precondDot computes z = M⁻¹·r and returns r·z. The Jacobi path
	// fuses both into one sweep; an explicit preconditioner (multigrid)
	// applies then reduces.
	precondDot := func() float64 {
		if opt.Precond != nil {
			opt.Precond.Apply(z, r)
			return dot(r, z)
		}
		return parallel.ReduceSum(n, func(lo, hi int) float64 {
			var sum float64
			for i := lo; i < hi; i++ {
				zi := invDiag[i] * r[i]
				z[i] = zi
				sum += r[i] * zi
			}
			return sum
		})
	}
	rz := precondDot()
	copy(p, z)
	for iter := 0; ; iter++ {
		if iter >= opt.MaxIter {
			record(iter)
			return fmt.Errorf("thermal: CG did not converge in %d iterations (residual %.3e, target %.3e)",
				opt.MaxIter, rn, opt.Tol*ref)
		}
		if iter%8 == 0 {
			if opt.Ctx != nil {
				if err := opt.Ctx.Err(); err != nil {
					return fmt.Errorf("thermal: solve cancelled after %d iterations: %w", iter, err)
				}
			}
			// Failpoint at the solver's poll cadence: an armed stall here
			// simulates a wedged solve and must be cut short by the job
			// deadline; an armed error aborts the iteration.
			if err := faultinject.Hit(opt.Ctx, faultinject.SiteCGIteration); err != nil {
				return fmt.Errorf("thermal: solve aborted after %d iterations: %w", iter, err)
			}
		}
		s.MatVec(ap, p)
		pap := dot(p, ap)
		if pap <= 0 {
			return fmt.Errorf("thermal: CG breakdown (pᵀGp = %g); matrix not SPD", pap)
		}
		alpha := rz / pap
		// Fused update: x += α·p and r -= α·ap in the same pass as the
		// ‖r‖² reduction the convergence test needs.
		rn = math.Sqrt(parallel.ReduceSum(n, func(lo, hi int) float64 {
			var sum float64
			for i := lo; i < hi; i++ {
				x[i] += alpha * p[i]
				ri := r[i] - alpha*ap[i]
				r[i] = ri
				sum += ri * ri
			}
			return sum
		}))
		if rn <= opt.Tol*ref {
			record(iter + 1)
			return nil
		}
		rzNew := precondDot()
		beta := rzNew / rz
		rz = rzNew
		parallel.For(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				p[i] = z[i] + beta*p[i]
			}
		})
	}
}

// invertDiag validates and inverts a conductance diagonal.
func invertDiag(diag []float64) ([]float64, error) {
	inv := make([]float64, len(diag))
	for i, d := range diag {
		if d <= 0 {
			return nil, fmt.Errorf("thermal: non-positive diagonal at node %d (%g); model disconnected from ambient?", i, d)
		}
		inv[i] = 1 / d
	}
	return inv, nil
}

// Result packages a solved temperature field with its model for
// inspection: peak temperature, per-layer maps, per-unit lookups.
type Result struct {
	Model *Model
	// T is the temperature of every node in °C (grid nodes first,
	// then extras).
	T []float64
}

// Solve assembles and steady-state-solves the model in one call.
func Solve(m *Model, opt SolveOptions) (*Result, error) {
	sys, err := Assemble(m)
	if err != nil {
		return nil, err
	}
	t, err := sys.SolveSteady(opt)
	if err != nil {
		return nil, err
	}
	return &Result{Model: m, T: t}, nil
}

// Max returns the peak temperature in °C across all grid nodes.
func (r *Result) Max() float64 {
	nGrid := len(r.Model.Layers) * r.Model.Grid.Cells()
	max := math.Inf(-1)
	for _, t := range r.T[:nGrid] {
		if t > max {
			max = t
		}
	}
	return max
}

// LayerMax returns the peak temperature of layer l.
func (r *Result) LayerMax(l int) float64 {
	nc := r.Model.Grid.Cells()
	max := math.Inf(-1)
	for _, t := range r.T[l*nc : (l+1)*nc] {
		if t > max {
			max = t
		}
	}
	return max
}

// LayerMin returns the minimum temperature of layer l.
func (r *Result) LayerMin(l int) float64 {
	nc := r.Model.Grid.Cells()
	min := math.Inf(1)
	for _, t := range r.T[l*nc : (l+1)*nc] {
		if t < min {
			min = t
		}
	}
	return min
}

// LayerMap returns a copy of layer l's temperature field, row-major
// NX×NY.
func (r *Result) LayerMap(l int) []float64 {
	nc := r.Model.Grid.Cells()
	out := make([]float64, nc)
	copy(out, r.T[l*nc:(l+1)*nc])
	return out
}

// Extra returns the temperature of lumped extra node e.
func (r *Result) Extra(e int) float64 {
	return r.T[r.Model.extraNode(e)]
}

// At returns the temperature of cell (i,j) in layer l.
func (r *Result) At(l, i, j int) float64 {
	return r.T[r.Model.node(l, i, j)]
}

// Mean returns the plain average temperature over all grid cells
// (useful in tests as a smoothness reference for Max).
func (r *Result) Mean() float64 {
	nGrid := len(r.Model.Layers) * r.Model.Grid.Cells()
	var s float64
	for _, t := range r.T[:nGrid] {
		s += t
	}
	return s / float64(nGrid)
}
