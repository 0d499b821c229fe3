package thermal

import (
	"fmt"
	"math"
)

// SolveSOR is the test suite's SOR oracle: it solves G·T = q with
// successive over-relaxation, the classic stationary alternative to
// the conjugate gradient. For the SPD conductance systems this package
// assembles, SOR converges for any relaxation factor ω ∈ (0, 2);
// ω ≈ 1.8 works well on the package stacks. CG is the solver; SOR
// cross-checks it (TestSORAgreesWithCG), and BenchmarkAblationSolver
// quantifies the difference.
func (s *System) SolveSOR(omega float64, tol float64, maxSweeps int) ([]float64, error) {
	if omega <= 0 || omega >= 2 {
		return nil, fmt.Errorf("thermal: SOR relaxation %g outside (0,2)", omega)
	}
	if tol <= 0 {
		tol = 1e-9
	}
	if maxSweeps <= 0 {
		maxSweeps = 20000
	}
	n, op := s.N, s.op
	grid := op.layers * op.nx * op.ny
	x := make([]float64, n)
	for i := range x {
		x[i] = s.model.AmbientC
	}
	for i, d := range s.Diag {
		if d <= 0 {
			return nil, fmt.Errorf("thermal: non-positive diagonal at node %d", i)
		}
	}
	// Reference residual for the stopping rule.
	r := make([]float64, n)
	s.MatVec(r, x)
	var r0 float64
	for i := range r {
		d := s.Q[i] - r[i]
		r0 += d * d
	}
	r0 = math.Sqrt(r0)
	if r0 == 0 {
		return x, nil
	}
	for sweep := 0; sweep < maxSweeps; sweep++ {
		// One Gauss-Seidel sweep with over-relaxation. Each row's
		// off-diagonal sum starts from +0 and runs in the stencil's
		// summation order.
		for row := 0; row < n; row++ {
			var sum float64
			if row < grid {
				so, w, e, no, down, up := op.terms(x, row)
				sum = sum + so + w + e + no + down + up
			}
			if op.xPtr != nil {
				for k := op.xPtr[row]; k < op.xPtr[row+1]; k++ {
					sum += op.xVal[k] * x[op.xCol[k]]
				}
			}
			gs := (s.Q[row] - sum) / s.Diag[row]
			x[row] += omega * (gs - x[row])
		}
		if sweep%16 == 15 {
			s.MatVec(r, x)
			var rn float64
			for i := range r {
				d := s.Q[i] - r[i]
				rn += d * d
			}
			if math.Sqrt(rn) <= tol*r0 {
				return x, nil
			}
		}
	}
	return nil, fmt.Errorf("thermal: SOR did not converge in %d sweeps", maxSweeps)
}
