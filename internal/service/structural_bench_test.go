package service

import (
	"context"
	"testing"

	"waterimm/internal/api"
	"waterimm/internal/mc"
)

// mcSolverBoundRequest builds the structural-reuse acceptance
// workloads: montecarlo jobs whose cells are MG-sized (128×128 grid)
// and value-unique, so nothing hides behind result-cache hits — every
// solved cell pays assembly and preconditioning.
//
// The "deduped-class" shape (allParams=false) matches
// BenchmarkMonteCarloDeduped: a single ambient_c draw, the common
// one-uncertain-parameter study. Ambient only moves the right-hand
// side, so the nominal basis warm starts are exact up to solver
// tolerance — the fast path's best case. allParams=true adds
// conductance and film draws (die_k, h), which perturb the matrix
// itself, so the warm starts are a few percent off — the fast path's
// hard case.
func mcSolverBoundRequest(allParams bool) *api.MonteCarloRequest {
	r := &api.MonteCarloRequest{
		Chip: "lp", Chips: 1, Coolant: "water",
		GridNX: 128, GridNY: 128,
		Samples: 8, Seed: 7,
		Params: map[string]mc.Dist{
			"ambient_c": {Kind: "normal", Mean: 30, Sigma: 2},
		},
	}
	if allParams {
		r.Params["die_k"] = mc.Dist{Kind: "lognormal", Mean: 1, Sigma: 0.1}
		r.Params["h"] = mc.Dist{Kind: "lognormal", Mean: 1, Sigma: 0.2}
	}
	return r
}

func benchMonteCarloSolverBound(b *testing.B, disable, allParams bool) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		e := New(Config{DisableStructuralReuse: disable})
		in, err := e.Submit(mcSolverBoundRequest(allParams))
		if err != nil {
			b.Fatal(err)
		}
		got, err := e.Wait(context.Background(), in.ID)
		if err != nil || got.State != StateDone {
			b.Fatalf("wait: %v, state %s %s", err, got.State, got.Error)
		}
		m := e.Metrics()
		e.Close()
		if !disable {
			// Guard the fast path actually engaging: a counter that
			// sits at zero means this benchmark is comparing nothing.
			if m.AssemblySymbolicHits == 0 {
				b.Fatal("fast path dark: no symbolic assembly hits")
			}
			b.ReportMetric(float64(m.AssemblySymbolicHits), "symbolic-hits")
		}
	}
}

// BenchmarkMonteCarloFastPath runs the MG-sized montecarlo workloads
// on the structural fast path: value-only reassembly through the
// shared sparsity skeleton and nominal-basis warm starts; every cell
// builds its own multigrid hierarchy.
func BenchmarkMonteCarloFastPath(b *testing.B) {
	b.Run("deduped-class", func(b *testing.B) { benchMonteCarloSolverBound(b, false, false) })
	b.Run("all-params", func(b *testing.B) { benchMonteCarloSolverBound(b, false, true) })
}

// BenchmarkMonteCarloFullRebuild is the pre-structural baseline: the
// identical workloads with every cell paying full symbolic assembly,
// its own multigrid hierarchy build and cold basis solves. The ratio
// to BenchmarkMonteCarloFastPath is the PR's acceptance number (≥2× on
// the deduped-class shape).
func BenchmarkMonteCarloFullRebuild(b *testing.B) {
	b.Run("deduped-class", func(b *testing.B) { benchMonteCarloSolverBound(b, true, false) })
	b.Run("all-params", func(b *testing.B) { benchMonteCarloSolverBound(b, true, true) })
}
