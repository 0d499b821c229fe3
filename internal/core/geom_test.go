package core

import (
	"context"
	"math"
	"reflect"
	"testing"

	"waterimm/internal/material"
	"waterimm/internal/power"
	"waterimm/internal/thermal"
)

// perturbedPlanner returns a planner marked as a one-shot perturbed
// sample of the fastPlanner geometry: same topology, different values.
func perturbedPlanner(g *GeomCache) *Planner {
	p := fastPlanner()
	p.Geoms = g
	p.Perturbed = true
	p.Params.DieK *= 1.21
	p.Params.TIMK *= 0.87
	p.Params.AmbientC = 31
	return p
}

// TestGeomCacheSymbolicReuse: the first session of a geometry seeds
// the structural cache with a full assembly; every same-topology
// session after it — perturbed values included — reassembles through
// the cached sparsity skeleton.
func TestGeomCacheSymbolicReuse(t *testing.T) {
	g := NewGeomCache(8)
	nominal := fastPlanner()
	nominal.Geoms = g
	if _, err := nominal.NewSession(power.LowPower, 2, material.Water); err != nil {
		t.Fatal(err)
	}
	st := g.Stats()
	if st.SymbolicMisses != 1 || st.SymbolicHits != 0 || st.Geometries != 1 {
		t.Fatalf("after seeding: %+v", st)
	}

	if _, err := perturbedPlanner(g).NewSession(power.LowPower, 2, material.Water); err != nil {
		t.Fatal(err)
	}
	st = g.Stats()
	if st.SymbolicHits != 1 || st.SymbolicMisses != 1 || st.Geometries != 1 {
		t.Fatalf("perturbed session missed the structural cache: %+v", st)
	}
}

// TestPerturbedGeomRefSurvivesEviction pins the seeded reference: a
// planner that seeded its geometry's reference and is then perturbed
// borrows that reference even after the cache evicted it (capacity 1,
// a second geometry seeded in between), so the cell's bits and
// iteration path do not depend on what else shared the cache. The
// borrowed basis must show in the iterations: the three basis solves
// warm-started from it take fewer than the same planner's cold basis
// solves with no cache at all.
func TestPerturbedGeomRefSurvivesEviction(t *testing.T) {
	ctx := context.Background()
	type outcome struct {
		plan  Plan
		t     []float64
		eval  float64
		iters []int
	}
	// run solves the perturbed cell; seed seeds (and evict then
	// evicts) the geometry's reference first, !seed runs with a nil
	// Geoms.
	run := func(seed, evict bool) outcome {
		p := fastPlanner()
		p.Precond = thermal.PrecondMG
		g := NewGeomCache(1)
		if seed {
			p.Geoms = g
			if err := p.EnsureGeomRef(ctx, power.LowPower, 2, material.Water); err != nil {
				t.Fatal(err)
			}
		}
		if evict {
			other := fastPlanner()
			other.Geoms, other.Precond = g, thermal.PrecondMG
			if err := other.EnsureGeomRef(ctx, power.LowPower, 3, material.Water); err != nil {
				t.Fatal(err)
			}
			if st := g.Stats(); st.Geometries != 1 {
				t.Fatalf("capacity-1 cache holds %d geometries", st.Geometries)
			}
		}
		var out outcome
		p.OnSolve = func(st thermal.SolveStats) { out.iters = append(out.iters, st.Iterations) }
		p.Perturbed = true
		p.Params.DieK *= 1.21
		p.Params.TIMK *= 0.87
		p.Params.AmbientC = 31
		plan, res, eval, err := p.MaxFrequencyEvalCtx(ctx, power.LowPower, 2, material.Water, 1.2e9)
		if err != nil {
			t.Fatal(err)
		}
		if res == nil {
			t.Fatal("infeasible plan, no field to compare")
		}
		if len(out.iters) < 3 {
			t.Fatalf("seed=%t evict=%t: %d solves, want the three basis solves first", seed, evict, len(out.iters))
		}
		out.plan, out.t, out.eval = plan, res.T, eval
		return out
	}
	want, got, cold := run(true, false), run(true, true), run(false, false)
	if got.plan.Step != want.plan.Step || got.plan.PeakC != want.plan.PeakC || got.eval != want.eval {
		t.Errorf("after eviction: step %v peak %v eval %v, want %v %v %v",
			got.plan.Step, got.plan.PeakC, got.eval, want.plan.Step, want.plan.PeakC, want.eval)
	}
	if !reflect.DeepEqual(got.t, want.t) {
		t.Error("after eviction the field differs from the run without it")
	}
	if !reflect.DeepEqual(got.iters, want.iters) {
		t.Errorf("iterations per solve after eviction %v, want %v", got.iters, want.iters)
	}
	basisIters := func(o outcome) int { return o.iters[0] + o.iters[1] + o.iters[2] }
	if w, c := basisIters(want), basisIters(cold); w >= c {
		t.Errorf("basis solves took %d iterations on the seeded reference, %d without one: the pinned basis went unused (seeded %v, cold %v)",
			w, c, want.iters, cold.iters)
	}
}

// TestPerturbedStiffDieMatchesIndependentSolve: a perturbation at
// the edge of the API's window (die_k ×20) warm-started from the
// seeded nominal reference converges to the same peak as an
// independent session with no cache — the reference changes iteration
// counts, never results.
func TestPerturbedStiffDieMatchesIndependentSolve(t *testing.T) {
	ctx := context.Background()
	g := NewGeomCache(8)
	nominal := fastPlanner()
	nominal.Geoms = g
	nominal.Precond = thermal.PrecondMG
	if err := nominal.EnsureGeomRef(ctx, power.LowPower, 2, material.Water); err != nil {
		t.Fatal(err)
	}

	peak := func(g *GeomCache) float64 {
		p := fastPlanner()
		p.Geoms, p.Perturbed, p.Precond = g, true, thermal.PrecondMG
		p.Params.DieK *= 20
		s, err := p.NewSession(power.LowPower, 2, material.Water)
		if err != nil {
			t.Fatal(err)
		}
		if (g != nil) != (s.refBasisFields() != nil) {
			t.Fatalf("cache %t: borrowed basis present = %t", g != nil, s.refBasisFields() != nil)
		}
		v, err := s.Peak(ctx, 1.2e9)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	got, want := peak(g), peak(nil)
	if d := math.Abs(got - want); d > 1e-4 {
		t.Errorf("reference-path peak %v differs from independent solve %v by %.2e C", got, want, d)
	}
}

// TestGeomCacheEviction: the cache stays bounded under geometry churn
// and keeps serving correct structures across evictions.
func TestGeomCacheEviction(t *testing.T) {
	g := NewGeomCache(2)
	for _, grid := range []int{8, 12, 16, 12, 8} {
		p := fastPlanner()
		p.Geoms = g
		p.Params.GridNX, p.Params.GridNY = grid, grid
		if _, err := p.NewSession(power.LowPower, 1, material.Water); err != nil {
			t.Fatalf("grid %d: %v", grid, err)
		}
	}
	if st := g.Stats(); st.Geometries > 2 {
		t.Fatalf("cache exceeded its capacity: %+v", st)
	}
}
