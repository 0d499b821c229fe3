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
// iteration path do not depend on what else shared the cache.
func TestPerturbedGeomRefSurvivesEviction(t *testing.T) {
	ctx := context.Background()
	type outcome struct {
		plan  Plan
		t     []float64
		eval  float64
		iters []int
	}
	run := func(evict bool) outcome {
		g := NewGeomCache(1)
		p := fastPlanner()
		p.Geoms, p.Precond = g, thermal.PrecondMG
		if err := p.EnsureGeomRef(ctx, power.LowPower, 2, material.Water); err != nil {
			t.Fatal(err)
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
		if st := g.Stats(); st.PrecondReused != 1 {
			t.Errorf("evict=%t: perturbed session did not borrow the seeded hierarchy: %+v", evict, st)
		}
		out.plan, out.t, out.eval = plan, res.T, eval
		return out
	}
	want, got := run(false), run(true)
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
}

// TestPerturbedBorrowsAndRefreshes walks the stale-preconditioner
// lifecycle end to end: EnsureGeomRef seeds the geometry's nominal
// reference, a perturbed session borrows its hierarchy and basis, and
// a perturbation at the edge of the API's window (die_k ×20) drives
// the first borrowed solve past the default guard (2× the nominal
// baseline plus 4), which refreshes the hierarchy's values — with
// every field matching an independent solve throughout.
func TestPerturbedBorrowsAndRefreshes(t *testing.T) {
	g := NewGeomCache(8)
	ctx := context.Background()

	nominal := fastPlanner()
	nominal.Geoms = g
	nominal.Precond = thermal.PrecondMG
	if err := nominal.EnsureGeomRef(ctx, power.LowPower, 2, material.Water); err != nil {
		t.Fatal(err)
	}
	if st := g.Stats(); st.PrecondReused != 0 {
		t.Fatalf("seeding the reference counted as a borrow: %+v", st)
	}

	stiffDie := func(g *GeomCache) *Planner {
		p := fastPlanner()
		p.Geoms, p.Perturbed, p.Precond = g, true, thermal.PrecondMG
		p.Params.DieK *= 20
		return p
	}
	pp := stiffDie(g)
	var iters []int
	pp.OnSolve = func(st thermal.SolveStats) { iters = append(iters, st.Iterations) }
	sp, err := pp.NewSession(power.LowPower, 2, material.Water)
	if err != nil {
		t.Fatal(err)
	}
	if sp.borrowed == nil {
		t.Fatal("perturbed MG session did not borrow the reference hierarchy")
	}
	if sp.refBasisFields() == nil {
		t.Fatal("perturbed session did not borrow the nominal basis")
	}
	limit := 2*sp.refIters + 4
	peak, err := sp.Peak(ctx, 1.2e9)
	if err != nil {
		t.Fatal(err)
	}
	if sp.borrowed != nil {
		t.Fatalf("die_k ×20 did not trip the default guard (limit %d, iterations %v)", limit, iters)
	}
	// The refreshed hierarchy must bring later solves (the basis
	// build and the verification solve) back under the limit.
	if _, err := sp.Peak(ctx, 1.2e9); err != nil {
		t.Fatal(err)
	}
	t.Logf("iterations %v, limit %d", iters, limit)
	if len(iters) < 2 || iters[0] <= limit {
		t.Fatalf("want a first solve over the limit %d, got %v", limit, iters)
	}
	for _, n := range iters[1:] {
		if n > limit {
			t.Errorf("solve after the refresh took %d iterations, over the limit %d (all: %v)", n, limit, iters)
		}
	}
	st := g.Stats()
	if st.PrecondReused != 1 || st.PrecondRefreshed != 1 {
		t.Fatalf("borrow/refresh counters: %+v", st)
	}

	// The structural path changes iteration counts, never results.
	ss, err := stiffDie(nil).NewSession(power.LowPower, 2, material.Water)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ss.Peak(ctx, 1.2e9)
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(peak - want); d > 1e-4 {
		t.Errorf("borrowed-path peak differs from independent solve by %.2e C", d)
	}
}

// TestBorrowGuardStaysColdAtDefault: with the default factor and a
// healthy baseline, a mild perturbation must keep the borrowed
// hierarchy (no refresh) — the fast path actually stays fast.
func TestBorrowGuardStaysColdAtDefault(t *testing.T) {
	g := NewGeomCache(8)
	ctx := context.Background()

	nominal := fastPlanner()
	nominal.Geoms = g
	nominal.Precond = thermal.PrecondMG
	if err := nominal.EnsureGeomRef(ctx, power.LowPower, 2, material.Water); err != nil {
		t.Fatal(err)
	}

	pp := perturbedPlanner(g)
	pp.Precond = thermal.PrecondMG
	sp, err := pp.NewSession(power.LowPower, 2, material.Water)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sp.Peak(ctx, 1.2e9); err != nil {
		t.Fatal(err)
	}
	if sp.borrowed == nil {
		t.Error("mild perturbation tripped the refresh guard")
	}
	if st := g.Stats(); st.PrecondRefreshed != 0 {
		t.Errorf("refresh counted: %+v", st)
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
