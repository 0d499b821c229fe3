package core

import (
	"context"
	"math"
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
	s, err := nominal.NewSession(power.LowPower, 2, material.Water)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	st := g.Stats()
	if st.SymbolicMisses != 1 || st.SymbolicHits != 0 || st.Geometries != 1 {
		t.Fatalf("after seeding: %+v", st)
	}

	sp, err := perturbedPlanner(g).NewSession(power.LowPower, 2, material.Water)
	if err != nil {
		t.Fatal(err)
	}
	sp.Close()
	st = g.Stats()
	if st.SymbolicHits != 1 || st.SymbolicMisses != 1 || st.Geometries != 1 {
		t.Fatalf("perturbed session missed the structural cache: %+v", st)
	}
}

// TestPerturbedSkipsSystemPool pins the eviction-pressure contract: a
// perturbed one-shot session must never Acquire from or Release to
// the system pool — its value-unique key could not hit, and pooling
// it would evict the hot shared geometries.
func TestPerturbedSkipsSystemPool(t *testing.T) {
	pool := thermal.NewSystemCache(4)
	g := NewGeomCache(8)
	p := perturbedPlanner(g)
	p.Cache = pool
	s, err := p.NewSession(power.LowPower, 2, material.Water)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Peak(context.Background(), 1.2e9); err != nil {
		t.Fatal(err)
	}
	s.Close()
	st := pool.Stats()
	if st.Hits != 0 || st.Misses != 0 || st.Idle != 0 {
		t.Fatalf("perturbed session touched the system pool: %+v", st)
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
	sp.Close()
	st := g.Stats()
	if st.PrecondReused != 1 || st.PrecondRefreshed != 1 {
		t.Fatalf("borrow/refresh counters: %+v", st)
	}

	// The structural path changes iteration counts, never results.
	ss, err := stiffDie(nil).NewSession(power.LowPower, 2, material.Water)
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
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
	sp.Close()
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
		s, err := p.NewSession(power.LowPower, 1, material.Water)
		if err != nil {
			t.Fatalf("grid %d: %v", grid, err)
		}
		s.Close()
	}
	if st := g.Stats(); st.Geometries > 2 {
		t.Fatalf("cache exceeded its capacity: %+v", st)
	}
}
