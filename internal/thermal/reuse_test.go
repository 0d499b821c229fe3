package thermal

import (
	"math"
	"sync"
	"testing"
)

// solveSys runs a cold CG solve on sys with the given preconditioner.
func solveSys(t *testing.T, sys *System, prec Preconditioner) ([]float64, SolveStats) {
	t.Helper()
	var stats SolveStats
	x, err := sys.SolveSteady(SolveOptions{Tol: 1e-8, Precond: prec, Stats: &stats})
	if err != nil {
		t.Fatal(err)
	}
	return x, stats
}

func maxAbsDiff(a, b []float64) float64 {
	var d float64
	for i := range a {
		d = math.Max(d, math.Abs(a[i]-b[i]))
	}
	return d
}

// TestBorrowConcurrentApply: borrowed hierarchies share all operator
// data but own their work buffers, so concurrent solves (run under
// -race in CI) must be clean and agree with a solo solve.
func TestBorrowConcurrentApply(t *testing.T) {
	nominal, err := Assemble(mgStack(32, 32, true))
	if err != nil {
		t.Fatal(err)
	}
	mg, err := nominal.Multigrid()
	if err != nil {
		t.Fatal(err)
	}
	want, _ := solveSys(t, nominal, mg)

	const borrowers = 4
	fields := make([][]float64, borrowers)
	var wg sync.WaitGroup
	for i := 0; i < borrowers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sys, err := Assemble(mgStack(32, 32, true))
			if err != nil {
				t.Error(err)
				return
			}
			x, err := sys.SolveSteady(SolveOptions{Tol: 1e-8, Precond: mg.Borrow()})
			if err != nil {
				t.Error(err)
				return
			}
			fields[i] = x
		}(i)
	}
	wg.Wait()
	for i, x := range fields {
		if x == nil {
			continue
		}
		if d := maxAbsDiff(x, want); d > 1e-6 {
			t.Errorf("borrower %d diverged by %.3e from the solo solve", i, d)
		}
	}
}

// TestStalePrecondConverges: a perturbed system solved under the
// *nominal* hierarchy must still reach the same field as with its own
// fresh hierarchy — an approximate SPD preconditioner changes the
// iteration count, never the fixed point.
func TestStalePrecondConverges(t *testing.T) {
	nominal, err := Assemble(mgStack(32, 32, true))
	if err != nil {
		t.Fatal(err)
	}
	nomMG, err := nominal.Multigrid()
	if err != nil {
		t.Fatal(err)
	}

	perturbed, err := Assemble(perturbStack(32, 32, true))
	if err != nil {
		t.Fatal(err)
	}
	own, err := perturbed.Multigrid()
	if err != nil {
		t.Fatal(err)
	}
	xOwn, sOwn := solveSys(t, perturbed, own)

	stale, err := Assemble(perturbStack(32, 32, true))
	if err != nil {
		t.Fatal(err)
	}
	xStale, sStale := solveSys(t, stale, nomMG.Borrow())
	var maxRise float64
	for _, v := range xOwn {
		maxRise = math.Max(maxRise, v-31.5)
	}
	if d := maxAbsDiff(xOwn, xStale); d > 1e-4*maxRise {
		t.Errorf("stale-preconditioned field differs by %.3e", d)
	}
	t.Logf("own hierarchy %d iters, stale nominal hierarchy %d iters", sOwn.Iterations, sStale.Iterations)
}

// TestRefreshedCopyMatchesFreshBuild: refreshing values under a
// reused structure must behave like a from-scratch hierarchy for the
// perturbed system — same field, same iteration count.
func TestRefreshedCopyMatchesFreshBuild(t *testing.T) {
	nominal, err := Assemble(mgStack(32, 32, true))
	if err != nil {
		t.Fatal(err)
	}
	nomMG, err := nominal.Multigrid()
	if err != nil {
		t.Fatal(err)
	}

	perturbed, err := Assemble(perturbStack(32, 32, true))
	if err != nil {
		t.Fatal(err)
	}
	refreshed, err := nomMG.RefreshedCopy(perturbed)
	if err != nil {
		t.Fatal(err)
	}
	if refreshed.Levels() != nomMG.Levels() {
		t.Fatalf("refresh changed the hierarchy depth: %d vs %d", refreshed.Levels(), nomMG.Levels())
	}
	// The geometric transfers must be shared, not rebuilt.
	if refreshed.levels[0].prolong != nomMG.levels[0].prolong {
		t.Error("RefreshedCopy rebuilt the prolongation instead of sharing it")
	}
	xRef, sRef := solveSys(t, perturbed, refreshed)

	fresh, err := Assemble(perturbStack(32, 32, true))
	if err != nil {
		t.Fatal(err)
	}
	freshMG, err := fresh.Multigrid()
	if err != nil {
		t.Fatal(err)
	}
	xFresh, sFresh := solveSys(t, fresh, freshMG)
	if d := maxAbsDiff(xRef, xFresh); d > 1e-6 {
		t.Errorf("refreshed vs fresh fields differ by %.3e", d)
	}
	if sRef.Iterations != sFresh.Iterations {
		t.Errorf("refreshed hierarchy iterates differently from a fresh build: %d vs %d", sRef.Iterations, sFresh.Iterations)
	}

	// A structurally different system must be rejected, not mis-solved.
	other, err := Assemble(mgStack(48, 32, true))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nomMG.RefreshedCopy(other); err == nil {
		t.Error("RefreshedCopy accepted a different structure")
	}
}
