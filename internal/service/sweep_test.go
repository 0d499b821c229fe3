package service

import (
	"context"
	"testing"
	"time"

	"waterimm/internal/api"
)

// fastSweep expands to 4 coarse-grid cells.
func fastSweep() *api.SweepRequest {
	return &api.SweepRequest{
		Chips:    []string{"lp"},
		Depths:   []int{1, 2},
		Coolants: []string{"air", "water"},
		GridNX:   8, GridNY: 8,
	}
}

func TestSweepLifecycle(t *testing.T) {
	e := New(Config{})
	defer e.Close()
	in, err := e.Submit(fastSweep())
	if err != nil {
		t.Fatal(err)
	}
	if in.Kind != "sweep" {
		t.Fatalf("kind %q", in.Kind)
	}
	if in.Progress == nil || in.Progress.TotalCells != 4 {
		t.Fatalf("initial progress: %+v", in.Progress)
	}
	got := waitDone(t, e, in.ID)
	if got.State != StateDone {
		t.Fatalf("state %s, error %q", got.State, got.Error)
	}
	if got.Progress == nil || got.Progress.DoneCells != 4 {
		t.Fatalf("final progress: %+v", got.Progress)
	}
	resp, ok := got.Result.(*api.SweepResponse)
	if !ok {
		t.Fatalf("result type %T", got.Result)
	}
	if resp.TotalCells != 4 || len(resp.Cells) != 4 {
		t.Fatalf("response shape: %+v", resp)
	}
	for i, c := range resp.Cells {
		if c.Plan == nil || c.Key == "" || c.Chip != "low-power" {
			t.Fatalf("cell %d: %+v", i, c)
		}
	}
}

// TestSweepSharesCellCache: a sweep's cells land in the same result
// cache as standalone plan requests, in both directions.
func TestSweepSharesCellCache(t *testing.T) {
	e := New(Config{})
	defer e.Close()

	// Pre-solve one cell as a standalone plan request.
	cell := &api.PlanRequest{Chip: "lp", Chips: 1, Coolant: "water", GridNX: 8, GridNY: 8}
	pre, err := e.Submit(cell)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, e, pre.ID)

	in, err := e.Submit(fastSweep())
	if err != nil {
		t.Fatal(err)
	}
	got := waitDone(t, e, in.ID)
	resp := got.Result.(*api.SweepResponse)
	if resp.CachedCells != 1 {
		t.Fatalf("cached cells %d, want 1 (the pre-solved plan)", resp.CachedCells)
	}
	if got.Progress.CachedCells != 1 {
		t.Fatalf("progress cached cells: %+v", got.Progress)
	}

	// The reverse direction: a plan request equal to a sweep cell hits
	// the cache the sweep populated.
	after, err := e.Submit(&api.PlanRequest{Chip: "lp", Chips: 2, Coolant: "air", GridNX: 8, GridNY: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !after.CacheHit {
		t.Fatal("plan request after sweep missed the cache")
	}
}

// TestSweepRepeatIsCacheHit: the whole-sweep response is itself
// cached under the sweep's canonical key.
func TestSweepRepeatIsCacheHit(t *testing.T) {
	e := New(Config{})
	defer e.Close()
	first, err := e.Submit(fastSweep())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, e, first.ID)
	second, err := e.Submit(fastSweep())
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit || second.State != StateDone {
		t.Fatalf("repeat sweep snapshot: %+v", second)
	}
}

func TestSweepCancelStopsCells(t *testing.T) {
	e := New(Config{Workers: 1})
	defer e.Close()
	// Deep cells on a fine grid keep the single worker busy long
	// enough for the cancel to land mid-sweep.
	in, err := e.Submit(&api.SweepRequest{
		Chips:    []string{"lp"},
		Depths:   []int{14, 15, 16},
		Coolants: []string{"water"},
		GridNX:   64, GridNY: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // let the first cell start
	if _, err := e.Cancel(in.ID); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	got, err := e.Wait(ctx, in.ID)
	if err != nil {
		t.Fatalf("sweep did not stop after cancel: %v", err)
	}
	if got.State != StateCanceled && got.State != StateFailed {
		t.Fatalf("state %s after cancel", got.State)
	}
}

func TestSweepInvalid(t *testing.T) {
	e := New(Config{})
	defer e.Close()
	if _, err := e.Submit(&api.SweepRequest{Depths: []int{0}}); err == nil {
		t.Fatal("invalid sweep accepted")
	}
}

// TestSweepDrain: Drain must wait for a running sweep (whose
// orchestrator is not a pool worker) and its cells.
func TestSweepDrain(t *testing.T) {
	e := New(Config{Workers: 2})
	in, err := e.Submit(fastSweep())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := e.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	got, err := e.Result(in.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateDone {
		t.Fatalf("sweep drained in state %s (%s)", got.State, got.Error)
	}
}

// TestSweepMetrics: sweeps report their own latency stage and feed
// the structural-cache stats (cells share geometry across thresholds).
// The engine runs one worker, so the first cell has seeded the
// geometry's structure before the next one assembles: cells solving
// concurrently on a fresh geometry could each miss.
func TestSweepMetrics(t *testing.T) {
	e := New(Config{Workers: 1})
	defer e.Close()
	in, err := e.Submit(&api.SweepRequest{
		Chips:       []string{"lp"},
		Depths:      []int{2},
		Coolants:    []string{"water"},
		ThresholdsC: []float64{70, 80, 90},
		GridNX:      8, GridNY: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, e, in.ID)
	m := e.Metrics()
	if m.LatencyS["run.sweep"] == nil || m.LatencyS["run.sweep"].Count != 1 {
		t.Fatalf("sweep latency histogram: %+v", m.LatencyS["run.sweep"])
	}
	// Three thresholds over one geometry: the second and third cells
	// must reuse the geometry's cached structure.
	if m.AssemblySymbolicHits < 2 {
		t.Fatalf("symbolic assembly hits %d, misses %d; want >= 2 hits",
			m.AssemblySymbolicHits, m.AssemblySymbolicMisses)
	}
}
