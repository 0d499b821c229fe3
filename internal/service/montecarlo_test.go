package service

import (
	"context"
	"math"
	"reflect"
	"testing"

	"waterimm/internal/api"
	"waterimm/internal/core"
	"waterimm/internal/material"
	"waterimm/internal/mc"
	"waterimm/internal/power"
)

// mcServiceRequest perturbs only the inlet temperature of a shallow
// water-cooled stack on a coarse grid — the cheapest cell the planner
// solves, and (because the response is linear in ambient) the one case
// with a closed-form output distribution to test against.
func mcServiceRequest(samples int) *api.MonteCarloRequest {
	return &api.MonteCarloRequest{
		Chip: "lp", Chips: 1, Coolant: "water",
		GridNX: 8, GridNY: 8,
		Samples: samples, Seed: 7,
		Params: map[string]mc.Dist{
			"ambient_c": {Kind: "normal", Mean: 30, Sigma: 2},
		},
	}
}

func TestMonteCarloLifecycle(t *testing.T) {
	e := New(Config{})
	defer e.Close()
	req := mcServiceRequest(8)
	wantCells := 8 * 3 // N·(d+2), d=1
	in, err := e.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if in.Kind != "montecarlo" {
		t.Fatalf("kind %q", in.Kind)
	}
	if in.Progress == nil || in.Progress.TotalCells != wantCells {
		t.Fatalf("initial progress: %+v", in.Progress)
	}
	got := waitDone(t, e, in.ID)
	if got.State != StateDone {
		t.Fatalf("state %s, error %q", got.State, got.Error)
	}
	if got.Progress == nil || got.Progress.DoneCells != wantCells {
		t.Fatalf("final progress: %+v", got.Progress)
	}
	resp, ok := got.Result.(*api.MonteCarloResponse)
	if !ok {
		t.Fatalf("result type %T", got.Result)
	}
	if resp.Samples != 8 || resp.TotalCells != wantCells {
		t.Fatalf("response shape: %+v", resp)
	}
	if len(resp.Params) != 1 || resp.Params[0] != "ambient_c" || len(resp.Sobol) != 1 {
		t.Fatalf("params/sobol: %v %v", resp.Params, resp.Sobol)
	}
	// With one parameter the pivoted block A_B^0 equals B row for row,
	// so at least N of the cells must come back via dedup or cache —
	// the shared plan keyspace at work.
	if resp.CachedCells+resp.DedupedCells < 8 {
		t.Errorf("want >= 8 cells deduped or cached, got %d + %d",
			resp.CachedCells, resp.DedupedCells)
	}
	if resp.EvalGHz != 2.0 {
		t.Errorf("default eval step: %g", resp.EvalGHz)
	}
	if resp.InfeasibleShare != 0 {
		t.Errorf("shallow water stack infeasible share %g", resp.InfeasibleShare)
	}
	m := e.Metrics()
	if m.MCJobs != 1 {
		t.Errorf("mc_jobs = %d", m.MCJobs)
	}
	if m.MCSamplesDeduped != uint64(resp.CachedCells+resp.DedupedCells) {
		t.Errorf("mc_samples_deduped = %d, response says %d",
			m.MCSamplesDeduped, resp.CachedCells+resp.DedupedCells)
	}
}

// An infeasible stack must still produce statistics: frequency pins to
// 0, the infeasible share to 1, and the eval-step temperature (solved
// even though no step is admissible) drives exceedance to certainty.
func TestMonteCarloInfeasibleStack(t *testing.T) {
	e := New(Config{})
	defer e.Close()
	req := mcServiceRequest(8)
	req.Chips = 8
	req.Coolant = "air"
	in, err := e.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	got := waitDone(t, e, in.ID)
	if got.State != StateDone {
		t.Fatalf("state %s, error %q", got.State, got.Error)
	}
	resp := got.Result.(*api.MonteCarloResponse)
	if resp.InfeasibleShare != 1 || resp.FreqGHz.Max != 0 {
		t.Errorf("8-deep air stack: infeasible share %g, max freq %g",
			resp.InfeasibleShare, resp.FreqGHz.Max)
	}
	if resp.EvalPeakC.Min <= 80 {
		t.Errorf("eval peak min %.1f must exceed the threshold", resp.EvalPeakC.Min)
	}
	if resp.ExceedProb != 1 {
		t.Errorf("exceedance %g, want 1", resp.ExceedProb)
	}
}

// The headline statistics must agree with the closed form. With only
// ambient_c perturbed and leakage evaluated at the fixed threshold
// temperature, the thermal system is affine in the ambient boundary:
// peak(a) = peak(30) + (a − 30) exactly. So for ambient ~ N(30, 2) the
// eval-step peak is N(peak(30), 2), and the Monte-Carlo quantiles and
// exceedance probability must land within sampling error of the
// analytic values.
func TestMonteCarloAnalyticNormal(t *testing.T) {
	e := New(Config{})
	defer e.Close()

	// Probe the linearity directly through the plan path first.
	probe := func(ambient float64) float64 {
		in, err := e.Submit(&api.PlanRequest{
			Chip: "lp", Chips: 1, Coolant: "water", GridNX: 8, GridNY: 8,
			EvalGHz: 2.0, Perturb: &api.Perturb{AmbientC: ambient},
		})
		if err != nil {
			t.Fatal(err)
		}
		got := waitDone(t, e, in.ID)
		if got.State != StateDone {
			t.Fatalf("probe at %g: %s %q", ambient, got.State, got.Error)
		}
		return got.Result.(*api.PlanResponse).EvalPeakC
	}
	peak30 := probe(30)
	peak35 := probe(35)
	if math.Abs((peak35-peak30)-5) > 0.05 {
		t.Fatalf("peak not affine in ambient: peak(35)-peak(30) = %.4f", peak35-peak30)
	}

	req := mcServiceRequest(64)
	req.ExceedC = peak30 + 1.0 // P(N(peak30, 2) > peak30+1) = 1 − Φ(0.5)
	in, err := e.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	got := waitDone(t, e, in.ID)
	if got.State != StateDone {
		t.Fatalf("state %s, error %q", got.State, got.Error)
	}
	resp := got.Result.(*api.MonteCarloResponse)

	// 2N = 128 independent samples: stderr(mean) ≈ 0.18, stderr(P50) ≈
	// 0.22, stderr(std) ≈ 0.13, stderr(exceed) ≈ 0.04. Tolerances sit
	// at 4–5 sigma; the seed is fixed, so the test is deterministic.
	if math.Abs(resp.EvalPeakC.Mean-peak30) > 0.8 {
		t.Errorf("mean %.3f, analytic %.3f", resp.EvalPeakC.Mean, peak30)
	}
	if math.Abs(resp.EvalPeakC.P50-peak30) > 1.0 {
		t.Errorf("P50 %.3f, analytic %.3f", resp.EvalPeakC.P50, peak30)
	}
	if math.Abs(resp.EvalPeakC.Std-2) > 0.6 {
		t.Errorf("std %.3f, analytic 2", resp.EvalPeakC.Std)
	}
	// The P5–P95 spread of a normal is 2·1.6449σ ≈ 6.58.
	if spread := resp.EvalPeakC.P95 - resp.EvalPeakC.P5; math.Abs(spread-6.58) > 2.0 {
		t.Errorf("P5-P95 spread %.3f, analytic 6.58", spread)
	}
	wantExceed := 1 - 0.5*(1+math.Erf(0.5/math.Sqrt2)) // 1 − Φ(0.5) ≈ 0.3085
	if math.Abs(resp.ExceedProb-wantExceed) > 0.15 {
		t.Errorf("exceedance %.4f, analytic %.4f", resp.ExceedProb, wantExceed)
	}
	// One parameter carries all the variance: its Sobol indices on the
	// eval-step temperature must sit near 1 (clamped to [0, 1]).
	s := resp.Sobol[0]
	if s.EvalPeakC.S1 < 0.6 || s.EvalPeakC.ST < 0.6 {
		t.Errorf("single-parameter sobol: %+v", s.EvalPeakC)
	}
}

// Two independent engines given the same request must produce
// identical statistics: the sample plan is seeded and quantized, the
// solver is deterministic, and nothing about worker scheduling may
// leak into the reduction. (Cached/deduped counts are timing-dependent
// and deliberately excluded.)
func TestMonteCarloDeterministicAcrossEngines(t *testing.T) {
	run := func() *api.MonteCarloResponse {
		e := New(Config{})
		defer e.Close()
		req := mcServiceRequest(8)
		req.Params["h"] = mc.Dist{Kind: "lognormal", Mean: 1, Sigma: 0.2}
		in, err := e.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		got := waitDone(t, e, in.ID)
		if got.State != StateDone {
			t.Fatalf("state %s, error %q", got.State, got.Error)
		}
		return got.Result.(*api.MonteCarloResponse)
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a.FreqGHz, b.FreqGHz) || !reflect.DeepEqual(a.EvalPeakC, b.EvalPeakC) {
		t.Errorf("summaries diverge:\n%+v\n%+v", a, b)
	}
	if a.ExceedProb != b.ExceedProb || a.InfeasibleShare != b.InfeasibleShare {
		t.Errorf("probabilities diverge: %g/%g vs %g/%g",
			a.ExceedProb, a.InfeasibleShare, b.ExceedProb, b.InfeasibleShare)
	}
	if !reflect.DeepEqual(a.Sobol, b.Sobol) {
		t.Errorf("sobol diverges:\n%+v\n%+v", a.Sobol, b.Sobol)
	}
}

// Resubmitting an identical montecarlo job is a whole-job cache hit:
// no orchestrator run, no cell solves, nothing new missed.
func TestMonteCarloRepeatIsCacheHit(t *testing.T) {
	e := New(Config{})
	defer e.Close()
	first, err := e.Submit(mcServiceRequest(8))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, e, first.ID)
	m1 := e.Metrics()

	again, err := e.Submit(mcServiceRequest(8))
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit || again.State != StateDone {
		t.Fatalf("resubmit not served from cache: %+v", again)
	}
	m2 := e.Metrics()
	if m2.CacheMisses != m1.CacheMisses {
		t.Errorf("resubmit recomputed: misses %d -> %d", m1.CacheMisses, m2.CacheMisses)
	}
	if m2.CacheHits != m1.CacheHits+1 {
		t.Errorf("cache hits %d -> %d, want +1", m1.CacheHits, m2.CacheHits)
	}
	if m2.MCJobs != m1.MCJobs {
		t.Errorf("cached resubmit re-ran the orchestrator: mc_jobs %d -> %d", m1.MCJobs, m2.MCJobs)
	}
	res, err := e.Result(again.ID)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Result.(*api.MonteCarloResponse); !ok {
		t.Fatalf("cached result type %T", res.Result)
	}
}

// TestMonteCarloOutlivesFinishedRing: a montecarlo job may expand to
// more cells (up to api.MaxMonteCarloCells) than the engine keeps
// finished records (maxFinishedJobs). Here every draw quantizes to one
// plan cell, so all but the first cells finish at submission as cache
// hits or dedups, and the ring forgets the first cells' IDs before the
// orchestrator waits on them; the job must still complete.
func TestMonteCarloOutlivesFinishedRing(t *testing.T) {
	e := New(Config{})
	defer e.Close()
	req := &api.MonteCarloRequest{
		Chip: "lp", Chips: 1, Coolant: "water", GridNX: 8, GridNY: 8,
		Samples: 2048, Seed: 7,
		Params: map[string]mc.Dist{"ambient_c": {Kind: "uniform", Min: 25, Max: 25.0000001}},
	}
	if cells := req.TotalCells(); cells <= maxFinishedJobs {
		t.Fatalf("%d cells do not overflow the %d-record ring", cells, maxFinishedJobs)
	}
	in, err := e.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	got := waitDone(t, e, in.ID)
	if got.State != StateDone {
		t.Fatalf("state %s, error %q", got.State, got.Error)
	}
	if p := got.Progress; p.DoneCells != p.TotalCells {
		t.Fatalf("final progress: %+v", p)
	}
}

// coldSolveCell solves one sample cell the naive way: a fresh cold
// planner per cell — no session superposition, no structural cache, no
// dedup. This is the baseline the orchestrated montecarlo path is
// benchmarked against.
func coldSolveCell(ctx context.Context, r *api.PlanRequest) (float64, error) {
	chip, err := power.ModelByName(r.Chip)
	if err != nil {
		return 0, err
	}
	coolant, err := material.ByName(r.Coolant)
	if err != nil {
		return 0, err
	}
	p := core.NewPlanner()
	p.ColdStart = true
	p.Flip = r.Flip
	p.Params.GridNX, p.Params.GridNY = r.GridNX, r.GridNY
	applyRequest(p, &coolant, r)
	_, _, evalPeak, err := p.MaxFrequencyEvalCtx(ctx, chip, r.Chips, coolant, r.EvalGHz*1e9)
	return evalPeak, err
}

// BenchmarkMonteCarloDeduped runs a montecarlo job through the engine:
// duplicated Saltelli rows dedup, every max-frequency search reuses
// its session's superposition basis, and repeated geometries share
// assembled systems.
func BenchmarkMonteCarloDeduped(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := New(Config{})
		in, err := e.Submit(mcServiceRequest(8))
		if err != nil {
			b.Fatal(err)
		}
		got, err := e.Wait(context.Background(), in.ID)
		if err != nil || got.State != StateDone {
			b.Fatalf("wait: %v, state %s %s", err, got.State, got.Error)
		}
		e.Close()
	}
}

// BenchmarkMonteCarloIndependent solves the same cells naively, one
// cold planner each. The ratio to BenchmarkMonteCarloDeduped is the
// amplification the cache/superposition machinery buys (>= 2x).
func BenchmarkMonteCarloIndependent(b *testing.B) {
	req := mcServiceRequest(8)
	req.Normalize()
	if err := req.Validate(); err != nil {
		b.Fatal(err)
	}
	cells := req.Cells()
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		for _, cell := range cells {
			if _, err := coldSolveCell(ctx, cell); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// The nominal reference a perturbed geometry borrows is built under the
// request's flip layout, so it must be keyed by that layout too. Keyed
// without it, an engine that ran a flipped job first handed the
// flipped reference to later unflipped cells, and the same request's
// statistics depended on which jobs the engine had run before.
func TestMonteCarloReferenceKeyedByFlip(t *testing.T) {
	req := func(flip bool) *api.MonteCarloRequest {
		return &api.MonteCarloRequest{
			Chip: "lp", Chips: 4, Coolant: "water", Flip: flip,
			GridNX: 48, GridNY: 48, Samples: 8, Seed: 3,
			Params: map[string]mc.Dist{
				"die_k":     {Kind: "uniform", Min: 0.8, Max: 1.2},
				"ambient_c": {Kind: "uniform", Min: 20, Max: 35},
			},
		}
	}
	run := func(e *Engine, r *api.MonteCarloRequest) *api.MonteCarloResponse {
		in, err := e.Submit(r)
		if err != nil {
			t.Fatal(err)
		}
		got := waitDone(t, e, in.ID)
		if got.State != StateDone {
			t.Fatalf("state %s, error %q", got.State, got.Error)
		}
		return got.Result.(*api.MonteCarloResponse)
	}
	a := New(Config{})
	defer a.Close()
	alone := run(a, req(false))

	b := New(Config{})
	defer b.Close()
	run(b, req(true))
	after := run(b, req(false))

	if !reflect.DeepEqual(alone.EvalPeakC, after.EvalPeakC) || !reflect.DeepEqual(alone.FreqGHz, after.FreqGHz) {
		t.Errorf("unflipped statistics depend on an earlier flipped job:\nalone %+v\nafter %+v",
			alone.EvalPeakC, after.EvalPeakC)
	}
}

// TestMonteCarloQueueFullRetriesAreNotMisses: on a one-slot queue the
// job's fan-out cells keep hitting a full queue and retrying, yet each
// computed cell is one cache miss, not one per attempt — cache_misses
// counts admitted computes, so it equals jobs_done (the computed cells
// plus the job itself; cells served from cache count in neither).
func TestMonteCarloQueueFullRetriesAreNotMisses(t *testing.T) {
	e := New(Config{Workers: 1, QueueDepth: 1})
	defer e.Close()
	in, err := e.Submit(mcServiceRequest(8))
	if err != nil {
		t.Fatal(err)
	}
	if got := waitDone(t, e, in.ID); got.State != StateDone {
		t.Fatalf("state %s, error %q", got.State, got.Error)
	}
	m := e.Metrics()
	t.Logf("jobs_done %d, cache_misses %d, queue_full_rejects %d, jobs_submitted %d",
		m.JobsDone, m.CacheMisses, m.QueueFullRejects, m.JobsSubmitted)
	if m.CacheMisses != m.JobsDone {
		t.Errorf("cache_misses = %d, jobs_done = %d: rejected attempts counted as misses",
			m.CacheMisses, m.JobsDone)
	}
}
