package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"waterimm/internal/api"
	"waterimm/internal/mc"
	"waterimm/internal/service"
)

// Monte-Carlo load: one engine, called directly, runs fresh-seed jobs
// on a 64² two-chip water stack. Every draw perturbs the geometry
// (die_k, h) and the right-hand side (ambient_c), so each cell is a real
// solve on the structural fast path.
const (
	mcGrid    = 64
	mcChips   = 2
	mcSamples = 8
)

var mcEngineConfig = service.Config{Workers: 2, CacheEntries: 4096}

func mcJobRequest(seed int64) *api.MonteCarloRequest {
	return &api.MonteCarloRequest{
		Chip: "low-power", Chips: mcChips, Coolant: "water", ThresholdC: 80,
		GridNX: mcGrid, GridNY: mcGrid, Samples: mcSamples, Seed: seed,
		Params: map[string]mc.Dist{
			"die_k":     {Kind: "uniform", Min: 0.8, Max: 1.2},
			"h":         {Kind: "lognormal", Mean: 1, Sigma: 0.2, Min: 0.6, Max: 1.6},
			"ambient_c": {Kind: "uniform", Min: 20, Max: 35},
		},
	}
}

func mcCanaryRequest() *api.MonteCarloRequest { return mcJobRequest(424242) }

// mcJobSeed derives job idx's sampling seed from the workload seed; the
// canary (job 0) uses its stored seed instead.
func mcJobSeed(seed int64, idx int) int64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(idx)*0xbf58476d1ce4e5b9
	x ^= x >> 31
	return int64(x>>2) + 1<<40
}

type montecarlo struct {
	seed   int64
	eng    *service.Engine
	canary []byte // job 0's response, replayed on a fresh engine by verify
	reqs   []*api.MonteCarloRequest
	cells  int
	mark0  service.Snapshot
}

func newMonteCarlo(seed int64, _ string) workload { return &montecarlo{seed: seed} }

// setup builds the engine and seeds the geometry's nominal reference
// (hierarchy, basis, iteration baseline) with one perturbed cell, the
// state every timed job then borrows.
func (w *montecarlo) setup(ctx context.Context) error {
	w.eng = service.New(mcEngineConfig)
	cell := mcJobRequest(w.seed).Cells()[0]
	_, err := runJob(ctx, w.eng, cell)
	return err
}

func (w *montecarlo) counts() counts {
	s := w.eng.Metrics()
	c := counts{Computes: s.CacheMisses}
	addSolver(&c, s)
	return c
}

func (w *montecarlo) mark() { w.mark0 = w.eng.Metrics() }

func (w *montecarlo) block(ctx context.Context, idx int, tr *tracer, ph *phase) error {
	req := mcJobRequest(mcJobSeed(w.seed, idx))
	if idx == 0 {
		req = mcCanaryRequest()
	}
	if tr != nil {
		w.reqs = append(w.reqs, req)
	}
	var res any
	sp := tr.begin("service.montecarlo", -1, "")
	start := time.Now()
	res, err := runJob(ctx, w.eng, req)
	lat := time.Since(start)
	tr.end(sp, "")
	if err == nil {
		err = w.check(idx, res.(*api.MonteCarloResponse))
	}
	ph.op(lat, float64(req.TotalCells()), err)
	if err == nil {
		w.cells += req.TotalCells()
	}
	return ctx.Err()
}

// check verifies one job's statistics: the canary against its stored
// reference, every job for internal consistency.
func (w *montecarlo) check(idx int, resp *api.MonteCarloResponse) error {
	if idx == 0 {
		refs, err := loadRefs()
		if err != nil {
			return err
		}
		if err := refs.MonteCarlo.check(resp); err != nil {
			return err
		}
		if w.canary, err = statsJSON(resp); err != nil {
			return err
		}
	}
	if resp.TotalCells != mcSamples*5 || len(resp.Sobol) != 3 {
		return fmt.Errorf("montecarlo job has %d cells and %d Sobol rows", resp.TotalCells, len(resp.Sobol))
	}
	for _, s := range []mc.Summary{resp.FreqGHz, resp.EvalPeakC} {
		if !(s.Min <= s.P5 && s.P5 <= s.P50 && s.P50 <= s.P95 && s.P95 <= s.Max && s.Std >= 0) {
			return fmt.Errorf("montecarlo summary out of order: %+v", s)
		}
	}
	unit := func(v float64) bool { return v >= 0 && v <= 1 && !math.IsNaN(v) }
	if !unit(resp.ExceedProb) || !unit(resp.InfeasibleShare) {
		return fmt.Errorf("montecarlo probabilities out of range: exceed %g infeasible %g", resp.ExceedProb, resp.InfeasibleShare)
	}
	for _, s := range resp.Sobol {
		if !unit(s.FreqGHz.S1) || !unit(s.FreqGHz.ST) || !unit(s.EvalPeakC.S1) || !unit(s.EvalPeakC.ST) {
			return fmt.Errorf("montecarlo Sobol index out of [0, 1]: %+v", s)
		}
	}
	return nil
}

// verify reruns the canary job on a fresh engine: one build must give
// bit-identical statistics run to run.
func (w *montecarlo) verify(ctx context.Context, ph *phase) error {
	if w.canary == nil {
		return nil // job 0 already failed and was counted
	}
	e := service.New(mcEngineConfig)
	defer e.Close()
	res, err := runJob(ctx, e, mcCanaryRequest())
	if err != nil {
		ph.fail(fmt.Errorf("montecarlo canary replay: %w", err))
		return nil
	}
	again, err := statsJSON(res.(*api.MonteCarloResponse))
	if err != nil {
		return err
	}
	if !bytes.Equal(again, w.canary) {
		ph.fail(fmt.Errorf("montecarlo canary is not bit-identical across engines"))
	}
	return nil
}

// statsJSON encodes a job's statistics without its cache accounting,
// which depends on what the engine had already seen.
func statsJSON(resp *api.MonteCarloResponse) ([]byte, error) {
	r := *resp
	r.CachedCells, r.DedupedCells = 0, 0
	return json.Marshal(&r)
}

func (w *montecarlo) close() {
	if w.eng != nil {
		w.eng.Close()
	}
}
