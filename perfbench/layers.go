package main

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"

	"waterimm/internal/api"
	"waterimm/internal/core"
	"waterimm/internal/cosim"
	"waterimm/internal/floorplan"
	"waterimm/internal/material"
	"waterimm/internal/mcpat"
	"waterimm/internal/npb"
	"waterimm/internal/power"
	"waterimm/internal/rcache"
	"waterimm/internal/service"
	"waterimm/internal/stack"
	"waterimm/internal/thermal"
)

// perLayer lists every per-layer metric a traced run reports, in the
// order of BENCHMARK.json. A workload that bypasses a layer reports 0
// for that layer's metrics.
var perLayer = []struct{ name, unit string }{
	{"router.edge_hit_frac", "frac"},
	{"router.edge_hit_ms", "ms"},
	{"router.proxy_ms", "ms"},
	{"router.failovers", "count"},
	{"httpapi.hit_ms", "ms"},
	{"api.canon_us", "us"},
	{"service.queue_wait_ms", "ms"},
	{"service.run_ms.plan", "ms"},
	{"service.run_ms.sweep", "ms"},
	{"service.run_ms.audit", "ms"},
	{"service.run_ms.montecarlo", "ms"},
	{"service.run_ms.cosimstream", "ms"},
	{"service.run_ms.cosim", "ms"},
	{"service.computes", "count"},
	{"service.mem_hit_frac", "frac"},
	{"service.dedup_hits", "count"},
	{"service.mc_cells_deduped_frac", "frac"},
	{"service.stream_intervals", "count"},
	{"service.stream_checkpoints", "count"},
	{"rcache.get_ms", "ms"},
	{"rcache.put_ms", "ms"},
	{"rcache.bytes_written_per_work", "bytes/work"},
	{"core.plan_ms", "ms"},
	{"core.solves_per_cell", "solves/cell"},
	{"core.geom_ref_ms", "ms"},
	{"core.symbolic_hit_frac", "frac"},
	{"core.precond_reuse_frac", "frac"},
	{"thermal.assemble_ms", "ms"},
	{"thermal.reassemble_ms", "ms"},
	{"thermal.mg_setup_ms", "ms"},
	{"thermal.solve_ms", "ms"},
	{"thermal.cg_iters_per_solve.mg", "iters/solve"},
	{"thermal.cg_iters_per_solve.jacobi", "iters/solve"},
	{"thermal.pool_hit_frac", "frac"},
	{"thermal.step_ms", "ms"},
	{"cosim.interval_ms", "ms"},
	{"cosim.kernel_run_ms", "ms"},
	{"cosim.checkpoint_bytes", "bytes"},
	{"mc.expand_ms", "ms"},
	{"proc.cpu_s_per_work", "s/work"},
	{"proc.gc_cpu_frac", "frac"},
	{"proc.alloc_mb_per_work", "MB/work"},
	{"client.retries", "count"},
	{"trace.overhead_frac", "frac"},
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// procLayers fills the process metrics of a phase.
func procLayers(m map[string]float64, ph *phase) {
	m["proc.cpu_s_per_work"] = ratio(ph.cpuS, ph.work)
	m["proc.gc_cpu_frac"] = ph.gcFrac
	m["proc.alloc_mb_per_work"] = ratio(ph.allocMB, ph.work)
}

// engineLayers fills the service, core and thermal counters from the
// engines' snapshot deltas over the traced phase. cells is the number
// of Monte-Carlo sample cells the phase submitted.
func engineLayers(m map[string]float64, before, after []service.Snapshot, cells int) {
	hist := func(stage string) float64 {
		var n uint64
		var sum float64
		for i := range after {
			if h := after[i].LatencyS[stage]; h != nil {
				n += h.Count
				sum += h.SumS
			}
			if h := before[i].LatencyS[stage]; h != nil {
				n -= h.Count
				sum -= h.SumS
			}
		}
		return 1e3 * ratio(sum, float64(n))
	}
	m["service.queue_wait_ms"] = hist("queue")
	for _, kind := range []string{"plan", "sweep", "audit", "montecarlo", "cosimstream", "cosim"} {
		m["service.run_ms."+kind] = hist("run." + kind)
	}
	var d struct {
		misses, memHits, diskHits, dedup, mcDeduped, intervals, ckpts float64
		symHits, symMisses, reused, refreshed, poolHits, poolMisses   float64
		solves, iters                                                 [2]float64
	}
	for i := range after {
		a, b := after[i], before[i]
		d.misses += float64(a.CacheMisses - b.CacheMisses)
		d.memHits += float64(a.CacheHitsMem - b.CacheHitsMem)
		d.diskHits += float64(a.CacheHitsDisk - b.CacheHitsDisk)
		d.dedup += float64(a.DedupHits - b.DedupHits)
		d.mcDeduped += float64(a.MCSamplesDeduped - b.MCSamplesDeduped)
		d.intervals += float64(a.StreamIntervals - b.StreamIntervals)
		d.ckpts += float64(a.StreamCheckpoints - b.StreamCheckpoints)
		d.symHits += float64(a.AssemblySymbolicHits - b.AssemblySymbolicHits)
		d.symMisses += float64(a.AssemblySymbolicMisses - b.AssemblySymbolicMisses)
		d.reused += float64(a.PrecondReused - b.PrecondReused)
		d.refreshed += float64(a.PrecondRefreshed - b.PrecondRefreshed)
		d.poolHits += float64(a.Assembly.Hits - b.Assembly.Hits)
		d.poolMisses += float64(a.Assembly.Misses - b.Assembly.Misses)
		for k, kind := range []string{"mg", "jacobi"} {
			if s := a.Solver[kind]; s != nil {
				d.solves[k] += float64(s.Solves)
				d.iters[k] += float64(s.Iterations)
			}
			if s := b.Solver[kind]; s != nil {
				d.solves[k] -= float64(s.Solves)
				d.iters[k] -= float64(s.Iterations)
			}
		}
	}
	m["service.computes"] = d.misses
	m["service.mem_hit_frac"] = ratio(d.memHits, d.memHits+d.diskHits+d.misses)
	m["service.dedup_hits"] = d.dedup
	m["service.mc_cells_deduped_frac"] = ratio(d.mcDeduped, float64(cells))
	m["service.stream_intervals"] = d.intervals
	m["service.stream_checkpoints"] = d.ckpts
	m["core.solves_per_cell"] = ratio(d.solves[0]+d.solves[1], d.misses)
	m["core.symbolic_hit_frac"] = ratio(d.symHits, d.symHits+d.symMisses)
	if d.reused > 0 {
		m["core.precond_reuse_frac"] = 1 - d.refreshed/d.reused
	}
	m["thermal.cg_iters_per_solve.mg"] = ratio(d.iters[0], d.solves[0])
	m["thermal.cg_iters_per_solve.jacobi"] = ratio(d.iters[1], d.solves[1])
	m["thermal.pool_hit_frac"] = ratio(d.poolHits, d.poolHits+d.poolMisses)
}

// medianMS times n calls of f, each inside a span, and returns the
// median in milliseconds.
func medianMS(tr *tracer, name string, n int, prep func() error, f func() error) (float64, error) {
	var ms []float64
	for i := 0; i < n; i++ {
		if prep != nil {
			if err := prep(); err != nil {
				return 0, err
			}
		}
		d, err := tr.timed(name, f)
		if err != nil {
			return 0, fmt.Errorf("%s replay: %w", name, err)
		}
		ms = append(ms, float64(d)/1e6)
	}
	return quantile(ms, 0.5), nil
}

// stackModel builds the thermal model of a stack of identical dies at
// the chip's top VFS step, as the interval engine does.
func stackModel(chipName, coolantName string, chips, grid int) (*thermal.Model, error) {
	chip, err := power.ModelByName(chipName)
	if err != nil {
		return nil, err
	}
	coolant, err := material.ByName(coolantName)
	if err != nil {
		return nil, err
	}
	params := stack.DefaultParams()
	params.GridNX, params.GridNY = grid, grid
	steps := chip.Steps()
	fp, err := mcpat.ChipAt(chip, steps[len(steps)-1], params.AmbientC)
	if err != nil {
		return nil, err
	}
	dies := make([]*floorplan.Floorplan, chips)
	for i := range dies {
		dies[i] = fp
	}
	return stack.Build(stack.Config{Params: params, Coolant: coolant, Dies: dies})
}

// thermalLayers replays assembly, value-only reassembly, multigrid
// set-up and one steady solve on the workload's representative stack.
func thermalLayers(m map[string]float64, tr *tracer, chip, coolant string, chips, grid int) error {
	model, err := stackModel(chip, coolant, chips, grid)
	if err != nil {
		return err
	}
	if m["thermal.assemble_ms"], err = medianMS(tr, "thermal.assemble", 5, nil, func() error {
		_, err := thermal.Assemble(model)
		return err
	}); err != nil {
		return err
	}
	sys, err := thermal.Assemble(model)
	if err != nil {
		return err
	}
	st, err := sys.Structure()
	if err != nil {
		return err
	}
	if m["thermal.reassemble_ms"], err = medianMS(tr, "thermal.reassemble", 5, nil, func() error {
		_, err := st.Assemble(model)
		return err
	}); err != nil {
		return err
	}
	var fresh *thermal.System
	if m["thermal.mg_setup_ms"], err = medianMS(tr, "thermal.mg_setup", 3, func() error {
		fresh, err = thermal.Assemble(model)
		return err
	}, func() error {
		_, err := fresh.Multigrid()
		return err
	}); err != nil {
		return err
	}
	prec, err := sys.SelectPreconditioner(thermal.PrecondAuto)
	if err != nil {
		return err
	}
	m["thermal.solve_ms"], err = medianMS(tr, "thermal.solve", 3, nil, func() error {
		_, err := sys.SolveSteady(thermal.SolveOptions{Precond: prec})
		return err
	})
	return err
}

// cellPlanner configures a planner for one plan cell exactly as the
// engine does (without its shared pools, so the replay is cold).
func cellPlanner(cell *api.PlanRequest, geoms *core.GeomCache) (*core.Planner, power.Model, material.Coolant, error) {
	c := *cell
	c.Normalize()
	chip, err := power.ModelByName(c.Chip)
	if err != nil {
		return nil, chip, material.Coolant{}, err
	}
	coolant, err := material.ByName(c.Coolant)
	if err != nil {
		return nil, chip, coolant, err
	}
	p := core.NewPlanner()
	p.ThresholdC, p.Flip, p.ConvergeLeakage = c.ThresholdC, c.Flip, c.ConvergeLeakage
	p.Params.GridNX, p.Params.GridNY = c.GridNX, c.GridNY
	p.Geoms = geoms
	if pb := c.Perturb; pb != nil {
		p.Perturbed = true
		scale := func(dst *float64, s float64) {
			if s > 0 {
				*dst *= s
			}
		}
		scale(&p.Params.DieK, pb.DieK)
		scale(&p.Params.BondK, pb.BondK)
		scale(&p.Params.TIMK, pb.TIMK)
		scale(&p.Params.PipeCoeff, pb.PipeH)
		scale(&p.Params.BoardAirCoeff, pb.BoardH)
		scale(&coolant.H, pb.H)
		if pb.AmbientC > 0 {
			p.Params.AmbientC = pb.AmbientC
		}
		p.DynScale, p.StatScale = pb.PDyn, pb.PStat
	}
	return p, chip, coolant, nil
}

// planLayers replays Planner.MaxFrequencyEvalCtx on the run's computed
// cells. With geoms set, the cells' geometry reference is built first
// (timed as core.geom_ref_ms) and the cells borrow it, as on the
// engine's structural fast path.
func planLayers(ctx context.Context, m map[string]float64, tr *tracer, cells []*api.PlanRequest, geoms *core.GeomCache) error {
	if len(cells) == 0 {
		return nil
	}
	if geoms != nil {
		nominal := *cells[0]
		nominal.Perturb = nil
		p, chip, coolant, err := cellPlanner(&nominal, geoms)
		if err != nil {
			return err
		}
		d, err := tr.timed("core.geom_ref", func() error { return p.EnsureGeomRef(ctx, chip, nominal.Chips, coolant) })
		if err != nil {
			return err
		}
		m["core.geom_ref_ms"] = float64(d) / 1e6
	}
	var ms []float64
	for _, cell := range cells {
		p, chip, coolant, err := cellPlanner(cell, geoms)
		if err != nil {
			return err
		}
		d, err := tr.timed("core.plan", func() error {
			_, _, _, err := p.MaxFrequencyEvalCtx(ctx, chip, cell.Chips, coolant, cell.EvalGHz*1e9)
			return err
		})
		if err != nil {
			return err
		}
		ms = append(ms, float64(d)/1e6)
	}
	m["core.plan_ms"] = quantile(ms, 0.5)
	return nil
}

// storeLayers replays rcache Put and Get at the given payload sizes in
// a scratch store.
func storeLayers(m map[string]float64, tr *tracer, dir string, sizes []int) error {
	if len(sizes) == 0 {
		return nil
	}
	st, err := rcache.Open(dir, 0, api.CacheGeneration)
	if err != nil {
		return err
	}
	var put, get []float64
	for i, n := range sizes {
		key := fmt.Sprintf("%064x", i+1)
		payload := []byte(`{"p":"` + strings.Repeat("x", max(n-8, 0)) + `"}`)
		d, err := tr.timed("rcache.put", func() error { return st.Put(key, "replay", payload) })
		if err != nil {
			return err
		}
		put = append(put, float64(d)/1e6)
	}
	for i := range sizes {
		key := fmt.Sprintf("%064x", i+1)
		d, err := tr.timed("rcache.get", func() error {
			if _, _, ok := st.Get(key); !ok {
				return fmt.Errorf("rcache replay lost key %s", key)
			}
			return nil
		})
		if err != nil {
			return err
		}
		get = append(get, float64(d)/1e6)
	}
	m["rcache.put_ms"] = quantile(put, 0.5)
	m["rcache.get_ms"] = quantile(get, 0.5)
	return nil
}

// streamConfig builds the interval engine's configuration for a
// cosimstream request, as the engine does.
func streamConfig(r *api.CosimStreamRequest) (cosim.StreamConfig, error) {
	c := *r
	c.Normalize()
	chip, err := power.ModelByName(c.Chip)
	if err != nil {
		return cosim.StreamConfig{}, err
	}
	coolant, err := material.ByName(c.Coolant)
	if err != nil {
		return cosim.StreamConfig{}, err
	}
	params := stack.DefaultParams()
	params.GridNX, params.GridNY = c.GridNX, c.GridNY
	cfg := cosim.StreamConfig{
		Chip: chip, Chips: c.Chips, Coolant: coolant, Params: params,
		FHz: c.GHz * 1e9, IntervalS: c.IntervalS, Intervals: c.Intervals, SubSteps: c.SubSteps,
	}
	for _, p := range c.Trace {
		cfg.Phases = append(cfg.Phases, cosim.StreamPhase{DurationS: p.DurationS, Utilisation: p.Utilisation})
	}
	if c.DTMSetpointC > 0 {
		cfg.DVFS = &cosim.DVFSPolicy{SetpointC: c.DTMSetpointC, HysteresisC: c.DTMHysteresisC}
	}
	return cfg, nil
}

// cosimLayers replays the canary stream interval by interval (sizing
// its checkpoints where the engine spills them), the stepper under it,
// and the canary single-pass co-simulation.
func cosimLayers(ctx context.Context, m map[string]float64, tr *tracer) (ckptBytes float64, err error) {
	req := streamCanaryRequest()
	cfg, err := streamConfig(req)
	if err != nil {
		return 0, err
	}
	st, err := cosim.NewStream(cfg)
	if err != nil {
		return 0, err
	}
	var next, sizes []float64
	for !st.Done() {
		d, err := tr.timed("cosim.stream_next", func() error {
			_, err := st.Next(ctx)
			return err
		})
		if err != nil {
			return 0, err
		}
		next = append(next, float64(d)/1e6)
		if st.Seq()%req.CheckpointEvery == 0 && !st.Done() {
			var body []byte
			if _, err := tr.timed("cosim.checkpoint", func() error {
				body, err = json.Marshal(st.Checkpoint())
				return err
			}); err != nil {
				return 0, err
			}
			sizes = append(sizes, float64(len(body)))
		}
	}
	m["cosim.interval_ms"] = quantile(next, 0.5)
	var sum float64
	for _, s := range sizes {
		sum += s
	}
	m["cosim.checkpoint_bytes"] = ratio(sum, float64(len(sizes)))

	model, err := stackModel(cfg.Chip.Name, cfg.Coolant.Name, cfg.Chips, cfg.Params.GridNX)
	if err != nil {
		return 0, err
	}
	sys, err := thermal.Assemble(model)
	if err != nil {
		return 0, err
	}
	stepper, err := thermal.NewStepper(sys, cfg.IntervalS/float64(cfg.SubSteps))
	if err != nil {
		return 0, err
	}
	if m["thermal.step_ms"], err = medianMS(tr, "thermal.step", 20, nil, func() error { return stepper.Step(ctx) }); err != nil {
		return 0, err
	}

	cr := cosimCanaryRequest()
	cr.Normalize()
	bench, err := npb.ByName(cr.Benchmark)
	if err != nil {
		return 0, err
	}
	chip, err := power.ModelByName(cr.Chip)
	if err != nil {
		return 0, err
	}
	params := stack.DefaultParams()
	params.GridNX, params.GridNY = cr.GridNX, cr.GridNY
	ccfg := cosim.Config{
		Chip: chip, Chips: cr.Chips, Coolant: cfg.Coolant, Params: params,
		Benchmark: bench, Scale: cr.Scale, Seed: cr.Seed, FHz: cr.GHz * 1e9, IntervalS: cr.IntervalS,
	}
	m["cosim.kernel_run_ms"], err = medianMS(tr, "cosim.run", 3, nil, func() error {
		_, err := cosim.RunCtx(ctx, ccfg)
		return err
	})
	return ratio(sum, float64(len(sizes))), err
}

// layers of the interactive workload: router and backend spans,
// counter deltas of both engines and the router, and replays of the
// canonicalisation, the store, the planner and the solver on the
// phase's own inputs.
func (w *interactive) layers(ctx context.Context, tr *tracer, ph *phase) (map[string]float64, error) {
	m := map[string]float64{}
	procLayers(m, ph)
	var before, after []service.Snapshot
	for b, e := range w.engines {
		before = append(before, w.markEng[b])
		after = append(after, e.Metrics())
	}
	engineLayers(m, before, after, 0)
	rs := w.rt.Metrics()
	hits := float64(rs.EdgeCacheHits - w.markRouter.EdgeCacheHits)
	misses := float64(rs.EdgeCacheMisses - w.markRouter.EdgeCacheMisses)
	m["router.edge_hit_frac"] = ratio(hits, hits+misses)
	m["router.failovers"] = float64(rs.Failovers - w.markRouter.Failovers)
	m["rcache.bytes_written_per_work"] = ratio(float64(w.storeBytes()-w.markBytes), ph.work)
	m["client.retries"] = float64(w.retries)

	spans := tr.snapshot()
	byReq := map[string]map[string]span{}
	for _, s := range spans {
		if s.ReqID == "" || s.EndNS < 0 {
			continue
		}
		if byReq[s.ReqID] == nil {
			byReq[s.ReqID] = map[string]span{}
		}
		byReq[s.ReqID][layerOf(s.Name)] = s
	}
	var edgeMS, proxyMS, hitMS []float64
	for _, rec := range w.records {
		ss := byReq[rec.id]
		rsp, ok := ss["router"]
		if !ok {
			continue
		}
		if rec.xcache == "edge" {
			edgeMS = append(edgeMS, float64(rsp.dur())/1e6)
			continue
		}
		if bsp, ok := ss["httpapi"]; ok {
			proxyMS = append(proxyMS, float64(rsp.dur()-bsp.dur())/1e6)
			if rec.backendHit {
				hitMS = append(hitMS, float64(bsp.dur())/1e6)
			}
		}
	}
	m["router.edge_hit_ms"] = quantile(edgeMS, 0.5)
	m["router.proxy_ms"] = quantile(proxyMS, 0.5)
	m["httpapi.hit_ms"] = quantile(hitMS, 0.5)

	var canon []float64
	for _, body := range w.bodies {
		d, err := tr.timed("api.canonicalise", func() error {
			req, err := api.DecodeJobRequest(body)
			if err != nil {
				return err
			}
			req.Normalize()
			if err := req.Validate(); err != nil {
				return err
			}
			_ = req.CacheKey()
			return nil
		})
		if err != nil {
			return nil, err
		}
		canon = append(canon, float64(d)/1e3)
	}
	m["api.canon_us"] = quantile(canon, 0.5)
	if err := storeLayers(m, tr, filepath.Join(w.dir, "replay"), w.sizes); err != nil {
		return nil, err
	}
	if err := planLayers(ctx, m, tr, w.computed, nil); err != nil {
		return nil, err
	}
	return m, thermalLayers(m, tr, "low-power", "water", 4, 32)
}

// layers of the montecarlo workload: engine deltas plus replays of the
// sample expansion, the geometry reference, the perturbed cells and the
// solver at the workload's 64² stack.
func (w *montecarlo) layers(ctx context.Context, tr *tracer, ph *phase) (map[string]float64, error) {
	m := map[string]float64{}
	procLayers(m, ph)
	engineLayers(m, []service.Snapshot{w.mark0}, []service.Snapshot{w.eng.Metrics()}, w.cells)
	var expand []float64
	for _, req := range w.reqs {
		d, _ := tr.timed("mc.expand", func() error {
			_ = req.Cells()
			return nil
		})
		expand = append(expand, float64(d)/1e6)
	}
	m["mc.expand_ms"] = quantile(expand, 0.5)
	if len(w.reqs) > 0 {
		cells := w.reqs[0].Cells()
		if err := planLayers(ctx, m, tr, cells[:3], core.NewGeomCache(0)); err != nil {
			return nil, err
		}
	}
	return m, thermalLayers(m, tr, "low-power", "water", mcChips, mcGrid)
}

// layers of the transient workload: engine and store deltas plus
// replays of the interval engine, the stepper, the event kernel and the
// store at the checkpoint size.
func (w *transient) layers(ctx context.Context, tr *tracer, ph *phase) (map[string]float64, error) {
	m := map[string]float64{}
	procLayers(m, ph)
	now := w.eng.Metrics()
	engineLayers(m, []service.Snapshot{w.mark0}, []service.Snapshot{now}, 0)
	ckpt, err := cosimLayers(ctx, m, tr)
	if err != nil {
		return nil, err
	}
	ckpts := float64(now.StreamCheckpoints - w.mark0.StreamCheckpoints)
	written := float64(w.store.Stats().Bytes-w.bytes0) + ckpts*ckpt
	m["rcache.bytes_written_per_work"] = ratio(written, ph.work)
	sizes := make([]int, 20)
	for i := range sizes {
		sizes[i] = int(ckpt)
	}
	if err := storeLayers(m, tr, filepath.Join(w.dir, "replay"), sizes); err != nil {
		return nil, err
	}
	return m, thermalLayers(m, tr, "high-frequency", "water", trChips, trGrid)
}
