package waterimm

// The benchmark harness: one benchmark per table and figure of the
// paper (run `go test -bench=. -benchmem` or `go test -bench Fig07`),
// plus performance benchmarks for the hot substrates (thermal solver,
// NoC, coherence, full-system simulator) and ablation benchmarks for
// the design choices DESIGN.md calls out.
//
// Figure benchmarks regenerate the figure's data and publish headline
// numbers as custom metrics (e.g. water's maximum feasible stack
// depth, the geometric-mean speedup), so `go test -bench` doubles as
// a regression harness for the reproduction itself.

import (
	"context"
	"testing"

	"waterimm/internal/coherence"
	"waterimm/internal/core"
	"waterimm/internal/cosim"
	"waterimm/internal/cpu"
	"waterimm/internal/floorplan"
	"waterimm/internal/fullsys"
	"waterimm/internal/material"
	"waterimm/internal/mcpat"
	"waterimm/internal/noc"
	"waterimm/internal/npb"
	"waterimm/internal/power"
	"waterimm/internal/proto"
	"waterimm/internal/pue"
	"waterimm/internal/sim"
	"waterimm/internal/stack"
	"waterimm/internal/thermal"
	"waterimm/internal/traffic"
)

// npbScale keeps the application-figure benchmarks in the
// tens-of-seconds range; cmd/waterbench runs the full class.
const npbScale = 0.15

// --- Tables ---

func BenchmarkTable1Baseline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		spec := mcpat.Baseline()
		if err := spec.Validate(); err != nil {
			b.Fatal(err)
		}
		_ = spec.Table()
	}
}

func BenchmarkTable2StackParams(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := stack.DefaultParams()
		if err := p.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Frequency sweep figures ---

func benchSweep(b *testing.B, fn func() (*core.FreqSweep, error)) {
	b.Helper()
	var last *core.FreqSweep
	for i := 0; i < b.N; i++ {
		fs, err := fn()
		if err != nil {
			b.Fatal(err)
		}
		last = fs
	}
	b.ReportMetric(float64(last.MaxChips("water")), "water-max-chips")
	if row := last.Row("water"); len(row) > 0 {
		b.ReportMetric(row[0], "water-1chip-GHz")
	}
}

func BenchmarkFig01XeonE5Sweep(b *testing.B)   { benchSweep(b, core.Fig1) }
func BenchmarkFig07LowPowerSweep(b *testing.B) { benchSweep(b, core.Fig7) }
func BenchmarkFig08HighFreqSweep(b *testing.B) { benchSweep(b, core.Fig8) }
func BenchmarkFig17XeonPhiSweep(b *testing.B)  { benchSweep(b, core.Fig17) }

// --- Prototype and model figures ---

func BenchmarkFig04Prototype(b *testing.B) {
	var full float64
	for i := 0; i < b.N; i++ {
		full = proto.Fig4()["full-immersion"]
	}
	b.ReportMetric(full, "full-immersion-C")
}

func BenchmarkFig06PowerCurves(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(core.Fig6()) != 4 {
			b.Fatal("expected four chip curves")
		}
	}
}

func BenchmarkFig14HTCSweep(b *testing.B) {
	var pts []core.HTCPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = core.Fig14()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(pts)), "points")
}

func BenchmarkFig15FlipSweep(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		pts, err := core.Fig15()
		if err != nil {
			b.Fatal(err)
		}
		gain = core.FlipGainC(pts, "water", 3.6)
	}
	b.ReportMetric(gain, "flip-gain-C")
}

// --- Thermal map figures ---

func benchMap(b *testing.B, fn func() (*core.ThermalMap, error)) {
	b.Helper()
	var last *core.ThermalMap
	for i := 0; i < b.N; i++ {
		tm, err := fn()
		if err != nil {
			b.Fatal(err)
		}
		last = tm
	}
	b.ReportMetric(last.MaxC[0], "bottom-die-max-C")
	b.ReportMetric(last.MaxC[len(last.MaxC)-1], "top-die-max-C")
}

func BenchmarkFig09ThermalMap(b *testing.B)     { benchMap(b, core.Fig9) }
func BenchmarkFig16ThermalMapFlip(b *testing.B) { benchMap(b, core.Fig16) }
func BenchmarkFig18ThermalMapPhi(b *testing.B)  { benchMap(b, core.Fig18) }

// --- Application performance figures ---

func benchNPBFig(b *testing.B, fn func(scale float64) ([]core.NPBResult, error)) {
	b.Helper()
	var last []core.NPBResult
	for i := 0; i < b.N; i++ {
		res, err := fn(npbScale)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	for _, r := range last {
		if r.Coolant == "water" && r.Feasible {
			b.ReportMetric(1-r.GeoMean, "water-speedup")
		}
	}
}

func BenchmarkFig10NPB6ChipLowPower(b *testing.B) { benchNPBFig(b, core.Fig10) }
func BenchmarkFig11NPB8ChipLowPower(b *testing.B) { benchNPBFig(b, core.Fig11) }
func BenchmarkFig12NPB6ChipHighFreq(b *testing.B) { benchNPBFig(b, core.Fig12) }
func BenchmarkFig13NPB8ChipHighFreq(b *testing.B) { benchNPBFig(b, core.Fig13) }

// --- Section experiments ---

func BenchmarkTestBoardFleet(b *testing.B) {
	var survivors int
	for i := 0; i < b.N; i++ {
		survivors = proto.SimulateFleet(100, 2, proto.MaskRecommended(), int64(i)).SurvivedBoards
	}
	b.ReportMetric(float64(survivors), "survivors-of-100")
}

func BenchmarkPUEComparison(b *testing.B) {
	var direct float64
	for i := 0; i < b.N; i++ {
		for _, f := range pue.StandardFacilities(1000) {
			if f.Secondary == pue.SecondaryNone {
				direct = f.PUE()
			}
		}
	}
	b.ReportMetric(direct, "direct-PUE")
}

// --- Batched sweep vs independent plans (the PR 2 tentpole) ---

// sweepBenchCase is the acceptance configuration: every coolant ×
// stack depths 1-8 for the low-power CMP over its default VFS table
// at the default 32×32 grid.
const sweepBenchDepths = 8

// BenchmarkSweepIndependent runs the sweep the way N independent plan
// requests would: every solve rebuilds the floorplan and stack model,
// re-assembles the conductance matrix, and cold-starts CG.
func BenchmarkSweepIndependent(b *testing.B) {
	benchFreqSweepPath(b, func() *core.Planner {
		p := core.NewPlanner()
		p.ColdStart = true
		return p
	})
}

// BenchmarkSweepBatched runs the identical sweep on the batch path:
// one assembled system per (coolant, depth) search, re-solved per VFS
// step with warm-started CG.
func BenchmarkSweepBatched(b *testing.B) {
	benchFreqSweepPath(b, core.NewPlanner)
}

func benchFreqSweepPath(b *testing.B, mkPlanner func() *core.Planner) {
	b.Helper()
	var feasible int
	for i := 0; i < b.N; i++ {
		p := mkPlanner()
		plans, err := p.MaxFrequencySweep(power.LowPower, sweepBenchDepths, material.Coolants())
		if err != nil {
			b.Fatal(err)
		}
		feasible = 0
		for _, row := range plans {
			for _, pl := range row {
				if pl.Feasible {
					feasible++
				}
			}
		}
	}
	b.ReportMetric(float64(feasible), "feasible-cells")
}

// --- Multigrid vs Jacobi preconditioning (the PR 3 tentpole) ---

// benchPrecondSystem assembles a chips-deep water-immersion stack on a
// grid×grid mesh with the low-power CMP's top VFS step assigned, the
// configuration family of the MG acceptance criterion.
func benchPrecondSystem(b *testing.B, grid, chips int) *thermal.System {
	b.Helper()
	chip := power.LowPower
	steps := chip.Steps()
	step := steps[len(steps)-1]
	die, err := mcpat.ChipAt(chip, step, chip.RefTempC)
	if err != nil {
		b.Fatal(err)
	}
	dies := make([]*floorplan.Floorplan, chips)
	for i := range dies {
		dies[i] = die
	}
	params := stack.DefaultParams()
	params.GridNX, params.GridNY = grid, grid
	model, err := stack.Build(stack.Config{Params: params, Coolant: material.Water, Dies: dies})
	if err != nil {
		b.Fatal(err)
	}
	sys, err := thermal.Assemble(model)
	if err != nil {
		b.Fatal(err)
	}
	return sys
}

// benchSolvePrecond cold-solves the same systems under one
// preconditioner kind; run the Jacobi/MG pair and compare. The
// 256×256 grid under 8 chips (≈1.2 M unknowns) is the acceptance
// point: MG must be ≥2× faster with ≤½ the iterations.
func benchSolvePrecond(b *testing.B, kind string) {
	cases := []struct {
		name        string
		grid, chips int
	}{
		{"grid64x4", 64, 4},
		{"grid128x8", 128, 8},
		{"grid256x8", 256, 8},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			sys := benchPrecondSystem(b, c.grid, c.chips)
			prec, err := sys.SelectPreconditioner(kind)
			if err != nil {
				b.Fatal(err)
			}
			if kind == thermal.PrecondMG {
				// Hierarchy setup is per-system and amortized over a
				// session's solves in production; exclude it here so
				// the pair isolates per-solve cost.
				if _, err := sys.Multigrid(); err != nil {
					b.Fatal(err)
				}
			}
			var stats thermal.SolveStats
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sys.SolveSteady(thermal.SolveOptions{Precond: prec, Stats: &stats}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(stats.Iterations), "cg-iters")
		})
	}
}

func BenchmarkSolveJacobi(b *testing.B) { benchSolvePrecond(b, thermal.PrecondJacobi) }
func BenchmarkSolveMG(b *testing.B)     { benchSolvePrecond(b, thermal.PrecondMG) }

// --- Structural reuse and the multigrid V-cycle ---

// BenchmarkAssembly compares a full symbolic assembly against
// value-only reassembly through a cached Structure — the per-sample
// assembly cost of a Monte-Carlo cell before and after the change.
func BenchmarkAssembly(b *testing.B) {
	sys := benchPrecondSystem(b, 128, 8)
	m := sys.Model()
	st, err := sys.Structure()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := thermal.Assemble(m); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("structural", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := st.Assemble(m); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkVCycle times one V-cycle application at the 256×256×8
// acceptance point (the API's grid cap).
func BenchmarkVCycle(b *testing.B) {
	sys := benchPrecondSystem(b, 256, 8)
	mg, err := sys.Multigrid()
	if err != nil {
		b.Fatal(err)
	}
	r := make([]float64, sys.N)
	z := make([]float64, sys.N)
	for i := range r {
		r[i] = float64(i%101) / 101
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mg.Apply(z, r)
	}
}

// BenchmarkMGKernels times the finest level's multigrid kernels one by
// one — stencil matVec, restriction, bilinear prolongation, z-line
// solve — and a whole V-cycle, at the montecarlo workload's shape
// (64×64 grid, two low-power dies, water), so a change to one kernel
// can cite its own number.
func BenchmarkMGKernels(b *testing.B) {
	sys := benchPrecondSystem(b, 64, 2)
	mg, err := sys.Multigrid()
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range mg.Kernels() {
		b.Run(k.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				k.Run()
			}
			b.ReportMetric(float64(sys.N), "nodes")
		})
	}
}

// BenchmarkStepper times one backward-Euler step of the transient
// stepper (Δt = 5 ms), its IC(0) apply and the shifted operator's
// matVec: at the transient workload's shape (32×32, two low-power dies,
// water) and at 64², 128² and 256² under eight dies, the large-grid
// transients' range. Each step op restores the field reached after a
// four-step warm-up from ambient, so every op runs the same solve; its
// ns/op is the time per step.
func BenchmarkStepper(b *testing.B) {
	cases := []struct {
		name        string
		grid, chips int
	}{
		{"grid32x2", 32, 2},
		{"grid64x8", 64, 8},
		{"grid128x8", 128, 8},
		{"grid256x8", 256, 8},
	}
	ctx := context.Background()
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			st, err := thermal.NewStepper(benchPrecondSystem(b, c.grid, c.chips), 5e-3)
			if err != nil {
				b.Fatal(err)
			}
			var iters int
			st.OnSolve = func(s thermal.SolveStats) { iters += s.Iterations }
			if _, err := st.Run(ctx, 4); err != nil {
				b.Fatal(err)
			}
			warm := st.Checkpoint()
			b.Run("step", func(b *testing.B) {
				iters = 0
				for i := 0; i < b.N; i++ {
					if err := st.Restore(warm); err != nil {
						b.Fatal(err)
					}
					if err := st.Step(ctx); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(iters)/float64(b.N), "ichol-iters/step")
			})
			for _, k := range st.Kernels() {
				b.Run(k.Name, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						k.Run()
					}
					b.ReportMetric(float64(len(warm.T)), "nodes")
				})
			}
		})
	}
}

// BenchmarkSolveSteady times the default (Jacobi) cold solve on a
// 4-chip stack — the reference for the fused-kernel CG change: fewer
// memory sweeps per iteration show up directly as ns/op per cg-iter.
func BenchmarkSolveSteady(b *testing.B) {
	sys := benchPrecondSystem(b, 64, 4)
	var stats thermal.SolveStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.SolveSteady(thermal.SolveOptions{Stats: &stats}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(stats.Iterations), "cg-iters")
}

// --- Substrate performance benchmarks ---

func BenchmarkThermalSolve4Chip(b *testing.B) {
	benchThermalSolve(b, 4)
}

func BenchmarkThermalSolve15Chip(b *testing.B) {
	benchThermalSolve(b, 15)
}

func benchThermalSolve(b *testing.B, chips int) {
	b.Helper()
	p := core.NewPlanner()
	spec := core.StackSpec{
		Chip: power.HighFrequency, Chips: chips,
		Coolant: material.Water, FHz: power.HighFrequency.FMinHz,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := p.Solve(spec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkThermalMatVec(b *testing.B) {
	// The CG hot loop on an 8-chip stack system.
	p := core.NewPlanner()
	spec := core.StackSpec{Chip: power.HighFrequency, Chips: 8,
		Coolant: material.Water, FHz: 2.0e9}
	res, _, err := p.Solve(spec)
	if err != nil {
		b.Fatal(err)
	}
	sys, err := thermal.Assemble(res.Model)
	if err != nil {
		b.Fatal(err)
	}
	x := make([]float64, sys.N)
	y := make([]float64, sys.N)
	for i := range x {
		x[i] = float64(i % 97)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.MatVec(y, x)
	}
	// The stencil kernel streams the diagonal, the east/north/up
	// couplings of every grid node, x and y; the extras' few entries
	// are left out.
	m := sys.Model()
	grid := len(m.Layers) * m.Grid.Cells()
	b.SetBytes(int64((3*sys.N + 3*grid) * 8))
}

func BenchmarkNoCRandomTraffic(b *testing.B) {
	k := sim.NewKernel()
	mesh, err := noc.New(k, noc.DefaultConfig(4, 2.0e9))
	if err != nil {
		b.Fatal(err)
	}
	mesh.Deliver = func(p *noc.Packet) {}
	nodes := mesh.Config().Nodes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mesh.Send(&noc.Packet{Src: i % nodes, Dst: (i * 7) % nodes, VNet: i % 3, Flits: 1 + 4*(i%2)})
		if i%64 == 0 {
			k.Run(nil)
		}
	}
	k.Run(nil)
}

func BenchmarkCoherenceSharedCounter(b *testing.B) {
	k := sim.NewKernel()
	sys, err := coherence.New(k, coherence.DefaultConfig(2, 2.0e9))
	if err != nil {
		b.Fatal(err)
	}
	cores := sys.Cfg.Cores()
	b.ResetTimer()
	done := 0
	var issue func(core int, n int)
	issue = func(core, n int) {
		if n == 0 {
			done++
			return
		}
		sys.L1s[core].Access(uint64(n%32)*64, n%2 == 0, func(uint64) { issue(core, n-1) })
	}
	per := b.N/cores + 1
	for c := 0; c < cores; c++ {
		issue(c, per)
	}
	k.Run(nil)
}

func BenchmarkFullSystemCG(b *testing.B) {
	benchFullSystem(b, "cg")
}

func BenchmarkFullSystemEP(b *testing.B) {
	benchFullSystem(b, "ep")
}

func benchFullSystem(b *testing.B, name string) {
	b.Helper()
	bench, err := npb.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	var res fullsys.Result
	for i := 0; i < b.N; i++ {
		res, err = fullsys.Run(fullsys.Config{
			Chips: 6, FHz: 2.0e9, Benchmark: bench, Scale: 0.1, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Seconds*1e3, "sim-ms")
	b.ReportMetric(res.StallFraction, "stall-frac")
}

// --- Ablation benchmarks (design choices from DESIGN.md) ---

// BenchmarkAblationFlip quantifies the Section 4.2 layout choice: the
// flip layout's peak-temperature gain at 3.6 GHz under water.
func BenchmarkAblationFlip(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		noflip := core.NewPlanner()
		flip := core.NewPlanner()
		flip.Flip = true
		spec := core.StackSpec{Chip: power.HighFrequency, Chips: 4,
			Coolant: material.Water, FHz: 3.6e9}
		a, err := noflip.PeakAt(spec)
		if err != nil {
			b.Fatal(err)
		}
		c, err := flip.PeakAt(spec)
		if err != nil {
			b.Fatal(err)
		}
		gain = a - c
	}
	b.ReportMetric(gain, "flip-gain-C")
}

// BenchmarkAblationGridResolution sweeps the solver grid: accuracy
// (peak delta vs the finest grid) against solve cost.
func BenchmarkAblationGridResolution(b *testing.B) {
	for _, n := range []int{16, 32, 48} {
		n := n
		b.Run(gridName(n), func(b *testing.B) {
			p := core.NewPlanner()
			p.Params.GridNX, p.Params.GridNY = n, n
			spec := core.StackSpec{Chip: power.HighFrequency, Chips: 4,
				Coolant: material.Water, FHz: 3.6e9}
			var peak float64
			for i := 0; i < b.N; i++ {
				var err error
				peak, err = p.PeakAt(spec)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(peak, "peak-C")
		})
	}
}

func gridName(n int) string {
	return "grid" + string(rune('0'+n/10)) + string(rune('0'+n%10))
}

// BenchmarkAblationLeakageFeedback compares worst-case leakage (at
// the threshold) against reference-temperature leakage — the
// conservative choice the planner defaults to.
func BenchmarkAblationLeakageFeedback(b *testing.B) {
	var delta float64
	for i := 0; i < b.N; i++ {
		worst := core.NewPlanner()
		ref := core.NewPlanner()
		ref.LeakageAtThreshold = false
		spec := core.StackSpec{Chip: power.LowPower, Chips: 6,
			Coolant: material.Water, FHz: 1.5e9}
		a, err := worst.PeakAt(spec)
		if err != nil {
			b.Fatal(err)
		}
		c, err := ref.PeakAt(spec)
		if err != nil {
			b.Fatal(err)
		}
		delta = a - c
	}
	b.ReportMetric(delta, "worst-case-margin-C")
}

// --- Extension experiment benchmarks ---

func BenchmarkIRDS2033Sweep(b *testing.B) {
	var fs *core.FreqSweep
	for i := 0; i < b.N; i++ {
		var err error
		fs, err = core.IRDS2033()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(fs.MaxChips("water")), "water-max-chips")
}

func BenchmarkSeasonalDeployment(b *testing.B) {
	var pts []core.SeasonalPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = core.Seasonal()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(pts)), "points")
}

func BenchmarkTrafficUniformLoadPoint(b *testing.B) {
	cfg := traffic.Config{
		Mesh:          noc.DefaultConfig(4, 2.0e9),
		Pattern:       traffic.UniformRandom,
		InjectionRate: 0.05,
		WarmupCycles:  500,
		MeasureCycles: 4000,
		Seed:          1,
	}
	var res traffic.Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = traffic.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.AvgLatencyCycles, "avg-latency-cycles")
}

func BenchmarkCosimLoopedEP(b *testing.B) {
	bench, err := npb.ByName("ep")
	if err != nil {
		b.Fatal(err)
	}
	p := stack.DefaultParams()
	p.GridNX, p.GridNY = 16, 16
	cfg := cosim.Config{
		Chip: power.HighFrequency, Chips: 2,
		Coolant: material.Water, Params: p,
		Benchmark: bench, Scale: 0.3, Seed: 1,
		FHz: 3.6e9, IntervalS: 100e-6, DurationS: 1e-3,
	}
	var res *cosim.Result
	for i := 0; i < b.N; i++ {
		res, err = cosim.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.MaxPeakC, "peak-C")
}

// BenchmarkAblationPrefetch quantifies the L1 next-line prefetcher on
// the strided LU kernel.
func BenchmarkAblationPrefetch(b *testing.B) {
	lu, err := npb.ByName("lu")
	if err != nil {
		b.Fatal(err)
	}
	var base, pf fullsys.Result
	for i := 0; i < b.N; i++ {
		base, err = fullsys.Run(fullsys.Config{Chips: 2, FHz: 2.0e9, Benchmark: lu, Scale: 0.4, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		pf, err = fullsys.Run(fullsys.Config{Chips: 2, FHz: 2.0e9, Benchmark: lu, Scale: 0.4, Seed: 1, Prefetch: true})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(base.Seconds/pf.Seconds, "speedup")
}

// BenchmarkAblationRouting compares XYZ and O1TURN on the transpose
// pattern at a contended load.
func BenchmarkAblationRouting(b *testing.B) {
	base := traffic.Config{
		Mesh:          noc.DefaultConfig(2, 2.0e9),
		Pattern:       traffic.Transpose,
		InjectionRate: 0.08,
		WarmupCycles:  500,
		MeasureCycles: 3000,
		Seed:          1,
	}
	var gain float64
	for i := 0; i < b.N; i++ {
		xyz, err := traffic.Run(base)
		if err != nil {
			b.Fatal(err)
		}
		o1cfg := base
		o1cfg.Mesh.Routing = noc.RoutingO1Turn
		o1, err := traffic.Run(o1cfg)
		if err != nil {
			b.Fatal(err)
		}
		gain = xyz.AvgLatencyCycles / o1.AvgLatencyCycles
	}
	b.ReportMetric(gain, "latency-ratio")
}

// BenchmarkAblationMemoryBarrier quantifies the idealised-vs-real
// barrier choice on the barrier-heavy LU kernel.
func BenchmarkAblationMemoryBarrier(b *testing.B) {
	lu, err := npb.ByName("lu")
	if err != nil {
		b.Fatal(err)
	}
	var ideal, mem fullsys.Result
	for i := 0; i < b.N; i++ {
		ideal, err = fullsys.Run(fullsys.Config{Chips: 2, FHz: 2.0e9, Benchmark: lu, Scale: 0.3, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		mem, err = fullsys.Run(fullsys.Config{Chips: 2, FHz: 2.0e9, Benchmark: lu, Scale: 0.3, Seed: 1, MemoryBarriers: true})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(mem.Seconds/ideal.Seconds, "slowdown")
	b.ReportMetric(float64(mem.BarrierSpins), "spins")
}

// BenchmarkAblationDRAMModel compares the flat 160-cycle Table 1
// memory against the bank-level row-buffer model on the DRAM-bound
// CG kernel.
func BenchmarkAblationDRAMModel(b *testing.B) {
	cg, err := npb.ByName("cg")
	if err != nil {
		b.Fatal(err)
	}
	run := func(banked bool) float64 {
		k := sim.NewKernel()
		ccfg := coherence.DefaultConfig(2, 2.0e9)
		if banked {
			ccfg.DRAMBanks = 8
			ccfg.DRAMTiming = coherence.DefaultDRAMTiming()
		}
		sys, err := coherence.New(k, ccfg)
		if err != nil {
			b.Fatal(err)
		}
		clock := cpu.NewClock(2.0e9)
		bg := cpu.NewBarrierGroup(k, sys.Cfg.Cores(), 120*sim.Cycle(2.0e9))
		cores := make([]*cpu.Core, sys.Cfg.Cores())
		for t := range cores {
			cores[t] = cpu.NewCore(t, k, sys.L1s[t], clock, cg.Stream(t, len(cores), 1, 0.2), bg)
			cores[t].Start()
		}
		for k.Step() {
		}
		var finish sim.Time
		for _, c := range cores {
			if c.Stats.FinishedAt > finish {
				finish = c.Stats.FinishedAt
			}
		}
		return finish.Seconds()
	}
	var flat, banked float64
	for i := 0; i < b.N; i++ {
		flat = run(false)
		banked = run(true)
	}
	b.ReportMetric(banked/flat, "banked-vs-flat")
}

// BenchmarkAblationAffinityHome quantifies the NUCA data-affinity
// home mapping on the private-heavy SP kernel.
func BenchmarkAblationAffinityHome(b *testing.B) {
	sp, err := npb.ByName("sp")
	if err != nil {
		b.Fatal(err)
	}
	var base, aff fullsys.Result
	for i := 0; i < b.N; i++ {
		base, err = fullsys.Run(fullsys.Config{Chips: 4, FHz: 2.0e9, Benchmark: sp, Scale: 0.3, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		aff, err = fullsys.Run(fullsys.Config{Chips: 4, FHz: 2.0e9, Benchmark: sp, Scale: 0.3, Seed: 1, AffinityHome: true})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(aff.Activity.NoCFlitHops)/float64(base.Activity.NoCFlitHops), "flit-hop-ratio")
}
