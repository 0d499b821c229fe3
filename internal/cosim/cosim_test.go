package cosim

import (
	"context"
	"errors"
	"math"
	"testing"

	"waterimm/internal/fullsys"
	"waterimm/internal/material"
	"waterimm/internal/npb"
	"waterimm/internal/power"
	"waterimm/internal/stack"
)

func baseConfig(t *testing.T, bench string) Config {
	t.Helper()
	b, err := npb.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	p := stack.DefaultParams()
	p.GridNX, p.GridNY = 16, 16
	return Config{
		Chip:      power.HighFrequency,
		Chips:     2,
		Coolant:   material.Water,
		Params:    p,
		Benchmark: b,
		Scale:     0.3,
		Seed:      1,
		FHz:       3.6e9,
		IntervalS: 100e-6,
	}
}

// looped returns a config that cycles the workload for 3 ms of
// simulated time — enough for the die-local thermal time constant to
// produce a measurable rise.
func looped(t *testing.T, bench string) Config {
	cfg := baseConfig(t, bench)
	cfg.DurationS = 3e-3
	return cfg
}

func TestCosimSinglePass(t *testing.T) {
	res, err := Run(baseConfig(t, "ep"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) == 0 || res.Seconds <= 0 {
		t.Fatal("no progress recorded")
	}
	if res.MaxPeakC <= 25 {
		t.Error("no heating observed")
	}
	if res.MeanGHz != 3.6 {
		t.Errorf("without DVFS the frequency must stay at 3.6 GHz, got %.2f", res.MeanGHz)
	}
	if res.Iterations != 0 {
		t.Error("single-pass mode must not loop")
	}
}

func TestCosimLoopedHeatsMonotonically(t *testing.T) {
	res, err := Run(looped(t, "ep"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations == 0 {
		t.Fatal("looped run completed no workload iterations")
	}
	if res.Seconds < 3e-3-1e-9 {
		t.Errorf("looped run stopped early at %.4g s", res.Seconds)
	}
	// Under constant looping load the trace heats monotonically
	// (within solver noise) and accumulates a clearly measurable rise.
	first, last := res.Samples[0].PeakC, res.Samples[len(res.Samples)-1].PeakC
	t.Logf("ep looped: %.3f C -> %.3f C over %d samples, %d iterations",
		first, last, len(res.Samples), res.Iterations)
	if last-first < 0.2 {
		t.Errorf("3 ms of looped EP should heat the die visibly, got %.3f C", last-first)
	}
	for i := 1; i < len(res.Samples); i++ {
		if res.Samples[i].PeakC < res.Samples[i-1].PeakC-0.05 {
			t.Errorf("sample %d cooled under constant load: %.3f -> %.3f",
				i, res.Samples[i-1].PeakC, res.Samples[i].PeakC)
		}
	}
}

func TestTransientStaysBelowWorstCase(t *testing.T) {
	// The core claim the co-simulation exists to check: a real
	// workload's transient peak never exceeds the static planner's
	// worst-case steady state for the same operating point.
	res, err := Run(looped(t, "ep"))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("transient max %.1f C vs worst-case steady %.1f C", res.MaxPeakC, res.SteadyPlannerPeakC)
	if res.MaxPeakC > res.SteadyPlannerPeakC+0.5 {
		t.Errorf("transient %.1f C exceeded the worst case %.1f C",
			res.MaxPeakC, res.SteadyPlannerPeakC)
	}
}

func TestMemoryBoundRunsCooler(t *testing.T) {
	// CG stalls on DRAM, burning far less core dynamic power than EP
	// at the same frequency; its thermal trace must rise less.
	ep, err := Run(looped(t, "ep"))
	if err != nil {
		t.Fatal(err)
	}
	cg, err := Run(looped(t, "cg"))
	if err != nil {
		t.Fatal(err)
	}
	epRise := ep.MaxPeakC - 25
	cgRise := cg.MaxPeakC - 25
	t.Logf("rise after %.1f ms: ep %.3f C, cg %.3f C", ep.Seconds*1e3, epRise, cgRise)
	if cgRise >= epRise {
		t.Errorf("memory-bound cg (%.3f C rise) should run cooler than ep (%.3f C rise)", cgRise, epRise)
	}
}

func TestDVFSGovernorThrottles(t *testing.T) {
	cfg := looped(t, "ep")
	// A setpoint just above ambient forces throttling early in the
	// trace.
	cfg.DVFS = &DVFSPolicy{SetpointC: 25.6, HysteresisC: 0.1}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Throttles == 0 {
		t.Fatal("governor never throttled despite the tight setpoint")
	}
	if res.MeanGHz >= 3.6 {
		t.Error("mean frequency must fall under throttling")
	}
	// The throttled run must complete fewer workload iterations in
	// the same wall-clock window than an unthrottled one.
	free, err := Run(looped(t, "ep"))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("iterations in %.1f ms: throttled %d @ %.2f GHz mean, free %d @ 3.6 GHz",
		res.Seconds*1e3, res.Iterations, res.MeanGHz, free.Iterations)
	if res.Iterations >= free.Iterations {
		t.Errorf("throttled run did %d iterations, free run %d", res.Iterations, free.Iterations)
	}
}

func TestConfigValidation(t *testing.T) {
	cfg := baseConfig(t, "ep")
	cfg.Chips = 0
	if _, err := Run(cfg); err == nil {
		t.Error("expected error for zero chips")
	}
	cfg = baseConfig(t, "ep")
	cfg.IntervalS = 0
	if _, err := Run(cfg); err == nil {
		t.Error("expected error for zero interval")
	}
	cfg = baseConfig(t, "ep")
	cfg.FHz = 3.5e9 // not a VFS step
	if _, err := Run(cfg); err == nil {
		t.Error("expected error for off-grid frequency")
	}
}

func TestDVFSThrottleBounded(t *testing.T) {
	// With the die heating monotonically toward the setpoint, the
	// governor throttles step by step but must not free-fall: once it
	// engages, the temperature stays pinned near the setpoint and the
	// down-steps only fire inside the trigger band.
	cfg := looped(t, "ep")
	cfg.DVFS = &DVFSPolicy{SetpointC: 27.5, HysteresisC: 0.05}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Throttles == 0 {
		t.Skip("setpoint never reached on this trace length")
	}
	if res.MaxPeakC > cfg.DVFS.SetpointC+1 {
		t.Errorf("throttled trace overshot to %.2f C against a %.1f C setpoint",
			res.MaxPeakC, cfg.DVFS.SetpointC)
	}
	// Such a tight setpoint (2.5 C above ambient) legitimately walks
	// the governor to the VFS floor — static power alone keeps the
	// die above the trigger band. What must hold is tracking:
	// throttling must follow the thermal trajectory, so every
	// down-step happens within the hysteresis band of the setpoint.
	prev := res.Samples[0]
	for _, s := range res.Samples[1:] {
		if s.FHz < prev.FHz && prev.PeakC < cfg.DVFS.SetpointC-5*cfg.DVFS.HysteresisC {
			t.Errorf("throttled at %.2f C, far below the trigger band", prev.PeakC)
		}
		prev = s
	}
}

func TestRunCtxLoopedDurationIntervals(t *testing.T) {
	// 30 steps of 100 µs sum to 0.0029999999999999996 s, so a stop
	// rule on accumulated time used to run a 31st interval and report
	// 3.1 ms. The interval count is fixed up front instead: exact
	// multiples round to nearest, anything else rounds up.
	for _, tc := range []struct {
		durationS float64
		want      int
	}{
		{3e-3, 30},
		{2.95e-3, 30},
		{3.01e-3, 31},
	} {
		cfg := baseConfig(t, "ep")
		cfg.DurationS = tc.durationS
		res, err := RunCtx(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Samples) != tc.want {
			t.Errorf("%g s at %g s intervals: %d samples, want %d", tc.durationS, cfg.IntervalS, len(res.Samples), tc.want)
		}
		wantS := float64(tc.want) * cfg.IntervalS
		if math.Abs(res.Seconds-wantS) > 1e-12 {
			t.Errorf("%g s: Seconds %v, want %v", tc.durationS, res.Seconds, wantS)
		}
	}
}

func TestGovernorHysteresisRule(t *testing.T) {
	// One step down once the peak is inside the band below the
	// setpoint, one step up only once it is three bands clear, never
	// past either end of the VFS table; a nil policy never moves.
	p := &DVFSPolicy{SetpointC: 80, HysteresisC: 2}
	for _, tc := range []struct {
		idx  int
		peak float64
		want int
	}{
		{5, 78.1, 4},
		{5, 78, 5},
		{5, 74, 5},
		{5, 73.9, 6},
		{0, 95, 0},
		{12, 30, 12},
	} {
		if got := p.next(tc.idx, 13, tc.peak); got != tc.want {
			t.Errorf("index %d at %.1f C: next %d, want %d", tc.idx, tc.peak, got, tc.want)
		}
	}
	var off *DVFSPolicy
	if got := off.next(5, 13, 95); got != 5 {
		t.Errorf("nil policy moved the index to %d", got)
	}
}

func TestRunCtxHonoursCancellation(t *testing.T) {
	// The kernel-sourced run shares the stream's interval loop, so a
	// cancelled context must stop it before the first interval.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunCtx(ctx, looped(t, "ep")); err == nil {
		t.Fatal("expected error from cancelled context")
	} else if !errors.Is(err, context.Canceled) {
		t.Fatalf("error does not wrap context.Canceled: %v", err)
	}
}

// TestSinglePassMatchesFullsys pins the kernel source to fullsys's
// machine: a single-pass co-simulation without a governor runs the same
// workload as fullsys.Run, so it finishes at the same simulated time
// and its per-interval instruction rates add back up to the run's
// instruction count.
func TestSinglePassMatchesFullsys(t *testing.T) {
	for _, bench := range []string{"ep", "cg", "is"} {
		t.Run(bench, func(t *testing.T) {
			cfg := baseConfig(t, bench)
			cfg.Scale, cfg.IntervalS = 0.05, 2e-6
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fullsys.Run(fullsys.Config{
				Chips: cfg.Chips, FHz: cfg.FHz, Benchmark: cfg.Benchmark, Scale: cfg.Scale, Seed: cfg.Seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Seconds != want.Seconds {
				t.Errorf("Seconds %v, fullsys.Run %v", res.Seconds, want.Seconds)
			}
			var instr float64
			for _, s := range res.Samples {
				instr += s.IPS * cfg.IntervalS
			}
			if math.Round(instr) != float64(want.Activity.Instructions) {
				t.Errorf("Σ IPS·IntervalS = %v over %d intervals, fullsys.Run committed %d instructions",
					instr, len(res.Samples), want.Activity.Instructions)
			}
			t.Logf("%d intervals, %d instructions", len(res.Samples), want.Activity.Instructions)
		})
	}
}
