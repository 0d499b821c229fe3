package cosim

import (
	"context"
	"encoding/json"
	"errors"
	"testing"

	"waterimm/internal/core"
	"waterimm/internal/material"
	"waterimm/internal/power"
	"waterimm/internal/stack"
)

// streamCfg is a coarse-grid config that runs fast under the race
// detector.
func streamCfg(intervals int) StreamConfig {
	p := stack.DefaultParams()
	p.GridNX, p.GridNY = 16, 16
	return StreamConfig{
		Chip:      power.LowPower,
		Chips:     1,
		Coolant:   material.Water,
		Params:    p,
		FHz:       power.LowPower.FMaxHz,
		IntervalS: 0.01,
		Intervals: intervals,
	}
}

func drain(t *testing.T, s *Stream, n int) {
	t.Helper()
	ctx := context.Background()
	for i := 0; i < n; i++ {
		if _, err := s.Next(ctx); err != nil {
			t.Fatal(err)
		}
	}
}

func TestStreamProducesContiguousSamples(t *testing.T) {
	s, err := NewStream(streamCfg(12))
	if err != nil {
		t.Fatal(err)
	}
	drain(t, s, 12)
	if !s.Done() {
		t.Fatal("stream not done after all intervals")
	}
	samples := s.Samples()
	if len(samples) != 12 {
		t.Fatalf("got %d samples, want 12", len(samples))
	}
	for i, smp := range samples {
		if smp.Seq != i+1 {
			t.Fatalf("sample %d has seq %d", i, smp.Seq)
		}
		if smp.PeakC <= 0 || smp.TimeS <= 0 {
			t.Fatalf("sample %d not populated: %+v", i, smp)
		}
	}
	if _, err := s.Next(context.Background()); err == nil {
		t.Fatal("exhausted stream must refuse further intervals")
	}
}

func TestStreamCheckpointResumeBitIdentical(t *testing.T) {
	// Interrupt at interval 7 of 20, round-trip the checkpoint through
	// JSON (the on-disk format), restore into a freshly built stream,
	// and finish: every field of every sample must be bit-identical to
	// an uninterrupted run.
	cfg := streamCfg(20)
	cfg.DVFS = &DVFSPolicy{SetpointC: 55, HysteresisC: 2}
	cfg.Phases = []StreamPhase{
		{DurationS: 0.05, Utilisation: 1},
		{DurationS: 0.03, Utilisation: 0.2},
	}

	ref, err := NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	drain(t, ref, 20)

	first, err := NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	drain(t, first, 7)
	blob, err := json.Marshal(first.Checkpoint())
	if err != nil {
		t.Fatal(err)
	}
	var ck Checkpoint
	if err := json.Unmarshal(blob, &ck); err != nil {
		t.Fatal(err)
	}

	resumed, err := NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.Restore(&ck); err != nil {
		t.Fatal(err)
	}
	drain(t, resumed, 13)

	want, got := ref.Samples(), resumed.Samples()
	if len(got) != len(want) {
		t.Fatalf("resumed run has %d samples, uninterrupted %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sample %d not bit-identical:\nresumed      %+v\nuninterrupted %+v", i, got[i], want[i])
		}
	}
	if got, want := resumed.MeanGHz(), ref.MeanGHz(); got != want {
		t.Fatalf("MeanGHz diverged: %v vs %v", got, want)
	}
	if got, want := resumed.MaxPeakC(), ref.MaxPeakC(); got != want {
		t.Fatalf("MaxPeakC diverged: %v vs %v", got, want)
	}
	if got, want := resumed.Throttles(), ref.Throttles(); got != want {
		t.Fatalf("Throttles diverged: %v vs %v", got, want)
	}
}

func TestStreamGovernorThrottles(t *testing.T) {
	cfg := streamCfg(40)
	cfg.Chip = power.HighFrequency
	cfg.FHz = power.HighFrequency.FMaxHz
	cfg.Chips = 4
	cfg.Coolant = material.Air
	cfg.DVFS = &DVFSPolicy{SetpointC: 80, HysteresisC: 2}
	s, err := NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	drain(t, s, 40)
	if s.Throttles() == 0 {
		t.Fatal("air-cooled 4-chip stack at fmax never throttled")
	}
	samples := s.Samples()
	last := samples[len(samples)-1]
	if last.FHz >= power.HighFrequency.FMaxHz {
		t.Errorf("governor still at fmax with peak %.1f C", last.PeakC)
	}
}

func TestStreamPhasesDriveUtilisation(t *testing.T) {
	cfg := streamCfg(10)
	cfg.Phases = []StreamPhase{
		{DurationS: 0.05, Utilisation: 1}, // intervals 1-5
		{DurationS: 0.05, Utilisation: 0}, // intervals 6-10
	}
	s, err := NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	drain(t, s, 10)
	for _, smp := range s.Samples() {
		busy := smp.Seq <= 5
		if busy && (smp.Utilisation != 1 || smp.DynamicW <= 0) {
			t.Fatalf("busy interval %d: %+v", smp.Seq, smp)
		}
		if !busy && (smp.Utilisation != 0 || smp.DynamicW != 0) {
			t.Fatalf("idle interval %d: %+v", smp.Seq, smp)
		}
	}
}

func TestStreamHonoursContext(t *testing.T) {
	s, err := NewStream(streamCfg(5))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Next(ctx); err == nil {
		t.Fatal("expected error from cancelled context")
	} else if !errors.Is(err, context.Canceled) {
		t.Fatalf("error does not wrap context.Canceled: %v", err)
	}
	if s.Seq() != 0 {
		t.Fatalf("cancelled interval still counted: seq %d", s.Seq())
	}
}

func TestNewStreamValidation(t *testing.T) {
	bad := func(name string, mutate func(*StreamConfig)) {
		cfg := streamCfg(4)
		mutate(&cfg)
		if _, err := NewStream(cfg); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
	bad("zero chips", func(c *StreamConfig) { c.Chips = 0 })
	bad("zero interval", func(c *StreamConfig) { c.IntervalS = 0 })
	bad("zero intervals", func(c *StreamConfig) { c.Intervals = 0 })
	bad("off-step frequency", func(c *StreamConfig) { c.FHz = 1.234e9 })
	bad("zero-length phase", func(c *StreamConfig) {
		c.Phases = []StreamPhase{{DurationS: 0, Utilisation: 1}}
	})
	bad("utilisation above 1", func(c *StreamConfig) {
		c.Phases = []StreamPhase{{DurationS: 1, Utilisation: 1.5}}
	})
}

func TestStreamRestoreRejectsBadCheckpoint(t *testing.T) {
	s, err := NewStream(streamCfg(10))
	if err != nil {
		t.Fatal(err)
	}
	drain(t, s, 3)
	good := s.Checkpoint()

	fresh := func() *Stream {
		st, err := NewStream(streamCfg(10))
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	if err := fresh().Restore(nil); err == nil {
		t.Error("expected error for nil checkpoint")
	}
	ck := *good
	ck.Seq = 99
	if err := fresh().Restore(&ck); err == nil {
		t.Error("expected error for out-of-range seq")
	}
	ck = *good
	ck.Samples = ck.Samples[:2]
	if err := fresh().Restore(&ck); err == nil {
		t.Error("expected error for sample/seq mismatch")
	}
	ck = *good
	ck.StepIdx = 99
	if err := fresh().Restore(&ck); err == nil {
		t.Error("expected error for bad governor index")
	}
	ck = *good
	ck.T = ck.T[:4]
	if err := fresh().Restore(&ck); err == nil {
		t.Error("expected error for truncated field")
	}
	if err := fresh().Restore(good); err != nil {
		t.Errorf("valid checkpoint rejected: %v", err)
	}
}

func TestStreamPhaseBoundariesExact(t *testing.T) {
	// {0.2 s @ 1.0, 0.1 s @ 0.3} at 10 ms intervals: interval idx
	// starts at 10·idx ms, so it is busy exactly when (10·idx mod 300)
	// < 200. idx·IntervalS in binary floating point lands a hair either
	// side of the 200 ms and 300 ms boundaries, which used to put
	// seqs 31 and 61 in the idle phase and seq 51 in the busy one.
	cfg := streamCfg(61)
	cfg.Phases = []StreamPhase{
		{DurationS: 0.2, Utilisation: 1},
		{DurationS: 0.1, Utilisation: 0.3},
	}
	s, err := NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	drain(t, s, 61)
	for _, smp := range s.Samples() {
		want := 0.3
		if (10*(smp.Seq-1))%300 < 200 {
			want = 1
		}
		if smp.Utilisation != want {
			t.Errorf("seq %d: utilisation %g, want %g", smp.Seq, smp.Utilisation, want)
		}
	}
}

// governorCfg is the 16×16 high-frequency stack the governor tests
// run from fmax: 0.05 s intervals integrated in two sub-steps under
// the paper's 80 °C limit with a 2 °C band.
func governorCfg(chips, intervals int) StreamConfig {
	cfg := streamCfg(intervals)
	cfg.Chip, cfg.FHz, cfg.Chips = power.HighFrequency, power.HighFrequency.FMaxHz, chips
	cfg.IntervalS, cfg.SubSteps = 0.05, 2
	cfg.DVFS = &DVFSPolicy{SetpointC: 80, HysteresisC: 2}
	return cfg
}

func TestStreamGovernorHoldsSetpoint(t *testing.T) {
	// The governor may overshoot transiently but must keep the bulk of
	// 20 s of samples under the setpoint and stay within a few degrees
	// of it at worst.
	cfg := governorCfg(4, 400)
	s, err := NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	drain(t, s, cfg.Intervals)
	if s.MaxPeakC() > cfg.DVFS.SetpointC+6 {
		t.Errorf("peak %.1f C overshoots the %.0f C setpoint badly", s.MaxPeakC(), cfg.DVFS.SetpointC)
	}
	var over int
	for _, smp := range s.Samples() {
		if smp.PeakC > cfg.DVFS.SetpointC {
			over++
		}
	}
	if frac := float64(over) / float64(cfg.Intervals); frac > 0.25 {
		t.Errorf("%.0f%% of samples above setpoint", frac*100)
	}
	if s.MeanGHz() <= 0 {
		t.Error("no frequency recorded")
	}
}

func TestStreamGovernorBeatsStaticWorstCase(t *testing.T) {
	// The motivating comparison: the static planner must assume the
	// steady-state worst case, while the governor rides the thermal
	// capacitance and the actual duty cycle. Under a 60 % utilisation
	// workload its mean frequency must be at least the static plan.
	const chips = 6
	plan, err := core.NewPlanner().MaxFrequency(power.HighFrequency, chips, material.Water)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Feasible {
		t.Fatal("static plan infeasible")
	}
	cfg := governorCfg(chips, 600)
	cfg.Phases = []StreamPhase{{DurationS: 1, Utilisation: 0.6}}
	s, err := NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	drain(t, s, cfg.Intervals)
	t.Logf("static plan %.1f GHz, governed mean %.2f GHz (max peak %.1f C)",
		plan.Step.GHz(), s.MeanGHz(), s.MaxPeakC())
	if s.MeanGHz() < plan.Step.GHz()-0.05 {
		t.Errorf("governed mean %.2f GHz below the static plan %.2f GHz", s.MeanGHz(), plan.Step.GHz())
	}
}

func TestStreamGovernorBacksOffUnderAir(t *testing.T) {
	// Air cannot hold a 4-chip stack at fmax: over 30 s the governor
	// must land on a lower step rather than oscillate at the top.
	cfg := governorCfg(4, 600)
	cfg.Coolant = material.Air
	s, err := NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	drain(t, s, cfg.Intervals)
	samples := s.Samples()
	last := samples[len(samples)-1]
	if last.FHz >= power.HighFrequency.FMaxHz {
		t.Errorf("air-cooled governor still at fmax with peak %.1f C", last.PeakC)
	}
}

func TestStreamGovernorValidation(t *testing.T) {
	// A governed stream rejects the same degenerate runs as an
	// ungoverned one: no chips, no coupling period, no duration.
	bad := func(name string, mutate func(*StreamConfig)) {
		cfg := governorCfg(2, 4)
		cfg.Chip, cfg.FHz = power.LowPower, power.LowPower.FMaxHz
		mutate(&cfg)
		if _, err := NewStream(cfg); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
	bad("zero chips", func(c *StreamConfig) { c.Chips = 0 })
	bad("zero interval", func(c *StreamConfig) { c.IntervalS = 0 })
	bad("zero intervals", func(c *StreamConfig) { c.Intervals = 0 })
}
