package core

import (
	"math"
	"testing"

	"waterimm/internal/floorplan"
	"waterimm/internal/material"
	"waterimm/internal/mcpat"
	"waterimm/internal/power"
	"waterimm/internal/stack"
	"waterimm/internal/thermal"
)

func fastPlanner() *Planner {
	p := NewPlanner()
	p.Params.GridNX, p.Params.GridNY = 16, 16
	return p
}

func TestSolveReturnsConsistentStep(t *testing.T) {
	p := fastPlanner()
	res, step, err := p.Solve(StackSpec{Chip: power.LowPower, Chips: 2, Coolant: material.Water, FHz: 1.5e9})
	if err != nil {
		t.Fatal(err)
	}
	if step.FHz != 1.5e9 {
		t.Errorf("step frequency %g", step.FHz)
	}
	if res.Max() <= p.Params.AmbientC {
		t.Error("powered stack cannot sit at ambient")
	}
	// The model must carry both dies.
	if got := len(res.Model.Layers); got < 2*2-1 {
		t.Errorf("model has %d layers", got)
	}
}

func TestSolveRejectsBadSpecs(t *testing.T) {
	p := fastPlanner()
	if _, _, err := p.Solve(StackSpec{Chip: power.LowPower, Chips: 0, Coolant: material.Water, FHz: 1.5e9}); err == nil {
		t.Error("expected error for zero chips")
	}
	if _, _, err := p.Solve(StackSpec{Chip: power.LowPower, Chips: 2, Coolant: material.Water, FHz: 9e9}); err == nil {
		t.Error("expected error for out-of-range frequency")
	}
}

func TestPeakMonotonicInFrequencyAndChips(t *testing.T) {
	p := fastPlanner()
	peak := func(chips int, f float64) float64 {
		v, err := p.PeakAt(StackSpec{Chip: power.HighFrequency, Chips: chips, Coolant: material.Water, FHz: f})
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	// Monotone in frequency — the property MaxFrequency's bisection
	// relies on.
	prev := 0.0
	for _, f := range []float64{1.2e9, 2.0e9, 2.8e9, 3.6e9} {
		v := peak(2, f)
		if v <= prev {
			t.Errorf("peak not increasing at %.1f GHz: %.2f <= %.2f", f/1e9, v, prev)
		}
		prev = v
	}
	// Monotone in stack depth at fixed frequency.
	prev = 0
	for chips := 1; chips <= 5; chips++ {
		v := peak(chips, 2.0e9)
		if v <= prev {
			t.Errorf("peak not increasing at %d chips: %.2f <= %.2f", chips, v, prev)
		}
		prev = v
	}
}

func TestMaxFrequencyAgainstLinearScan(t *testing.T) {
	// The bisection must return exactly what a linear scan finds.
	p := fastPlanner()
	chip := power.LowPower
	coolant := material.WaterPipe
	const chips = 3
	plan, err := p.MaxFrequency(chip, chips, coolant)
	if err != nil {
		t.Fatal(err)
	}
	var want float64
	for _, s := range chip.Steps() {
		peak, err := p.PeakAt(StackSpec{Chip: chip, Chips: chips, Coolant: coolant, FHz: s.FHz})
		if err != nil {
			t.Fatal(err)
		}
		if peak <= p.ThresholdC {
			want = s.FHz
		}
	}
	if !plan.Feasible || plan.Step.FHz != want {
		t.Errorf("bisection found %.2f GHz, linear scan %.2f GHz", plan.Step.GHz(), want/1e9)
	}
	if plan.PeakC > p.ThresholdC {
		t.Errorf("returned plan violates the threshold: %.2f", plan.PeakC)
	}
}

func TestInfeasiblePlan(t *testing.T) {
	p := fastPlanner()
	plan, err := p.MaxFrequency(power.LowPower, 15, material.Air)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Feasible {
		t.Fatal("15 air-cooled chips cannot be feasible")
	}
	if plan.FrequencyGHz() != 0 {
		t.Error("infeasible plan must report 0 GHz")
	}
}

func TestSweepSkipsAfterInfeasible(t *testing.T) {
	p := fastPlanner()
	plans, err := p.MaxFrequencySweep(power.LowPower, 8, []material.Coolant{material.Air})
	if err != nil {
		t.Fatal(err)
	}
	row := plans[0]
	seenInfeasible := false
	for _, pl := range row {
		if seenInfeasible && pl.Feasible {
			t.Fatal("feasibility cannot resume after a shallower stack failed")
		}
		if !pl.Feasible {
			seenInfeasible = true
		}
	}
	if !seenInfeasible {
		t.Skip("air unexpectedly held 8 chips on the coarse grid")
	}
}

func TestFlipPlannerRunsCooler(t *testing.T) {
	spec := StackSpec{Chip: power.HighFrequency, Chips: 4, Coolant: material.Water, FHz: 3.6e9}
	aligned := fastPlanner()
	flipped := fastPlanner()
	flipped.Flip = true
	a, err := aligned.PeakAt(spec)
	if err != nil {
		t.Fatal(err)
	}
	f, err := flipped.PeakAt(spec)
	if err != nil {
		t.Fatal(err)
	}
	if f >= a {
		t.Errorf("flip layout must run cooler: %.2f vs %.2f", f, a)
	}
}

func TestLeakageWorstCaseIsConservative(t *testing.T) {
	spec := StackSpec{Chip: power.LowPower, Chips: 4, Coolant: material.Water, FHz: 1.6e9}
	worst := fastPlanner()
	ref := fastPlanner()
	ref.LeakageAtThreshold = false
	a, err := worst.PeakAt(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ref.PeakAt(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a <= b {
		t.Errorf("threshold-temperature leakage must be hotter: %.2f vs %.2f", a, b)
	}
}

func TestFreqSweepAccessors(t *testing.T) {
	fs := &FreqSweep{
		Coolants: []material.Coolant{material.Air, material.Water},
		Plans: [][]Plan{
			{{Feasible: true, Step: power.Step{FHz: 2.0e9}}, {}},
			{{Feasible: true, Step: power.Step{FHz: 2.0e9}}, {Feasible: true, Step: power.Step{FHz: 1.4e9}}},
		},
	}
	if row := fs.Row("water"); len(row) != 2 || row[1] != 1.4 {
		t.Errorf("Row(water) = %v", row)
	}
	if fs.Row("nonexistent") != nil {
		t.Error("unknown coolant must return nil")
	}
	if fs.MaxChips("air") != 1 || fs.MaxChips("water") != 2 {
		t.Error("MaxChips wrong")
	}
}

func TestFig6CurvesNormalised(t *testing.T) {
	for _, c := range Fig6() {
		last := c.Points[len(c.Points)-1]
		if math.Abs(last[0]-1) > 1e-12 || math.Abs(last[1]-1) > 1e-12 {
			t.Errorf("%s: curve must end at (1,1)", c.Chip)
		}
	}
}

func TestFlipGainCHelpers(t *testing.T) {
	pts := []FlipPoint{
		{Coolant: "water", Flip: false, GHz: 3.6, PeakC: 90},
		{Coolant: "water", Flip: true, GHz: 3.6, PeakC: 78},
		{Coolant: "air", Flip: false, GHz: 3.6, PeakC: 120},
	}
	if g := FlipGainC(pts, "water", 3.6); g != 12 {
		t.Errorf("FlipGainC = %g", g)
	}
	if g := FlipGainC(pts, "water", 2.0); g != 0 {
		t.Errorf("missing frequency must yield 0, got %g", g)
	}
}

func TestLeakageFixedPoint(t *testing.T) {
	spec := StackSpec{Chip: power.LowPower, Chips: 6, Coolant: material.Water, FHz: 1.5e9}
	worst := fastPlanner() // leakage at the 80 C threshold
	fixed := fastPlanner()
	fixed.ConvergeLeakage = true
	a, err := worst.PeakAt(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := fixed.PeakAt(spec)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("worst-case %.2f C, fixed-point %.2f C", a, b)
	// The converged peak sits below the worst-case estimate (the
	// stack runs cooler than 80 C, so its leakage is lower) but above
	// the naive reference-temperature estimate when the stack runs
	// hotter than RefTempC... at minimum it must be self-consistent:
	// within the fixed point's tolerance of its own leakage input.
	if b >= a {
		t.Errorf("fixed-point peak %.2f C must undercut the worst case %.2f C", b, a)
	}
	// Self-consistency: re-solving at the converged peak moves < 1 C.
	ref := fastPlanner()
	ref.LeakageAtThreshold = true
	ref.ThresholdC = b
	c, err := ref.PeakAt(spec)
	if err != nil {
		t.Fatal(err)
	}
	if d := c - b; d > 1 || d < -1 {
		t.Errorf("fixed point not self-consistent: resolve at %.2f C gives %.2f C", b, c)
	}
}

// coldChannelWalk is the oracle for channel stacks: a cold assembly
// and solve at every VFS step, keeping the fastest step at or below
// the threshold, with leakage at the threshold.
func coldChannelWalk(t *testing.T, p *Planner, chip power.Model, chips int) float64 {
	t.Helper()
	best := 0.0
	for _, s := range chip.Steps() {
		base, err := mcpat.ChipAt(chip, s, p.ThresholdC)
		if err != nil {
			t.Fatal(err)
		}
		dies := make([]*floorplan.Floorplan, chips)
		for i := range dies {
			dies[i] = base
		}
		model, err := stack.Build(stack.Config{Params: p.Params, Coolant: material.Water, Dies: dies})
		if err != nil {
			t.Fatal(err)
		}
		res, err := thermal.Solve(model, thermal.SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Max() <= p.ThresholdC {
			best = s.FHz
		}
	}
	return best
}

// TestChannelPlannerMatchesColdWalk checks that the planner plans
// inter-die microchannel stacks (Params.InterDieChannels) exactly as a
// cold linear walk over the VFS table does, at thresholds whose answer
// lies strictly inside the table.
func TestChannelPlannerMatchesColdWalk(t *testing.T) {
	chip := power.HighFrequency
	const chips = 8
	for _, threshold := range []float64{40, 45, 50, 55} {
		p := fastPlanner()
		p.Params.InterDieChannels = true
		p.ThresholdC = threshold
		want := coldChannelWalk(t, p, chip, chips)
		if want <= chip.FMinHz || want >= chip.FMaxHz {
			t.Fatalf("threshold %g °C: cold walk found %.1f GHz, not strictly inside the table", threshold, want/1e9)
		}
		plan, err := p.MaxFrequency(chip, chips, material.Water)
		if err != nil {
			t.Fatal(err)
		}
		if !plan.Feasible || plan.Step.FHz != want {
			t.Errorf("threshold %g °C: planner found %.1f GHz, cold walk %.1f GHz", threshold, plan.FrequencyGHz(), want/1e9)
		}
	}
}
