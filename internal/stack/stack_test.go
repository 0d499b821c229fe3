package stack

import (
	"strings"
	"testing"

	"waterimm/internal/floorplan"
	"waterimm/internal/material"
	"waterimm/internal/thermal"
)

func poweredDies(n int) []*floorplan.Floorplan {
	var dies []*floorplan.Floorplan
	for i := 0; i < n; i++ {
		fp := floorplan.Baseline16Tile()
		fp.SetKindPower("core", 12)
		fp.SetKindPower("l2", 5)
		fp.SetKindPower("router", 2)
		dies = append(dies, fp)
	}
	return dies
}

func TestDefaultParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	p.TIMK = 0
	if err := p.Validate(); err == nil {
		t.Error("expected error for zero TIM conductivity")
	}
	p = DefaultParams()
	p.GridNX = 2
	if err := p.Validate(); err == nil {
		t.Error("expected error for tiny grid")
	}
}

func TestBuildLayerStructure(t *testing.T) {
	cases := []struct {
		coolant material.Coolant
		// layers: 2n-1 dies/bonds + tim + spreader (+sink for
		// non-pipe options)
		layers int
		extras int
	}{
		{material.Air, 2*3 - 1 + 3, 3},
		{material.Water, 2*3 - 1 + 3, 3},
		{material.MineralOil, 2*3 - 1 + 3, 3},
		{material.WaterPipe, 2*3 - 1 + 2, 2},
	}
	for _, c := range cases {
		m, err := Build(Config{Params: DefaultParams(), Coolant: c.coolant, Dies: poweredDies(3)})
		if err != nil {
			t.Fatalf("%s: %v", c.coolant.Name, err)
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("%s: invalid model: %v", c.coolant.Name, err)
		}
		if len(m.Layers) != c.layers {
			t.Errorf("%s: %d layers, want %d", c.coolant.Name, len(m.Layers), c.layers)
		}
		if len(m.Extras) != c.extras {
			t.Errorf("%s: %d extras, want %d", c.coolant.Name, len(m.Extras), c.extras)
		}
		if NumDies(m) != 3 {
			t.Errorf("%s: NumDies = %d, want 3", c.coolant.Name, NumDies(m))
		}
		for i := 0; i < 3; i++ {
			l := m.Layers[DieLayer(i)]
			if !strings.HasPrefix(l.Name, "die") {
				t.Errorf("%s: DieLayer(%d) points at %q", c.coolant.Name, i, l.Name)
			}
			if l.Power == nil {
				t.Errorf("%s: die %d has no power map", c.coolant.Name, i)
			}
		}
	}
}

func TestBuildConservesPower(t *testing.T) {
	dies := poweredDies(4)
	var want float64
	for _, d := range dies {
		want += d.TotalPower()
	}
	m, err := Build(Config{Params: DefaultParams(), Coolant: material.Water, Dies: dies})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.TotalPower(); got < want*0.999 || got > want*1.001 {
		t.Errorf("stack carries %.2f W, dies dissipate %.2f W", got, want)
	}
}

func TestBuildRejectsBadConfigs(t *testing.T) {
	if _, err := Build(Config{Params: DefaultParams(), Coolant: material.Water}); err == nil {
		t.Error("expected error for empty stack")
	}
	dies := poweredDies(2)
	odd := floorplan.XeonE5()
	if _, err := Build(Config{Params: DefaultParams(), Coolant: material.Water,
		Dies: []*floorplan.Floorplan{dies[0], odd}}); err == nil {
		t.Error("expected error for incongruent dies")
	}
}

func solveStack(t *testing.T, coolant material.Coolant, n int) float64 {
	t.Helper()
	m, err := Build(Config{Params: DefaultParams(), Coolant: coolant, Dies: poweredDies(n)})
	if err != nil {
		t.Fatal(err)
	}
	res, err := thermal.Solve(m, thermal.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return res.Max()
}

func TestCoolantOrderingEndToEnd(t *testing.T) {
	air := solveStack(t, material.Air, 4)
	pipe := solveStack(t, material.WaterPipe, 4)
	oil := solveStack(t, material.MineralOil, 4)
	fluor := solveStack(t, material.Fluorinert, 4)
	water := solveStack(t, material.Water, 4)
	t.Logf("4-chip peaks: air %.1f, pipe %.1f, oil %.1f, fluorinert %.1f, water %.1f",
		air, pipe, oil, fluor, water)
	if !(air > pipe && pipe > oil && oil >= fluor && fluor > water) {
		t.Errorf("peak temperature ordering violated")
	}
}

func TestDeeperStacksRunHotter(t *testing.T) {
	prev := 0.0
	for n := 1; n <= 6; n++ {
		peak := solveStack(t, material.Water, n)
		if peak <= prev {
			t.Errorf("%d chips (%.2f C) not hotter than %d (%.2f C)", n, peak, n-1, prev)
		}
		prev = peak
	}
}

func TestParyleneFilmPenalty(t *testing.T) {
	// Water pays the film on wetted surfaces; a hypothetical
	// dielectric coolant with water's h must run cooler.
	bare := material.Coolant{Name: "magic", H: material.Water.H, Immersive: true, Dielectric: true}
	withFilm := solveStack(t, material.Water, 4)
	without := solveStack(t, bare, 4)
	if without >= withFilm {
		t.Errorf("film-free coolant (%.2f C) must beat coated water (%.2f C)", without, withFilm)
	}
}

func TestFilmCoeffComposition(t *testing.T) {
	cfg := Config{Params: DefaultParams(), Coolant: material.Water}
	h := cfg.filmCoeff()
	if h >= material.Water.H {
		t.Errorf("film must reduce the effective coefficient: %.0f >= %.0f", h, material.Water.H)
	}
	cfg.Coolant = material.MineralOil
	if got := cfg.filmCoeff(); got != material.MineralOil.H {
		t.Errorf("dielectric coolant must keep its raw h, got %.0f", got)
	}
}

func TestInterDieChannelsBeatImmersionDeepStacks(t *testing.T) {
	// Microchannel layers remove the stack-depth bottleneck: at 8
	// dies the channelled stack must run far cooler than plain
	// immersion with identical power.
	dies := poweredDies(8)
	build := func(channels bool) float64 {
		p := DefaultParams()
		p.InterDieChannels = channels
		m, err := Build(Config{Params: p, Coolant: material.Water, Dies: dies})
		if err != nil {
			t.Fatal(err)
		}
		res, err := thermal.Solve(m, thermal.SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return res.Max()
	}
	imm := build(false)
	ch := build(true)
	t.Logf("8 dies: immersion %.1f C, microchannels %.1f C", imm, ch)
	if ch >= imm-5 {
		t.Errorf("microchannels must clearly beat immersion on deep stacks: %.1f vs %.1f", ch, imm)
	}
}

func TestChannelLayersNamed(t *testing.T) {
	p := DefaultParams()
	p.InterDieChannels = true
	m, err := Build(Config{Params: p, Coolant: material.Water, Dies: poweredDies(3)})
	if err != nil {
		t.Fatal(err)
	}
	channels := 0
	for _, l := range m.Layers {
		if strings.HasPrefix(l.Name, "channel") {
			channels++
			if l.ChannelCoeff <= 0 {
				t.Errorf("%s has no channel coefficient", l.Name)
			}
		}
	}
	if channels != 2 {
		t.Errorf("3 dies need 2 channel layers, got %d", channels)
	}
}
