package stack

import (
	"math"
	"testing"

	"waterimm/internal/convection"
	"waterimm/internal/material"
	"waterimm/internal/thermal"
)

func TestCHFLimitFor(t *testing.T) {
	p := DefaultParams()
	// Immersion baths get the Zuber pool limit.
	for _, c := range []material.Coolant{material.Water, material.MineralOil, material.Fluorinert} {
		limit, ok := CHFLimitFor(p, c)
		if !ok || limit <= 0 {
			t.Fatalf("%s: no CHF limit", c.Name)
		}
		fluid, _ := convection.FluidForCoolant(c.Name)
		if math.Abs(limit-fluid.ZuberCHF()) > 1e-9*limit {
			t.Errorf("%s: limit %.4e, want pool CHF %.4e", c.Name, limit, fluid.ZuberCHF())
		}
	}
	// The pumped loop gets the flow enhancement — strictly above pool.
	pipeLimit, ok := CHFLimitFor(p, material.WaterPipe)
	if !ok {
		t.Fatal("water-pipe: no CHF limit")
	}
	poolLimit, _ := CHFLimitFor(p, material.Water)
	if pipeLimit <= poolLimit {
		t.Errorf("flow CHF %.4e not above pool CHF %.4e", pipeLimit, poolLimit)
	}
	// Air never reaches a boiling crisis.
	if _, ok := CHFLimitFor(p, material.Air); ok {
		t.Error("air reported a CHF limit")
	}
	// CHFScale moves the limit linearly; 0 means 1.
	p.CHFScale = 0.5
	halved, _ := CHFLimitFor(p, material.Water)
	if math.Abs(halved-poolLimit/2) > 1e-9*poolLimit {
		t.Errorf("CHFScale=0.5: %.4e, want %.4e", halved, poolLimit/2)
	}
	p.CHFScale = 0
	unscaled, _ := CHFLimitFor(p, material.Water)
	if unscaled != poolLimit {
		t.Errorf("CHFScale=0 should behave as 1: %.4e vs %.4e", unscaled, poolLimit)
	}
}

func TestBuildStampsCHF(t *testing.T) {
	p := DefaultParams()
	fluid, _ := convection.FluidForCoolant("water")

	// Water immersion: dies, bonds and the sink carry the pool limit
	// and the fluid's collapse factor; the TIM/spreader interior
	// stays unlimited.
	m, err := Build(Config{Params: p, Coolant: material.Water, Dies: poweredDies(2)})
	if err != nil {
		t.Fatal(err)
	}
	pool := fluid.ZuberCHF()
	for _, name := range []string{"die0", "bond0", "die1", "sink"} {
		l := layerByName(t, m.Layers, name)
		if math.Abs(l.CHFLimit-pool) > 1e-9*pool {
			t.Errorf("water %s: CHFLimit %.4e, want %.4e", name, l.CHFLimit, pool)
		}
		if l.FilmBoilCollapse != fluid.FilmBoilCollapse {
			t.Errorf("water %s: collapse %v, want %v", name, l.FilmBoilCollapse, fluid.FilmBoilCollapse)
		}
	}
	if l := layerByName(t, m.Layers, "tim"); l.CHFLimit != 0 {
		t.Errorf("tim stamped with CHF limit %v", l.CHFLimit)
	}

	// Air: no layer carries a limit.
	m, err = Build(Config{Params: p, Coolant: material.Air, Dies: poweredDies(2)})
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range m.Layers {
		if l.CHFLimit != 0 {
			t.Errorf("air %s: CHFLimit %v, want 0", l.Name, l.CHFLimit)
		}
	}

	// Pipe: the spreader (cold-plate face) carries the flow-enhanced
	// limit, above the pool value.
	m, err = Build(Config{Params: p, Coolant: material.WaterPipe, Dies: poweredDies(2)})
	if err != nil {
		t.Fatal(err)
	}
	spreader := layerByName(t, m.Layers, "spreader")
	if spreader.CHFLimit <= pool {
		t.Errorf("pipe spreader CHFLimit %.4e not above pool %.4e", spreader.CHFLimit, pool)
	}
	want := fluid.FlowCHF(pipeFlowSpeedMS, p.SpreaderSide)
	if math.Abs(spreader.CHFLimit-want) > 1e-9*want {
		t.Errorf("pipe spreader CHFLimit %.4e, want %.4e", spreader.CHFLimit, want)
	}

	// Microchannel layers get the channel flow limit.
	pc := p
	pc.InterDieChannels = true
	m, err = Build(Config{Params: pc, Coolant: material.Water, Dies: poweredDies(2)})
	if err != nil {
		t.Fatal(err)
	}
	ch := layerByName(t, m.Layers, "channel0")
	wantCh := fluid.FlowCHF(channelFlowSpeedMS, m.Grid.W)
	if math.Abs(ch.CHFLimit-wantCh) > 1e-9*wantCh {
		t.Errorf("channel CHFLimit %.4e, want %.4e", ch.CHFLimit, wantCh)
	}

	// CHFScale rides through Build.
	p.CHFScale = 0.01
	m, err = Build(Config{Params: p, Coolant: material.Water, Dies: poweredDies(2)})
	if err != nil {
		t.Fatal(err)
	}
	if got := layerByName(t, m.Layers, "die0").CHFLimit; math.Abs(got-pool*0.01) > 1e-9*pool {
		t.Errorf("scaled die0 CHFLimit %.4e, want %.4e", got, pool*0.01)
	}
}

func layerByName(t *testing.T, layers []thermal.Layer, name string) *thermal.Layer {
	t.Helper()
	for i := range layers {
		if layers[i].Name == name {
			return &layers[i]
		}
	}
	t.Fatalf("no layer %q", name)
	return nil
}
