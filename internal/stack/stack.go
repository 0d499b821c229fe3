package stack

import (
	"fmt"

	"waterimm/internal/convection"
	"waterimm/internal/floorplan"
	"waterimm/internal/material"
	"waterimm/internal/thermal"
)

// Params gathers every geometric and material constant of the stack
// model, plus the one structural choice that is not the coolant's:
// InterDieChannels. Anything that builds stacks from Params (the
// planner, its sessions, the co-simulator) therefore builds channel
// stacks too. The zero value is unusable; start from DefaultParams.
type Params struct {
	// Die.
	DieThickness float64 // m
	DieK         float64 // W/(m·K)

	// Die-to-die bond: adhesive layer crossed by the TSV/TCI copper
	// fill, which raises its effective conductivity well above plain
	// glue. Thickness matches Table 2's TIM/Glue entry.
	BondThickness float64
	BondK         float64

	// TIM between the top die and the spreader (Table 2: 20 µm,
	// 0.25 W/(m·K)). Following HotSpot, the heatsink sits directly on
	// the spreader with no second interface layer.
	TIMThickness float64
	TIMK         float64

	// Heat spreader (Table 2: 6×6×0.1 cm, 400 W/(m·K)).
	SpreaderSide  float64
	SpreaderThick float64
	SpreaderK     float64

	// Heatsink (Table 2: 12×12×3 cm, 400 W/(m·K), 0.3024 m² total
	// convective area including fins). SinkBaseThick is the solid
	// base plate below the fins.
	SinkSide      float64
	SinkBaseThick float64
	SinkK         float64
	SinkTotalArea float64

	// Parylene film on wetted surfaces for non-dielectric coolants
	// (Table 2: 120 µm, 0.14 W/(m·K)).
	ParyleneThick float64
	ParyleneK     float64

	// Package substrate between the bottom die and the board.
	SubstrateThick float64
	SubstrateK     float64

	// Board secondary path: wetted board area for immersion, and the
	// weak natural-convection coefficient when the board sits in air.
	BoardArea     float64
	BoardAirCoeff float64

	// PipeCoeff is the effective film coefficient of the closed-loop
	// cold plate that replaces the heatsink in the water-pipe option.
	PipeCoeff float64

	// InterDieChannels replaces the solid TSV bonds with microchannel
	// layers through which the coolant flows (the related-work
	// comparison of Section 5.1: microchannel cooling of 3-D ICs).
	// Only meaningful for liquid coolants.
	InterDieChannels bool
	// ChannelCoeff is the film coefficient of those microchannel
	// layers (microchannel heat sinks reach 10⁴-10⁵ W/(m²·K)).
	ChannelCoeff float64

	// SpreadingFactor scales the lumped lateral conductance between
	// the grid window and the spreader/heatsink periphery nodes. The
	// single-ring lumping underestimates distributed spreading; the
	// calibration tests pin this factor.
	SpreadingFactor float64

	// AmbientC is the coolant inlet / room temperature (Table 2: 25°C).
	AmbientC float64

	// CHFScale multiplies every per-coolant critical-heat-flux limit
	// stamped onto wetted layers (CHFLimitFor). 1 is the literature
	// value; 0 means 1 (so zero-valued Params stay meaningful).
	// Raising or lowering it is the audit workload's sensitivity
	// knob and the test hook that makes the boiling crisis reachable
	// on small models.
	CHFScale float64

	// Grid resolution per layer.
	GridNX, GridNY int
}

// DefaultParams returns the Table 2 configuration plus the calibrated
// unspecified constants.
func DefaultParams() Params {
	return Params{
		DieThickness: 100e-6, // thinned for 3-D stacking
		DieK:         material.Silicon.Conductivity,

		BondThickness: 20e-6,
		BondK:         50.0, // Cu-Cu hybrid bond with TSV fill (calibrated)

		TIMThickness: 20e-6,
		TIMK:         material.TIM.Conductivity,

		SpreaderSide:  0.06,
		SpreaderThick: 1e-3,
		SpreaderK:     material.Copper.Conductivity,

		SinkSide:      0.12,
		SinkBaseThick: 6e-3,
		SinkK:         material.Copper.Conductivity,
		SinkTotalArea: 0.3024,

		ParyleneThick: 120e-6,
		ParyleneK:     material.Parylene.Conductivity,

		SubstrateThick: 1.0e-3,
		SubstrateK:     50.0, // substrate with dense thermal-via farm (calibrated)

		BoardArea:     0.04,
		BoardAirCoeff: 10,

		PipeCoeff: 30000,

		ChannelCoeff: 20000,

		SpreadingFactor: 8.0,

		AmbientC: 25,
		CHFScale: 1,
		GridNX:   32,
		GridNY:   32,
	}
}

// Validate checks the parameters.
func (p Params) Validate() error {
	pos := []struct {
		name string
		v    float64
	}{
		{"DieThickness", p.DieThickness}, {"DieK", p.DieK},
		{"BondThickness", p.BondThickness}, {"BondK", p.BondK},
		{"TIMThickness", p.TIMThickness}, {"TIMK", p.TIMK},
		{"SpreaderSide", p.SpreaderSide}, {"SpreaderThick", p.SpreaderThick}, {"SpreaderK", p.SpreaderK},
		{"SinkSide", p.SinkSide}, {"SinkBaseThick", p.SinkBaseThick}, {"SinkK", p.SinkK}, {"SinkTotalArea", p.SinkTotalArea},
		{"ParyleneThick", p.ParyleneThick}, {"ParyleneK", p.ParyleneK},
		{"SubstrateThick", p.SubstrateThick}, {"SubstrateK", p.SubstrateK},
		{"BoardArea", p.BoardArea}, {"PipeCoeff", p.PipeCoeff},
		{"ChannelCoeff", p.ChannelCoeff},
		{"SpreadingFactor", p.SpreadingFactor},
	}
	for _, e := range pos {
		if e.v <= 0 {
			return fmt.Errorf("stack: %s must be positive, got %g", e.name, e.v)
		}
	}
	if p.GridNX < 4 || p.GridNY < 4 {
		return fmt.Errorf("stack: grid %dx%d too coarse", p.GridNX, p.GridNY)
	}
	return nil
}

// Config describes one stack to compile.
type Config struct {
	Params  Params
	Coolant material.Coolant
	// Dies lists the powered floorplans from the bottom of the stack
	// to the top. All dies must share the same outline.
	Dies []*floorplan.Floorplan
}

// filmCoeff composes the coolant's convection coefficient with the
// parylene film for non-dielectric coolants, returning the effective
// series film coefficient in W/(m²·K).
func (c Config) filmCoeff() float64 {
	h := c.Coolant.H
	if h <= 0 {
		return 0
	}
	if c.Coolant.Dielectric {
		return h
	}
	return 1 / (1/h + c.Params.ParyleneThick/c.Params.ParyleneK)
}

// Build compiles the configuration into a thermal model. The layer
// order is: die 0 (bottom), bond, die 1, bond, …, die N−1, TIM,
// spreader[, TIM, sink]. Lumped extras: board, spreader periphery
// [, sink periphery].
func Build(cfg Config) (*thermal.Model, error) {
	p := cfg.Params
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(cfg.Dies) == 0 {
		return nil, fmt.Errorf("stack: no dies")
	}
	w, h := cfg.Dies[0].W, cfg.Dies[0].H
	for i, d := range cfg.Dies {
		if d.W != w || d.H != h {
			return nil, fmt.Errorf("stack: die %d outline %gx%g differs from die 0 (%gx%g); rectangular chips must stack congruently",
				i, d.W, d.H, w, h)
		}
	}
	grid := thermal.Grid{NX: p.GridNX, NY: p.GridNY, W: w, H: h}
	m := &thermal.Model{Grid: grid, AmbientC: p.AmbientC}

	coolantFilm := cfg.filmCoeff()
	immersed := cfg.Coolant.Immersive
	pipe := cfg.Coolant.Name == material.WaterPipe.Name

	// Boiling limits for every wetted surface. Pure metadata until a
	// two-phase solve collapses cells, so stamped and unstamped
	// models assemble identically. Pool boiling (Zuber) on bath-
	// wetted faces; the flow enhancement where a pump forces the
	// coolant (cold plate, microchannels); nothing for air.
	poolCHF, flowPlateCHF, flowChannelCHF, filmCollapse := 0.0, 0.0, 0.0, 0.0
	if fluid, ok := convection.FluidForCoolant(cfg.Coolant.Name); ok && fluid.Boils() {
		scale := p.chfScale()
		poolCHF = fluid.ZuberCHF() * scale
		flowPlateCHF = fluid.FlowCHF(pipeFlowSpeedMS, p.SpreaderSide) * scale
		flowChannelCHF = fluid.FlowCHF(channelFlowSpeedMS, w) * scale
		filmCollapse = fluid.FilmBoilCollapse
	}

	// Edge convection applies to every die/bond layer only under
	// immersion; in air the contribution is negligible but physical,
	// so we keep it for the air option too.
	edge := 0.0
	if immersed {
		edge = coolantFilm
	} else if cfg.Coolant.Name == material.Air.Name {
		edge = cfg.Coolant.H
	}

	// Die and bond layers.
	for i, d := range cfg.Dies {
		die := thermal.Layer{
			Name:       fmt.Sprintf("die%d", i),
			Thickness:  p.DieThickness,
			K:          p.DieK,
			VolHeatCap: material.Silicon.VolumetricHeatCapacity,
			Power:      d.PowerMap(grid.NX, grid.NY, w, h),
			EdgeCoeff:  edge,
		}
		if immersed {
			die.CHFLimit, die.FilmBoilCollapse = poolCHF, filmCollapse
		}
		m.Layers = append(m.Layers, die)
		if i < len(cfg.Dies)-1 {
			bond := thermal.Layer{
				Name:       fmt.Sprintf("bond%d", i),
				Thickness:  p.BondThickness,
				K:          p.BondK,
				VolHeatCap: material.TIM.VolumetricHeatCapacity,
				EdgeCoeff:  edge,
			}
			if immersed {
				bond.CHFLimit, bond.FilmBoilCollapse = poolCHF, filmCollapse
			}
			if p.InterDieChannels {
				// The microchannel layer is thicker (fluid passages)
				// and couples every cell to the coolant; the
				// parylene question does not arise because channel
				// walls are silicon.
				bond.Name = fmt.Sprintf("channel%d", i)
				bond.Thickness = 100e-6
				bond.ChannelCoeff = p.ChannelCoeff
				// Pumped flow through the channels raises the limit
				// above the pool value.
				bond.CHFLimit, bond.FilmBoilCollapse = flowChannelCHF, filmCollapse
			}
			m.Layers = append(m.Layers, bond)
		}
	}

	// TIM to spreader.
	m.Layers = append(m.Layers, thermal.Layer{
		Name: "tim", Thickness: p.TIMThickness, K: p.TIMK,
		VolHeatCap: material.TIM.VolumetricHeatCapacity,
	})
	spreaderIdx := len(m.Layers)
	spreader := thermal.Layer{
		Name: "spreader", Thickness: p.SpreaderThick, K: p.SpreaderK,
		VolHeatCap: material.Copper.VolumetricHeatCapacity,
	}

	dieArea := w * h
	spreaderArea := p.SpreaderSide * p.SpreaderSide
	overhangSpr := spreaderArea - dieArea
	if overhangSpr < 0 {
		overhangSpr = 0
	}

	// Board path: bottom die -> substrate -> board node -> coolant.
	boardFilm := p.BoardAirCoeff // dry options leave the board in room air
	if immersed {
		boardFilm = coolantFilm
	}
	board := thermal.Extra{
		Name:     "board",
		AmbientG: boardFilm * p.BoardArea,
		Cap:      5000, // ≈ board + padding thermal mass, J/K
	}
	m.Extras = append(m.Extras, board)
	m.Couplings = append(m.Couplings, thermal.Coupling{
		ExtraA: 0, ExtraB: -1, Layer: 0,
		G: dieArea / (p.SubstrateThick / p.SubstrateK),
	})

	// Spreader periphery: the 6×6 cm copper beyond the die footprint.
	perimeter := 2 * (w + h)
	spreadDist := (p.SpreaderSide - minf(w, h)) / 2
	if spreadDist < 1e-4 {
		spreadDist = 1e-4
	}
	sprPeriphG := p.SpreadingFactor * p.SpreaderK * p.SpreaderThick * perimeter / (spreadDist / 2)
	sprPeriph := thermal.Extra{
		Name: "spreader-periphery",
		Cap:  material.Copper.VolumetricHeatCapacity * p.SpreaderThick * overhangSpr,
	}
	if immersed {
		// Exposed spreader overhang is wetted (film-coated for water).
		sprPeriph.AmbientG = coolantFilm * overhangSpr
	}

	switch {
	case pipe:
		// Cold plate directly on the spreader; no heatsink layers.
		spreader.TopCoeff = p.PipeCoeff
		spreader.CHFLimit, spreader.FilmBoilCollapse = flowPlateCHF, filmCollapse
		m.Layers = append(m.Layers, spreader)
		m.Extras = append(m.Extras, sprPeriph)
		sp := len(m.Extras) - 1
		m.Couplings = append(m.Couplings, thermal.Coupling{
			ExtraA: sp, ExtraB: -1, Layer: spreaderIdx, EdgeOnly: true, G: sprPeriphG,
		})
		// The plate also covers the spreader overhang.
		m.Extras[sp].AmbientG += p.PipeCoeff * overhangSpr

	default:
		// Heatsink path (air and all immersion options). As in
		// HotSpot's package model, the sink base sits directly on the
		// spreader.
		m.Layers = append(m.Layers, spreader)
		sinkIdx := len(m.Layers)
		sinkBaseArea := p.SinkSide * p.SinkSide
		finBoost := p.SinkTotalArea / sinkBaseArea
		// The sink is mounted after coating (the film is broken on
		// the spreader surface, Section 2.1), so its surface faces
		// the coolant directly with no parylene in series.
		sink := thermal.Layer{
			Name: "sink", Thickness: p.SinkBaseThick, K: p.SinkK,
			VolHeatCap:   material.Copper.VolumetricHeatCapacity,
			TopCoeff:     cfg.Coolant.H,
			TopAreaBoost: finBoost,
		}
		if immersed {
			sink.CHFLimit, sink.FilmBoilCollapse = poolCHF, filmCollapse
		}
		m.Layers = append(m.Layers, sink)

		overhangSink := sinkBaseArea - dieArea
		sinkSpreadDist := (p.SinkSide - minf(w, h)) / 2
		sinkPeriphG := p.SpreadingFactor * p.SinkK * p.SinkBaseThick * perimeter / (sinkSpreadDist / 2)
		sinkPeriph := thermal.Extra{
			Name:     "sink-periphery",
			AmbientG: cfg.Coolant.H * p.SinkTotalArea * (overhangSink / sinkBaseArea),
			Cap:      material.Copper.VolumetricHeatCapacity * p.SinkBaseThick * overhangSink,
		}

		m.Extras = append(m.Extras, sprPeriph)
		sp := len(m.Extras) - 1
		m.Extras = append(m.Extras, sinkPeriph)
		sk := len(m.Extras) - 1
		m.Couplings = append(m.Couplings,
			thermal.Coupling{ExtraA: sp, ExtraB: -1, Layer: spreaderIdx, EdgeOnly: true, G: sprPeriphG},
			thermal.Coupling{ExtraA: sk, ExtraB: -1, Layer: sinkIdx, EdgeOnly: true, G: sinkPeriphG},
			// Spreader overhang conducts up into the sink overhang.
			thermal.Coupling{ExtraA: sp, ExtraB: sk,
				G: overhangSpr / (p.SinkBaseThick/(2*p.SinkK) + p.SpreaderThick/(2*p.SpreaderK))},
		)
	}

	return m, nil
}

// DieLayer returns the thermal-model layer index of die i (0 =
// bottom) for models produced by Build.
func DieLayer(i int) int { return 2 * i }

// NumDies recovers the die count from a Build-produced model.
func NumDies(m *thermal.Model) int {
	n := 0
	for _, l := range m.Layers {
		if len(l.Name) > 3 && l.Name[:3] == "die" {
			n++
		}
	}
	return n
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
