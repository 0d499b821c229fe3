package core

import (
	"fmt"

	"waterimm/internal/convection"
	"waterimm/internal/material"
	"waterimm/internal/power"
	"waterimm/internal/proto"
	"waterimm/internal/reliability"
	"waterimm/internal/stack"
	"waterimm/internal/thermal"
)

// This file hosts the drivers for the paper's frequency/temperature
// experiments (Figures 1, 6, 7, 8, 14, 15, 17). The NPB application
// experiments (Figures 10-13) live in experiments_npb.go and the
// thermal maps (Figures 9, 16, 18) in experiments_maps.go.

// FreqSweep is the data behind a "maximum frequency vs number of
// chips" figure: one row per coolant, one column per chip count.
type FreqSweep struct {
	Figure     string
	Chip       power.Model
	ThresholdC float64
	Coolants   []material.Coolant
	// Plans is indexed [coolant][chips-1]; infeasible points have
	// Feasible == false (the paper leaves them unplotted).
	Plans [][]Plan
}

// Row returns the frequency series (GHz, 0 = infeasible) for one
// coolant.
func (f *FreqSweep) Row(coolant string) []float64 {
	for ci, c := range f.Coolants {
		if c.Name == coolant {
			out := make([]float64, len(f.Plans[ci]))
			for i, p := range f.Plans[ci] {
				out[i] = p.FrequencyGHz()
			}
			return out
		}
	}
	return nil
}

// MaxChips returns the deepest feasible stack for a coolant, or 0.
func (f *FreqSweep) MaxChips(coolant string) int {
	row := f.Row(coolant)
	max := 0
	for i, g := range row {
		if g > 0 {
			max = i + 1
		}
	}
	return max
}

// sweep runs the planner across coolants and chip counts on the batch
// path: each (coolant, depth) point's frequency search runs in one
// primed session (one assembly, superposition basis, warm-started CG)
// inside MaxFrequencySweep.
func sweep(figure string, chip power.Model, thresholdC float64, maxChips int, coolants []material.Coolant) (*FreqSweep, error) {
	p := NewPlanner()
	p.ThresholdC = thresholdC
	plans, err := p.MaxFrequencySweep(chip, maxChips, coolants)
	if err != nil {
		return nil, err
	}
	return &FreqSweep{
		Figure: figure, Chip: chip, ThresholdC: thresholdC,
		Coolants: coolants, Plans: plans,
	}, nil
}

// Fig1 reproduces Figure 1: maximum frequency vs number of stacked
// Xeon E5-2667v4 chips for air, mineral oil and water, at the chip's
// 78 °C specification threshold.
func Fig1() (*FreqSweep, error) {
	return sweep("fig1", power.XeonE5, 78, 4,
		[]material.Coolant{material.Air, material.MineralOil, material.Water})
}

// Fig7 reproduces Figure 7: the low-power CMP for 1-15 chips across
// all five cooling options at 80 °C.
func Fig7() (*FreqSweep, error) {
	return sweep("fig7", power.LowPower, 80, 15, material.Coolants())
}

// Fig8 reproduces Figure 8: the high-frequency CMP for 1-15 chips.
func Fig8() (*FreqSweep, error) {
	return sweep("fig8", power.HighFrequency, 80, 15, material.Coolants())
}

// Fig17 reproduces Figure 17: stacked Xeon Phi 7290 chips (1-4).
func Fig17() (*FreqSweep, error) {
	return sweep("fig17", power.XeonPhi, 80, 4, material.Coolants())
}

// IRDS2033 extends the paper's introduction: the projected 425 W
// conventional CMP from the IRDS roadmap, swept like Figures 7/8.
// Its 2.5 W/mm² power density is what makes "there is a strong need
// for more efficient cooling on a chip" quantitative: air cannot hold
// even a single chip near full frequency, while water immersion
// still stacks several.
func IRDS2033() (*FreqSweep, error) {
	return sweep("irds2033", power.IRDS2033, 80, 4, material.Coolants())
}

// MicrochannelPoint compares water immersion against inter-die
// microchannels at one stack depth.
type MicrochannelPoint struct {
	Chips                    int
	ImmersionGHz, ChannelGHz float64
}

// Microchannel runs the Section 5.1 related-work comparison: water
// immersion (heat exits through the stack ends) against inter-die
// microchannel cooling (coolant flows between every pair of dies).
// Channels remove the stack-depth bottleneck entirely, which is why
// the literature considers them for 3-D ICs — at the cost of the
// fabrication complexity the paper's immersion approach avoids.
func Microchannel() ([]MicrochannelPoint, error) {
	imm, ch := NewPlanner(), NewPlanner()
	ch.Params.InterDieChannels = true
	var out []MicrochannelPoint
	for _, chips := range []int{2, 4, 8, 12} {
		ip, err := imm.MaxFrequency(power.HighFrequency, chips, material.Water)
		if err != nil {
			return nil, err
		}
		cp, err := ch.MaxFrequency(power.HighFrequency, chips, material.Water)
		if err != nil {
			return nil, err
		}
		out = append(out, MicrochannelPoint{
			Chips: chips, ImmersionGHz: ip.FrequencyGHz(), ChannelGHz: cp.FrequencyGHz(),
		})
	}
	return out, nil
}

// LifetimePoint is one sample of the silicon-lifetime study.
type LifetimePoint struct {
	Coolant   string
	PeakC     float64
	MTTFYears float64
}

// Lifetime runs the reliability extension: hold a 4-chip
// high-frequency stack at a fixed 2.0 GHz under every coolant and
// convert each steady-state peak into an electromigration MTTF. The
// performance comparison of Figures 7-13 pushes every coolant to the
// same 80 °C ceiling; at matched performance, the cooler junctions of
// better coolants instead buy silicon lifetime.
func Lifetime() ([]LifetimePoint, error) {
	model := reliability.Electromigration()
	p := NewPlanner()
	var out []LifetimePoint
	for _, c := range material.Coolants() {
		peak, err := p.PeakAt(StackSpec{Chip: power.HighFrequency, Chips: 4, Coolant: c, FHz: 2.0e9})
		if err != nil {
			return nil, err
		}
		out = append(out, LifetimePoint{Coolant: c.Name, PeakC: peak, MTTFYears: model.MTTFYears(peak)})
	}
	return out, nil
}

// FlowPoint is one sample of the flow-speed study: pump speed →
// forced-convection coefficient → planned frequency.
type FlowPoint struct {
	SpeedMS float64
	H       float64
	GHz     float64
	PeakC   float64
}

// FlowSpeed makes Section 4.1's turbine argument concrete: sweep the
// water flow speed over the heatsink, convert it to a film
// coefficient with the flat-plate correlation, and plan the 4-chip
// high-frequency stack at each point. Frequency rises with pump
// speed, with diminishing returns past the paper's h = 800 regime.
func FlowSpeed() ([]FlowPoint, error) {
	var out []FlowPoint
	sinkScale := stack.DefaultParams().SinkSide
	for _, v := range []float64{0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0} {
		h, err := convection.WaterFluid.ForcedH(v, sinkScale)
		if err != nil {
			return nil, err
		}
		coolant := material.Coolant{
			Name: fmt.Sprintf("water@%.2fm/s", v), H: h,
			Immersive: true, Dielectric: false,
		}
		p := NewPlanner()
		plan, err := p.MaxFrequency(power.HighFrequency, 4, coolant)
		if err != nil {
			return nil, err
		}
		out = append(out, FlowPoint{SpeedMS: v, H: h, GHz: plan.FrequencyGHz(), PeakC: plan.PeakC})
	}
	return out, nil
}

// SeasonalPoint is one sample of the natural-water deployment study:
// the planner's outcome for a water-immersed stack when the coolant
// is a real water body at a given season.
type SeasonalPoint struct {
	Body     string
	Season   string
	AmbientC float64
	GHz      float64
	Feasible bool
}

// Seasonal extends Section 4.4: an 8-chip high-frequency stack
// immersed directly in natural water. The water body's seasonal
// temperature is the model's ambient, so winter water buys VFS steps
// that summer takes back — the deployment-planning consequence of
// direct natural-water cooling.
func Seasonal() ([]SeasonalPoint, error) {
	var out []SeasonalPoint
	for _, body := range proto.WaterBodies() {
		for _, season := range []struct {
			name string
			temp float64
		}{
			{"winter", body.CoolestC()},
			{"mean", body.WaterTempC(0)*0 + (body.CoolestC()+body.WarmestC())/2},
			{"summer", body.WarmestC()},
		} {
			p := NewPlanner()
			p.Params.AmbientC = season.temp
			plan, err := p.MaxFrequency(power.HighFrequency, 8, material.Water)
			if err != nil {
				return nil, err
			}
			out = append(out, SeasonalPoint{
				Body: body.String(), Season: season.name,
				AmbientC: season.temp,
				GHz:      plan.FrequencyGHz(), Feasible: plan.Feasible,
			})
		}
	}
	return out, nil
}

// PowerCurve is one chip's normalised VFS curve for Figure 6.
type PowerCurve struct {
	Chip   string
	Points [][2]float64 // (f/fmax, P/Pmax)
}

// Fig6 reproduces Figure 6: relative power vs relative frequency for
// the low-power CMP, high-frequency CMP, Xeon E5 and Xeon Phi models.
func Fig6() []PowerCurve {
	var out []PowerCurve
	for _, m := range power.Models() {
		out = append(out, PowerCurve{Chip: m.Name, Points: m.RelativeCurve()})
	}
	return out
}

// HTCPoint is one sample of Figure 14.
type HTCPoint struct {
	Chip  string
	H     float64
	PeakC float64
}

// Fig14 reproduces Figure 14: peak temperature vs coolant heat
// transfer coefficient for 4-chip stacks of each chip model at its
// maximum frequency. The sweep uses an immersion-style coolant with
// the given h (dielectric, so no film term confounds the sweep).
func Fig14() ([]HTCPoint, error) {
	hs := []float64{10, 14, 25, 50, 100, 160, 180, 400, 800, 1600, 3200}
	var out []HTCPoint
	p := NewPlanner()
	for _, chip := range power.Models() {
		for _, h := range hs {
			coolant := material.Coolant{Name: fmt.Sprintf("h=%g", h), H: h, Immersive: true, Dielectric: true}
			peak, err := p.PeakAt(StackSpec{Chip: chip, Chips: 4, Coolant: coolant, FHz: chip.FMaxHz})
			if err != nil {
				return nil, err
			}
			out = append(out, HTCPoint{Chip: chip.Name, H: h, PeakC: peak})
		}
	}
	return out, nil
}

// FlipPoint is one sample of Figure 15.
type FlipPoint struct {
	Coolant string
	Flip    bool
	GHz     float64
	PeakC   float64
}

// Fig15 reproduces Figure 15: peak temperature vs operating frequency
// for the 4-chip high-frequency CMP under air and water cooling, with
// and without rotating even layers by 180° ("flip", Section 4.2).
func Fig15() ([]FlipPoint, error) {
	var out []FlipPoint
	for _, coolant := range []material.Coolant{material.Air, material.Water} {
		for _, flip := range []bool{false, true} {
			p := NewPlanner()
			p.Flip = flip
			for _, s := range power.HighFrequency.Steps() {
				peak, err := p.PeakAt(StackSpec{
					Chip: power.HighFrequency, Chips: 4,
					Coolant: coolant, FHz: s.FHz,
				})
				if err != nil {
					return nil, err
				}
				out = append(out, FlipPoint{Coolant: coolant.Name, Flip: flip, GHz: s.GHz(), PeakC: peak})
			}
		}
	}
	return out, nil
}

// FlipGainC returns the temperature reduction the flip layout yields
// for a coolant at a frequency, from a Fig15 result set.
func FlipGainC(points []FlipPoint, coolant string, ghz float64) float64 {
	var noflip, flip float64
	for _, p := range points {
		if p.Coolant != coolant || p.GHz != ghz {
			continue
		}
		if p.Flip {
			flip = p.PeakC
		} else {
			noflip = p.PeakC
		}
	}
	return noflip - flip
}

// SolveMap solves one stack configuration and returns the full
// thermal result for map rendering (Figures 9, 16, 18).
func SolveMap(chip power.Model, chips int, coolant material.Coolant, fHz float64, flip bool) (*thermal.Result, error) {
	p := NewPlanner()
	p.Flip = flip
	res, _, err := p.Solve(StackSpec{Chip: chip, Chips: chips, Coolant: coolant, FHz: fHz})
	return res, err
}
