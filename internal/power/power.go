package power

import (
	"fmt"
	"math"
	"sort"
)

// Tech describes the technology parameters the alpha-power law needs.
type Tech struct {
	// VddMax is the supply voltage at the chip's maximum frequency (V).
	VddMax float64
	// VddMin is the lowest usable supply voltage (V); below the
	// frequency reachable at VddMin, voltage stays clamped and only
	// frequency (hence dynamic power) keeps dropping.
	VddMin float64
	// Vth is the threshold voltage (V).
	Vth float64
	// Alpha is the velocity-saturation index; the paper uses 1.3.
	Alpha float64
}

// Tech22HP is the 22 nm high-performance technology point used for
// the McPAT-derived baseline CMPs.
var Tech22HP = Tech{VddMax: 0.90, VddMin: 0.55, Vth: 0.30, Alpha: 1.3}

// Tech14HP approximates the 14 nm nodes of the measured Xeon E5 v4
// and Xeon Phi parts.
var Tech14HP = Tech{VddMax: 1.00, VddMin: 0.60, Vth: 0.32, Alpha: 1.3}

// speed returns the alpha-power-law speed metric (V−Vth)^α / V, which
// is proportional to the maximum operating frequency at voltage v.
func (t Tech) speed(v float64) float64 {
	if v <= t.Vth {
		return 0
	}
	return math.Pow(v-t.Vth, t.Alpha) / v
}

// VoltageFor returns the minimum supply voltage able to sustain the
// frequency ratio r = f/fmax (0 < r ≤ 1), clamped to [VddMin, VddMax].
// The speed metric is strictly increasing in v above Vth, so a
// bisection converges unconditionally.
func (t Tech) VoltageFor(r float64) float64 {
	if r >= 1 {
		return t.VddMax
	}
	target := r * t.speed(t.VddMax)
	lo, hi := t.Vth+1e-9, t.VddMax
	for i := 0; i < 80; i++ {
		mid := (lo + hi) / 2
		if t.speed(mid) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	v := (lo + hi) / 2
	if v < t.VddMin {
		v = t.VddMin
	}
	return v
}

// Step is one VFS operating point.
type Step struct {
	// FHz is the clock frequency in Hz.
	FHz float64
	// V is the supply voltage in volts.
	V float64
	// DynamicW and StaticW are the chip-wide power components in
	// watts at the reference temperature.
	DynamicW, StaticW float64
}

// TotalW returns the chip-wide power of the step at the reference
// temperature.
func (s Step) TotalW() float64 { return s.DynamicW + s.StaticW }

// GHz returns the step frequency in GHz.
func (s Step) GHz() float64 { return s.FHz / 1e9 }

// Model is a processor chip's VFS and power model.
type Model struct {
	// Name identifies the chip ("low-power", "high-frequency", "e5",
	// "phi").
	Name string
	// Tech is the technology point for the alpha-power law.
	Tech Tech
	// FMinHz, FMaxHz and FStepHz define the VFS table.
	FMinHz, FMaxHz, FStepHz float64
	// MaxPowerW is the chip-wide power at FMaxHz and VddMax, at the
	// reference temperature (the paper's RAPL stress measurement).
	MaxPowerW float64
	// StaticFraction is the leakage share of MaxPowerW at VddMax.
	StaticFraction float64
	// AreaM2 is the die area in m².
	AreaM2 float64
	// Cores is the number of processor cores (used by the workload
	// simulator and the floorplan builders).
	Cores int
	// LeakageTempCoeff is the exponential leakage sensitivity
	// 1/°C: S(T) = S(Tref)·exp(coeff·(T−Tref)). Zero disables the
	// temperature feedback.
	LeakageTempCoeff float64
	// RefTempC is the reference temperature of MaxPowerW.
	RefTempC float64
}

// The chip models of the paper. MaxPowerW for the baseline CMPs comes
// from Table 1 (47.2 W @ 2.0 GHz, 56.8 W @ 3.6 GHz); the E5-2667v4 and
// Phi 7290 values are the RAPL stress measurements the paper reports
// as being above TDP class (135 W and 245 W respectively).
var (
	LowPower = Model{
		Name: "low-power", Tech: Tech22HP,
		FMinHz: 1.0e9, FMaxHz: 2.0e9, FStepHz: 0.1e9,
		MaxPowerW: 47.2, StaticFraction: 0.20,
		AreaM2: 169e-6, Cores: 4,
		LeakageTempCoeff: 0.010, RefTempC: 60,
	}
	HighFrequency = Model{
		Name: "high-frequency", Tech: Tech22HP,
		FMinHz: 1.2e9, FMaxHz: 3.6e9, FStepHz: 0.2e9,
		MaxPowerW: 56.8, StaticFraction: 0.20,
		AreaM2: 169e-6, Cores: 4,
		LeakageTempCoeff: 0.010, RefTempC: 60,
	}
	XeonE5 = Model{
		Name: "e5", Tech: Tech14HP,
		FMinHz: 1.2e9, FMaxHz: 3.6e9, FStepHz: 0.2e9,
		MaxPowerW: 152, StaticFraction: 0.20,
		AreaM2: 246e-6, Cores: 8,
		LeakageTempCoeff: 0.010, RefTempC: 60,
	}
	XeonPhi = Model{
		Name: "phi", Tech: Tech14HP,
		FMinHz: 1.0e9, FMaxHz: 1.6e9, FStepHz: 0.1e9,
		MaxPowerW: 252, StaticFraction: 0.20,
		AreaM2: 683e-6, Cores: 72,
		LeakageTempCoeff: 0.010, RefTempC: 60,
	}
)

// IRDS2033 is the projected 2033 chip multiprocessor from the IRDS
// roadmap the paper's introduction cites: a conventional CMP reaching
// 425 W. We keep the 16-tile organisation and today's die area so the
// projection isolates the power-density problem — 2.5 W/mm², five
// times the baseline — that motivates immersion cooling.
var IRDS2033 = Model{
	Name: "irds2033", Tech: Tech{VddMax: 0.65, VddMin: 0.45, Vth: 0.22, Alpha: 1.3},
	FMinHz: 1.6e9, FMaxHz: 4.8e9, FStepHz: 0.2e9,
	MaxPowerW: 425, StaticFraction: 0.25,
	AreaM2: 169e-6, Cores: 4,
	LeakageTempCoeff: 0.012, RefTempC: 60,
}

// Models lists the four chip models in the order the paper presents
// them.
func Models() []Model { return []Model{LowPower, HighFrequency, XeonE5, XeonPhi} }

// chipAliases maps the short chip spellings the CLIs and the service
// accept onto canonical Model names.
var chipAliases = map[string]string{"lp": "low-power", "hf": "high-frequency"}

// CanonicalName resolves a chip alias (lp, hf) to its Model name and
// returns any other name unchanged.
func CanonicalName(name string) string {
	if full, ok := chipAliases[name]; ok {
		return full
	}
	return name
}

// ModelByName returns the chip model with the given name.
func ModelByName(name string) (Model, error) {
	for _, m := range append(Models(), IRDS2033) {
		if m.Name == name {
			return m, nil
		}
	}
	return Model{}, fmt.Errorf("power: unknown chip model %q", name)
}

// Validate checks the model's parameters for consistency.
func (m Model) Validate() error {
	switch {
	case m.FMinHz <= 0 || m.FMaxHz < m.FMinHz:
		return fmt.Errorf("power: %s: bad frequency range [%g, %g]", m.Name, m.FMinHz, m.FMaxHz)
	case m.FStepHz <= 0:
		return fmt.Errorf("power: %s: bad frequency step %g", m.Name, m.FStepHz)
	case m.MaxPowerW <= 0:
		return fmt.Errorf("power: %s: bad max power %g", m.Name, m.MaxPowerW)
	case m.StaticFraction < 0 || m.StaticFraction >= 1:
		return fmt.Errorf("power: %s: bad static fraction %g", m.Name, m.StaticFraction)
	case m.AreaM2 <= 0:
		return fmt.Errorf("power: %s: bad area %g", m.Name, m.AreaM2)
	case m.Tech.VddMax <= m.Tech.Vth:
		return fmt.Errorf("power: %s: VddMax %g must exceed Vth %g", m.Name, m.Tech.VddMax, m.Tech.Vth)
	case m.Tech.VddMin > m.Tech.VddMax || m.Tech.VddMin <= m.Tech.Vth:
		return fmt.Errorf("power: %s: VddMin %g out of range", m.Name, m.Tech.VddMin)
	}
	return nil
}

// StepAt returns the VFS operating point for frequency fHz. The
// frequency does not need to be on the VFS grid; any value within
// [FMinHz, FMaxHz] is accepted (the planner interpolates only on grid
// steps, but figures 14 and 15 sweep continuous frequencies).
func (m Model) StepAt(fHz float64) (Step, error) {
	if fHz < m.FMinHz-1e3 || fHz > m.FMaxHz+1e3 {
		return Step{}, fmt.Errorf("power: %s: frequency %.2f GHz outside VFS range [%.2f, %.2f] GHz",
			m.Name, fHz/1e9, m.FMinHz/1e9, m.FMaxHz/1e9)
	}
	r := fHz / m.FMaxHz
	v := m.Tech.VoltageFor(r)
	vr := v / m.Tech.VddMax
	dmax := m.MaxPowerW * (1 - m.StaticFraction)
	smax := m.MaxPowerW * m.StaticFraction
	return Step{
		FHz:      fHz,
		V:        v,
		DynamicW: dmax * vr * vr * r,
		StaticW:  smax * vr,
	}, nil
}

// Steps returns the full VFS table, slowest step first.
func (m Model) Steps() []Step {
	var steps []Step
	// Walk in integer multiples of FStepHz to avoid accumulating
	// floating-point drift over the table.
	n := int(math.Round((m.FMaxHz - m.FMinHz) / m.FStepHz))
	for i := 0; i <= n; i++ {
		f := m.FMinHz + float64(i)*m.FStepHz
		if f > m.FMaxHz {
			f = m.FMaxHz
		}
		s, err := m.StepAt(f)
		if err != nil {
			continue
		}
		steps = append(steps, s)
	}
	sort.Slice(steps, func(i, j int) bool { return steps[i].FHz < steps[j].FHz })
	return steps
}

// PowerAt returns the chip-wide power in watts at frequency fHz and
// junction temperature tempC, applying the exponential leakage
// correction.
func (m Model) PowerAt(fHz, tempC float64) (float64, error) {
	s, err := m.StepAt(fHz)
	if err != nil {
		return 0, err
	}
	return s.DynamicW + s.StaticW*m.leakFactor(tempC), nil
}

func (m Model) leakFactor(tempC float64) float64 {
	if m.LeakageTempCoeff == 0 {
		return 1
	}
	return math.Exp(m.LeakageTempCoeff * (tempC - m.RefTempC))
}

// StaticAt returns only the leakage power at the given voltage step
// and temperature.
func (m Model) StaticAt(s Step, tempC float64) float64 {
	return s.StaticW * m.leakFactor(tempC)
}

// RelativeCurve returns (f/fmax, P/Pmax) pairs across the VFS table,
// reproducing the normalised power/frequency curves of Figure 6.
func (m Model) RelativeCurve() [][2]float64 {
	steps := m.Steps()
	if len(steps) == 0 {
		return nil
	}
	pmax := steps[len(steps)-1].TotalW()
	out := make([][2]float64, len(steps))
	for i, s := range steps {
		out[i] = [2]float64{s.FHz / m.FMaxHz, s.TotalW() / pmax}
	}
	return out
}
