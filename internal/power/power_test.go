package power

import (
	"math"
	"testing"
	"testing/quick"
)

func TestModelsValidate(t *testing.T) {
	for _, m := range Models() {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
	}
}

func TestValidateRejectsBadModels(t *testing.T) {
	bad := []Model{
		{Name: "f0", Tech: Tech22HP, FMinHz: 0, FMaxHz: 1e9, FStepHz: 1e8, MaxPowerW: 10, AreaM2: 1e-4},
		{Name: "rev", Tech: Tech22HP, FMinHz: 2e9, FMaxHz: 1e9, FStepHz: 1e8, MaxPowerW: 10, AreaM2: 1e-4},
		{Name: "step", Tech: Tech22HP, FMinHz: 1e9, FMaxHz: 2e9, FStepHz: 0, MaxPowerW: 10, AreaM2: 1e-4},
		{Name: "pow", Tech: Tech22HP, FMinHz: 1e9, FMaxHz: 2e9, FStepHz: 1e8, MaxPowerW: 0, AreaM2: 1e-4},
		{Name: "sf", Tech: Tech22HP, FMinHz: 1e9, FMaxHz: 2e9, FStepHz: 1e8, MaxPowerW: 10, StaticFraction: 1.2, AreaM2: 1e-4},
		{Name: "vth", Tech: Tech{VddMax: 0.3, VddMin: 0.2, Vth: 0.4, Alpha: 1.3}, FMinHz: 1e9, FMaxHz: 2e9, FStepHz: 1e8, MaxPowerW: 10, AreaM2: 1e-4},
	}
	for _, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("%s: expected validation error", m.Name)
		}
	}
}

func TestTable1PowerPoints(t *testing.T) {
	// Table 1: 47.2 W @ 2.0 GHz (low-power), 56.8 W @ 3.6 GHz
	// (high-frequency).
	s, err := LowPower.StepAt(2.0e9)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.TotalW()-47.2) > 1e-9 {
		t.Errorf("low-power max power %.2f W, want 47.2", s.TotalW())
	}
	s, err = HighFrequency.StepAt(3.6e9)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.TotalW()-56.8) > 1e-9 {
		t.Errorf("high-frequency max power %.2f W, want 56.8", s.TotalW())
	}
}

func TestVFSTableSizes(t *testing.T) {
	// Section 3.1: 11 steps of 0.1 GHz from 1.0-2.0 GHz, and 13 steps
	// of 0.2 GHz from 1.2-3.6 GHz.
	if n := len(LowPower.Steps()); n != 11 {
		t.Errorf("low-power VFS table has %d steps, want 11", n)
	}
	if n := len(HighFrequency.Steps()); n != 13 {
		t.Errorf("high-frequency VFS table has %d steps, want 13", n)
	}
}

func TestVoltageForMonotonic(t *testing.T) {
	f := func(a, b uint8) bool {
		ra := 0.2 + 0.8*float64(a)/255
		rb := 0.2 + 0.8*float64(b)/255
		if ra > rb {
			ra, rb = rb, ra
		}
		return Tech22HP.VoltageFor(ra) <= Tech22HP.VoltageFor(rb)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVoltageForBounds(t *testing.T) {
	tech := Tech22HP
	if v := tech.VoltageFor(1); v != tech.VddMax {
		t.Errorf("full speed must use VddMax, got %g", v)
	}
	if v := tech.VoltageFor(0.01); v != tech.VddMin {
		t.Errorf("very low speed must clamp to VddMin, got %g", v)
	}
}

func TestVoltageSolvesSpeedEquation(t *testing.T) {
	// For unclamped ratios, the returned voltage must actually yield
	// the requested speed ratio.
	tech := Tech22HP
	for _, r := range []float64{0.7, 0.8, 0.9, 0.95} {
		v := tech.VoltageFor(r)
		if v <= tech.VddMin || v >= tech.VddMax {
			continue
		}
		got := tech.speed(v) / tech.speed(tech.VddMax)
		if math.Abs(got-r) > 1e-6 {
			t.Errorf("VoltageFor(%g) = %g solves to ratio %g", r, v, got)
		}
	}
}

func TestPowerMonotonicInFrequency(t *testing.T) {
	for _, m := range Models() {
		steps := m.Steps()
		for i := 1; i < len(steps); i++ {
			if steps[i].TotalW() <= steps[i-1].TotalW() {
				t.Errorf("%s: power not increasing from %.2f to %.2f GHz",
					m.Name, steps[i-1].GHz(), steps[i].GHz())
			}
		}
	}
}

func TestRelativeCurveShape(t *testing.T) {
	// Figure 6: the curve is normalised to (1,1), superlinear (power
	// falls faster than frequency), and its low end sits well below
	// 50 % power at 50 % frequency for the low-power chip.
	for _, m := range Models() {
		curve := m.RelativeCurve()
		last := curve[len(curve)-1]
		if last[0] != 1 || last[1] != 1 {
			t.Errorf("%s: curve must end at (1,1), got (%g,%g)", m.Name, last[0], last[1])
		}
		for _, p := range curve[:len(curve)-1] {
			if p[1] >= p[0] {
				t.Errorf("%s: power ratio %.3f not below frequency ratio %.3f", m.Name, p[1], p[0])
			}
		}
	}
	lp := LowPower.RelativeCurve()
	if lp[0][1] > 0.35 {
		t.Errorf("low-power chip at half frequency should drop below 35%% power, got %.2f", lp[0][1])
	}
}

func TestStepAtRejectsOutOfRange(t *testing.T) {
	if _, err := LowPower.StepAt(0.5e9); err == nil {
		t.Error("expected error below FMin")
	}
	if _, err := LowPower.StepAt(2.5e9); err == nil {
		t.Error("expected error above FMax")
	}
}

func TestLeakageTemperatureDependence(t *testing.T) {
	s, _ := LowPower.StepAt(2.0e9)
	cold := LowPower.StaticAt(s, 25)
	hot := LowPower.StaticAt(s, 80)
	if hot <= cold {
		t.Errorf("leakage at 80 C (%.2f W) must exceed leakage at 25 C (%.2f W)", hot, cold)
	}
	p25, _ := LowPower.PowerAt(2.0e9, 25)
	p80, _ := LowPower.PowerAt(2.0e9, 80)
	if p80 <= p25 {
		t.Error("total power must grow with temperature")
	}
}

func TestModelByName(t *testing.T) {
	for _, want := range []string{"low-power", "high-frequency", "e5", "phi"} {
		m, err := ModelByName(want)
		if err != nil || m.Name != want {
			t.Errorf("ModelByName(%q) = %v, %v", want, m.Name, err)
		}
	}
	if _, err := ModelByName("itanium"); err == nil {
		t.Error("expected error for unknown model")
	}
}

// TestCanonicalName pins the one chip-alias table: lp and hf resolve,
// every canonical name passes through, and anything else is left for
// ModelByName to reject.
func TestCanonicalName(t *testing.T) {
	for in, want := range map[string]string{
		"lp": "low-power", "hf": "high-frequency", "low-power": "low-power",
		"high-frequency": "high-frequency", "e5": "e5", "phi": "phi", "irds2033": "irds2033",
	} {
		m, err := ModelByName(CanonicalName(in))
		if err != nil || m.Name != want {
			t.Errorf("ModelByName(CanonicalName(%q)) = %q, %v; want %q", in, m.Name, err, want)
		}
	}
	for _, in := range []string{"", "LP", "Hf", "xeon", "low_power"} {
		if got := CanonicalName(in); got != in {
			t.Errorf("CanonicalName(%q) = %q, want it unchanged", in, got)
		}
		if _, err := ModelByName(CanonicalName(in)); err == nil {
			t.Errorf("%q must stay rejected", in)
		}
	}
}

func TestDynamicStaticSplit(t *testing.T) {
	// At fmax the split must equal the configured static fraction.
	for _, m := range Models() {
		s, err := m.StepAt(m.FMaxHz)
		if err != nil {
			t.Fatal(err)
		}
		frac := s.StaticW / s.TotalW()
		if math.Abs(frac-m.StaticFraction) > 1e-9 {
			t.Errorf("%s: static fraction %.3f, want %.3f", m.Name, frac, m.StaticFraction)
		}
	}
}

func TestIRDS2033Projection(t *testing.T) {
	if err := IRDS2033.Validate(); err != nil {
		t.Fatal(err)
	}
	m, err := ModelByName("irds2033")
	if err != nil || m.Name != "irds2033" {
		t.Fatalf("ModelByName(irds2033) = %v, %v", m.Name, err)
	}
	s, err := IRDS2033.StepAt(IRDS2033.FMaxHz)
	if err != nil {
		t.Fatal(err)
	}
	if s.TotalW() != 425 {
		t.Errorf("IRDS 2033 max power %.1f W, roadmap says 425", s.TotalW())
	}
	// The projection's point: 2.5 W/mm² power density, 5x the
	// baseline CMP.
	density := s.TotalW() / (IRDS2033.AreaM2 * 1e6)
	if density < 2 || density > 3 {
		t.Errorf("power density %.2f W/mm2 outside the projected 2.5 class", density)
	}
}
