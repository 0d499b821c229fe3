package cosim

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"

	"waterimm/internal/power"
)

// goldenPath holds RunCtx output recorded from the event-kernel loop
// RunCtx carried before it was rebuilt on Stream. Go's JSON encoding
// round-trips float64 exactly, so the comparison below is bit for bit.
const goldenPath = "testdata/runctx_golden.json"

// goldenConfigs are the co-simulations pinned by goldenPath: single
// pass and looped, with and without the governor, on both chips.
func goldenConfigs(t *testing.T) map[string]Config {
	t.Helper()
	tight := looped(t, "ep")
	tight.DVFS = &DVFSPolicy{SetpointC: 25.6, HysteresisC: 0.1}
	band := looped(t, "ep")
	band.DVFS = &DVFSPolicy{SetpointC: 27.5, HysteresisC: 0.05}
	lp := baseConfig(t, "ep")
	lp.Chip, lp.Chips, lp.FHz = power.LowPower, 1, power.LowPower.FMaxHz
	lp.Scale = 1
	lp.IntervalS = 20e-6
	lp.DVFS = &DVFSPolicy{SetpointC: 25.3, HysteresisC: 0.05}
	return map[string]Config{
		"ep-single":      baseConfig(t, "ep"),
		"cg-single":      baseConfig(t, "cg"),
		"ep-looped":      looped(t, "ep"),
		"ep-looped-dvfs": tight,
		"ep-looped-band": band,
		"lp-1chip-dvfs":  lp,
	}
}

func TestRunCtxMatchesGolden(t *testing.T) {
	blob, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]*Result
	if err := json.Unmarshal(blob, &golden); err != nil {
		t.Fatal(err)
	}
	cfgs := goldenConfigs(t)
	names := make([]string, 0, len(cfgs))
	for name := range cfgs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		cfg := cfgs[name]
		t.Run(name, func(t *testing.T) {
			want, ok := golden[name]
			if !ok {
				t.Fatalf("no golden entry for %s", name)
			}
			got, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got.SteadyPlannerPeakC != want.SteadyPlannerPeakC {
				t.Errorf("SteadyPlannerPeakC %v, golden %v", got.SteadyPlannerPeakC, want.SteadyPlannerPeakC)
			}
			if cfg.DurationS <= 0 {
				if len(got.Samples) != len(want.Samples) {
					t.Fatalf("%d samples, golden %d", len(got.Samples), len(want.Samples))
				}
				compareSamples(t, got.Samples, want.Samples)
				compareTotals(t, got, want)
				return
			}
			// The recorded loop stopped on accumulated stepper time, and
			// 30 steps of 100 µs sum to just under 3 ms, so it ran one
			// interval past DurationS. Samples 1…n (n = DurationS /
			// IntervalS) must still match bit for bit; the totals the
			// extra interval changed are rederived from those n golden
			// samples (and the one after, whose frequency shows the
			// governor's last decision), except Iterations, which the
			// samples do not record.
			n := len(got.Samples)
			if n != 30 || len(want.Samples) != n+1 {
				t.Fatalf("%d samples, golden %d: want 30 and 31", n, len(want.Samples))
			}
			compareSamples(t, got.Samples, want.Samples[:n])
			trimmed := *want
			trimmed.Samples = want.Samples[:n]
			trimmed.MaxPeakC, trimmed.MeanGHz, trimmed.Throttles = 0, 0, 0
			for i, s := range trimmed.Samples {
				trimmed.MeanGHz += s.FHz / 1e9
				trimmed.MaxPeakC = math.Max(trimmed.MaxPeakC, s.PeakC)
				if want.Samples[i+1].FHz < s.FHz {
					trimmed.Throttles++
				}
			}
			trimmed.MeanGHz /= float64(n)
			trimmed.Seconds, trimmed.Iterations = got.Seconds, got.Iterations
			compareTotals(t, got, &trimmed)
			if math.Abs(got.Seconds-cfg.DurationS) > 1e-12 {
				t.Errorf("Seconds %v, want %v", got.Seconds, cfg.DurationS)
			}
			if got.Iterations < 1 || got.Iterations > want.Iterations {
				t.Errorf("Iterations %d outside [1, golden %d]", got.Iterations, want.Iterations)
			}
		})
	}
}

func compareSamples(t *testing.T, got, want []Sample) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sample %d not bit-identical:\ngot    %+v\ngolden %+v", i+1, got[i], want[i])
		}
	}
}

func compareTotals(t *testing.T, got, want *Result) {
	t.Helper()
	if got.MaxPeakC != want.MaxPeakC || got.MeanGHz != want.MeanGHz ||
		got.Throttles != want.Throttles || got.Seconds != want.Seconds ||
		got.Iterations != want.Iterations {
		t.Errorf("totals differ:\ngot    max %v mean %v throttles %d seconds %v iterations %d\ngolden max %v mean %v throttles %d seconds %v iterations %d",
			got.MaxPeakC, got.MeanGHz, got.Throttles, got.Seconds, got.Iterations,
			want.MaxPeakC, want.MeanGHz, want.Throttles, want.Seconds, want.Iterations)
	}
}
