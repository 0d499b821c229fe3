package thermal_test

import (
	"context"
	"testing"

	"waterimm/internal/cosim"
	"waterimm/internal/material"
	"waterimm/internal/power"
	"waterimm/internal/stack"
	"waterimm/internal/thermal"
)

// TestICholStencilMatchesCSRStream runs a DTM-governed 32×32 two-chip
// water co-simulation stream for 24 intervals, two sub-steps each,
// once with the stencil-form IC(0) factor and once with the CSR
// reference: every sample and every sub-step's iteration count must
// be ==.
func TestICholStencilMatchesCSRStream(t *testing.T) {
	run := func() ([]cosim.StreamSample, []int) {
		p := stack.DefaultParams()
		p.GridNX, p.GridNY = 32, 32
		var iters []int
		s, err := cosim.NewStream(cosim.StreamConfig{
			Chip: power.LowPower, Chips: 2, Coolant: material.Water, Params: p,
			FHz: power.LowPower.FMaxHz, IntervalS: 0.01, Intervals: 24, SubSteps: 2,
			Phases: []cosim.StreamPhase{{DurationS: 0.08, Utilisation: 1}, {DurationS: 0.04, Utilisation: 0.3}},
			DVFS:   &cosim.DVFSPolicy{SetpointC: 40, HysteresisC: 2},
			OnSolve: func(st thermal.SolveStats) {
				if st.Preconditioner != "ichol" {
					t.Errorf("sub-step solved with %q, want ichol", st.Preconditioner)
				}
				iters = append(iters, st.Iterations)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		for !s.Done() {
			if _, err := s.Next(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
		return s.Samples(), iters
	}
	got, gotIters := run()
	restore := thermal.UseCSRIChol()
	want, wantIters := run()
	restore()

	if len(got) != len(want) || len(gotIters) != len(wantIters) {
		t.Fatalf("%d samples / %d solves, reference %d / %d", len(got), len(gotIters), len(want), len(wantIters))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sample %d: %+v, reference %+v", i, got[i], want[i])
		}
	}
	for i := range wantIters {
		if gotIters[i] != wantIters[i] {
			t.Fatalf("sub-step %d: %d iterations, reference %d", i, gotIters[i], wantIters[i])
		}
	}
	var throttled bool
	for _, s := range got {
		throttled = throttled || s.Throttled
	}
	t.Logf("%d samples, %d sub-steps, peak %.3f °C, throttled %t", len(got), len(gotIters), got[len(got)-1].PeakC, throttled)
}
