package thermal

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"testing"
)

func TestTransientConvergesToSteadyState(t *testing.T) {
	m := slab(10, 10, 10, 400)
	steady, err := Solve(m, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := Assemble(m)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStepper(sys, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	// The slab time constant is C/G ≈ ρc·t / h ≈ 1.75e6·1e-3/400 ≈
	// 4.4 s; 600 steps of 20 ms cover ~3 time constants... run enough
	// to converge within a fraction of a degree.
	if _, err := st.Run(context.Background(), 2000); err != nil {
		t.Fatal(err)
	}
	res := st.Result()
	for i := range steady.T {
		if math.Abs(res.T[i]-steady.T[i]) > 0.05 {
			t.Fatalf("node %d: transient %.3f vs steady %.3f", i, res.T[i], steady.T[i])
		}
	}
	if st.Time() <= 0 {
		t.Error("stepper time did not advance")
	}
}

func TestTransientMonotonicHeating(t *testing.T) {
	// From a cold start with constant power, every step heats the
	// slab (no oscillation — backward Euler is L-stable).
	m := slab(8, 8, 6, 300)
	sys, _ := Assemble(m)
	st, err := NewStepper(sys, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	prev := 25.0
	for i := 0; i < 40; i++ {
		max, err := st.Run(context.Background(), 1)
		if err != nil {
			t.Fatal(err)
		}
		if max < prev-1e-9 {
			t.Fatalf("step %d: temperature fell from %.4f to %.4f under constant power", i, prev, max)
		}
		prev = max
	}
}

func TestTransientStepSizeInsensitivity(t *testing.T) {
	// Final temperature after the same simulated time must agree for
	// different step sizes (within first-order error).
	run := func(dt float64, steps int) float64 {
		m := slab(8, 8, 6, 300)
		sys, _ := Assemble(m)
		st, err := NewStepper(sys, dt)
		if err != nil {
			t.Fatal(err)
		}
		max, err := st.Run(context.Background(), steps)
		if err != nil {
			t.Fatal(err)
		}
		return max
	}
	coarse := run(0.2, 10)
	fine := run(0.05, 40)
	if math.Abs(coarse-fine) > 1.0 {
		t.Errorf("2 s endpoint differs: dt=0.2 gives %.3f, dt=0.05 gives %.3f", coarse, fine)
	}
}

func TestTransientPowerStepResponse(t *testing.T) {
	// Cut power mid-run: the slab must start cooling.
	m := slab(8, 8, 10, 300)
	sys, _ := Assemble(m)
	st, err := NewStepper(sys, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	hot, err := st.Run(context.Background(), 50)
	if err != nil {
		t.Fatal(err)
	}
	for i := range m.Layers[0].Power {
		m.Layers[0].Power[i] = 0
	}
	sys.UpdatePower()
	cooled, err := st.Run(context.Background(), 10)
	if err != nil {
		t.Fatal(err)
	}
	if cooled >= hot {
		t.Errorf("slab did not cool after power-off: %.3f -> %.3f", hot, cooled)
	}
}

func TestStepperRejectsBadDT(t *testing.T) {
	m := slab(8, 8, 1, 100)
	sys, _ := Assemble(m)
	if _, err := NewStepper(sys, 0); err == nil {
		t.Error("expected error for zero time step")
	}
	if _, err := NewStepper(sys, -1); err == nil {
		t.Error("expected error for negative time step")
	}
}

func TestStepperRejectsInfCapacity(t *testing.T) {
	// +Inf capacity would put an infinite C/Δt on the shifted diagonal
	// and silently zero its inverse — it must be rejected at
	// construction like NaN and negatives already are.
	m := slab(8, 8, 1, 100)
	sys, _ := Assemble(m)
	sys.Capacity[3] = math.Inf(1)
	if _, err := NewStepper(sys, 0.01); err == nil {
		t.Error("expected error for +Inf capacity")
	}
	sys.Capacity[3] = math.Inf(-1)
	if _, err := NewStepper(sys, 0.01); err == nil {
		t.Error("expected error for -Inf capacity")
	}
}

func TestStepperRunHonoursContext(t *testing.T) {
	m := slab(8, 8, 6, 300)
	sys, _ := Assemble(m)
	st, err := NewStepper(sys, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := st.Run(ctx, 10); err == nil {
		t.Fatal("expected error from cancelled context")
	} else if !errors.Is(err, context.Canceled) {
		t.Fatalf("error does not wrap context.Canceled: %v", err)
	}
}

func TestStepperCheckpointRestoreBitIdentical(t *testing.T) {
	// Interrupt an integration at step 12, round-trip the checkpoint
	// through JSON (the on-disk format), restore into a fresh stepper,
	// and finish: the resumed trajectory must be bit-identical to an
	// uninterrupted run — the foundation of streaming-job resume.
	ctx := context.Background()
	m := slab(8, 8, 6, 300)
	sys, err := Assemble(m)
	if err != nil {
		t.Fatal(err)
	}
	mk := func() *Stepper {
		st, err := NewStepper(sys, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	ref := mk()
	if _, err := ref.Run(ctx, 30); err != nil {
		t.Fatal(err)
	}

	first := mk()
	if _, err := first.Run(ctx, 12); err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(first.Checkpoint())
	if err != nil {
		t.Fatal(err)
	}
	var ck Checkpoint
	if err := json.Unmarshal(blob, &ck); err != nil {
		t.Fatal(err)
	}

	resumed := mk()
	if err := resumed.Restore(&ck); err != nil {
		t.Fatal(err)
	}
	if _, err := resumed.Run(ctx, 18); err != nil {
		t.Fatal(err)
	}

	if resumed.Time() != ref.Time() {
		t.Fatalf("simulated time diverged: resumed %v vs uninterrupted %v", resumed.Time(), ref.Time())
	}
	got, want := resumed.Result(), ref.Result()
	for i := range want.T {
		if got.T[i] != want.T[i] {
			t.Fatalf("node %d not bit-identical: resumed %v vs uninterrupted %v", i, got.T[i], want.T[i])
		}
	}
}

func TestStepperRestoreRejectsBadCheckpoint(t *testing.T) {
	m := slab(8, 8, 1, 100)
	sys, _ := Assemble(m)
	st, err := NewStepper(sys, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Restore(nil); err == nil {
		t.Error("expected error for nil checkpoint")
	}
	if err := st.Restore(&Checkpoint{TimeS: 1, T: make([]float64, sys.N-1)}); err == nil {
		t.Error("expected error for wrong field length")
	}
	if err := st.Restore(&Checkpoint{TimeS: -1, T: make([]float64, sys.N)}); err == nil {
		t.Error("expected error for negative time")
	}
	bad := make([]float64, sys.N)
	bad[0] = math.NaN()
	if err := st.Restore(&Checkpoint{TimeS: 1, T: bad}); err == nil {
		t.Error("expected error for NaN temperature")
	}
}

// TestStepperICholMatchesJacobi pins the IC(0)-preconditioned stepper
// to the Jacobi one over a run with lumped extras and a mid-run power
// cut: the preconditioner changes the iteration, never the trajectory
// beyond what the solver tolerance allows.
//
// The bound follows from the stop rule ‖r‖ ≤ Tol·TolRef. With A = G +
// D and D = C/Δt, the error of step n obeys eₙ = A⁻¹·D·eₙ₋₁ + A⁻¹·rₙ.
// A ⪰ D, so A⁻¹·D does not grow errors in the D-norm and ‖A⁻¹·r‖_D ≤
// ‖r‖/√dmin; after n steps ‖e‖∞ ≤ ‖e‖_D/√dmin ≤ n·Tol·TolRef/dmin.
// Two trajectories each within that of the exact one differ by at
// most twice it.
func TestStepperICholMatchesJacobi(t *testing.T) {
	const dt, steps, tol = 0.01, 60, 1e-6
	ctx := context.Background()
	run := func(jacobi bool) (field []float64, bound float64) {
		m := mgStack(16, 16, true)
		sys, err := Assemble(m)
		if err != nil {
			t.Fatal(err)
		}
		st, err := NewStepper(sys, dt)
		if err != nil {
			t.Fatal(err)
		}
		if jacobi {
			st.prec = nil
		}
		dmin := math.Inf(1)
		for _, c := range sys.Capacity {
			dmin = math.Min(dmin, c/dt)
		}
		var maxRef float64
		for i := 0; i < steps; i++ {
			if i == steps/2 {
				for c := range m.Layers[0].Power {
					m.Layers[0].Power[c] *= 0.25
				}
				sys.UpdatePower()
			}
			maxRef = math.Max(maxRef, sys.ColdStartResidual())
			if err := st.Step(ctx); err != nil {
				t.Fatal(err)
			}
		}
		return st.T, 2 * steps * tol * maxRef / dmin
	}
	ic, bound := run(false)
	jac, _ := run(true)
	var maxDiff, maxRise float64
	for i := range ic {
		maxDiff = math.Max(maxDiff, math.Abs(ic[i]-jac[i]))
		maxRise = math.Max(maxRise, jac[i]-25)
	}
	t.Logf("max |T_ic − T_jacobi| = %.3g °C, bound %.3g °C, peak rise %.3g °C", maxDiff, bound, maxRise)
	if maxDiff > bound {
		t.Errorf("trajectories differ by %.3g °C, bound %.3g °C", maxDiff, bound)
	}
	if maxRise < 100*bound {
		t.Errorf("peak rise %.3g °C is too small for the bound %.3g °C to mean anything", maxRise, bound)
	}
}

// TestTransientLumpedRCClosedForm pins a single-node RC model to the
// exact backward-Euler recurrence T₊ = (C/Δt·T + P + G·Tₐ)/(C/Δt + G).
// Grid.Validate rejects a 1×1 grid, so the node is a lumped extra
// beside an unpowered, uncoupled 2×2 slab that stays at ambient; the
// extra's row of the shifted operator is a 1×1 block, which IC(0)
// factors exactly.
func TestTransientLumpedRCClosedForm(t *testing.T) {
	const g, c, p, amb, dt = 0.8, 50.0, 12.0, 25.0, 2.0
	m := slab(2, 2, 0, 300)
	m.Extras = []Extra{{Name: "lump", AmbientG: g, Cap: c, Power: p}}
	sys, err := Assemble(m)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStepper(sys, dt)
	if err != nil {
		t.Fatal(err)
	}
	want := amb
	for i := 0; i < 100; i++ {
		if err := st.Step(context.Background()); err != nil {
			t.Fatal(err)
		}
		want = (c/dt*want + p + g*amb) / (c/dt + g)
		if got := st.Result().Extra(0); math.Abs(got-want) > 1e-9 {
			t.Fatalf("step %d: %.12f °C, closed form %.12f °C", i, got, want)
		}
	}
	if want-amb < 0.5*p/g {
		t.Errorf("run ended at %.3f °C, short of half the %.3f °C steady rise", want, p/g)
	}
}
