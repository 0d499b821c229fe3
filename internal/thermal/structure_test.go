package thermal

import (
	"errors"
	"testing"
)

// perturbStack is mgStack with the multiplicative parameter scaling a
// Monte-Carlo sample applies: strictly positive factors on material
// and boundary coefficients, so the topology is unchanged.
func perturbStack(nx, ny int, withExtras bool) *Model {
	m := mgStack(nx, ny, withExtras)
	for l := range m.Layers {
		m.Layers[l].K *= 1.37
		m.Layers[l].TopCoeff *= 0.81
	}
	m.AmbientC = 31.5
	if withExtras {
		m.Extras[0].AmbientG *= 2.2
		m.Couplings[0].G *= 0.64
	}
	return m
}

// TestStructureAssembleMatchesFull is the symbolic/value-split
// contract: replaying the tape against a same-topology model must
// reproduce the full assembly bit for bit — same extras pattern
// (shared slices), same values (same floating-point accumulation
// order).
func TestStructureAssembleMatchesFull(t *testing.T) {
	for _, withExtras := range []bool{false, true} {
		base, err := Assemble(mgStack(16, 12, withExtras))
		if err != nil {
			t.Fatal(err)
		}
		st, err := base.Structure()
		if err != nil {
			t.Fatal(err)
		}
		for _, perturbed := range []bool{false, true} {
			build := mgStack
			if perturbed {
				build = perturbStack
			}
			want, err := Assemble(build(16, 12, withExtras))
			if err != nil {
				t.Fatal(err)
			}
			got, err := st.Assemble(build(16, 12, withExtras))
			if err != nil {
				t.Fatalf("structural assemble (extras=%v perturbed=%v): %v", withExtras, perturbed, err)
			}
			if withExtras && (&got.op.xPtr[0] != &st.xPtr[0] || &got.op.xCol[0] != &st.xCol[0]) {
				t.Error("structural assembly copied the extras pattern instead of sharing it")
			}
			if len(got.op.xPtr) != len(want.op.xPtr) || len(got.op.xCol) != len(want.op.xCol) {
				t.Fatalf("extras pattern: %d rows / %d entries, full assembly %d / %d",
					len(got.op.xPtr), len(got.op.xCol), len(want.op.xPtr), len(want.op.xCol))
			}
			for i := range want.op.xPtr {
				if got.op.xPtr[i] != want.op.xPtr[i] {
					t.Fatalf("xPtr[%d]: %d != %d", i, got.op.xPtr[i], want.op.xPtr[i])
				}
			}
			for i := range want.op.xCol {
				if got.op.xCol[i] != want.op.xCol[i] {
					t.Fatalf("xCol[%d]: %d != %d", i, got.op.xCol[i], want.op.xCol[i])
				}
			}
			check := func(name string, a, b []float64) {
				if len(a) != len(b) {
					t.Fatalf("%s length %d != %d", name, len(a), len(b))
				}
				for i := range a {
					if a[i] != b[i] {
						t.Fatalf("extras=%v perturbed=%v: %s[%d] = %g != %g",
							withExtras, perturbed, name, i, a[i], b[i])
					}
				}
			}
			check("east", got.op.east, want.op.east)
			check("north", got.op.north, want.op.north)
			check("up", got.op.up, want.op.up)
			check("xVal", got.op.xVal, want.op.xVal)
			check("Diag", got.Diag, want.Diag)
			check("Q", got.Q, want.Q)
			check("Capacity", got.Capacity, want.Capacity)
			check("ambientG", got.ambientG, want.ambientG)
			check("invDiag", got.invDiag, want.invDiag)
		}
	}
}

// TestStructureMismatchDetected: topology changes must surface as
// ErrStructureMismatch, never a silently wrong matrix.
func TestStructureMismatchDetected(t *testing.T) {
	base, err := Assemble(mgStack(16, 12, true))
	if err != nil {
		t.Fatal(err)
	}
	st, err := base.Structure()
	if err != nil {
		t.Fatal(err)
	}

	// A boundary coefficient dropping to zero flips a tie's skip
	// decision mid-tape.
	gone := mgStack(16, 12, true)
	gone.Layers[3].TopCoeff = 0
	gone.Layers[0].EdgeCoeff = 5 // keep an ambient path so Validate passes
	if _, err := st.Assemble(gone); !errors.Is(err, ErrStructureMismatch) {
		t.Errorf("zeroed TopCoeff: got %v, want ErrStructureMismatch", err)
	}

	// A different grid fails the fingerprint outright.
	if _, err := st.Assemble(mgStack(16, 16, true)); !errors.Is(err, ErrStructureMismatch) {
		t.Errorf("different grid: got %v, want ErrStructureMismatch", err)
	}

	// Fewer extras fails the fingerprint.
	fewer := mgStack(16, 12, true)
	fewer.Extras = fewer.Extras[:1]
	fewer.Couplings = fewer.Couplings[:1]
	if _, err := st.Assemble(fewer); !errors.Is(err, ErrStructureMismatch) {
		t.Errorf("fewer extras: got %v, want ErrStructureMismatch", err)
	}
}
