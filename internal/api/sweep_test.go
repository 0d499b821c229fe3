package api

import (
	"strings"
	"testing"

	"waterimm/internal/material"
)

func TestSweepNormalizeDefaults(t *testing.T) {
	r := &SweepRequest{}
	r.Normalize()
	if len(r.Chips) != 1 || r.Chips[0] != "low-power" {
		t.Fatalf("default chips: %v", r.Chips)
	}
	if len(r.Depths) != 8 || r.Depths[0] != 1 || r.Depths[7] != 8 {
		t.Fatalf("default depths: %v", r.Depths)
	}
	if len(r.Coolants) != len(material.Coolants()) {
		t.Fatalf("default coolants: %v", r.Coolants)
	}
	if len(r.ThresholdsC) != 1 || r.ThresholdsC[0] != 80 {
		t.Fatalf("default thresholds: %v", r.ThresholdsC)
	}
	if r.GridNX != 32 || r.GridNY != 32 {
		t.Fatalf("default grid: %dx%d", r.GridNX, r.GridNY)
	}
	if err := r.Validate(); err != nil {
		t.Fatalf("normalized default sweep must validate: %v", err)
	}
}

// Axis lists are canonicalized — alias-resolved, sorted, deduplicated
// — so spelling variants of the same sweep share one cache key.
func TestSweepNormalizeCanonicalizesAxes(t *testing.T) {
	r := &SweepRequest{
		Chips:       []string{"hf", "lp", "high-frequency"},
		Depths:      []int{4, 1, 4, 2},
		Coolants:    []string{"water", "air", "water"},
		ThresholdsC: []float64{85, 80, 85},
	}
	r.Normalize()
	if len(r.Chips) != 2 || r.Chips[0] != "high-frequency" || r.Chips[1] != "low-power" {
		t.Fatalf("chips: %v", r.Chips)
	}
	if len(r.Depths) != 3 || r.Depths[0] != 1 || r.Depths[2] != 4 {
		t.Fatalf("depths: %v", r.Depths)
	}
	if len(r.Coolants) != 2 || r.Coolants[0] != "air" {
		t.Fatalf("coolants: %v", r.Coolants)
	}
	if len(r.ThresholdsC) != 2 || r.ThresholdsC[0] != 80 {
		t.Fatalf("thresholds: %v", r.ThresholdsC)
	}

	spelled := &SweepRequest{
		Chips:       []string{"high-frequency", "low-power"},
		Depths:      []int{1, 2, 4},
		Coolants:    []string{"air", "water"},
		ThresholdsC: []float64{80, 85},
	}
	if r.CacheKey() != spelled.CacheKey() {
		t.Fatal("canonicalized and spelled-out sweeps have different keys")
	}
}

func TestSweepCacheKeyDoesNotMutate(t *testing.T) {
	r := &SweepRequest{Chips: []string{"hf", "lp"}, Depths: []int{3, 1}}
	_ = r.CacheKey()
	if r.Chips[0] != "hf" || r.Depths[0] != 3 {
		t.Fatalf("CacheKey mutated the request: %+v", r)
	}
}

func TestSweepValidate(t *testing.T) {
	bad := []struct {
		name string
		req  *SweepRequest
		want string
	}{
		{"chip", &SweepRequest{Chips: []string{"nope"}}, "chip model"},
		{"coolant", &SweepRequest{Coolants: []string{"lava"}}, "coolant"},
		{"depth-low", &SweepRequest{Depths: []int{0}}, "depths"},
		{"depth-high", &SweepRequest{Depths: []int{33}}, "depths"},
		{"threshold", &SweepRequest{ThresholdsC: []float64{25}}, "thresholds_c"},
		{"grid", &SweepRequest{GridNX: 2}, "grid"},
		{"grid-load", &SweepRequest{Depths: []int{32}, GridNX: 256, GridNY: 256}, "budget"},
	}
	for _, tc := range bad {
		tc.req.Normalize()
		err := tc.req.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want mention of %q", tc.name, err, tc.want)
		}
	}

	// The cell cap: 4 chips × 32 depths × 5 coolants = 640 > 512.
	big := &SweepRequest{Chips: []string{"low-power", "high-frequency", "e5", "phi"}}
	for d := 1; d <= 32; d++ {
		big.Depths = append(big.Depths, d)
	}
	big.Normalize()
	if err := big.Validate(); err == nil || !strings.Contains(err.Error(), "cell cap") {
		t.Fatalf("oversized sweep validated: %v", err)
	}
}

// Cells must expand in canonical order and each cell must share cache
// identity with the equivalent standalone plan request — that is what
// lets a sweep populate the cache for later /v1/plan calls.
func TestSweepCellsMatchPlanRequests(t *testing.T) {
	r := &SweepRequest{
		Chips:    []string{"lp"},
		Depths:   []int{2, 1},
		Coolants: []string{"water", "air"},
		GridNX:   8, GridNY: 8,
	}
	r.Normalize()
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	cells := r.Cells()
	if len(cells) != 4 {
		t.Fatalf("want 4 cells, got %d", len(cells))
	}
	wantOrder := []PlanRequest{
		{Chips: 1, Coolant: "air"},
		{Chips: 1, Coolant: "water"},
		{Chips: 2, Coolant: "air"},
		{Chips: 2, Coolant: "water"},
	}
	for i, c := range cells {
		if c.Chips != wantOrder[i].Chips || c.Coolant != wantOrder[i].Coolant {
			t.Fatalf("cell %d: got %s depth %d, want %s depth %d",
				i, c.Coolant, c.Chips, wantOrder[i].Coolant, wantOrder[i].Chips)
		}
		standalone := &PlanRequest{
			Chip: "lp", Chips: c.Chips, Coolant: c.Coolant, GridNX: 8, GridNY: 8,
		}
		if c.CacheKey() != standalone.CacheKey() {
			t.Fatalf("cell %d key diverges from standalone plan request", i)
		}
	}
}

func TestSweepEnvelope(t *testing.T) {
	env, err := NewJobEnvelope(&SweepRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if env.Type != "sweep" {
		t.Fatalf("type: %q", env.Type)
	}
	req, err := env.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if req.Kind() != "sweep" {
		t.Fatalf("kind: %q", req.Kind())
	}
}

// The golden cache keys for every kind now live in golden_test.go
// (TestCacheKeysFrozen), which pins them across the v3 schema bump.

// The grid node budget must also reject a plan request that the
// per-axis bounds alone would admit.
func TestGridNodeBudget(t *testing.T) {
	r := &PlanRequest{Chips: 32, GridNX: 256, GridNY: 256}
	r.Normalize()
	if err := r.Validate(); err == nil || !strings.Contains(err.Error(), "budget") {
		t.Fatalf("oversized plan validated: %v", err)
	}
	// 256·256·8 sits exactly on the budget and must be admissible —
	// it is the acceptance grid for the multigrid path.
	ok := &PlanRequest{Chips: 8, GridNX: 256, GridNY: 256}
	ok.Normalize()
	if err := ok.Validate(); err != nil {
		t.Fatalf("budget-edge plan rejected: %v", err)
	}
}
