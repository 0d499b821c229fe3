package api

import (
	"math"
	"strings"
	"testing"
)

func TestAuditNormalizeDefaults(t *testing.T) {
	r := &AuditRequest{}
	r.Normalize()
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(r.Chips) != 1 || r.Chips[0] != "low-power" {
		t.Errorf("default chips %v", r.Chips)
	}
	if len(r.Coolants) != 5 {
		t.Errorf("default coolants %v, want all five", r.Coolants)
	}
	if r.StartYear != 2026 || r.EndYear != 2033 {
		t.Errorf("default years %d–%d", r.StartYear, r.EndYear)
	}
	if r.GrowthPerYear != 1.16 {
		t.Errorf("default growth %v", r.GrowthPerYear)
	}
	if r.TotalCells() != 1*5*8 {
		t.Errorf("default TotalCells %d, want 40", r.TotalCells())
	}
}

func TestAuditCanonicalNames(t *testing.T) {
	// Aliases resolve, duplicates collapse, order is sorted — so every
	// spelling shares one cache key.
	a := &AuditRequest{Chips: []string{"lp", "hf", "low-power"}, Coolants: []string{"water", "air", "water"}}
	b := &AuditRequest{Chips: []string{"hf", "low-power"}, Coolants: []string{"air", "water"}}
	a.Normalize()
	if got, want := strings.Join(a.Chips, ","), "high-frequency,low-power"; got != want {
		t.Errorf("chips %q, want %q", got, want)
	}
	if got, want := strings.Join(a.Coolants, ","), "air,water"; got != want {
		t.Errorf("coolants %q, want %q", got, want)
	}
	if a.CacheKey() != b.CacheKey() {
		t.Error("equivalent spellings produced different cache keys")
	}
}

func TestAuditValidateRejects(t *testing.T) {
	bad := []*AuditRequest{
		{Chips: []string{"no-such-chip"}},
		{Coolants: []string{"lava"}},
		{StartYear: 1800, EndYear: 1801},
		{StartYear: 2030, EndYear: 2029},
		{StartYear: 2026, EndYear: 2060}, // span over the year cap
		{GrowthPerYear: -1},
		{GrowthPerYear: 3.0}, // 3^7 ≈ 2187 — far outside the perturb window
		{ThresholdC: 500},
		{GridNX: 3},
	}
	for i, r := range bad {
		r.Normalize()
		if err := r.Validate(); err == nil {
			t.Errorf("case %d: invalid request passed validation: %+v", i, r)
		}
	}
}

func TestAuditCellCap(t *testing.T) {
	r := &AuditRequest{
		Chips:     []string{"low-power", "hf", "e5", "phi", "irds2033"},
		StartYear: 2026, EndYear: 2050, GrowthPerYear: 1.0,
	}
	r.Normalize()
	if cells := r.TotalCells(); cells <= MaxAuditCells {
		t.Fatalf("test setup: %d cells does not exceed the cap", cells)
	}
	if err := r.Validate(); err == nil {
		t.Error("over-cap expansion passed validation")
	}
}

// TestAuditCellsSharePlanKeyspace is the dedup guarantee: an expanded
// audit cell must carry the exact cache key of the hand-built perturbed
// plan request that any other workload (sweep, montecarlo, a plain
// /v1/plan call) would generate for the same physics.
func TestAuditCellsSharePlanKeyspace(t *testing.T) {
	r := &AuditRequest{Chips: []string{"low-power"}, Coolants: []string{"water"},
		StartYear: 2026, EndYear: 2028, GrowthPerYear: 1.16}
	r.Normalize()
	cells := r.Cells()
	if len(cells) != 3 {
		t.Fatalf("expanded %d cells, want 3", len(cells))
	}
	for i, cell := range cells {
		year := 2026 + i
		scale := r.YearScale(year)
		hand := &PlanRequest{Chip: "low-power", Chips: 1, Coolant: "water",
			ThresholdC: 80, GridNX: 32, GridNY: 32, EvalGHz: 2,
			Perturb: &Perturb{PDyn: scale, PStat: scale}}
		if got, want := cell.CacheKey(), hand.CacheKey(); got != want {
			t.Errorf("year %d: cell key %s != hand-built plan key %s", year, got, want)
		}
		if cell.Kind() != "plan" {
			t.Errorf("cell kind %q, want plan", cell.Kind())
		}
	}
}

func TestAuditCellsDeterministic(t *testing.T) {
	r := &AuditRequest{}
	r.Normalize()
	a, b := r.Cells(), r.Cells()
	if len(a) != r.TotalCells() {
		t.Fatalf("expanded %d cells, want %d", len(a), r.TotalCells())
	}
	for i := range a {
		if a[i].CacheKey() != b[i].CacheKey() {
			t.Fatalf("cell %d key differs across expansions", i)
		}
	}
	// The growth axis is monotone: later years carry strictly larger
	// power scales (growth > 1), anchored at exactly 1.
	if a[0].Perturb == nil || a[0].Perturb.PDyn != 1 {
		t.Fatalf("year-0 cell perturb %+v, want explicit PDyn=1", a[0].Perturb)
	}
	for i := 1; i < r.EndYear-r.StartYear+1; i++ {
		if a[i].Perturb.PDyn <= a[i-1].Perturb.PDyn {
			t.Errorf("year %d scale %v not above year %d scale %v",
				r.StartYear+i, a[i].Perturb.PDyn, r.StartYear+i-1, a[i-1].Perturb.PDyn)
		}
	}
	// PDyn and PStat move together — the audit scales total power.
	for i, c := range a {
		if c.Perturb.PDyn != c.Perturb.PStat {
			t.Errorf("cell %d: PDyn %v != PStat %v", i, c.Perturb.PDyn, c.Perturb.PStat)
		}
	}
}

func TestAuditYearScaleQuantized(t *testing.T) {
	r := &AuditRequest{GrowthPerYear: 1.16, StartYear: 2026, EndYear: 2033}
	r.Normalize()
	want := math.Pow(1.16, 7)
	got := r.YearScale(2033)
	if math.Abs(got-want) > 1e-5*want {
		t.Errorf("YearScale(2033) = %v, far from %v", got, want)
	}
	// Quantization matches the expanded cell bit-for-bit.
	cells := (&AuditRequest{Chips: []string{"low-power"}, Coolants: []string{"water"},
		StartYear: 2026, EndYear: 2033, GrowthPerYear: 1.16})
	cells.Normalize()
	expanded := cells.Cells()
	if expanded[7].Perturb.PDyn != got {
		t.Errorf("cell scale %v != YearScale %v", expanded[7].Perturb.PDyn, got)
	}
}

func TestAuditEnvelope(t *testing.T) {
	raw := []byte(`{"type":"audit","request":{"chips":["lp"],"coolants":["water"],"start_year":2026,"end_year":2028}}`)
	req, err := DecodeJobRequest(raw)
	if err != nil {
		t.Fatal(err)
	}
	ar, ok := req.(*AuditRequest)
	if !ok {
		t.Fatalf("unwrapped %T, want *AuditRequest", req)
	}
	ar.Normalize()
	if err := ar.Validate(); err != nil {
		t.Fatal(err)
	}
	if ar.Chips[0] != "low-power" {
		t.Errorf("alias not resolved: %v", ar.Chips)
	}
	// The typed-jobs registry knows the kind.
	if _, ok := KindByName("audit"); !ok {
		t.Error("Kinds does not list audit")
	}
	found := false
	for _, n := range JobTypeNames() {
		if n == "audit" {
			found = true
		}
	}
	if !found {
		t.Errorf("JobTypeNames() = %v, missing audit", JobTypeNames())
	}
}
