package api

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestPlanNormalizeDefaults(t *testing.T) {
	r := &PlanRequest{}
	r.Normalize()
	if r.Chip != "low-power" || r.Chips != 1 || r.Coolant != "water" ||
		r.ThresholdC != 80 || r.GridNX != 32 || r.GridNY != 32 {
		t.Fatalf("unexpected defaults: %+v", r)
	}
	if err := r.Validate(); err != nil {
		t.Fatalf("normalized default request must validate: %v", err)
	}
}

func TestChipAliases(t *testing.T) {
	r := &PlanRequest{Chip: "hf"}
	r.Normalize()
	if r.Chip != "high-frequency" {
		t.Fatalf("hf alias: got %q", r.Chip)
	}
	c := &CosimRequest{Chip: "lp", GHz: 2.8}
	c.Normalize()
	if c.Chip != "low-power" {
		t.Fatalf("lp alias: got %q", c.Chip)
	}
}

// A request with defaults spelled out and one that omits them must
// share a cache key: the whole point of canonicalization.
func TestCacheKeyCanonical(t *testing.T) {
	implicit := &PlanRequest{}
	explicit := &PlanRequest{
		Chip: "lp", Chips: 1, Coolant: "water",
		ThresholdC: 80, GridNX: 32, GridNY: 32,
	}
	if implicit.CacheKey() != explicit.CacheKey() {
		t.Fatalf("canonicalization broken:\n%s\n%s", implicit.CacheKey(), explicit.CacheKey())
	}
	// CacheKey must not mutate the receiver.
	if implicit.Chip != "" {
		t.Fatalf("CacheKey mutated the request: %+v", implicit)
	}
}

func TestCacheKeyDistinguishes(t *testing.T) {
	base := &PlanRequest{}
	keys := map[string]string{"base": base.CacheKey()}
	for name, r := range map[string]*PlanRequest{
		"chips":     {Chips: 2},
		"coolant":   {Coolant: "air"},
		"flip":      {Flip: true},
		"threshold": {ThresholdC: 85},
	} {
		k := r.CacheKey()
		for prev, pk := range keys {
			if k == pk {
				t.Fatalf("%s and %s collide on %s", name, prev, k)
			}
		}
		keys[name] = k
	}
}

// Plan and cosim requests must never collide even if their canonical
// JSON were coincidentally equal: the kind is part of the hash input.
func TestCacheKeyKindPrefix(t *testing.T) {
	p := &PlanRequest{}
	c := &CosimRequest{}
	if p.CacheKey() == c.CacheKey() {
		t.Fatal("plan and cosim cache keys collide")
	}
}

func TestCosimValidate(t *testing.T) {
	ok := &CosimRequest{}
	ok.Normalize()
	if err := ok.Validate(); err != nil {
		t.Fatalf("default cosim request must validate: %v", err)
	}
	bad := []*CosimRequest{
		{Benchmark: "nope"},
		{Chip: "nope"},
		{Coolant: "nope"},
		{GHz: 3.21},                      // not a VFS step
		{Chips: 40},                      // too deep
		{IntervalS: 2},                   // above cap
		{DurationS: 61},                  // above cap
		{Scale: -1},                      // negative
		{GridNX: 2},                      // too coarse
		{MaxSamples: 200_000},            // above cap
		{DurationS: 30, IntervalS: 1e-6}, // interval-count cap
	}
	for i, r := range bad {
		r.Normalize()
		if err := r.Validate(); err == nil {
			t.Errorf("bad request %d validated: %+v", i, r)
		}
	}
	// Validate without (re-)Normalize still rejects a non-positive
	// cap: the clamp is normalization's job, not a validation
	// loophole for callers that skip it.
	unclamped := &CosimRequest{}
	unclamped.Normalize()
	unclamped.MaxSamples = -5
	if err := unclamped.Validate(); err == nil {
		t.Error("un-normalized negative max_samples validated")
	}
}

// TestCosimMaxSamplesClamp is the regression test for the decimation
// bug: a non-positive max_samples means "default", and must never
// reach the execution layer, where 0 dropped every sample and a
// negative value panicked the worker (make with a negative length).
func TestCosimMaxSamplesClamp(t *testing.T) {
	for _, samples := range []int{0, -5} {
		r := &CosimRequest{MaxSamples: samples}
		r.Normalize()
		if r.MaxSamples != 256 {
			t.Fatalf("MaxSamples %d normalized to %d, want the 256 default", samples, r.MaxSamples)
		}
		if err := r.Validate(); err != nil {
			t.Fatalf("clamped request failed validation: %v", err)
		}
	}
	// The clamp folds the degenerate spellings onto the default's
	// canonical form, so they share one cache identity.
	def := &CosimRequest{}
	neg := &CosimRequest{MaxSamples: -5}
	if def.CacheKey() != neg.CacheKey() {
		t.Fatal("clamped max_samples diverges from the default cache key")
	}
}

func TestEnvelope(t *testing.T) {
	var e JobEnvelope
	if err := json.Unmarshal([]byte(`{"type": "simulate", "request": {"chips": 2}}`), &e); err != nil {
		t.Fatal(err)
	}
	req, err := e.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if req.Kind() != "plan" {
		t.Fatalf("kind: got %q", req.Kind())
	}

	unknown := JobEnvelope{Type: "frobnicate", Request: json.RawMessage(`{}`)}
	if _, err := unknown.Decode(); err == nil || !strings.Contains(err.Error(), "unknown type") {
		t.Fatalf("envelope of unknown type: %v", err)
	}
	empty := JobEnvelope{Type: "simulate"}
	if _, err := empty.Decode(); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Fatalf("envelope without payload: %v", err)
	}
}

// The canonical JSON is part of the cache-key contract: field order
// is declaration order, so this test freezes the plan schema. If it
// fails, a field was added or reordered — bump SchemaVersion.
func TestPlanCanonicalEncodingFrozen(t *testing.T) {
	r := &PlanRequest{}
	r.Normalize()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"chip":"low-power","chips":1,"coolant":"water","threshold_c":80,` +
		`"flip":false,"converge_leakage":false,"grid_nx":32,"grid_ny":32}`
	if string(b) != want {
		t.Fatalf("canonical plan encoding changed (bump SchemaVersion?):\n got %s\nwant %s", b, want)
	}
}
