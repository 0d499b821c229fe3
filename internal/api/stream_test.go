package api

import "testing"

func TestCosimStreamNormalizeDefaults(t *testing.T) {
	r := &CosimStreamRequest{}
	r.Normalize()
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	if r.Chip != "high-frequency" || r.Chips != 1 || r.Coolant != "water" {
		t.Errorf("defaults: %+v", r)
	}
	if r.GHz != 3.6 || r.IntervalS != 0.01 || r.Intervals != 512 || r.SubSteps != 2 {
		t.Errorf("run defaults: %+v", r)
	}
	if r.CheckpointEvery != 64 || r.MaxSamples != 256 {
		t.Errorf("checkpoint/sample defaults: %+v", r)
	}
	if r.DTMSetpointC != 0 || r.DTMHysteresisC != 0 {
		t.Errorf("governor must default off: %+v", r)
	}
}

func TestCosimStreamHysteresisDefault(t *testing.T) {
	r := &CosimStreamRequest{DTMSetpointC: 80}
	r.Normalize()
	if r.DTMHysteresisC != 2 {
		t.Errorf("enabled governor defaulted hysteresis %g, want 2", r.DTMHysteresisC)
	}
}

func TestCosimStreamAliasesShareKey(t *testing.T) {
	a := &CosimStreamRequest{Chip: "hf"}
	b := &CosimStreamRequest{Chip: "high-frequency"}
	if a.CacheKey() != b.CacheKey() {
		t.Error("chip alias produced a different cache key")
	}
	// CacheKey must not mutate the receiver.
	if a.Chip != "hf" || a.Intervals != 0 {
		t.Errorf("CacheKey mutated the request: %+v", a)
	}
}

func TestCosimStreamValidateRejects(t *testing.T) {
	bad := []*CosimStreamRequest{
		{Chip: "no-such-chip"},
		{Coolant: "lava"},
		{GHz: 1.234}, // off-step
		{Chips: 64},
		{IntervalS: 2},
		{Intervals: 200_000},
		{SubSteps: 100},
		{Trace: []CosimStreamPhase{{DurationS: 0, Utilisation: 1}}},
		{Trace: []CosimStreamPhase{{DurationS: 1, Utilisation: 1.5}}},
		{DTMSetpointC: 10},
		{DTMSetpointC: 80, DTMHysteresisC: -1},
		{GridNX: 3},
		{GridNX: 256, GridNY: 256, Chips: 32}, // node budget
		{CheckpointEvery: 200_000},
		{MaxSamples: 200_000},
	}
	for i, r := range bad {
		r.Normalize()
		if err := r.Validate(); err == nil {
			t.Errorf("case %d: invalid request passed validation: %+v", i, r)
		}
	}
}

func TestCosimStreamEnvelope(t *testing.T) {
	// Typed envelope.
	raw := []byte(`{"type":"cosimstream","request":{"chip":"lp","ghz":1.5,"intervals":100,"trace":[{"duration_s":1,"utilisation":0.5}]}}`)
	req, err := DecodeJobRequest(raw)
	if err != nil {
		t.Fatal(err)
	}
	sr, ok := req.(*CosimStreamRequest)
	if !ok {
		t.Fatalf("unwrapped %T, want *CosimStreamRequest", req)
	}
	sr.Normalize()
	if err := sr.Validate(); err != nil {
		t.Fatal(err)
	}
	if sr.Chip != "low-power" || sr.Intervals != 100 || len(sr.Trace) != 1 {
		t.Errorf("decoded request: %+v", sr)
	}
	// The typed-jobs registry knows the kind.
	if _, ok := KindByName("cosimstream"); !ok {
		t.Error("Kinds does not list cosimstream")
	}
	found := false
	for _, n := range JobTypeNames() {
		if n == "cosimstream" {
			found = true
		}
	}
	if !found {
		t.Errorf("JobTypeNames() = %v, missing cosimstream", JobTypeNames())
	}
	// Round-trip through NewJobEnvelope.
	env, err := NewJobEnvelope(&CosimStreamRequest{Chips: 3})
	if err != nil {
		t.Fatal(err)
	}
	if env.Type != "cosimstream" {
		t.Errorf("envelope type %q", env.Type)
	}
	back, err := env.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if back.(*CosimStreamRequest).Chips != 3 {
		t.Errorf("round-trip lost fields: %+v", back)
	}
}
