package api

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"waterimm/internal/mc"
)

func TestDecodeJobRequestTypedEnvelope(t *testing.T) {
	cases := []struct {
		body string
		kind string
	}{
		{`{"type": "simulate", "request": {"chips": 2}}`, "plan"},
		{`{"type": "plan", "request": {"chips": 2}}`, "plan"},
		{`{"type": "cosim", "request": {"benchmark": "ep"}}`, "cosim"},
		{`{"type": "sweep", "request": {"depths": [1, 2]}}`, "sweep"},
		{`{"type": "montecarlo", "request": {"samples": 16, "params": {"h": {"kind": "uniform", "min": 0.5, "max": 2}}}}`, "montecarlo"},
	}
	for _, c := range cases {
		req, err := DecodeJobRequest([]byte(c.body))
		if err != nil {
			t.Errorf("decode %s: %v", c.body, err)
			continue
		}
		if req.Kind() != c.kind {
			t.Errorf("decode %s: kind %q, want %q", c.body, req.Kind(), c.kind)
		}
	}
}

func TestDecodeJobRequestRejects(t *testing.T) {
	cases := []struct {
		name string
		body string
		want string
	}{
		{"unknown type", `{"type": "frobnicate", "request": {}}`, "unknown type"},
		{"missing payload", `{"type": "simulate"}`, "missing"},
		{"unknown envelope field", `{"type": "simulate", "request": {}, "extra": 1}`, "unknown field"},
		{"unknown payload field", `{"type": "simulate", "request": {"chipz": 1}}`, "unknown field"},
		{"empty body", `{}`, "unknown type"},
		{"not json", `nope`, "decode"},
	}
	for _, c := range cases {
		_, err := DecodeJobRequest([]byte(c.body))
		if err == nil {
			t.Errorf("%s: decoded without error", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

// A keyed body ({"plan": {...}}) is not a typed envelope, whatever
// kind it names; the rejection names the shape that is.
func TestDecodeJobRequestRejectsKeyedUnion(t *testing.T) {
	bodies := []string{
		`{"plan": {"chips": 3}}`,
		`{"sweep": {}}`,
		`{"montecarlo": {"samples": 16, "params": {"h": {"kind": "uniform", "min": 0.5, "max": 2}}}}`,
	}
	for _, body := range bodies {
		req, err := DecodeJobRequest([]byte(body))
		if err == nil {
			t.Errorf("%s: decoded to %#v", body, req)
			continue
		}
		if want := `{"type": ..., "request": {...}}`; !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %q does not mention %q", body, err, want)
		}
	}
}

// Round trip: NewJobEnvelope of each kind decodes back to an
// equivalent request, and the plan kind travels under its public
// "simulate" name.
func TestJobEnvelopeRoundTrip(t *testing.T) {
	reqs := []Request{
		&PlanRequest{Chips: 2},
		&CosimRequest{Benchmark: "cg"},
		&SweepRequest{Depths: []int{1, 2}},
		&MonteCarloRequest{Samples: 16, Params: map[string]mc.Dist{"h": {Kind: "uniform", Min: 0.5, Max: 2}}},
	}
	for _, req := range reqs {
		env, err := NewJobEnvelope(req)
		if err != nil {
			t.Fatalf("%s: %v", req.Kind(), err)
		}
		if req.Kind() == "plan" && env.Type != "simulate" {
			t.Fatalf("plan kind must travel as %q, got %q", "simulate", env.Type)
		}
		back, err := env.Decode()
		if err != nil {
			t.Fatalf("%s: decode back: %v", req.Kind(), err)
		}
		if back.Kind() != req.Kind() {
			t.Fatalf("round trip kind %q, want %q", back.Kind(), req.Kind())
		}
		if back.CacheKey() != req.CacheKey() {
			t.Fatalf("%s: round trip moved the cache key", req.Kind())
		}
	}
}

// TestKindsTable checks every entry of the kind table against itself:
// its request reports the entry's Name, round-trips through the typed
// envelope under its Type, pairs with the response of the same kind,
// and is served at /v1/<name> when it has a synchronous route.
func TestKindsTable(t *testing.T) {
	seen := map[string]bool{}
	for _, k := range Kinds {
		if seen[k.Name] || seen[k.Type] {
			t.Errorf("kind %s: name or type %q listed twice", k.Name, k.Type)
		}
		seen[k.Name], seen[k.Type] = true, true
		req := k.NewRequest()
		if req.Kind() != k.Name {
			t.Errorf("kind %s constructs a %s request", k.Name, req.Kind())
		}
		if k.Path != "" && k.Path != "/v1/"+k.Name {
			t.Errorf("kind %s is served at %s", k.Name, k.Path)
		}
		reqType := strings.TrimSuffix(fmt.Sprintf("%T", req), "Request")
		if respType := strings.TrimSuffix(fmt.Sprintf("%T", k.NewResponse()), "Response"); respType != reqType {
			t.Errorf("kind %s pairs %T with %T", k.Name, req, k.NewResponse())
		}
		env, err := NewJobEnvelope(req)
		if err != nil {
			t.Fatalf("kind %s: %v", k.Name, err)
		}
		if env.Type != k.Type {
			t.Errorf("kind %s travels as %q, want %q", k.Name, env.Type, k.Type)
		}
		body, err := json.Marshal(env)
		if err != nil {
			t.Fatal(err)
		}
		back, err := DecodeJobRequest(body)
		if err != nil {
			t.Fatalf("kind %s: decode %s: %v", k.Name, body, err)
		}
		if back.Kind() != k.Name || fmt.Sprintf("%T", back) != fmt.Sprintf("%T", req) {
			t.Errorf("kind %s decodes back as %T (%s)", k.Name, back, back.Kind())
		}
	}
}
