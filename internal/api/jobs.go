package api

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// JobEnvelope is the canonical submit body of POST /v1/jobs: a type
// discriminator plus the request payload for that type.
//
//	{"type": "montecarlo", "request": {"chips": 4, ...}}
//
// Accepted types are "simulate" (alias "plan"), "cosim", "sweep",
// "montecarlo", "audit" and "cosimstream".
type JobEnvelope struct {
	Type    string          `json:"type"`
	Request json.RawMessage `json:"request"`
}

// jobTypes maps the wire discriminator to a fresh request value.
// "simulate" is the public name of the plan kind (matching the
// /v1/simulate endpoint); "plan" is accepted as an alias.
func jobTypes(t string) (Request, bool) {
	switch t {
	case "simulate", "plan":
		return &PlanRequest{}, true
	case "cosim":
		return &CosimRequest{}, true
	case "sweep":
		return &SweepRequest{}, true
	case "montecarlo":
		return &MonteCarloRequest{}, true
	case "audit":
		return &AuditRequest{}, true
	case "cosimstream":
		return &CosimStreamRequest{}, true
	}
	return nil, false
}

// JobTypeNames lists the accepted type discriminators, for error
// messages and docs.
func JobTypeNames() []string {
	return []string{"simulate", "cosim", "sweep", "montecarlo", "audit", "cosimstream"}
}

// Decode unwraps the typed envelope into its request, rejecting
// unknown types, a missing payload, and unknown payload fields.
func (e *JobEnvelope) Decode() (Request, error) {
	req, ok := jobTypes(e.Type)
	if !ok {
		return nil, fmt.Errorf("api: job envelope: unknown type %q (want one of %v)", e.Type, JobTypeNames())
	}
	if len(e.Request) == 0 {
		return nil, fmt.Errorf(`api: job envelope: missing "request" payload for type %q`, e.Type)
	}
	dec := json.NewDecoder(bytes.NewReader(e.Request))
	dec.DisallowUnknownFields()
	if err := dec.Decode(req); err != nil {
		return nil, fmt.Errorf("api: job envelope: decode %s request: %w", e.Type, err)
	}
	return req, nil
}

// NewJobEnvelope wraps a request in the typed envelope. The plan
// kind is written under its public name "simulate".
func NewJobEnvelope(req Request) (*JobEnvelope, error) {
	t := req.Kind()
	if t == "plan" {
		t = "simulate"
	}
	if _, ok := jobTypes(t); !ok {
		return nil, fmt.Errorf("api: job envelope: unsupported request kind %q", req.Kind())
	}
	payload, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("api: job envelope: encode %s request: %w", t, err)
	}
	return &JobEnvelope{Type: t, Request: payload}, nil
}

// DecodeJobRequest decodes a typed JobEnvelope submit body strictly,
// rejecting unknown fields in the envelope and in the payload. It
// returns the request un-normalized and un-validated; callers apply
// Normalize/Validate exactly as for the synchronous endpoints.
func DecodeJobRequest(body []byte) (Request, error) {
	var env JobEnvelope
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&env); err != nil {
		return nil, fmt.Errorf(`api: decode job envelope {"type": ..., "request": {...}}: %w`, err)
	}
	return env.Decode()
}

// Route is one synchronous endpoint of the HTTP surface: the path it
// is served under and a constructor of the request it decodes.
type Route struct {
	Path string
	New  func() Request
}

// SyncRoutes lists the synchronous POST endpoints. Both HTTP tiers —
// the backend (internal/httpapi) and the router — register exactly
// these, so a new kind is added in one place.
var SyncRoutes = []Route{
	{"/v1/plan", func() Request { return &PlanRequest{} }},
	{"/v1/cosim", func() Request { return &CosimRequest{} }},
	{"/v1/sweep", func() Request { return &SweepRequest{} }},
	{"/v1/montecarlo", func() Request { return &MonteCarloRequest{} }},
	{"/v1/audit", func() Request { return &AuditRequest{} }},
}
