package api

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// JobKind is one request kind of the API. Every per-kind fact the
// serving tiers need is declared here once: the envelope decoder, the
// cache-key prefix, both tiers' synchronous routes, the engine's
// disk-cache decoder and the Go client all read Kinds.
type JobKind struct {
	// Name is the kind's Request.Kind(): the cache-key prefix and the
	// "kind" of job snapshots and cache entries.
	Name string
	// Type is the job-envelope discriminator. The plan kind travels
	// as "simulate"; an envelope naming a kind by Name is accepted too.
	Type string
	// Path is the synchronous POST endpoint, "" for a kind served only
	// as a job.
	Path string
	// KeyGeneration is the schema generation hashed into the kind's
	// cache-key prefix. It is bumped only when that kind's canonical
	// encoding actually changes, so the other kinds keep their
	// generation — and their deployed cache entries — across a
	// SchemaVersion bump.
	KeyGeneration int
	// NewRequest and NewResponse return the kind's zero request and
	// response.
	NewRequest  func() Request
	NewResponse func() any
}

// Kinds lists every request kind.
var Kinds = []JobKind{
	{"plan", "simulate", "/v1/plan", 2,
		func() Request { return &PlanRequest{} }, func() any { return &PlanResponse{} }},
	{"cosim", "cosim", "/v1/cosim", 2,
		func() Request { return &CosimRequest{} }, func() any { return &CosimResponse{} }},
	{"sweep", "sweep", "/v1/sweep", 2,
		func() Request { return &SweepRequest{} }, func() any { return &SweepResponse{} }},
	{"montecarlo", "montecarlo", "/v1/montecarlo", 3,
		func() Request { return &MonteCarloRequest{} }, func() any { return &MonteCarloResponse{} }},
	{"audit", "audit", "/v1/audit", 6,
		func() Request { return &AuditRequest{} }, func() any { return &AuditResponse{} }},
	{"cosimstream", "cosimstream", "", 5,
		func() Request { return &CosimStreamRequest{} }, func() any { return &CosimStreamResponse{} }},
}

// KindByName returns the entry of Kinds whose Name is name.
func KindByName(name string) (JobKind, bool) {
	for _, k := range Kinds {
		if k.Name == name {
			return k, true
		}
	}
	return JobKind{}, false
}

// JobTypeNames lists the accepted type discriminators, for error
// messages and docs.
func JobTypeNames() []string {
	names := make([]string, len(Kinds))
	for i, k := range Kinds {
		names[i] = k.Type
	}
	return names
}

// JobEnvelope is the canonical submit body of POST /v1/jobs: a type
// discriminator plus the request payload for that type.
//
//	{"type": "montecarlo", "request": {"chips": 4, ...}}
//
// The accepted types are JobTypeNames; "plan" is an alias of
// "simulate".
type JobEnvelope struct {
	Type    string          `json:"type"`
	Request json.RawMessage `json:"request"`
}

// Decode unwraps the typed envelope into its request, rejecting
// unknown types, a missing payload, and unknown payload fields.
func (e *JobEnvelope) Decode() (Request, error) {
	var req Request
	for _, k := range Kinds {
		if e.Type == k.Type || e.Type == k.Name {
			req = k.NewRequest()
			break
		}
	}
	if req == nil {
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

// NewJobEnvelope wraps a request in the typed envelope under its
// kind's Type.
func NewJobEnvelope(req Request) (*JobEnvelope, error) {
	k, ok := KindByName(req.Kind())
	if !ok {
		return nil, fmt.Errorf("api: job envelope: unsupported request kind %q", req.Kind())
	}
	payload, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("api: job envelope: encode %s request: %w", k.Type, err)
	}
	return &JobEnvelope{Type: k.Type, Request: payload}, nil
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
