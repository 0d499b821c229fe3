package client

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"waterimm/internal/api"
)

func newClient(t *testing.T, ts *httptest.Server) *Client {
	t.Helper()
	c, err := New(ts.URL, ts.Client())
	if err != nil {
		t.Fatal(err)
	}
	c.PollInterval = time.Millisecond
	c.RetryBackoff = time.Millisecond
	return c
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func TestNewRejectsBadURL(t *testing.T) {
	for _, u := range []string{"", "not a url", "/just/a/path"} {
		if _, err := New(u, nil); err == nil {
			t.Errorf("New(%q) accepted", u)
		}
	}
}

// TestRetryOn503 exercises the transient-capacity path: the server
// answers queue_full twice, then accepts; the client must absorb the
// 503s and surface only the final success.
func TestRetryOn503(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			writeJSON(w, http.StatusServiceUnavailable, map[string]any{
				"error": map[string]string{"code": "queue_full", "message": "queue at capacity"},
			})
			return
		}
		writeJSON(w, http.StatusOK, api.PlanResponse{Feasible: true, FrequencyGHz: 2})
	}))
	defer ts.Close()

	c := newClient(t, ts)
	plan, err := c.Plan(context.Background(), &api.PlanRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Feasible || plan.FrequencyGHz != 2 {
		t.Fatalf("plan after retries: %+v", plan)
	}
	if n := calls.Load(); n != 3 {
		t.Fatalf("server saw %d calls, want 3", n)
	}
}

// TestRetryExhaustion pins the give-up behaviour: a server that never
// recovers yields an *APIError with the envelope's code.
func TestRetryExhaustion(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"error": map[string]string{"code": "queue_full", "message": "still full"},
		})
	}))
	defer ts.Close()

	c := newClient(t, ts)
	c.MaxRetries = 2
	_, err := c.Plan(context.Background(), &api.PlanRequest{})
	apiErr, ok := err.(*APIError)
	if !ok {
		t.Fatalf("want *APIError, got %v", err)
	}
	if apiErr.Code != "queue_full" || apiErr.StatusCode != 503 || !apiErr.Transient() {
		t.Fatalf("error: %+v", apiErr)
	}
}

// TestSyncFallsBackToPolling covers the 202 path: the sync endpoint
// hands back a job snapshot, and the client finishes the request via
// the async API.
func TestSyncFallsBackToPolling(t *testing.T) {
	var polls atomic.Int32
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/plan", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusAccepted, Job{ID: "j1", State: "running"})
	})
	mux.HandleFunc("GET /v1/jobs/j1", func(w http.ResponseWriter, r *http.Request) {
		state := "running"
		if polls.Add(1) >= 3 {
			state = "done"
		}
		writeJSON(w, http.StatusOK, Job{ID: "j1", State: state})
	})
	mux.HandleFunc("GET /v1/jobs/j1/result", func(w http.ResponseWriter, r *http.Request) {
		raw, _ := json.Marshal(api.PlanResponse{Feasible: true, PeakC: 70})
		writeJSON(w, http.StatusOK, Job{ID: "j1", State: "done", Result: raw})
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	c := newClient(t, ts)
	plan, err := c.Plan(context.Background(), &api.PlanRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Feasible || plan.PeakC != 70 {
		t.Fatalf("plan via 202 path: %+v", plan)
	}
	if polls.Load() < 3 {
		t.Fatalf("client polled %d times, want >= 3", polls.Load())
	}
}

// TestSyncSurfacesFailedJob: a job that ends failed on the 202 path
// must become a client error, not a zero-value response.
func TestSyncSurfacesFailedJob(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/plan", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusAccepted, Job{ID: "j1", State: "running"})
	})
	mux.HandleFunc("GET /v1/jobs/j1", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, Job{ID: "j1", State: "failed", Error: "solver diverged"})
	})
	mux.HandleFunc("GET /v1/jobs/j1/result", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, Job{ID: "j1", State: "failed", Error: "solver diverged"})
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	c := newClient(t, ts)
	if _, err := c.Plan(context.Background(), &api.PlanRequest{}); err == nil {
		t.Fatal("failed job did not surface as an error")
	}
}

// TestAPIErrorDegradesGracefully: a non-envelope body (proxy error
// page) still yields a usable APIError.
func TestAPIErrorDegradesGracefully(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "<html>bad gateway</html>", http.StatusBadGateway)
	}))
	defer ts.Close()

	c := newClient(t, ts)
	_, err := c.Job(context.Background(), "x")
	apiErr, ok := err.(*APIError)
	if !ok || apiErr.StatusCode != http.StatusBadGateway || apiErr.Code != "unknown" {
		t.Fatalf("error: %v", err)
	}
}

// SubmitJob (and the deprecated Submit delegating to it) wraps every
// request kind in the typed job envelope, with the plan kind traveling
// under its public "simulate" name.
func TestEnvelopeWrapping(t *testing.T) {
	var gotBody struct {
		Type    string          `json:"type"`
		Request json.RawMessage `json:"request"`
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewDecoder(r.Body).Decode(&gotBody)
		writeJSON(w, http.StatusAccepted, Job{ID: "j1", State: "queued"})
	}))
	defer ts.Close()

	c := newClient(t, ts)
	for _, tc := range []struct {
		req  api.Request
		want string
	}{
		{&api.PlanRequest{}, "simulate"},
		{&api.CosimRequest{}, "cosim"},
		{&api.SweepRequest{}, "sweep"},
		{&api.MonteCarloRequest{}, "montecarlo"},
	} {
		gotBody.Type, gotBody.Request = "", nil
		if _, err := c.SubmitJob(context.Background(), tc.req); err != nil {
			t.Fatal(err)
		}
		if gotBody.Type != tc.want || len(gotBody.Request) == 0 {
			t.Fatalf("submit %s wrapped as type %q, request %q", tc.want, gotBody.Type, gotBody.Request)
		}
	}
}

// TestAudit pins the audit endpoint's path and decode: the typed
// request lands on POST /v1/audit and the row payload round-trips.
func TestAudit(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || r.URL.Path != "/v1/audit" {
			t.Errorf("request hit %s %s", r.Method, r.URL.Path)
		}
		var req api.AuditRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Error(err)
		}
		if len(req.Chips) != 1 || req.Chips[0] != "lp" {
			t.Errorf("request body chips: %v", req.Chips)
		}
		writeJSON(w, http.StatusOK, api.AuditResponse{
			StartYear: 2026, EndYear: 2028, TotalCells: 3,
			Rows: []api.AuditRow{{Chip: "low-power", Coolant: "fluorinert", FirstCHFFailYear: 2026, FirstFailYear: 2026}},
		})
	}))
	defer ts.Close()

	c := newClient(t, ts)
	resp, err := c.Audit(context.Background(), &api.AuditRequest{Chips: []string{"lp"}, Coolants: []string{"fluorinert"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Rows) != 1 || resp.Rows[0].FirstCHFFailYear != 2026 {
		t.Fatalf("audit response: %+v", resp)
	}
}
