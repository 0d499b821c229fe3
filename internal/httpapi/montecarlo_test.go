package httpapi

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"waterimm/internal/api"
	"waterimm/internal/mc"
	"waterimm/internal/service"
)

func mcRequest() *api.MonteCarloRequest {
	return &api.MonteCarloRequest{
		Chip: "lp", Chips: 1, Coolant: "water", GridNX: 8, GridNY: 8,
		Samples: 8, Seed: 5,
		Params: map[string]mc.Dist{
			"ambient_c": {Kind: "normal", Mean: 30, Sigma: 2},
		},
	}
}

func TestSyncMonteCarloEndToEnd(t *testing.T) {
	ts, _ := newTestServer(t, service.Config{})
	c := newTestClient(t, ts)
	resp, err := c.MonteCarlo(context.Background(), mcRequest())
	if err != nil {
		t.Fatal(err)
	}
	if resp.Samples != 8 || resp.TotalCells != 24 {
		t.Fatalf("response shape: %+v", resp)
	}
	if resp.EvalPeakC.P50 <= 25 || resp.EvalPeakC.P5 > resp.EvalPeakC.P95 {
		t.Fatalf("eval peak summary: %+v", resp.EvalPeakC)
	}
	if resp.ExceedProb < 0 || resp.ExceedProb > 1 {
		t.Fatalf("exceedance: %g", resp.ExceedProb)
	}
	if len(resp.Sobol) != 1 || resp.Sobol[0].Param != "ambient_c" {
		t.Fatalf("sobol: %+v", resp.Sobol)
	}
}

// The async path: a montecarlo job submitted through the typed job
// envelope reports per-cell progress and delivers the reduced
// statistics as its result payload.
func TestJobsEnvelopeMonteCarloAsync(t *testing.T) {
	ts, _ := newTestServer(t, service.Config{})
	c := newTestClient(t, ts)
	ctx := context.Background()

	in, err := c.SubmitJob(ctx, mcRequest())
	if err != nil {
		t.Fatal(err)
	}
	if in.Kind != "montecarlo" {
		t.Fatalf("kind %q", in.Kind)
	}
	if in.Progress == nil || in.Progress.TotalCells != 24 {
		t.Fatalf("submit snapshot progress: %+v", in.Progress)
	}
	ctxWait, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	got, err := c.WaitJob(ctxWait, in.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != "done" {
		t.Fatalf("job ended %s: %s", got.State, got.Error)
	}
	if got.Progress == nil || got.Progress.DoneCells != 24 {
		t.Fatalf("final progress: %+v", got.Progress)
	}
	var resp api.MonteCarloResponse
	if err := json.Unmarshal(got.Result, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.TotalCells != 24 || len(resp.Sobol) != 1 {
		t.Fatalf("result payload: %s", got.Result)
	}
}

// A keyed body ({"plan": {...}}) is rejected on POST /v1/jobs with a
// bad_request that names the typed envelope.
func TestJobsRejectsKeyedUnion(t *testing.T) {
	ts, _ := newTestServer(t, service.Config{})
	resp, body := post(t, ts.URL+"/v1/jobs", `{"plan": {"chip": "lp", "chips": 1, "grid_nx": 8, "grid_ny": 8}}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("keyed union accepted: %d %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "bad_request") || !strings.Contains(string(body), `\"type\"`) {
		t.Fatalf("error envelope does not name the typed envelope: %s", body)
	}
}

func TestJobsRejectsUnknownType(t *testing.T) {
	ts, _ := newTestServer(t, service.Config{})
	resp, body := post(t, ts.URL+"/v1/jobs", `{"type": "frobnicate", "request": {}}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown type accepted: %d %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "bad_request") || !strings.Contains(string(body), "unknown type") {
		t.Fatalf("error envelope: %s", body)
	}
}
