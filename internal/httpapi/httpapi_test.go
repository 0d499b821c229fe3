package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"waterimm/internal/api"
	"waterimm/internal/rcache"
	"waterimm/internal/service"
	"waterimm/pkg/client"
)

func newTestServer(t *testing.T, cfg service.Config) (*httptest.Server, *service.Engine) {
	t.Helper()
	e := service.New(cfg)
	ts := httptest.NewServer(NewHandler(e, Options{SyncTimeout: time.Minute, Pprof: false}))
	t.Cleanup(func() {
		ts.Close()
		e.Close()
	})
	return ts, e
}

func newTestClient(t *testing.T, ts *httptest.Server) *client.Client {
	t.Helper()
	c, err := client.New(ts.URL, ts.Client())
	if err != nil {
		t.Fatal(err)
	}
	c.PollInterval = 5 * time.Millisecond
	c.RetryBackoff = 5 * time.Millisecond
	return c
}

var fastPlan = &api.PlanRequest{Chip: "lp", Chips: 1, GridNX: 8, GridNY: 8}

const fastPlanBody = `{"chip": "lp", "chips": 1, "grid_nx": 8, "grid_ny": 8}`

// slowPlan must outlive the test's cancel round-trips.
var slowPlan = &api.PlanRequest{
	Chip: "lp", Chips: 16, GridNX: 64, GridNY: 64, ConvergeLeakage: true,
}

func post(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func TestHealthz(t *testing.T) {
	ts, _ := newTestServer(t, service.Config{})
	resp, body := get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Fatalf("healthz: %d %s", resp.StatusCode, body)
	}
}

func TestSyncPlanEndToEnd(t *testing.T) {
	ts, _ := newTestServer(t, service.Config{})
	c := newTestClient(t, ts)
	plan, err := c.Plan(context.Background(), fastPlan)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Feasible || plan.FrequencyGHz <= 0 || plan.PeakC > 80 {
		t.Fatalf("implausible plan: %+v", plan)
	}
}

func TestSyncCosimEndToEnd(t *testing.T) {
	ts, _ := newTestServer(t, service.Config{})
	c := newTestClient(t, ts)
	cs, err := c.Cosim(context.Background(), &api.CosimRequest{
		Benchmark: "ep", Chips: 1, GridNX: 8, GridNY: 8, Scale: 0.1, MaxSamples: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if cs.Seconds <= 0 || cs.Intervals == 0 || len(cs.Series) > 8 {
		t.Fatalf("implausible cosim: %+v", cs)
	}
}

// TestSyncSweepEndToEnd is the acceptance path of the batch API: one
// request expands to the cartesian product, every cell carries the
// same payload a standalone /v1/plan request would, and the cells
// come back in canonical order.
func TestSyncSweepEndToEnd(t *testing.T) {
	ts, _ := newTestServer(t, service.Config{})
	c := newTestClient(t, ts)
	sweep, err := c.Sweep(context.Background(), &api.SweepRequest{
		Chips:    []string{"lp"},
		Depths:   []int{1, 2},
		Coolants: []string{"air", "water"},
		GridNX:   8, GridNY: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sweep.TotalCells != 4 || len(sweep.Cells) != 4 {
		t.Fatalf("want 4 cells, got total %d, len %d", sweep.TotalCells, len(sweep.Cells))
	}
	for i, cell := range sweep.Cells {
		if cell.Plan == nil || cell.Key == "" {
			t.Fatalf("cell %d incomplete: %+v", i, cell)
		}
	}
	// Canonical order: depths major over coolants, coolants sorted.
	if sweep.Cells[0].Chips != 1 || sweep.Cells[0].Coolant != "air" ||
		sweep.Cells[1].Coolant != "water" || sweep.Cells[2].Chips != 2 {
		t.Fatalf("cells out of canonical order: %+v", sweep.Cells)
	}
	// Water cools better than air: at equal depth the water cell must
	// admit at least the air cell's frequency.
	if sweep.Cells[1].Plan.FrequencyGHz < sweep.Cells[0].Plan.FrequencyGHz {
		t.Fatalf("water slower than air: %+v vs %+v", sweep.Cells[1].Plan, sweep.Cells[0].Plan)
	}

	// A sweep cell and a standalone plan request share cache identity.
	plan, err := c.Plan(context.Background(), &api.PlanRequest{
		Chip: "lp", Chips: 1, Coolant: "water", GridNX: 8, GridNY: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(sweep.Cells[1].Plan)
	got, _ := json.Marshal(plan)
	if !bytes.Equal(got, want) {
		t.Fatalf("standalone plan diverges from sweep cell: %s vs %s", got, want)
	}
	m, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var hits uint64
	if err := json.Unmarshal(m["cache_hits"], &hits); err != nil {
		t.Fatal(err)
	}
	if hits == 0 {
		t.Fatal("standalone plan after sweep was not a cache hit")
	}
}

// TestRepeatRequestCached is the acceptance path: an identical repeat
// request must come back from the cache, observable in the metrics.
func TestRepeatRequestCached(t *testing.T) {
	ts, _ := newTestServer(t, service.Config{})
	resp1, body1 := post(t, ts.URL+"/v1/plan", fastPlanBody)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first: %d %s", resp1.StatusCode, body1)
	}
	resp2, body2 := post(t, ts.URL+"/v1/plan", fastPlanBody)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second: %d %s", resp2.StatusCode, body2)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatalf("cached result differs:\n%s\n%s", body1, body2)
	}
	_, mbody := get(t, ts.URL+"/v1/metrics")
	var m service.Snapshot
	if err := json.Unmarshal(mbody, &m); err != nil {
		t.Fatal(err)
	}
	if m.CacheHits != 1 || m.JobsDone != 1 {
		t.Fatalf("metrics after repeat: hits %d, done %d (want 1, 1)", m.CacheHits, m.JobsDone)
	}
	if m.CacheHitRate != 0.5 {
		t.Fatalf("hit rate %g, want 0.5", m.CacheHitRate)
	}
}

// TestDiskCacheAcrossRestart exercises the daemon-level persistence
// contract end to end: a second handler stack booted over the first
// one's cache directory serves a previously computed plan without
// running a job, and the hit shows up in /v1/metrics under the disk
// tier.
func TestDiskCacheAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	newerBody := `{"chip": "lp", "chips": 2, "grid_nx": 8, "grid_ny": 8}`
	newer := &api.PlanRequest{Chip: "lp", Chips: 2, GridNX: 8, GridNY: 8}

	store1, err := rcache.Open(dir, 64<<20, api.CacheGeneration)
	if err != nil {
		t.Fatal(err)
	}
	e1 := service.New(service.Config{DiskCache: store1})
	ts1 := httptest.NewServer(NewHandler(e1, Options{SyncTimeout: time.Minute, Pprof: false}))
	for _, body := range []string{fastPlanBody, newerBody} {
		if resp, b := post(t, ts1.URL+"/v1/plan", body); resp.StatusCode != http.StatusOK {
			t.Fatalf("phase-1 plan: %d %s", resp.StatusCode, b)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := e1.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	ts1.Close()
	e1.Close()

	// Pin the second plan as newest so the one-entry warm boot below
	// deterministically leaves fastPlan to the lazy disk path.
	future := time.Now().Add(time.Minute)
	if err := os.Chtimes(filepath.Join(dir, newer.CacheKey()+".json"), future, future); err != nil {
		t.Fatal(err)
	}

	store2, err := rcache.Open(dir, 64<<20, api.CacheGeneration)
	if err != nil {
		t.Fatal(err)
	}
	ts2, _ := newTestServer(t, service.Config{CacheEntries: 1, DiskCache: store2})
	if resp, b := post(t, ts2.URL+"/v1/plan", fastPlanBody); resp.StatusCode != http.StatusOK {
		t.Fatalf("plan after restart: %d %s", resp.StatusCode, b)
	}

	_, mbody := get(t, ts2.URL+"/v1/metrics")
	var m service.Snapshot
	if err := json.Unmarshal(mbody, &m); err != nil {
		t.Fatal(err)
	}
	if m.CacheHitsDisk != 1 || m.JobsDone != 0 || m.CacheMisses != 0 {
		t.Fatalf("restart metrics: disk=%d done=%d miss=%d, want 1/0/0",
			m.CacheHitsDisk, m.JobsDone, m.CacheMisses)
	}
	if !m.DiskCacheEnabled || m.DiskCacheEntries != 2 {
		t.Fatalf("disk gauges after restart: %+v", m)
	}
}

func TestAsyncJobLifecycle(t *testing.T) {
	ts, _ := newTestServer(t, service.Config{})
	c := newTestClient(t, ts)
	ctx := context.Background()

	in, err := c.SubmitJob(ctx, fastPlan)
	if err != nil {
		t.Fatal(err)
	}
	if in.ID == "" || in.State != "queued" {
		t.Fatalf("submit snapshot: %+v", in)
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
	var plan api.PlanResponse
	if err := json.Unmarshal(got.Result, &plan); err != nil {
		t.Fatal(err)
	}
	if !plan.Feasible {
		t.Fatalf("result payload: %s", got.Result)
	}

	// A second identical async submit is a cache hit: terminal at once.
	hit, err := c.SubmitJob(ctx, fastPlan)
	if err != nil {
		t.Fatal(err)
	}
	if !hit.CacheHit || hit.State != "done" {
		t.Fatalf("cached submit snapshot: %+v", hit)
	}
}

// TestSweepJobProgress submits a sweep asynchronously and checks that
// the job snapshot reports per-cell progress while running and a
// complete count when done.
func TestSweepJobProgress(t *testing.T) {
	ts, _ := newTestServer(t, service.Config{})
	c := newTestClient(t, ts)
	ctx := context.Background()

	in, err := c.SubmitJob(ctx, &api.SweepRequest{
		Chips:    []string{"lp"},
		Depths:   []int{1, 2, 3},
		Coolants: []string{"water"},
		GridNX:   8, GridNY: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if in.Progress == nil || in.Progress.TotalCells != 3 {
		t.Fatalf("submit snapshot progress: %+v", in.Progress)
	}

	ctxWait, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	got, err := c.WaitJob(ctxWait, in.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != "done" {
		t.Fatalf("sweep ended %s: %s", got.State, got.Error)
	}
	if got.Progress == nil || got.Progress.DoneCells != 3 {
		t.Fatalf("final progress: %+v", got.Progress)
	}
	var sweep api.SweepResponse
	if err := json.Unmarshal(got.Result, &sweep); err != nil {
		t.Fatal(err)
	}
	if len(sweep.Cells) != 3 {
		t.Fatalf("sweep result: %+v", sweep)
	}
}

func TestResultWhilePending(t *testing.T) {
	ts, _ := newTestServer(t, service.Config{Workers: 1})
	c := newTestClient(t, ts)
	ctx := context.Background()
	blocker, err := c.SubmitJob(ctx, slowPlan)
	if err != nil {
		t.Fatal(err)
	}
	pending, err := c.Result(ctx, blocker.ID)
	if err != nil {
		t.Fatalf("pending result: %v", err)
	}
	if pending.Terminal() || pending.Result != nil {
		t.Fatalf("pending snapshot: %+v", pending)
	}
	if _, err := c.Cancel(ctx, blocker.ID); err != nil {
		t.Fatal(err)
	}
}

// TestCancelStopsSolver is the acceptance path: cancelling a running
// job must stop the underlying solver promptly via its context.
func TestCancelStopsSolver(t *testing.T) {
	ts, e := newTestServer(t, service.Config{})
	c := newTestClient(t, ts)
	ctx := context.Background()
	in, err := c.SubmitJob(ctx, slowPlan)
	if err != nil {
		t.Fatal(err)
	}

	// Wait until it is actually running so the cancel exercises the
	// solver's context poll, not the queued fast path.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := e.Status(in.ID)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == service.StateRunning {
			break
		}
		if st.State.Terminal() {
			t.Fatalf("slow job already %s; make it slower", st.State)
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(time.Millisecond)
	}

	start := time.Now()
	if _, err := c.Cancel(ctx, in.ID); err != nil {
		t.Fatalf("cancel: %v", err)
	}

	waitCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	got, err := e.Wait(waitCtx, in.ID)
	if err != nil {
		t.Fatalf("solver did not stop after cancel: %v", err)
	}
	if got.State != service.StateCanceled {
		t.Fatalf("state %s after cancel", got.State)
	}
	// The bound must sit far below an uncancelled slowPlan solve yet
	// tolerate scheduler noise when the whole suite runs in parallel.
	if took := time.Since(start); took > 4*time.Second {
		t.Fatalf("cancel took %v", took)
	}
}

// TestErrorEnvelope pins the wire shape of failures: every error
// response is {"error": {"code", "message"}} with a stable code.
func TestErrorEnvelope(t *testing.T) {
	ts, _ := newTestServer(t, service.Config{})
	cases := []struct {
		url, body string
		status    int
		code      string
	}{
		{"/v1/plan", `{not json`, http.StatusBadRequest, "bad_request"},
		{"/v1/plan", `{"unknown_field": 1}`, http.StatusBadRequest, "bad_request"},
		{"/v1/plan", `{"coolant": "lava"}`, http.StatusBadRequest, "invalid_argument"},
		{"/v1/plan", `{"chips": 32, "grid_nx": 256, "grid_ny": 256}`, http.StatusBadRequest, "invalid_argument"},
		{"/v1/sweep", `{"depths": [0]}`, http.StatusBadRequest, "invalid_argument"},
		{"/v1/jobs", `{}`, http.StatusBadRequest, "bad_request"},
		{"/v1/jobs", `{"plan": {}, "cosim": {}}`, http.StatusBadRequest, "bad_request"},
		{"/v1/cosim", `{"ghz": 3.21}`, http.StatusBadRequest, "invalid_argument"},
	}
	for _, tc := range cases {
		resp, body := post(t, ts.URL+tc.url, tc.body)
		var e ErrorBody
		if err := json.Unmarshal(body, &e); err != nil {
			t.Errorf("POST %s %s: body %s is not an error envelope: %v", tc.url, tc.body, body, err)
			continue
		}
		if resp.StatusCode != tc.status || e.Error.Code != tc.code || e.Error.Message == "" {
			t.Errorf("POST %s %s: %d %q (want %d %q): %s",
				tc.url, tc.body, resp.StatusCode, e.Error.Code, tc.status, tc.code, body)
		}
	}
	for _, url := range []string{"/v1/jobs/nope", "/v1/jobs/nope/result"} {
		resp, body := get(t, ts.URL+url)
		var e ErrorBody
		if err := json.Unmarshal(body, &e); err != nil {
			t.Errorf("GET %s: body %s is not an error envelope: %v", url, body, err)
			continue
		}
		if resp.StatusCode != http.StatusNotFound || e.Error.Code != "not_found" {
			t.Errorf("GET %s: %d %q, want 404 not_found", url, resp.StatusCode, e.Error.Code)
		}
	}

	// The typed client surfaces the same code.
	c := newTestClient(t, ts)
	_, err := c.Plan(context.Background(), &api.PlanRequest{Coolant: "lava"})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Code != "invalid_argument" {
		t.Fatalf("client error: %v", err)
	}
}

func TestExpvarExposed(t *testing.T) {
	ts, _ := newTestServer(t, service.Config{})
	resp, body := get(t, ts.URL+"/debug/vars")
	if resp.StatusCode != http.StatusOK || !json.Valid(body) {
		t.Fatalf("expvar: %d %.80s", resp.StatusCode, body)
	}
}

// TestPprofGating checks the profiling endpoints are served only when
// the -pprof flag enables them.
func TestPprofGating(t *testing.T) {
	off, _ := newTestServer(t, service.Config{})
	resp, _ := get(t, off.URL+"/debug/pprof/")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof served while disabled: %d", resp.StatusCode)
	}
	e := service.New(service.Config{})
	on := httptest.NewServer(NewHandler(e, Options{SyncTimeout: time.Minute, Pprof: true}))
	t.Cleanup(func() {
		on.Close()
		e.Close()
	})
	resp, body := get(t, on.URL+"/debug/pprof/")
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte("pprof")) {
		t.Fatalf("pprof index with -pprof: %d %.80s", resp.StatusCode, body)
	}
}

// TestMetricsReportSolverStats checks that /v1/metrics surfaces the
// per-preconditioner CG iteration aggregates after a plan ran.
func TestMetricsReportSolverStats(t *testing.T) {
	ts, _ := newTestServer(t, service.Config{})
	if resp, body := post(t, ts.URL+"/v1/plan", fastPlanBody); resp.StatusCode != http.StatusOK {
		t.Fatalf("plan: %d %.120s", resp.StatusCode, body)
	}
	resp, body := get(t, ts.URL+"/v1/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	var m struct {
		Solver map[string]struct {
			Solves        uint64 `json:"solves"`
			Iterations    uint64 `json:"iterations"`
			MaxIterations int    `json:"max_iterations"`
		} `json:"solver"`
	}
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	// An 8×8 grid sits far below the auto-multigrid threshold, so the
	// solves must have been recorded under the Jacobi kind.
	s, ok := m.Solver["jacobi"]
	if !ok || s.Solves == 0 || s.Iterations == 0 || s.MaxIterations == 0 {
		t.Fatalf("solver stats missing or empty: %+v (body %.200s)", m.Solver, body)
	}
}

// TestGracefulShutdownDrains mirrors the SIGTERM path main() wires:
// stop the HTTP listener, then drain the engine with jobs in flight —
// every accepted job must still finish.
func TestGracefulShutdownDrains(t *testing.T) {
	e := service.New(service.Config{Workers: 2})
	ts := httptest.NewServer(NewHandler(e, Options{SyncTimeout: time.Minute, Pprof: false}))
	c, err := client.New(ts.URL, ts.Client())
	if err != nil {
		t.Fatal(err)
	}

	ids := make([]string, 0, 4)
	for n := 1; n <= 4; n++ {
		in, err := c.SubmitJob(context.Background(), &api.PlanRequest{
			Chip: "lp", Chips: n, GridNX: 8, GridNY: 8,
		})
		if err != nil {
			t.Fatalf("submit %d: %v", n, err)
		}
		ids = append(ids, in.ID)
	}

	// The shutdown sequence of main(): close the listener, then
	// drain queued and running jobs.
	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := e.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, id := range ids {
		got, err := e.Result(id)
		if err != nil {
			t.Fatalf("job %s after drain: %v", id, err)
		}
		if got.State != service.StateDone {
			t.Fatalf("job %s drained in state %s (%s)", id, got.State, got.Error)
		}
	}
}

// TestHealthzDraining pins the drain handshake the router depends on:
// once the engine begins draining, /healthz must answer 503 with a
// "draining" status body so the edge tier stops routing new work here.
func TestHealthzDraining(t *testing.T) {
	ts, e := newTestServer(t, service.Config{})
	e.BeginDrain()
	resp, body := get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz status = %d, want 503", resp.StatusCode)
	}
	var hz struct {
		Status string `json:"status"`
	}
	if err := json.Unmarshal(body, &hz); err != nil || hz.Status != "draining" {
		t.Fatalf("draining healthz body = %s", body)
	}
}

// TestRequestIDThreading covers the correlation-ID contract: a caller-
// supplied X-Request-Id is echoed on the response and folded into the
// error envelope; without one the server mints an ID itself.
func TestRequestIDThreading(t *testing.T) {
	ts, _ := newTestServer(t, service.Config{})

	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/plan", strings.NewReader(`{"bogus": 1}`))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(RequestIDHeader, "router-supplied-id")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get(RequestIDHeader); got != "router-supplied-id" {
		t.Fatalf("adopted request ID = %q, want the caller's", got)
	}
	var env ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.Error.RequestID != "router-supplied-id" {
		t.Fatalf("error envelope request_id = %q, want the caller's", env.Error.RequestID)
	}

	resp2, _ := get(t, ts.URL+"/healthz")
	if minted := resp2.Header.Get(RequestIDHeader); len(minted) != 16 {
		t.Fatalf("minted request ID = %q, want 16 hex chars", minted)
	}
}

// TestClientSurfacesRequestID checks the last hop of the correlation
// chain: pkg/client exposes the server's request ID on APIError so a
// failure report can quote it.
func TestClientSurfacesRequestID(t *testing.T) {
	ts, _ := newTestServer(t, service.Config{})
	c := newTestClient(t, ts)
	_, err := c.Job(context.Background(), "no-such-job")
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("want *client.APIError, got %v", err)
	}
	if apiErr.Code != ErrCodeNotFound || len(apiErr.RequestID) != 16 {
		t.Fatalf("APIError = %+v, want not_found with a 16-char request ID", apiErr)
	}
	if !strings.Contains(apiErr.Error(), apiErr.RequestID) {
		t.Fatalf("APIError.Error() %q does not quote the request ID", apiErr.Error())
	}
}
