package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"waterimm/internal/api"
	"waterimm/internal/httpapi"
	"waterimm/internal/rcache"
	"waterimm/internal/service"
	"waterimm/pkg/client"
)

// fleet is N real watersrvd backends (engine + HTTP surface) plus a
// router over them — the real stack minus the network.
type fleet struct {
	engines []*service.Engine
	servers []*httptest.Server
	router  *Router
	edge    *httptest.Server // the router's own listener
}

func newFleet(t *testing.T, n int, edgeCache *rcache.Store) *fleet {
	t.Helper()
	f := &fleet{}
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		e := service.New(service.Config{})
		ts := httptest.NewServer(httpapi.NewHandler(e, httpapi.Options{SyncTimeout: time.Minute}))
		f.engines = append(f.engines, e)
		f.servers = append(f.servers, ts)
		urls[i] = ts.URL
	}
	rt, err := New(Config{Backends: urls, EdgeCache: edgeCache, FailThreshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	f.router = rt
	f.edge = httptest.NewServer(rt.Handler())
	t.Cleanup(func() {
		f.edge.Close()
		for i, ts := range f.servers {
			ts.Close()
			f.engines[i].Close()
		}
	})
	return f
}

func (f *fleet) client(t *testing.T) *client.Client {
	t.Helper()
	c, err := client.New(f.edge.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.PollInterval = 5 * time.Millisecond
	c.RetryBackoff = 5 * time.Millisecond
	return c
}

// jobsDone sums computes across the fleet — cache and dedup hits do
// not count, so this is the ground truth for "how many times was this
// actually simulated".
func (f *fleet) jobsDone() uint64 {
	var total uint64
	for _, e := range f.engines {
		total += e.Metrics().JobsDone
	}
	return total
}

func (f *fleet) jobsSubmitted(i int) uint64 { return f.engines[i].Metrics().JobsSubmitted }

func planBody(nx int) string {
	return fmt.Sprintf(`{"chip": "lp", "chips": 1, "grid_nx": %d, "grid_ny": 8}`, nx)
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
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

// TestRouterDedupConcurrentIdentical is the tentpole acceptance test:
// identical concurrent requests from many clients must land on ONE
// backend (sharding by canonical key) and collapse into ONE compute
// fleet-wide (that backend's in-flight dedup).
func TestRouterDedupConcurrentIdentical(t *testing.T) {
	f := newFleet(t, 3, nil)
	const clients = 8
	backendSeen := make([]string, clients)
	bodies := make([][]byte, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(f.edge.URL+"/v1/plan", "application/json", strings.NewReader(planBody(8)))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var buf bytes.Buffer
			buf.ReadFrom(resp.Body)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("client %d: status %d: %s", i, resp.StatusCode, buf.Bytes())
				return
			}
			backendSeen[i] = resp.Header.Get("X-Backend")
			bodies[i] = buf.Bytes()
		}(i)
	}
	wg.Wait()
	for i := 1; i < clients; i++ {
		if backendSeen[i] != backendSeen[0] {
			t.Fatalf("identical requests scattered across backends: %v", backendSeen)
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("divergent responses for identical requests")
		}
	}
	if got := f.jobsDone(); got != 1 {
		t.Fatalf("fleet computed the identical request %d times, want exactly 1", got)
	}
}

// TestRouterShardsDistinctKeys sanity-checks the other half of
// sharding: distinct requests spread over multiple backends rather
// than piling onto one.
func TestRouterShardsDistinctKeys(t *testing.T) {
	f := newFleet(t, 3, nil)
	used := map[string]bool{}
	for nx := 8; nx < 24; nx++ {
		resp, body := postJSON(t, f.edge.URL+"/v1/plan", planBody(nx))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("nx=%d: status %d: %s", nx, resp.StatusCode, body)
		}
		used[resp.Header.Get("X-Backend")] = true
	}
	if len(used) < 2 {
		t.Fatalf("16 distinct keys all landed on %v — sharding is not spreading", used)
	}
}

// TestRouterEdgeCachePersistsAcrossFleetWipe is the edge-tier
// acceptance test: a result computed once survives the loss of every
// backend AND the router process, because the router's rcache dir
// holds it. The rebuilt fleet serves the repeat with zero backend
// traffic.
func TestRouterEdgeCachePersistsAcrossFleetWipe(t *testing.T) {
	dir := t.TempDir()
	store, err := rcache.Open(dir, 0, api.CacheGeneration)
	if err != nil {
		t.Fatal(err)
	}
	f := newFleet(t, 2, store)
	resp, body := postJSON(t, f.edge.URL+"/v1/plan", planBody(8))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first request: %d %s", resp.StatusCode, body)
	}
	if f.jobsDone() != 1 {
		t.Fatalf("first request computed %d times", f.jobsDone())
	}
	f.edge.Close()
	for i, ts := range f.servers {
		ts.Close()
		f.engines[i].Close()
	}

	// Rebuild everything from scratch — new engines with empty caches,
	// new router — around the surviving edge-cache directory.
	store2, err := rcache.Open(dir, 0, api.CacheGeneration)
	if err != nil {
		t.Fatal(err)
	}
	f2 := newFleet(t, 2, store2)
	resp2, body2 := postJSON(t, f2.edge.URL+"/v1/plan", planBody(8))
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("repeat request: %d %s", resp2.StatusCode, body2)
	}
	if got := resp2.Header.Get("X-Cache"); got != "edge" {
		t.Fatalf("repeat request X-Cache = %q, want \"edge\"", got)
	}
	// The edge copy is stored compacted, so compare the decoded values
	// rather than the bytes.
	var first, second api.PlanResponse
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(body2, &second); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("edge-cached payload diverges from the original response:\n%+v\n%+v", first, second)
	}
	if got := f2.jobsDone(); got != 0 {
		t.Fatalf("fresh fleet computed %d jobs for an edge-cached key, want 0", got)
	}
	if f2.jobsSubmitted(0)+f2.jobsSubmitted(1) != 0 {
		t.Fatalf("edge-cached repeat still reached a backend")
	}
}

// TestRouterFailoverOnDeadBackend kills one of two backends outright:
// every request must still succeed (keys owned by the dead backend
// fail over down their ranking), and the router must mark the corpse
// dead after the first connection error.
func TestRouterFailoverOnDeadBackend(t *testing.T) {
	f := newFleet(t, 2, nil)
	f.servers[0].Close() // hard kill: connection refused from here on
	for nx := 8; nx < 16; nx++ {
		resp, body := postJSON(t, f.edge.URL+"/v1/plan", planBody(nx))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("nx=%d: status %d: %s", nx, resp.StatusCode, body)
		}
		if got := resp.Header.Get("X-Backend"); got != "b1" {
			t.Fatalf("nx=%d answered by %q, want the survivor b1", nx, got)
		}
	}
	if got := f.router.Backends()[0].Health(); got != Dead {
		t.Fatalf("killed backend health = %s, want dead", got)
	}
	if snap := f.router.Metrics(); snap.PassiveEjections == 0 {
		t.Fatalf("no passive ejection recorded: %+v", snap)
	}
}

// TestRouterSkipsDrainingBackend drives the drain protocol end to
// end: a backend that began draining flips its /healthz to 503
// "draining", one probe cycle later the router routes all new work to
// the survivor, and the drained backend receives zero submissions.
func TestRouterSkipsDrainingBackend(t *testing.T) {
	f := newFleet(t, 2, nil)
	f.engines[0].BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	f.router.ProbeOnce(ctx)
	if got := f.router.Backends()[0].Health(); got != Draining {
		t.Fatalf("draining backend health = %s, want draining", got)
	}
	for nx := 8; nx < 16; nx++ {
		resp, body := postJSON(t, f.edge.URL+"/v1/plan", planBody(nx))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("nx=%d: status %d: %s", nx, resp.StatusCode, body)
		}
		if got := resp.Header.Get("X-Backend"); got != "b1" {
			t.Fatalf("nx=%d routed to %q during b0's drain", nx, got)
		}
	}
	if got := f.jobsSubmitted(0); got != 0 {
		t.Fatalf("draining backend received %d new submissions, want 0", got)
	}
}

// TestRouterAsyncAffinity runs the async lifecycle through the
// router with the real pkg/client: the fleet job ID carries the
// owning backend's affinity prefix, and status/result/cancel calls
// find their way back through it.
func TestRouterAsyncAffinity(t *testing.T) {
	f := newFleet(t, 3, nil)
	c := f.client(t)
	ctx := context.Background()
	j, err := c.SubmitJob(ctx, &api.PlanRequest{Chip: "lp", Chips: 1, GridNX: 8, GridNY: 8})
	if err != nil {
		t.Fatal(err)
	}
	owner, _, ok := strings.Cut(j.ID, affinitySep)
	if !ok || f.router.byID[owner] == nil {
		t.Fatalf("job ID %q carries no backend affinity", j.ID)
	}
	final, err := c.WaitJob(ctx, j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != "done" || len(final.Result) == 0 {
		t.Fatalf("final snapshot: state=%s result=%d bytes", final.State, len(final.Result))
	}
	var plan api.PlanResponse
	if err := json.Unmarshal(final.Result, &plan); err != nil {
		t.Fatal(err)
	}
	if !plan.Feasible || plan.FrequencyGHz <= 0 {
		t.Fatalf("implausible plan via router: %+v", plan)
	}
}

// TestRouterEdgeServesAsyncSubmitAndHarvestsResults covers the edge
// tier on the async path: a result that streamed past on a result
// poll is harvested into the edge store, and the NEXT submit of the
// same request is answered as a synthetic already-done "edge!" job
// with zero backend traffic.
func TestRouterEdgeServesAsyncSubmitAndHarvestsResults(t *testing.T) {
	store, err := rcache.Open(t.TempDir(), 0, api.CacheGeneration)
	if err != nil {
		t.Fatal(err)
	}
	f := newFleet(t, 2, store)
	c := f.client(t)
	ctx := context.Background()
	req := &api.PlanRequest{Chip: "lp", Chips: 1, GridNX: 8, GridNY: 8}
	j, err := c.SubmitJob(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitJob(ctx, j.ID); err != nil {
		t.Fatal(err)
	}
	if snap := f.router.Metrics(); snap.EdgeCacheHarvests != 1 {
		t.Fatalf("result poll did not harvest into the edge store: %+v", snap)
	}
	submitted := f.jobsSubmitted(0) + f.jobsSubmitted(1)

	j2, err := c.SubmitJob(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(j2.ID, edgeBackendID+affinitySep) {
		t.Fatalf("repeat submit got job %q, want an edge-served job", j2.ID)
	}
	if j2.State != "done" || !j2.CacheHit {
		t.Fatalf("edge-served job not terminal: %+v", j2)
	}
	final, err := c.Result(ctx, j2.ID)
	if err != nil {
		t.Fatal(err)
	}
	var plan api.PlanResponse
	if err := json.Unmarshal(final.Result, &plan); err != nil {
		t.Fatal(err)
	}
	if !plan.Feasible {
		t.Fatalf("implausible edge-served plan: %+v", plan)
	}
	if got := f.jobsSubmitted(0) + f.jobsSubmitted(1); got != submitted {
		t.Fatalf("edge-served submit still reached a backend (%d → %d submissions)", submitted, got)
	}
}

// TestRouterMetricsAggregate checks the fleet-wide metrics view: the
// roll-up sums per-backend counters, and every backend appears with
// its health.
func TestRouterMetricsAggregate(t *testing.T) {
	f := newFleet(t, 2, nil)
	for nx := 8; nx < 12; nx++ {
		if resp, body := postJSON(t, f.edge.URL+"/v1/plan", planBody(nx)); resp.StatusCode != http.StatusOK {
			t.Fatalf("nx=%d: %d %s", nx, resp.StatusCode, body)
		}
	}
	resp, body := postJSON(t, f.edge.URL+"/v1/plan", planBody(8)) // repeat: a cache hit somewhere
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat: %d %s", resp.StatusCode, body)
	}
	mresp, mbody := func() (*http.Response, []byte) {
		r, err := http.Get(f.edge.URL + "/v1/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(r.Body)
		return r, buf.Bytes()
	}()
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d %s", mresp.StatusCode, mbody)
	}
	var agg struct {
		Router   Snapshot                  `json:"router"`
		Fleet    map[string]float64        `json:"fleet"`
		Backends map[string]map[string]any `json:"backends"`
	}
	if err := json.Unmarshal(mbody, &agg); err != nil {
		t.Fatalf("decode aggregate: %v\n%s", err, mbody)
	}
	if agg.Fleet["jobs_done"] != 4 {
		t.Fatalf("fleet jobs_done = %v, want 4 (4 computes + 1 cache hit)", agg.Fleet["jobs_done"])
	}
	if len(agg.Backends) != 2 {
		t.Fatalf("aggregate covers %d backends, want 2", len(agg.Backends))
	}
	for id, b := range agg.Backends {
		if b["health"] != string(Healthy) {
			t.Fatalf("backend %s health %v in aggregate", id, b["health"])
		}
		if b["metrics"] == nil {
			t.Fatalf("backend %s has no metrics block", id)
		}
	}
	if agg.Router.Requests == 0 || agg.Router.ProxiedByBackend == nil {
		t.Fatalf("router block incomplete: %+v", agg.Router)
	}
}

// TestRouterHealthzStates walks the router's own health states:
// healthy fleet → 200 ok; every backend dead → 503 degraded; router
// draining → 503 draining regardless of the fleet.
func TestRouterHealthzStates(t *testing.T) {
	f := newFleet(t, 2, nil)
	resp, body := func() (*http.Response, []byte) {
		r, err := http.Get(f.edge.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(r.Body)
		return r, buf.Bytes()
	}()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"ok"`) {
		t.Fatalf("healthy fleet: %d %s", resp.StatusCode, body)
	}

	f.servers[0].Close()
	f.servers[1].Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	f.router.ProbeOnce(ctx) // FailThreshold=1: one sweep declares both dead
	resp2, body2 := func() (*http.Response, []byte) {
		r, err := http.Get(f.edge.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(r.Body)
		return r, buf.Bytes()
	}()
	if resp2.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body2), "degraded") {
		t.Fatalf("dead fleet: %d %s", resp2.StatusCode, body2)
	}

	f.router.BeginDrain()
	resp3, body3 := func() (*http.Response, []byte) {
		r, err := http.Get(f.edge.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(r.Body)
		return r, buf.Bytes()
	}()
	if resp3.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body3), "draining") {
		t.Fatalf("draining router: %d %s", resp3.StatusCode, body3)
	}
}

// TestRouterRejectsBadRequestAtEdge checks that malformed and invalid
// requests die at the router without spending a backend round trip,
// and carry the standard error envelope with a request ID.
func TestRouterRejectsBadRequestAtEdge(t *testing.T) {
	f := newFleet(t, 2, nil)
	resp, body := postJSON(t, f.edge.URL+"/v1/plan", `{"chip": "lp", "bogus_field": 1}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: %d %s", resp.StatusCode, body)
	}
	var env httpapi.ErrorBody
	if err := json.Unmarshal(body, &env); err != nil || env.Error.Code != httpapi.ErrCodeBadRequest {
		t.Fatalf("error envelope: %s", body)
	}
	if env.Error.RequestID == "" || resp.Header.Get(httpapi.RequestIDHeader) != env.Error.RequestID {
		t.Fatalf("request ID not threaded: header %q, envelope %q",
			resp.Header.Get(httpapi.RequestIDHeader), env.Error.RequestID)
	}
	if got := f.jobsSubmitted(0) + f.jobsSubmitted(1); got != 0 {
		t.Fatalf("bad request reached a backend (%d submissions)", got)
	}
}

// TestRouterUnknownJobID covers the affinity failure modes: an ID
// with no prefix, an ID naming a backend that does not exist, and an
// edge-tier ID on a router without an edge cache, on the status,
// result and stream paths.
func TestRouterUnknownJobID(t *testing.T) {
	f := newFleet(t, 2, nil)
	edgeID := edgeBackendID + affinitySep + strings.Repeat("ab", 32)
	for _, id := range []string{"j000001-deadbeef", "b9!j000001-deadbeef", edgeID} {
		for _, suffix := range []string{"", "/result", "/stream"} {
			resp, err := http.Get(f.edge.URL + "/v1/jobs/" + id + suffix)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			buf.ReadFrom(resp.Body)
			resp.Body.Close()
			var env httpapi.ErrorBody
			if resp.StatusCode != http.StatusNotFound ||
				json.Unmarshal(buf.Bytes(), &env) != nil || env.Error.Code != httpapi.ErrCodeNotFound {
				t.Fatalf("id %q%s: %d %s", id, suffix, resp.StatusCode, buf.Bytes())
			}
		}
	}
}

// TestSyncRoutesReachDecoder walks the kind table on both tiers:
// every synchronous path must be its own kind's (/v1/<kind>), be
// registered (no 404/405), and decode into that kind's request. A JSON
// array is never a valid request, and the decode error names the Go
// type it was decoded into, so the 400 bad_request proves which
// decoder ran.
func TestSyncRoutesReachDecoder(t *testing.T) {
	f := newFleet(t, 1, nil)
	tiers := map[string]string{"backend": f.servers[0].URL, "router": f.edge.URL}
	for _, k := range api.Kinds {
		if k.Path == "" {
			continue
		}
		if kind := k.NewRequest().Kind(); "/v1/"+kind != k.Path {
			t.Errorf("route %s constructs a %s request", k.Path, kind)
		}
		wantType := strings.TrimPrefix(fmt.Sprintf("%T", k.NewRequest()), "*")
		for tier, base := range tiers {
			resp, body := postJSON(t, base+k.Path, `[]`)
			var env httpapi.ErrorBody
			if resp.StatusCode != http.StatusBadRequest ||
				json.Unmarshal(body, &env) != nil || env.Error.Code != httpapi.ErrCodeBadRequest {
				t.Errorf("%s POST %s: %d %s", tier, k.Path, resp.StatusCode, body)
				continue
			}
			if !strings.Contains(env.Error.Message, wantType) {
				t.Errorf("%s POST %s: decoded by the wrong kind (want %s): %s", tier, k.Path, wantType, env.Error.Message)
			}
		}
	}
	if got := f.jobsSubmitted(0); got != 0 {
		t.Fatalf("undecodable requests reached the engine (%d submissions)", got)
	}
}
