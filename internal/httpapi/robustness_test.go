package httpapi

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"testing"
	"time"

	"waterimm/internal/faultinject"
	"waterimm/internal/service"
)

// These tests arm the process-global fault registry; none of them may
// run in parallel with each other.

// TestQueueFull429WithRetryAfter fills the queue past its bound and
// asserts the shed response: 429, the stable queue_full code, and a
// parseable Retry-After header.
func TestQueueFull429WithRetryAfter(t *testing.T) {
	ts, _ := newTestServer(t, service.Config{Workers: 1, QueueDepth: 1})
	// Distinct slow bodies so neither caching nor dedup absorbs them.
	body := func(chips int) string {
		return fmt.Sprintf(`{"type": "simulate", "request": {"chip": "lp", "chips": %d, "grid_nx": 64, "grid_ny": 64, "converge_leakage": true}}`, chips)
	}
	var shed *http.Response
	var shedBody []byte
	for chips := 14; chips <= 16; chips++ {
		resp, b := post(t, ts.URL+"/v1/jobs", body(chips))
		if resp.StatusCode == http.StatusTooManyRequests {
			shed, shedBody = resp, b
		}
	}
	if shed == nil {
		t.Fatal("three submits into a depth-1 queue with one busy worker: none shed")
	}
	var env struct {
		Error struct{ Code string }
	}
	if err := json.Unmarshal(shedBody, &env); err != nil || env.Error.Code != "queue_full" {
		t.Fatalf("shed body: %s (err %v)", shedBody, err)
	}
	ra := shed.Header.Get("Retry-After")
	secs, err := strconv.Atoi(ra)
	if err != nil || secs < 1 {
		t.Fatalf("Retry-After %q, want whole seconds >= 1", ra)
	}
}

// TestStalledSolveAnswers504 wedges the CG loop; the per-job deadline
// must convert the stall into a 504 deadline_exceeded response while
// the daemon keeps serving.
func TestStalledSolveAnswers504(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	ts, e := newTestServer(t, service.Config{JobDeadline: time.Second})
	faultinject.Arm(faultinject.SiteCGIteration, faultinject.Fault{
		Kind: faultinject.KindStall, Delay: time.Minute, Times: 1,
	})
	resp, body := post(t, ts.URL+"/v1/plan", fastPlanBody)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("stalled solve: %d %s", resp.StatusCode, body)
	}
	var env struct {
		Error struct{ Code string }
	}
	if err := json.Unmarshal(body, &env); err != nil || env.Error.Code != "deadline_exceeded" {
		t.Fatalf("stalled solve body: %s", body)
	}
	if m := e.Metrics(); m.JobsDeadlineExceeded != 1 {
		t.Fatalf("jobs_deadline_exceeded %d, want 1", m.JobsDeadlineExceeded)
	}
	// Daemon still serving: the fault is exhausted, the retry works.
	resp, body = post(t, ts.URL+"/v1/plan", fastPlanBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("daemon wedged after stall: %d %s", resp.StatusCode, body)
	}
}

// TestWorkerPanicAnswers500AndDaemonSurvives injects a panic into a
// worker; the job fails as internal, panics_recovered ticks, and the
// next request succeeds.
func TestWorkerPanicAnswers500AndDaemonSurvives(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	ts, _ := newTestServer(t, service.Config{})
	faultinject.Arm(faultinject.SiteExecute, faultinject.Fault{Kind: faultinject.KindPanic, Times: 1})

	resp, body := post(t, ts.URL+"/v1/plan", fastPlanBody)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicked job: %d %s", resp.StatusCode, body)
	}
	var env struct {
		Error struct{ Code string }
	}
	if err := json.Unmarshal(body, &env); err != nil || env.Error.Code != "internal" {
		t.Fatalf("panicked job body: %s", body)
	}

	_, mbody := get(t, ts.URL+"/v1/metrics")
	var m service.Snapshot
	if err := json.Unmarshal(mbody, &m); err != nil {
		t.Fatal(err)
	}
	if m.PanicsRecovered != 1 {
		t.Fatalf("panics_recovered %d, want 1", m.PanicsRecovered)
	}

	resp, body = post(t, ts.URL+"/v1/plan", fastPlanBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("daemon wedged after panic: %d %s", resp.StatusCode, body)
	}
}

// TestClientRidesOutQueueFull is the end-to-end shed-and-retry loop:
// the typed client absorbs a 429 + Retry-After from a genuinely full
// queue, backs off for at least the advertised interval, and lands
// the request once capacity frees up.
func TestClientRidesOutQueueFull(t *testing.T) {
	ts, e := newTestServer(t, service.Config{Workers: 1, QueueDepth: 1})
	c := newTestClient(t, ts)
	c.MaxRetries = 10

	// Fill the worker and the queue slot with distinct slow jobs, then
	// free them while the client is backing off from its 429.
	var blockers []string
	for chips := 14; chips <= 15; chips++ {
		p := *slowPlan
		p.Chips = chips
		j, err := c.SubmitJob(context.Background(), &p)
		if err != nil {
			t.Fatal(err)
		}
		blockers = append(blockers, j.ID)
	}
	stop := time.AfterFunc(300*time.Millisecond, func() {
		for _, id := range blockers {
			e.Cancel(id)
		}
	})
	defer stop.Stop()

	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	j, err := c.SubmitJob(ctx, fastPlan)
	if err != nil {
		t.Fatalf("client did not ride out the full queue: %v", err)
	}
	// The first attempt must have been shed with Retry-After >= 1s,
	// which the client honors as a backoff floor.
	if elapsed := time.Since(start); elapsed < 900*time.Millisecond {
		t.Fatalf("accepted after %v; the 429's Retry-After (>= 1s) was not honored", elapsed)
	}
	if got, err := c.WaitJob(ctx, j.ID); err != nil || got.State != "done" {
		t.Fatalf("retried job: %+v, %v", got, err)
	}
}
