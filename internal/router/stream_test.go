package router

import (
	"bufio"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"waterimm/internal/api"
	"waterimm/internal/rcache"
)

const streamJobBody = `{"type": "cosimstream", "request": {
	"chip": "lp", "ghz": 1.5, "interval_s": 0.01, "intervals": 6,
	"sub_steps": 1, "grid_nx": 16, "grid_ny": 16, "max_samples": 1000}}`

// readStream parses an SSE response into interval payloads plus the
// final done event's raw data.
func readStream(t *testing.T, resp *http.Response) ([]api.CosimStreamInterval, string) {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content type %q", ct)
	}
	var intervals []api.CosimStreamInterval
	var doneData string
	event, data := "", ""
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			data = line[len("data: "):]
		case line == "":
			switch event {
			case "interval":
				var iv api.CosimStreamInterval
				if err := json.Unmarshal([]byte(data), &iv); err != nil {
					t.Fatalf("interval payload: %v", err)
				}
				intervals = append(intervals, iv)
			case "done":
				doneData = data
			}
			event, data = "", ""
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("read SSE: %v", err)
	}
	if doneData == "" {
		t.Fatal("stream ended without a done event")
	}
	return intervals, doneData
}

func TestRouterStreamProxyFollowsAffinity(t *testing.T) {
	f := newFleet(t, 2, nil)
	resp, body := postJSON(t, f.edge.URL+"/v1/jobs", streamJobBody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var in struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &in); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(in.ID, affinitySep) {
		t.Fatalf("job ID %q carries no affinity prefix", in.ID)
	}
	owner, _, _ := strings.Cut(in.ID, affinitySep)

	sresp, err := http.Get(f.edge.URL + "/v1/jobs/" + in.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	if got := sresp.Header.Get("X-Backend"); got != owner {
		t.Fatalf("stream proxied via %q, job owned by %q", got, owner)
	}
	intervals, doneData := readStream(t, sresp)
	if len(intervals) != 6 {
		t.Fatalf("proxied stream carried %d intervals, want 6", len(intervals))
	}
	for i, iv := range intervals {
		if iv.Seq != i+1 {
			t.Fatalf("interval gap at %d: seq %d", i, iv.Seq)
		}
	}
	var done struct {
		State string `json:"state"`
	}
	if err := json.Unmarshal([]byte(doneData), &done); err != nil {
		t.Fatal(err)
	}
	if done.State != "done" {
		t.Fatalf("done event state %q", done.State)
	}

	// Replay with ?from= passes through to the owning backend.
	sresp, err = http.Get(f.edge.URL + "/v1/jobs/" + in.ID + "/stream?from=4")
	if err != nil {
		t.Fatal(err)
	}
	intervals, _ = readStream(t, sresp)
	if len(intervals) != 2 || intervals[0].Seq != 5 {
		t.Fatalf("?from=4 replay: %+v", intervals)
	}

	// A job ID without affinity, or with an unknown owner, is a 404.
	for _, id := range []string{"j000001-deadbeef", "b9!j000001-deadbeef"} {
		resp, err := http.Get(f.edge.URL + "/v1/jobs/" + id + "/stream")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("stream of %q: status %d, want 404", id, resp.StatusCode)
		}
	}
}

func TestRouterEdgeStreamReplay(t *testing.T) {
	store, err := rcache.Open(t.TempDir(), 0, api.CacheGeneration)
	if err != nil {
		t.Fatal(err)
	}
	f := newFleet(t, 1, store)
	resp, body := postJSON(t, f.edge.URL+"/v1/jobs", streamJobBody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var in struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &in); err != nil {
		t.Fatal(err)
	}
	// Drain the live stream, then poll the result once so the router
	// harvests the finished payload into its edge tier.
	sresp, err := http.Get(f.edge.URL + "/v1/jobs/" + in.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	readStream(t, sresp)
	rresp, err := http.Get(f.edge.URL + "/v1/jobs/" + in.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	rresp.Body.Close()
	if rresp.StatusCode != http.StatusOK {
		t.Fatalf("result poll: %d", rresp.StatusCode)
	}

	// The identical resubmission is answered at the edge with a
	// synthetic done job owned by the edge pseudo-backend.
	resp, body = postJSON(t, f.edge.URL+"/v1/jobs", streamJobBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("edge resubmit: %d %s", resp.StatusCode, body)
	}
	var hit struct {
		ID       string `json:"id"`
		CacheHit bool   `json:"cache_hit"`
	}
	if err := json.Unmarshal(body, &hit); err != nil {
		t.Fatal(err)
	}
	if !hit.CacheHit || !strings.HasPrefix(hit.ID, edgeBackendID+affinitySep) {
		t.Fatalf("edge resubmission: %+v", hit)
	}
	if f.jobsDone() != 1 {
		t.Fatalf("fleet computed %d jobs, want 1 (replay must not recompute)", f.jobsDone())
	}

	// Streaming the edge job replays the recorded series from the
	// router's own tier — zero backend traffic.
	sresp, err = http.Get(f.edge.URL + "/v1/jobs/" + hit.ID + "/stream?from=2")
	if err != nil {
		t.Fatal(err)
	}
	if got := sresp.Header.Get("X-Cache"); got != "edge" {
		t.Fatalf("edge stream served from %q", got)
	}
	// The replay carries the backend's event-stream headers, so a
	// buffering proxy passes it through as it would a live feed.
	for k, want := range map[string]string{"Content-Type": "text/event-stream", "Cache-Control": "no-store", "X-Accel-Buffering": "no"} {
		if got := sresp.Header.Get(k); got != want {
			t.Errorf("edge stream header %s = %q, want %q", k, got, want)
		}
	}
	intervals, doneData := readStream(t, sresp)
	if len(intervals) != 4 || intervals[0].Seq != 3 || intervals[3].Seq != 6 {
		t.Fatalf("edge replay intervals: %+v", intervals)
	}
	var done struct {
		State    string          `json:"state"`
		CacheHit bool            `json:"cache_hit"`
		Result   json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal([]byte(doneData), &done); err != nil {
		t.Fatal(err)
	}
	if done.State != "done" || !done.CacheHit || len(done.Result) == 0 {
		t.Fatalf("edge done event: %s", doneData)
	}
}
