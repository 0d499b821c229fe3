package router

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/url"
	"sync"
	"time"
)

// Health is a backend's routing eligibility as the router sees it.
type Health string

const (
	// Healthy backends receive new work.
	Healthy Health = "healthy"
	// Draining backends answered /healthz 503 {"status":"draining"}
	// (or a submission with the "unavailable" code): they are
	// finishing accepted jobs but take no new ones. The router skips
	// them for new submissions; their keys fail over to the
	// next-ranked backend and snap back when they return.
	Draining Health = "draining"
	// Dead backends failed transport-level (connection refused/reset,
	// probe errors past the threshold). Skipped exactly like draining
	// ones; the active prober resurrects them on the next 200.
	Dead Health = "dead"
)

// Backend is one watersrvd instance behind the router.
type Backend struct {
	// ID is the stable ring identity; job IDs are prefixed with it so
	// polls route back to the owning backend. It must stay stable
	// across router restarts while jobs are in flight.
	ID string
	// URL is the backend's base URL.
	URL *url.URL

	mu        sync.Mutex
	health    Health
	probeErrs int // consecutive active-probe failures
}

// Healthz is the health-endpoint body both tiers speak:
// {"status": "ok"} or {"status": "draining"}.
type Healthz struct {
	Status string `json:"status"`
}

// Health returns the backend's current eligibility.
func (b *Backend) Health() Health {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.health
}

// Available reports whether new work may be routed here.
func (b *Backend) Available() bool { return b.Health() == Healthy }

// markDead passively ejects the backend after a transport-level
// failure on live traffic. One connection error is enough: the
// request already failed over, and the active prober restores the
// backend within one interval of it coming back.
func (b *Backend) markDead() {
	b.mu.Lock()
	b.health = Dead
	b.mu.Unlock()
}

// markDraining passively ejects the backend after it answered a
// submission 503 "unavailable" (its drain began between probes).
func (b *Backend) markDraining() {
	b.mu.Lock()
	b.health = Draining
	b.mu.Unlock()
}

// probe actively checks /healthz and settles the backend's state:
// 200 restores Healthy (and zeroes the failure streak), a "draining"
// body marks Draining, and anything else — connection error, timeout,
// unexpected status — counts toward failThreshold consecutive
// failures before the backend is declared Dead. The threshold only
// guards the active path: a probe blip should not eject a backend
// that is still serving traffic fine.
func (b *Backend) probe(ctx context.Context, client *http.Client, failThreshold int) {
	u := *b.URL
	u.Path = "/healthz"
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u.String(), nil)
	if err != nil {
		b.noteProbeFailure(failThreshold)
		return
	}
	resp, err := client.Do(req)
	if err != nil {
		b.noteProbeFailure(failThreshold)
		return
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<12))
	resp.Body.Close()

	var hz Healthz
	_ = json.Unmarshal(body, &hz)
	b.mu.Lock()
	defer b.mu.Unlock()
	switch {
	case resp.StatusCode == http.StatusOK:
		b.health = Healthy
		b.probeErrs = 0
	case hz.Status == "draining":
		b.health = Draining
		b.probeErrs = 0
	default:
		b.probeErrs++
		if b.probeErrs >= failThreshold {
			b.health = Dead
		}
	}
}

func (b *Backend) noteProbeFailure(failThreshold int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probeErrs++
	if b.probeErrs >= failThreshold {
		b.health = Dead
	}
}

// probeLoop polls the backend until ctx is cancelled.
func (b *Backend) probeLoop(ctx context.Context, client *http.Client, interval time.Duration, failThreshold int) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			b.probe(ctx, client, failThreshold)
		}
	}
}
