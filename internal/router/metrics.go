package router

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"waterimm/internal/httpapi"
	"waterimm/internal/rcache"
)

// routerMetrics counts the router's own work in s, the Snapshot it
// is published as, guarded by mu; Metrics returns a consistent copy.
type routerMetrics struct {
	mu sync.Mutex
	s  Snapshot
}

func (m *routerMetrics) add(counter *uint64) {
	m.mu.Lock()
	*counter++
	m.mu.Unlock()
}

func (m *routerMetrics) addProxied(backendID string) {
	m.mu.Lock()
	m.s.ProxiedByBackend[backendID]++
	m.mu.Unlock()
}

// Snapshot is the router's own metrics block inside the aggregated
// /v1/metrics body.
type Snapshot struct {
	Requests uint64 `json:"requests"`

	// Edge-tier effectiveness: hits answered with zero backend
	// traffic, misses that went on to a backend, and harvests —
	// completed async results spilled into the edge store as their
	// result polls streamed past.
	EdgeCacheHits     uint64 `json:"edge_cache_hits"`
	EdgeCacheMisses   uint64 `json:"edge_cache_misses"`
	EdgeCacheHarvests uint64 `json:"edge_cache_harvests"`

	// Failovers counts forwards that skipped past the key's
	// first-choice backend; PassiveEjections counts backends marked
	// dead or draining by live traffic (probe-driven transitions are
	// not counted here); NoBackendErrors counts requests refused
	// because every candidate failed.
	Failovers        uint64 `json:"failovers"`
	PassiveEjections uint64 `json:"passive_ejections"`
	NoBackendErrors  uint64 `json:"no_backend_errors"`

	ProxiedByBackend map[string]uint64 `json:"proxied_by_backend"`
	BackendHealth    map[string]string `json:"backend_health"`

	EdgeCacheEnabled bool          `json:"edge_cache_enabled"`
	EdgeCache        *rcache.Stats `json:"edge_cache,omitempty"`
}

// Metrics returns the router's own snapshot.
func (rt *Router) Metrics() Snapshot {
	m := &rt.metrics
	m.mu.Lock()
	s := m.s
	s.ProxiedByBackend = make(map[string]uint64, len(m.s.ProxiedByBackend))
	for id, n := range m.s.ProxiedByBackend {
		s.ProxiedByBackend[id] = n
	}
	m.mu.Unlock()

	s.BackendHealth = make(map[string]string, len(rt.backends))
	for _, b := range rt.backends {
		s.BackendHealth[b.ID] = string(b.Health())
	}
	if rt.edge != nil {
		s.EdgeCacheEnabled = true
		st := rt.edge.Stats()
		s.EdgeCache = &st
	}
	return s
}

// metricsHandler serves GET /v1/metrics: the router's own counters,
// a "fleet" roll-up summing every top-level numeric field across the
// backends that answered (jobs_done, cache_hits, ... — nested
// structures like latency histograms don't sum meaningfully and are
// left to the per-backend blocks), and each backend's raw snapshot.
func (rt *Router) metricsHandler(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := context.WithTimeout(r.Context(), 5*time.Second)
	defer cancel()

	type scrape struct {
		id   string
		snap map[string]any
		err  error
	}
	// The scrape goroutines must not touch w: read the request ID once
	// here instead of from every goroutine.
	reqID := w.Header().Get(httpapi.RequestIDHeader)
	results := make([]scrape, len(rt.backends))
	var wg sync.WaitGroup
	for i, b := range rt.backends {
		wg.Add(1)
		go func(i int, b *Backend) {
			defer wg.Done()
			results[i].id = b.ID
			resp, err := rt.forward(ctx, b, http.MethodGet, "/v1/metrics", nil, reqID)
			if err != nil {
				results[i].err = err
				return
			}
			if resp.status != http.StatusOK {
				results[i].err = fmt.Errorf("backend %s answered metrics with status %d", b.ID, resp.status)
				return
			}
			results[i].err = json.Unmarshal(resp.body, &results[i].snap)
		}(i, b)
	}
	wg.Wait()

	fleet := map[string]float64{}
	backends := make(map[string]any, len(results))
	for _, s := range results {
		if s.err != nil {
			backends[s.id] = map[string]any{
				"health": string(rt.byID[s.id].Health()),
				"error":  s.err.Error(),
			}
			continue
		}
		backends[s.id] = map[string]any{
			"health":  string(rt.byID[s.id].Health()),
			"metrics": s.snap,
		}
		for k, v := range s.snap {
			if f, ok := v.(float64); ok {
				fleet[k] += f
			}
		}
	}
	httpapi.WriteJSON(w, http.StatusOK, map[string]any{
		"router":   rt.Metrics(),
		"fleet":    fleet,
		"backends": backends,
	})
}
