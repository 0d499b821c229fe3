package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"waterimm/internal/api"
	"waterimm/internal/httpapi"
	"waterimm/internal/rcache"
)

// affinitySep joins a backend ID and a backend-local job ID into the
// fleet-wide job ID the router hands out ("b0!j000042-deadbeef"), so
// a later poll routes straight back to the owning backend without any
// shared state. edgeBackendID is the reserved pseudo-backend of jobs
// answered entirely from the router's own cache tier; their IDs embed
// the canonical request key ("edge!<64-hex-key>") so polls can re-read
// the entry.
const (
	affinitySep   = "!"
	edgeBackendID = "edge"
)

// Config wires a Router.
type Config struct {
	// Backends are the watersrvd base URLs, e.g.
	// "http://10.0.0.1:8080". Backend i gets the stable ring ID "b<i>"
	// — keep the list order stable across router restarts, or
	// in-flight job IDs will point at the wrong backend.
	Backends []string
	// EdgeCache is the router's own disk tier (nil disables it).
	// Keyed identically to the backends' caches (canonical request
	// hash, api.CacheGeneration), so repeat traffic is answered at the
	// edge with zero backend computes and a replaced backend
	// effectively warms from the router's copy.
	EdgeCache *rcache.Store
	// HealthInterval paces the active /healthz prober. Default 2s.
	HealthInterval time.Duration
	// FailThreshold is how many consecutive probe failures declare a
	// backend dead. Default 3. Live-traffic connection errors eject
	// immediately regardless.
	FailThreshold int
	// Client performs proxied requests; nil gets a default with no
	// overall timeout (solves legitimately run for minutes). Probes
	// always use their own short-timeout client.
	Client *http.Client
}

// Router is the cache-aware sharding edge tier: it consistent-hashes
// each request's canonical cache key across N watersrvd backends so
// identical requests dedup onto one backend, serves repeats from its
// own rcache tier, and ejects draining or dead backends with minimal
// key movement.
type Router struct {
	backends []*Backend
	byID     map[string]*Backend
	ring     *Ring
	edge     *rcache.Store
	client   *http.Client
	probes   *http.Client

	healthInterval time.Duration
	failThreshold  int

	drainMu  sync.Mutex
	draining bool

	stop    context.CancelFunc
	stopped sync.WaitGroup

	metrics routerMetrics
}

// New builds a router over the backend URLs. Call Start to begin
// active health probing and Close to stop it.
func New(cfg Config) (*Router, error) {
	if len(cfg.Backends) == 0 {
		return nil, errors.New("router: no backends configured")
	}
	if cfg.HealthInterval <= 0 {
		cfg.HealthInterval = 2 * time.Second
	}
	if cfg.FailThreshold <= 0 {
		cfg.FailThreshold = 3
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{}
	}
	rt := &Router{
		byID:           make(map[string]*Backend, len(cfg.Backends)),
		edge:           cfg.EdgeCache,
		client:         cfg.Client,
		probes:         &http.Client{Timeout: 3 * time.Second},
		healthInterval: cfg.HealthInterval,
		failThreshold:  cfg.FailThreshold,
	}
	ids := make([]string, 0, len(cfg.Backends))
	for i, raw := range cfg.Backends {
		u, err := url.Parse(strings.TrimSuffix(raw, "/"))
		if err != nil {
			return nil, fmt.Errorf("router: backend %d: parse %q: %w", i, raw, err)
		}
		if u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("router: backend %d: %q needs a scheme and host", i, raw)
		}
		b := &Backend{ID: fmt.Sprintf("b%d", i), URL: u, health: Healthy}
		rt.backends = append(rt.backends, b)
		rt.byID[b.ID] = b
		ids = append(ids, b.ID)
	}
	rt.ring = NewRing(ids)
	rt.metrics.s.ProxiedByBackend = make(map[string]uint64, len(ids))
	return rt, nil
}

// Start launches the active health prober (one goroutine per
// backend). Idempotent only in the sense that calling it twice leaks
// probers — call once.
func (rt *Router) Start() {
	ctx, cancel := context.WithCancel(context.Background())
	rt.stop = cancel
	for _, b := range rt.backends {
		rt.stopped.Add(1)
		go func(b *Backend) {
			defer rt.stopped.Done()
			b.probeLoop(ctx, rt.probes, rt.healthInterval, rt.failThreshold)
		}(b)
	}
}

// Close stops the prober goroutines.
func (rt *Router) Close() {
	if rt.stop != nil {
		rt.stop()
		rt.stopped.Wait()
	}
}

// ProbeOnce synchronously probes every backend once; Start's loops do
// the same on a timer. Exposed so the binary can settle initial
// health before listening and tests can advance health
// deterministically.
func (rt *Router) ProbeOnce(ctx context.Context) {
	var wg sync.WaitGroup
	for _, b := range rt.backends {
		wg.Add(1)
		go func(b *Backend) {
			defer wg.Done()
			b.probe(ctx, rt.probes, rt.failThreshold)
		}(b)
	}
	wg.Wait()
}

// BeginDrain flips the router's own /healthz to 503 "draining" so an
// upstream balancer ejects this router while in-flight proxying
// finishes.
func (rt *Router) BeginDrain() {
	rt.drainMu.Lock()
	rt.draining = true
	rt.drainMu.Unlock()
}

func (rt *Router) isDraining() bool {
	rt.drainMu.Lock()
	defer rt.drainMu.Unlock()
	return rt.draining
}

// Backends returns the backends (for observability; do not mutate).
func (rt *Router) Backends() []*Backend { return rt.backends }

// Handler returns the router's HTTP surface. It mirrors the watersrvd
// surface — clients built for one backend (pkg/client included) work
// unchanged against the fleet — plus the aggregated /v1/metrics.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", rt.healthz)
	mux.HandleFunc("GET /v1/metrics", rt.metricsHandler)
	for _, k := range api.Kinds {
		if k.Path != "" {
			mux.HandleFunc("POST "+k.Path, func(w http.ResponseWriter, r *http.Request) {
				rt.syncProxy(w, r, k.NewRequest())
			})
		}
	}
	mux.HandleFunc("POST /v1/jobs", rt.submit)
	mux.HandleFunc("GET /v1/jobs/{id}", rt.jobProxy)
	mux.HandleFunc("GET /v1/jobs/{id}/result", rt.jobProxy)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", rt.streamProxy)
	mux.HandleFunc("DELETE /v1/jobs/{id}", rt.jobProxy)
	return httpapi.WithRequestID(mux)
}

// healthz reports the router's own availability: 200 while at least
// one backend takes new work, 503 "degraded" when none does, and 503
// "draining" once the router itself is shutting down. The body always
// carries the per-backend view.
func (rt *Router) healthz(w http.ResponseWriter, _ *http.Request) {
	views := make(map[string]string, len(rt.backends))
	available := 0
	for _, b := range rt.backends {
		h := b.Health()
		views[b.ID] = string(h)
		if h == Healthy {
			available++
		}
	}
	status, state := http.StatusOK, "ok"
	switch {
	case rt.isDraining():
		status, state = http.StatusServiceUnavailable, "draining"
	case available == 0:
		status, state = http.StatusServiceUnavailable, "degraded"
	}
	httpapi.WriteJSON(w, status, map[string]any{"status": state, "backends": views})
}

// readBody drains the request body under the same 1 MiB bound the
// backends enforce.
func readBody(r *http.Request) ([]byte, error) {
	b, err := io.ReadAll(http.MaxBytesReader(nil, r.Body, 1<<20))
	if err != nil {
		return nil, fmt.Errorf("bad request body: %w", err)
	}
	return b, nil
}

// decodeStrict mirrors the backends' decoding (unknown fields are
// errors) so a malformed request dies at the edge without spending a
// backend round trip.
func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}

// keyOf validates a decoded request and returns its canonical cache
// key — the ring's sharding key and both cache tiers' lookup key.
func keyOf(req api.Request) (string, int, string, error) {
	req.Normalize()
	if err := req.Validate(); err != nil {
		return "", http.StatusBadRequest, httpapi.ErrCodeInvalidArgument, err
	}
	return req.CacheKey(), 0, "", nil
}

// syncProxy serves the synchronous routes (the api.Kinds entries with
// a Path): answer from the edge cache when possible, otherwise forward
// to the key's backend (with failover down the ring) and spill a 200
// into the edge cache on the way back. A 202 — the backend degraded the sync request to an async
// job — gets the owning backend's affinity prefix stamped into the
// job ID so the client's poll finds its way back.
func (rt *Router) syncProxy(w http.ResponseWriter, r *http.Request, req api.Request) {
	rt.metrics.add(&rt.metrics.s.Requests)
	body, err := readBody(r)
	if err != nil {
		httpapi.WriteError(w, http.StatusBadRequest, httpapi.ErrCodeBadRequest, err)
		return
	}
	if err := decodeStrict(body, req); err != nil {
		httpapi.WriteError(w, http.StatusBadRequest, httpapi.ErrCodeBadRequest, err)
		return
	}
	key, status, code, err := keyOf(req)
	if err != nil {
		httpapi.WriteError(w, status, code, err)
		return
	}
	if payload, ok := rt.edgeGet(key, req.Kind()); ok {
		rt.serveEdgePayload(w, payload)
		return
	}
	b, resp, err := rt.forwardByKey(r.Context(), key, http.MethodPost, r.URL.Path, body, w.Header().Get(httpapi.RequestIDHeader))
	if err != nil {
		rt.writeNoBackend(w, err)
		return
	}
	if resp.status == http.StatusOK {
		rt.edgePut(key, req.Kind(), resp.body)
	}
	if resp.status == http.StatusAccepted {
		resp.body = prefixJobID(resp.body, b.ID)
	}
	rt.relay(w, b, resp)
}

// submit serves POST /v1/jobs: an edge-cached result becomes a
// synthetic already-done job owned by the "edge" pseudo-backend (zero
// backend traffic); everything else forwards to the key's backend and
// the returned job ID gains that backend's affinity prefix.
func (rt *Router) submit(w http.ResponseWriter, r *http.Request) {
	rt.metrics.add(&rt.metrics.s.Requests)
	body, err := readBody(r)
	if err != nil {
		httpapi.WriteError(w, http.StatusBadRequest, httpapi.ErrCodeBadRequest, err)
		return
	}
	// Decode exactly as the backends do, so a malformed submission dies
	// at the edge and a valid one shards on the same canonical key.
	req, err := api.DecodeJobRequest(body)
	if err != nil {
		httpapi.WriteError(w, http.StatusBadRequest, httpapi.ErrCodeBadRequest, err)
		return
	}
	key, status, code, err := keyOf(req)
	if err != nil {
		httpapi.WriteError(w, status, code, err)
		return
	}
	if _, ok := rt.edgeGet(key, req.Kind()); ok {
		httpapi.WriteJSON(w, http.StatusOK, edgeJobInfo(key, req.Kind(), nil))
		return
	}
	b, resp, err := rt.forwardByKey(r.Context(), key, http.MethodPost, "/v1/jobs", body, w.Header().Get(httpapi.RequestIDHeader))
	if err != nil {
		rt.writeNoBackend(w, err)
		return
	}
	if resp.status == http.StatusOK || resp.status == http.StatusAccepted {
		resp.body = prefixJobID(resp.body, b.ID)
	}
	rt.relay(w, b, resp)
}

// resolveJob counts a request on a job ID and resolves that ID: the
// affinity prefix names the owning backend, or the edge tier, so polls
// and streams route back without any shared job table. An ID with no
// affinity or naming an unknown backend (the edge tier too, when it is
// disabled) is answered with a 404 here, and ok is false; b is nil for
// an edge-owned job.
func (rt *Router) resolveJob(w http.ResponseWriter, r *http.Request) (fleetID string, b *Backend, localID string, ok bool) {
	rt.metrics.add(&rt.metrics.s.Requests)
	fleetID = r.PathValue("id")
	// pkg/client path-escapes job IDs ("!" → %21) and the mux hands the
	// segment back still escaped; legitimate IDs never contain "%", so
	// unescaping is safe and idempotent here.
	if unescaped, err := url.PathUnescape(fleetID); err == nil {
		fleetID = unescaped
	}
	owner, localID, ok := strings.Cut(fleetID, affinitySep)
	if !ok || localID == "" {
		httpapi.WriteError(w, http.StatusNotFound, httpapi.ErrCodeNotFound,
			fmt.Errorf("router: job ID %q carries no backend affinity (was it issued by this router?)", fleetID))
		return fleetID, nil, "", false
	}
	if owner == edgeBackendID && rt.edge != nil {
		return fleetID, nil, localID, true
	}
	if b = rt.byID[owner]; b == nil {
		httpapi.WriteError(w, http.StatusNotFound, httpapi.ErrCodeNotFound,
			fmt.Errorf("router: job ID %q names unknown backend %q", fleetID, owner))
		return fleetID, nil, "", false
	}
	return fleetID, b, localID, true
}

// ownerUnreachable answers a poll or stream whose owning backend cannot
// be reached. Its accepted jobs cannot be served elsewhere, so the
// client is told to retry: the backend may be restarting, and its disk
// cache keeps finished results and stream checkpoints.
func (rt *Router) ownerUnreachable(w http.ResponseWriter, b *Backend, fleetID string, err error) {
	b.markDead()
	rt.metrics.add(&rt.metrics.s.PassiveEjections)
	httpapi.SetRetryAfter(w, time.Second)
	httpapi.WriteError(w, http.StatusServiceUnavailable, httpapi.ErrCodeUnavailable,
		fmt.Errorf("router: backend %s owning job %s is unreachable: %w", b.ID, fleetID, err))
}

// jobProxy serves GET/DELETE /v1/jobs/{id}[/result] on the job's
// owner.
func (rt *Router) jobProxy(w http.ResponseWriter, r *http.Request) {
	fleetID, b, localID, ok := rt.resolveJob(w, r)
	if !ok {
		return
	}
	wantResult := strings.HasSuffix(r.URL.Path, "/result")
	if b == nil {
		rt.edgeJob(w, localID, wantResult)
		return
	}
	path := "/v1/jobs/" + url.PathEscape(localID)
	if wantResult {
		path += "/result"
	}
	resp, err := rt.forward(r.Context(), b, r.Method, path, nil, w.Header().Get(httpapi.RequestIDHeader))
	if err != nil {
		rt.ownerUnreachable(w, b, fleetID, err)
		return
	}
	if resp.status == http.StatusOK || resp.status == http.StatusAccepted {
		if wantResult && resp.status == http.StatusOK {
			rt.harvestResult(resp.body)
		}
		resp.body = prefixJobID(resp.body, b.ID)
	}
	rt.relay(w, b, resp)
}

// edgeJob answers polls for jobs the edge tier satisfied: the local
// ID is the canonical request key, so the snapshot (and result) come
// straight from the edge store. DELETE is a no-op on an already-done
// job, exactly as on a backend.
func (rt *Router) edgeJob(w http.ResponseWriter, key string, wantResult bool) {
	kind, payload, ok := rt.edge.Get(key)
	if !ok {
		httpapi.WriteError(w, http.StatusNotFound, httpapi.ErrCodeNotFound,
			fmt.Errorf("router: edge-cached job %s%s%s no longer present (entry evicted)", edgeBackendID, affinitySep, key))
		return
	}
	var result json.RawMessage
	if wantResult {
		result = payload
	}
	httpapi.WriteJSON(w, http.StatusOK, edgeJobInfo(key, kind, result))
}

// edgeJobInfo shapes a synthetic job snapshot for an edge-served
// result, mirroring the backend's JobInfo wire shape so pkg/client
// cannot tell the difference.
func edgeJobInfo(key, kind string, result json.RawMessage) map[string]any {
	now := time.Now().UTC()
	info := map[string]any{
		"id":           edgeBackendID + affinitySep + key,
		"kind":         kind,
		"key":          key,
		"state":        "done",
		"cache_hit":    true,
		"submitted_at": now,
		"finished_at":  now,
	}
	if result != nil {
		info["result"] = result
	}
	return info
}

// backendResponse is one relayed backend reply.
type backendResponse struct {
	status     int
	body       []byte
	retryAfter string
}

// forwardByKey walks the key's rendezvous ranking — owner first, then
// failover order — skipping draining and dead backends, and forwards
// to the first one that answers. Transport errors mark the backend
// dead and move on; a 503 "unavailable" (the backend began draining
// between probes) marks it draining and moves on. Any other answer,
// including overload shedding and job failures, belongs to the client.
// When every backend is marked out, the full ranking is tried anyway:
// stale passive state must not turn a reachable fleet into an outage.
func (rt *Router) forwardByKey(ctx context.Context, key, method, path string, body []byte, reqID string) (*Backend, *backendResponse, error) {
	order := rt.ring.Order(key)
	candidates := make([]*Backend, 0, len(order))
	for _, id := range order {
		if b := rt.byID[id]; b.Available() {
			candidates = append(candidates, b)
		}
	}
	if len(candidates) == 0 {
		for _, id := range order {
			candidates = append(candidates, rt.byID[id])
		}
	}
	var lastErr error
	for i, b := range candidates {
		if i > 0 {
			rt.metrics.add(&rt.metrics.s.Failovers)
		}
		resp, err := rt.forward(ctx, b, method, path, body, reqID)
		if err != nil {
			if ctx.Err() != nil {
				return nil, nil, ctx.Err()
			}
			b.markDead()
			rt.metrics.add(&rt.metrics.s.PassiveEjections)
			lastErr = err
			continue
		}
		if resp.status == http.StatusServiceUnavailable && errorCode(resp.body) == httpapi.ErrCodeUnavailable {
			b.markDraining()
			rt.metrics.add(&rt.metrics.s.PassiveEjections)
			lastErr = fmt.Errorf("backend %s is draining", b.ID)
			continue
		}
		return b, resp, nil
	}
	if lastErr == nil {
		lastErr = errors.New("no backends configured")
	}
	return nil, nil, fmt.Errorf("router: no backend available for key %.8s…: %w", key, lastErr)
}

// forward performs one proxied call.
func (rt *Router) forward(ctx context.Context, b *Backend, method, path string, body []byte, reqID string) (*backendResponse, error) {
	u := *b.URL
	u.Path = path
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, u.String(), rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if reqID != "" {
		req.Header.Set(httpapi.RequestIDHeader, reqID)
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	rb, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	rt.metrics.addProxied(b.ID)
	return &backendResponse{
		status:     resp.StatusCode,
		body:       rb,
		retryAfter: resp.Header.Get("Retry-After"),
	}, nil
}

// relay writes a backend response through to the client, tagging
// which backend answered for debugging and tests.
func (rt *Router) relay(w http.ResponseWriter, b *Backend, resp *backendResponse) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Backend", b.ID)
	w.Header().Set("X-Cache", "backend")
	if resp.retryAfter != "" {
		w.Header().Set("Retry-After", resp.retryAfter)
	}
	w.WriteHeader(resp.status)
	_, _ = w.Write(resp.body)
}

func (rt *Router) writeNoBackend(w http.ResponseWriter, err error) {
	rt.metrics.add(&rt.metrics.s.NoBackendErrors)
	httpapi.SetRetryAfter(w, time.Second)
	httpapi.WriteError(w, http.StatusServiceUnavailable, httpapi.ErrCodeUnavailable, err)
}

// serveEdgePayload answers a request straight from the edge tier.
func (rt *Router) serveEdgePayload(w http.ResponseWriter, payload []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", "edge")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(payload)
}

// edgeGet probes the edge tier; a hit whose stored kind disagrees
// with the request kind is impossible by construction (the key hashes
// the kind) but checked anyway — a mismatched entry is discarded, not
// served.
func (rt *Router) edgeGet(key, wantKind string) ([]byte, bool) {
	if rt.edge == nil {
		return nil, false
	}
	kind, payload, ok := rt.edge.Get(key)
	if !ok {
		rt.metrics.add(&rt.metrics.s.EdgeCacheMisses)
		return nil, false
	}
	if kind != wantKind {
		rt.edge.Discard(key)
		rt.metrics.add(&rt.metrics.s.EdgeCacheMisses)
		return nil, false
	}
	rt.metrics.add(&rt.metrics.s.EdgeCacheHits)
	return payload, true
}

// edgePut spills a fresh 200 payload into the edge tier
// (best-effort; the store counts failures). The payload is compacted
// first: the store embeds it as raw JSON and checksums the stored
// bytes, so the indentation of the HTTP body must not reach the disk
// envelope.
func (rt *Router) edgePut(key, kind string, payload []byte) {
	if rt.edge == nil {
		return
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, payload); err != nil {
		return
	}
	_ = rt.edge.Put(key, kind, buf.Bytes())
}

// harvestResult opportunistically spills a completed async job's
// result into the edge tier as it streams past on a result poll, so
// async traffic warms the edge exactly like sync traffic does.
func (rt *Router) harvestResult(body []byte) {
	if rt.edge == nil {
		return
	}
	var snap struct {
		Kind   string          `json:"kind"`
		Key    string          `json:"key"`
		State  string          `json:"state"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(body, &snap); err != nil {
		return
	}
	if snap.State != "done" || snap.Key == "" || len(snap.Result) == 0 {
		return
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, snap.Result); err != nil {
		return
	}
	if err := rt.edge.Put(snap.Key, snap.Kind, buf.Bytes()); err == nil {
		rt.metrics.add(&rt.metrics.s.EdgeCacheHarvests)
	}
}

// prefixJobID rewrites the "id" field of a job snapshot to carry the
// owning backend's affinity prefix. Bodies that are not job snapshots
// pass through untouched.
func prefixJobID(body []byte, backendID string) []byte {
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		return body
	}
	id, _ := m["id"].(string)
	if id == "" || strings.Contains(id, affinitySep) {
		return body
	}
	m["id"] = backendID + affinitySep + id
	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return body
	}
	return append(out, '\n')
}

// errorCode extracts the stable machine code from an error envelope
// ("" when the body is not one).
func errorCode(body []byte) string {
	var e httpapi.ErrorBody
	if err := json.Unmarshal(body, &e); err != nil {
		return ""
	}
	return e.Error.Code
}
