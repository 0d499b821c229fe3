package router

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"waterimm/internal/api"
	"waterimm/internal/httpapi"
)

// streamProxy serves GET /v1/jobs/{id}/stream: the affinity prefix in
// the job ID names the owning backend, whose SSE feed is relayed
// event-by-event — unlike the buffering forward() path, bytes flow
// through with a flush per read, so intervals reach the client as the
// backend computes them. Jobs owned by the "edge" pseudo-backend are
// re-served from the router's cache tier: the stored response's series
// is synthesized back into the same event stream.
func (rt *Router) streamProxy(w http.ResponseWriter, r *http.Request) {
	rt.metrics.add(&rt.metrics.requests)
	fleetID := r.PathValue("id")
	if unescaped, err := url.PathUnescape(fleetID); err == nil {
		fleetID = unescaped
	}
	owner, localID, ok := strings.Cut(fleetID, affinitySep)
	if !ok || localID == "" {
		httpapi.WriteError(w, http.StatusNotFound, httpapi.ErrCodeNotFound,
			fmt.Errorf("router: job ID %q carries no backend affinity (was it issued by this router?)", fleetID))
		return
	}
	if owner == edgeBackendID {
		rt.edgeStream(w, r, localID)
		return
	}
	b := rt.byID[owner]
	if b == nil {
		httpapi.WriteError(w, http.StatusNotFound, httpapi.ErrCodeNotFound,
			fmt.Errorf("router: job ID %q names unknown backend %q", fleetID, owner))
		return
	}

	u := *b.URL
	u.Path = "/v1/jobs/" + url.PathEscape(localID) + "/stream"
	u.RawQuery = r.URL.RawQuery
	req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, u.String(), nil)
	if err != nil {
		httpapi.WriteError(w, http.StatusInternalServerError, httpapi.ErrCodeInternal, err)
		return
	}
	if reqID := w.Header().Get(httpapi.RequestIDHeader); reqID != "" {
		req.Header.Set(httpapi.RequestIDHeader, reqID)
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		// Same stance as jobProxy: the owner is unreachable and its
		// live feed cannot be served elsewhere, but its checkpoint
		// survives on disk — the client resubmits, the job resumes,
		// and a fresh stream continues the interval numbering.
		b.markDead(err)
		rt.metrics.add(&rt.metrics.passiveEjections)
		httpapi.SetRetryAfter(w, time.Second)
		httpapi.WriteError(w, http.StatusServiceUnavailable, httpapi.ErrCodeUnavailable,
			fmt.Errorf("router: backend %s owning job %s is unreachable: %w", b.ID, fleetID, err))
		return
	}
	defer resp.Body.Close()
	rt.metrics.addProxied(b.ID)

	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.Header().Set("X-Backend", b.ID)
	w.Header().Set("X-Cache", "backend")
	w.WriteHeader(resp.StatusCode)
	fl, canFlush := w.(http.Flusher)
	if canFlush {
		fl.Flush()
	}
	buf := make([]byte, 32<<10)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if canFlush {
				fl.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}

// edgeStream replays an edge-cached cosimstream result as the same
// event stream a backend would serve: the local ID is the canonical
// request key, the stored payload's series becomes the interval
// events, and the done event carries the synthetic edge job snapshot
// with the full result.
func (rt *Router) edgeStream(w http.ResponseWriter, r *http.Request, key string) {
	from := 0
	if q := r.URL.Query().Get("from"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 {
			httpapi.WriteError(w, http.StatusBadRequest, httpapi.ErrCodeBadRequest,
				fmt.Errorf("bad from parameter %q", q))
			return
		}
		from = n
	}
	kind, payload, ok := rt.edge.Get(key)
	if !ok {
		httpapi.WriteError(w, http.StatusNotFound, httpapi.ErrCodeNotFound,
			fmt.Errorf("router: edge-cached job %s%s%s no longer present (entry evicted)", edgeBackendID, affinitySep, key))
		return
	}
	if kind != "cosimstream" {
		httpapi.WriteError(w, http.StatusBadRequest, httpapi.ErrCodeBadRequest,
			fmt.Errorf("router: job %s%s%s is a %s job; only cosimstream jobs stream", edgeBackendID, affinitySep, key, kind))
		return
	}
	var resp api.CosimStreamResponse
	if err := json.Unmarshal(payload, &resp); err != nil {
		rt.edge.Discard(key)
		httpapi.WriteError(w, http.StatusNotFound, httpapi.ErrCodeNotFound,
			fmt.Errorf("router: edge-cached stream entry no longer decodes: %w", err))
		return
	}
	w.Header().Set("X-Cache", "edge")
	es, err := httpapi.StartEventStream(w)
	if err != nil {
		httpapi.WriteError(w, http.StatusInternalServerError, httpapi.ErrCodeInternal, err)
		return
	}
	for _, iv := range resp.Series {
		if iv.Seq <= from {
			continue
		}
		es.Event("interval", iv.Seq, iv)
	}
	es.Event("done", 0, edgeJobInfo(key, kind, payload))
}
