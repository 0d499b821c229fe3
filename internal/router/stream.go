package router

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"

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
	fleetID, b, localID, ok := rt.resolveJob(w, r)
	if !ok {
		return
	}
	if b == nil {
		rt.edgeStream(w, r, localID)
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
		// The job's checkpoint survives on the owner's disk: the client
		// resubmits, the job resumes, and a fresh stream continues the
		// interval numbering.
		rt.ownerUnreachable(w, b, fleetID, err)
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
	from, ok := httpapi.StreamFrom(w, r)
	if !ok {
		return
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
	es.Replay(resp.Series, from, edgeJobInfo(key, kind, payload))
}
