package httpapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"waterimm/internal/api"
	"waterimm/internal/service"
)

// stream serves a cosimstream job's interval feed as Server-Sent
// Events: one "interval" event per coupling interval (its SSE id is
// the 1-based sequence number) followed by a single "done" event
// carrying the terminal job snapshot — with the full result payload
// when the job finished. ?from=N skips intervals the client already
// holds (N is the last sequence number it has seen), which is how a
// client resumes a dropped stream: reconnect with from set to its
// last id and the feed continues without duplicates.
//
// A cosimstream submission served whole from a cache tier has no live
// feed; its recorded series is replayed the same way, so clients
// cannot tell a cached stream from a freshly computed one except by
// pace.
func (s *server) stream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	from, ok := StreamFrom(w, r)
	if !ok {
		return
	}
	in, err := s.engine.Status(id)
	if err != nil {
		WriteError(w, http.StatusNotFound, ErrCodeNotFound, err)
		return
	}
	if in.Kind != "cosimstream" {
		WriteError(w, http.StatusBadRequest, ErrCodeBadRequest,
			fmt.Errorf("job %s is a %s job; only cosimstream jobs stream", id, in.Kind))
		return
	}
	es, err := StartEventStream(w)
	if err != nil {
		WriteError(w, http.StatusInternalServerError, ErrCodeInternal, err)
		return
	}

	for {
		batch, done, err := s.engine.StreamNext(r.Context(), id, from)
		if errors.Is(err, service.ErrNotStreaming) {
			// Answered whole from a cache tier: replay the recorded
			// series, which is decimated to the request's max_samples —
			// exactly what the response payload promises.
			res, err := s.engine.Result(id)
			if err != nil {
				return
			}
			var series []api.CosimStreamInterval
			if resp, ok := res.Result.(*api.CosimStreamResponse); ok {
				series = resp.Series
			}
			es.Replay(series, from, res)
			return
		}
		if err != nil {
			// Client gone or request context cancelled: the SSE body
			// just ends; the job keeps running and a reconnect with
			// ?from= picks the feed back up.
			return
		}
		for _, iv := range batch {
			es.Event("interval", iv.Seq, iv)
			from = iv.Seq
		}
		if done && len(batch) == 0 {
			res, err := s.engine.Result(id)
			if err != nil {
				// Terminal signal but no terminal snapshot is a GC race
				// (the finished ring evicted the record); end the body.
				return
			}
			es.Event("done", 0, res)
			return
		}
	}
}

// EventStream writes Server-Sent Events, flushing after each so
// intervals reach the client as they are computed, not when the
// response buffer happens to fill. Both the backend and the router's
// edge replay frame their cosimstream feeds through it.
type EventStream struct {
	w  http.ResponseWriter
	fl http.Flusher
}

// StartEventStream sets the event-stream headers on w, writes the 200
// status and flushes it. Headers the caller adds (the router's
// X-Cache) must be set on w before the call. It writes nothing and
// returns an error when w cannot flush.
func StartEventStream(w http.ResponseWriter) (*EventStream, error) {
	fl, ok := w.(http.Flusher)
	if !ok {
		return nil, errors.New("response writer cannot stream")
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-store")
	// Tell buffering reverse proxies to pass events through as-is.
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	return &EventStream{w: w, fl: fl}, nil
}

// Event writes one event — an id line when id > 0 (the interval
// sequence number), the event name and the JSON payload — and flushes
// it.
func (es *EventStream) Event(name string, id int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		return
	}
	if id > 0 {
		fmt.Fprintf(es.w, "id: %d\n", id)
	}
	fmt.Fprintf(es.w, "event: %s\ndata: %s\n\n", name, data)
	es.fl.Flush()
}

// Replay writes a recorded series as a stream resumed after from: one
// "interval" event per interval past from, then the "done" event
// carrying done.
func (es *EventStream) Replay(series []api.CosimStreamInterval, from int, done any) {
	for _, iv := range series {
		if iv.Seq > from {
			es.Event("interval", iv.Seq, iv)
		}
	}
	es.Event("done", 0, done)
}

// StreamFrom parses a stream request's ?from= resume point: the last
// interval sequence number the client holds, 0 when absent. A
// malformed value is answered with a 400 here, and ok is false.
func StreamFrom(w http.ResponseWriter, r *http.Request) (from int, ok bool) {
	q := r.URL.Query().Get("from")
	if q == "" {
		return 0, true
	}
	n, err := strconv.Atoi(q)
	if err != nil || n < 0 {
		WriteError(w, http.StatusBadRequest, ErrCodeBadRequest, fmt.Errorf("bad from parameter %q", q))
		return 0, false
	}
	return n, true
}
