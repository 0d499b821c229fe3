// Package httpapi is the HTTP surface of a watersrvd backend: it
// binds a service.Engine to the /v1 simulation API, the health and
// metrics endpoints, and the JSON error envelope. cmd/watersrvd wires
// flags and signals around it; internal/router proxies to it and
// reuses its envelope vocabulary, and tests stand up real backends
// in-process with NewHandler.
package httpapi

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"waterimm/internal/api"
	"waterimm/internal/service"
)

// RequestIDHeader names the header that carries a request's
// correlation ID across the router → backend → client path. The
// router mints one per request; a backend reached directly mints its
// own. It is echoed on every response and embedded in the JSON error
// envelope so one ID ties a client-visible failure to the edge and
// backend log lines it traversed.
const RequestIDHeader = "X-Request-Id"

// NewRequestID returns a fresh 16-hex-char correlation ID.
func NewRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing means the platform is broken; a constant
		// ID degrades tracing, not correctness.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// Options configures the handler.
type Options struct {
	// SyncTimeout is the budget of the synchronous endpoints before
	// they degrade to 202 + async job.
	SyncTimeout time.Duration
	// Pprof serves net/http/pprof under /debug/pprof/.
	Pprof bool
}

// server binds the engine to the HTTP surface.
type server struct {
	engine      *service.Engine
	syncTimeout time.Duration
}

// NewHandler returns the full watersrvd HTTP surface over e.
func NewHandler(e *service.Engine, opts Options) http.Handler {
	s := &server{engine: e, syncTimeout: opts.SyncTimeout}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.healthz)
	mux.HandleFunc("GET /v1/metrics", s.metrics)
	for _, k := range api.Kinds {
		if k.Path != "" {
			mux.HandleFunc("POST "+k.Path, func(w http.ResponseWriter, r *http.Request) {
				s.sync(w, r, k.NewRequest())
			})
		}
	}
	mux.HandleFunc("POST /v1/jobs", s.submit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.status)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.result)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", s.stream)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.cancel)
	mux.Handle("GET /debug/vars", expvar.Handler())
	if opts.Pprof {
		// Registered on the private mux (not http.DefaultServeMux, which
		// importing net/http/pprof would populate unconditionally) so
		// profiling is opt-in via -pprof: CPU and heap profiles of a
		// solver-bound daemon are invaluable, but the endpoints leak
		// internals and cost real CPU while sampling.
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return WithRequestID(mux)
}

// WithRequestID adopts the caller's X-Request-Id (the router already
// minted one) or mints a fresh one, and sets it on the response
// header before the wrapped handler runs — WriteError reads it back
// into the error envelope from there.
func WithRequestID(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(RequestIDHeader)
		if id == "" {
			id = NewRequestID()
		}
		w.Header().Set(RequestIDHeader, id)
		next.ServeHTTP(w, r)
	})
}

// WriteJSON writes v as an indented JSON body under status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// Stable machine-readable error codes of the JSON error envelope.
// These are API surface: clients dispatch on them, so changing one is
// a breaking change.
const (
	ErrCodeBadRequest      = "bad_request"       // malformed body or envelope
	ErrCodeInvalidArgument = "invalid_argument"  // well-formed but failed validation
	ErrCodeQueueFull       = "queue_full"        // job queue at capacity (429), retry after Retry-After
	ErrCodeOverloaded      = "overloaded"        // predicted queue wait over budget (503), retry after Retry-After
	ErrCodeShed            = "shed"              // accepted job dropped after overstaying the queue (429)
	ErrCodeDeadline        = "deadline_exceeded" // job ran out of its -job-deadline budget (504)
	ErrCodeUnavailable     = "unavailable"       // engine draining or shut down (503)
	ErrCodeNotFound        = "not_found"         // unknown job ID
	ErrCodeCanceled        = "canceled"          // job was cancelled before finishing
	ErrCodeInternal        = "internal"          // simulation failed (includes recovered panics)
)

// ErrorDetail is the inner object of the error envelope.
type ErrorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// RequestID is the correlation ID of the failed request, when one
	// was assigned (it always is on this surface).
	RequestID string `json:"request_id,omitempty"`
}

// ErrorBody is the JSON error envelope every non-2xx response wears:
// {"error": {"code": ..., "message": ..., "request_id": ...}}.
type ErrorBody struct {
	Error ErrorDetail `json:"error"`
}

// WriteError writes the error envelope, folding in the request ID the
// WithRequestID middleware stamped on the response header.
func WriteError(w http.ResponseWriter, status int, code string, err error) {
	WriteJSON(w, status, ErrorBody{Error: ErrorDetail{
		Code:      code,
		Message:   err.Error(),
		RequestID: w.Header().Get(RequestIDHeader),
	}})
}

// SetRetryAfter adds a Retry-After header (whole seconds, rounded
// up) when the engine supplied a back-off hint.
func SetRetryAfter(w http.ResponseWriter, d time.Duration) {
	if d > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(d.Seconds()))))
	}
}

// submitError maps a Submit failure onto an HTTP status, error code
// and Retry-After hint. Submit fails on validation (the request is
// wrong) or on capacity (the service is busy or draining); the code
// tells the client which retry policy applies: 429 means this
// request was turned away, 503 means the service as a whole has no
// capacity right now — both carry Retry-After.
func submitError(err error) (status int, code string, retryAfter time.Duration) {
	var ov *service.OverloadError
	if errors.As(err, &ov) {
		retryAfter = ov.RetryAfter
	}
	switch {
	case errors.Is(err, service.ErrQueueFull):
		return http.StatusTooManyRequests, ErrCodeQueueFull, retryAfter
	case errors.Is(err, service.ErrOverloaded):
		return http.StatusServiceUnavailable, ErrCodeOverloaded, retryAfter
	case errors.Is(err, service.ErrClosed):
		return http.StatusServiceUnavailable, ErrCodeUnavailable, time.Second
	default:
		return http.StatusBadRequest, ErrCodeInvalidArgument, 0
	}
}

// failureStatus maps a failed job's stable service code onto the
// response status and envelope code. Recovered panics surface as
// internal — the code is in the job snapshot for the curious, but
// clients retry panics exactly like any other internal failure.
func failureStatus(in service.JobInfo) (int, string) {
	switch in.ErrorCode {
	case service.CodeDeadline:
		return http.StatusGatewayTimeout, ErrCodeDeadline
	case service.CodeShed:
		return http.StatusTooManyRequests, ErrCodeShed
	default:
		return http.StatusInternalServerError, ErrCodeInternal
	}
}

func decodeBody(r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}

// healthz answers 200 "ok" while the backend accepts new work and
// 503 "draining" once a drain has been announced (SIGTERM) or begun,
// so routers and load balancers stop routing new submissions here
// while in-flight jobs finish.
func (s *server) healthz(w http.ResponseWriter, _ *http.Request) {
	if s.engine.Draining() {
		WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *server) metrics(w http.ResponseWriter, _ *http.Request) {
	WriteJSON(w, http.StatusOK, s.engine.Metrics())
}

// sync runs a request to completion within the sync timeout and
// returns the bare response payload. If the budget runs out first it
// answers 202 with the job snapshot; the job keeps running and the
// client can poll the async endpoints.
func (s *server) sync(w http.ResponseWriter, r *http.Request, req api.Request) {
	if err := decodeBody(r, req); err != nil {
		WriteError(w, http.StatusBadRequest, ErrCodeBadRequest, err)
		return
	}
	in, err := s.engine.Submit(req)
	if err != nil {
		status, code, retryAfter := submitError(err)
		SetRetryAfter(w, retryAfter)
		WriteError(w, status, code, err)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.syncTimeout)
	defer cancel()
	got, err := s.engine.Wait(ctx, in.ID)
	if err != nil {
		// Timeout or client disconnect: hand back the job handle.
		st, stErr := s.engine.Status(in.ID)
		if stErr != nil {
			WriteError(w, http.StatusInternalServerError, ErrCodeInternal, stErr)
			return
		}
		WriteJSON(w, http.StatusAccepted, st)
		return
	}
	switch got.State {
	case service.StateDone:
		WriteJSON(w, http.StatusOK, got.Result)
	case service.StateCanceled:
		WriteError(w, http.StatusConflict, ErrCodeCanceled, fmt.Errorf("job %s was cancelled", got.ID))
	default:
		status, code := failureStatus(got)
		if code == ErrCodeShed {
			SetRetryAfter(w, s.engine.RetryAfterHint())
		}
		WriteError(w, status, code, fmt.Errorf("job %s failed: %s", got.ID, got.Error))
	}
}

// submit is the canonical job-submission endpoint: it accepts the
// typed envelope ({"type": ..., "request": {...}}, api.DecodeJobRequest).
func (s *server) submit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(nil, r.Body, 1<<20))
	if err != nil {
		WriteError(w, http.StatusBadRequest, ErrCodeBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	req, err := api.DecodeJobRequest(body)
	if err != nil {
		WriteError(w, http.StatusBadRequest, ErrCodeBadRequest, err)
		return
	}
	in, err := s.engine.Submit(req)
	if err != nil {
		status, code, retryAfter := submitError(err)
		SetRetryAfter(w, retryAfter)
		WriteError(w, status, code, err)
		return
	}
	status := http.StatusAccepted
	if in.State.Terminal() {
		status = http.StatusOK // cache hit: already done
	}
	WriteJSON(w, status, in)
}

func (s *server) status(w http.ResponseWriter, r *http.Request) {
	in, err := s.engine.Status(r.PathValue("id"))
	if err != nil {
		WriteError(w, http.StatusNotFound, ErrCodeNotFound, err)
		return
	}
	WriteJSON(w, http.StatusOK, in)
}

func (s *server) result(w http.ResponseWriter, r *http.Request) {
	in, err := s.engine.Result(r.PathValue("id"))
	switch {
	case errors.Is(err, service.ErrUnknownJob):
		WriteError(w, http.StatusNotFound, ErrCodeNotFound, err)
	case errors.Is(err, service.ErrNotDone):
		WriteJSON(w, http.StatusAccepted, in)
	case err != nil:
		WriteError(w, http.StatusInternalServerError, ErrCodeInternal, err)
	default:
		WriteJSON(w, http.StatusOK, in)
	}
}

func (s *server) cancel(w http.ResponseWriter, r *http.Request) {
	in, err := s.engine.Cancel(r.PathValue("id"))
	if err != nil {
		WriteError(w, http.StatusNotFound, ErrCodeNotFound, err)
		return
	}
	WriteJSON(w, http.StatusOK, in)
}
