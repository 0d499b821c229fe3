package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Parent is the
// index of the enclosing span (-1 for a root); spans of one HTTP request
// share ReqID, which is how the router and backend spans recorded inside
// the servers are linked to the client span that caused them.
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	ReqID   string `json:"req_id,omitempty"`
	// Tag carries one classification the caller knows only after the
	// call, e.g. the X-Cache header of a routed request.
	Tag string `json:"tag,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced end-to-end phase runs.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index; -1 when tracing is off.
func (t *tracer) begin(name string, parent int, reqID string) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, StartNS: now, EndNS: -1, Parent: parent, ReqID: reqID})
	return len(t.spans) - 1
}

// end closes span i with an optional tag.
func (t *tracer) end(i int, tag string) {
	if t == nil || i < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[i].EndNS = now
	if tag != "" {
		t.spans[i].Tag = tag
	}
	t.mu.Unlock()
}

// timed runs f inside a root span and returns its duration.
func (t *tracer) timed(name string, f func() error) (time.Duration, error) {
	i := t.begin(name, -1, "")
	start := time.Now()
	err := f()
	d := time.Since(start)
	t.end(i, "")
	return d, err
}

// snapshot returns a copy of the closed spans with request-ID links
// resolved: a span without a parent whose request ID matches an earlier
// root span of another layer becomes that span's child, in the order
// client → router → httpapi.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	out := append([]span(nil), t.spans...)
	t.mu.Unlock()
	rank := map[string]int{"client": 0, "router": 1, "httpapi": 2}
	byReq := map[string][3]int{}
	for i, s := range out {
		r, ok := rank[layerOf(s.Name)]
		if !ok || s.ReqID == "" {
			continue
		}
		slot, seen := byReq[s.ReqID]
		if !seen {
			slot = [3]int{-1, -1, -1}
		}
		slot[r] = i
		byReq[s.ReqID] = slot
	}
	for _, slot := range byReq {
		for r := 1; r < 3; r++ {
			if c := slot[r]; c >= 0 && out[c].Parent < 0 {
				for p := r - 1; p >= 0; p-- {
					if slot[p] >= 0 {
						out[c].Parent = slot[p]
						break
					}
				}
			}
		}
	}
	return out
}

// layerOf maps a span name "layer.detail" to its layer.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// selfTimes sums, per layer, each span's duration minus the part of its
// interval covered by its children.
func selfTimes(spans []span) map[string]float64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 && s.EndNS >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]float64)
	for i, s := range spans {
		if s.EndNS < 0 {
			continue
		}
		covered := coveredNS(s, children[i])
		self[layerOf(s.Name)] += float64(s.EndNS-s.StartNS-covered) / 1e9
	}
	return self
}

// coveredNS is the length of the union of the children's intervals,
// clipped to the parent's.
func coveredNS(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(a, b int) bool { return kids[a].StartNS < kids[b].StartNS })
	var total, curS, curE int64
	curS, curE = -1, -1
	for _, k := range kids {
		s, e := max(k.StartNS, parent.StartNS), min(k.EndNS, parent.EndNS)
		if e <= s {
			continue
		}
		if s > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	if curE > curS {
		total += curE - curS
	}
	return total
}

// writeTrace stores the spans and their per-layer self times as JSON.
func writeTrace(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	body, err := json.Marshal(map[string]any{"self_s": selfTimes(spans), "spans": spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, body, 0o644)
}
