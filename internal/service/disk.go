package service

import (
	"encoding/json"
	"fmt"

	"waterimm/internal/api"
	"waterimm/internal/faultinject"
)

// decodeResult re-types a disk-cache payload into the response the
// request kind produces, so a disk hit is indistinguishable from a
// memory hit to everything downstream (including the sweep
// orchestrator's *api.PlanResponse assertion on cell results).
func decodeResult(kind string, payload []byte) (any, error) {
	k, ok := api.KindByName(kind)
	if !ok {
		return nil, fmt.Errorf("service: unknown cached result kind %q", kind)
	}
	res := k.NewResponse()
	if err := json.Unmarshal(payload, res); err != nil {
		return nil, fmt.Errorf("service: decode cached %s result: %w", kind, err)
	}
	return res, nil
}

// diskLookup probes the persistent store for a finished result. The
// store verifies checksum, schema generation and key before returning
// anything (deleting what fails); a payload that passes those checks
// but no longer decodes into its response type is discarded the same
// way. The cache-lookup failpoint degrades a disk hit into a miss
// exactly as it does a memory hit: a flaky cache costs recompute
// latency, never correctness. Callers must not hold the engine lock —
// this does file IO.
func (e *Engine) diskLookup(key string) (any, bool) {
	kind, payload, ok := e.disk.Get(key)
	if !ok {
		return nil, false
	}
	if faultinject.Hit(nil, faultinject.SiteCacheLookup) != nil {
		return nil, false
	}
	res, err := decodeResult(kind, payload)
	if err != nil {
		e.disk.Discard(key)
		return nil, false
	}
	return res, true
}

// spill writes one computed result to the persistent store. Spills
// are best-effort: a failure is counted by the store and the result
// still lives in the memory LRU — it just won't survive a restart.
// Callers must not hold the engine lock.
func (e *Engine) spill(kind, key string, result any) {
	payload, err := json.Marshal(result)
	if err != nil {
		// Response types hold only plain scalars and slices; Marshal
		// cannot fail in practice. Skip the spill rather than crash.
		return
	}
	_ = e.disk.Put(key, kind, payload)
}

// warmFromDisk bulk-loads the most recently used disk entries into
// the in-memory LRU, newest last so LRU order matches disk recency.
// Only called from New, before the engine is shared, so no locking.
// Entries beyond the LRU capacity stay on disk and are served lazily
// through diskLookup on first miss.
func (e *Engine) warmFromDisk() {
	ents := e.disk.Entries() // oldest first
	if len(ents) > e.cfg.CacheEntries {
		ents = ents[len(ents)-e.cfg.CacheEntries:]
	}
	for _, en := range ents {
		kind, payload, ok := e.disk.Get(en.Key)
		if !ok {
			continue // corrupt or stale: the store deleted and counted it
		}
		if kind == streamCheckpointKind {
			// Stream checkpoints share the store but are not results:
			// they stay on disk for the resubmission that resumes them.
			continue
		}
		res, err := decodeResult(kind, payload)
		if err != nil {
			e.disk.Discard(en.Key)
			continue
		}
		e.cache.add(en.Key, res)
	}
}
