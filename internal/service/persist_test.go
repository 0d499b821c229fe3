package service

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"waterimm/internal/api"
	"waterimm/internal/rcache"
)

// openStore opens a disk store the way watersrvd does: bounded,
// keyed to the current schema generation.
func openStore(t *testing.T, dir string) *rcache.Store {
	t.Helper()
	s, err := rcache.Open(dir, 64<<20, api.CacheGeneration)
	if err != nil {
		t.Fatalf("open store %s: %v", dir, err)
	}
	return s
}

// drain flushes an engine so every finished result is durably on
// disk before the "restart" (spills happen on the worker goroutines
// Drain waits for).
func drain(t *testing.T, e *Engine) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := e.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// entryFile is the store's on-disk name for a cache key; the restart
// tests reach into the layout to corrupt entries and to pin recency.
func entryFile(dir, key string) string {
	return filepath.Join(dir, key+".json")
}

// TestRestartServesFromDisk is the tentpole's end-to-end contract: a
// fresh engine pointed at a previous process's cache directory must
// answer previously computed requests without running a single
// solve, with the hits attributed to the right tier.
func TestRestartServesFromDisk(t *testing.T) {
	dir := t.TempDir()
	plans := []*api.PlanRequest{
		{Chip: "lp", Chips: 1, GridNX: 8, GridNY: 8, ThresholdC: 80},
		{Chip: "lp", Chips: 1, GridNX: 8, GridNY: 8, ThresholdC: 82},
		{Chip: "lp", Chips: 1, GridNX: 8, GridNY: 8, ThresholdC: 84},
	}

	e1 := New(Config{DiskCache: openStore(t, dir)})
	var keys []string
	for _, p := range plans {
		in, err := e1.Submit(p)
		if err != nil {
			t.Fatal(err)
		}
		got := waitDone(t, e1, in.ID)
		if got.State != StateDone {
			t.Fatalf("phase-1 plan: state %s, error %q", got.State, got.Error)
		}
		keys = append(keys, got.Key)
	}
	drain(t, e1)
	e1.Close()

	// Pin the last plan as the unambiguously newest entry so the
	// warm boot below (capped at one entry) is deterministic.
	future := time.Now().Add(time.Minute)
	if err := os.Chtimes(entryFile(dir, keys[2]), future, future); err != nil {
		t.Fatal(err)
	}

	// "Restart": a new store and engine over the same directory. The
	// LRU is sized to one entry so only the newest plan is warmed
	// into memory and the other two must travel the lazy disk path.
	e2 := New(Config{CacheEntries: 1, DiskCache: openStore(t, dir)})
	defer e2.Close()
	for _, i := range []int{2, 0, 1} {
		req := *plans[i] // Submit takes ownership; don't reuse phase-1 pointers
		in, err := e2.Submit(&req)
		if err != nil {
			t.Fatal(err)
		}
		if !in.CacheHit || in.State != StateDone {
			t.Fatalf("plan %d after restart not a cache hit: %+v", i, in)
		}
	}

	m := e2.Metrics()
	if m.CacheHitsMem != 1 || m.CacheHitsDisk != 2 || m.CacheMisses != 0 {
		t.Fatalf("tier split after restart: mem=%d disk=%d miss=%d, want 1/2/0",
			m.CacheHitsMem, m.CacheHitsDisk, m.CacheMisses)
	}
	// Zero recomputation: no job ran, no CG solve happened.
	if m.JobsDone != 0 {
		t.Fatalf("restarted engine recomputed %d jobs", m.JobsDone)
	}
	if len(m.Solver) != 0 {
		t.Fatalf("restarted engine ran solves: %+v", m.Solver)
	}
	if !m.DiskCacheEnabled || m.DiskCacheEntries != 3 {
		t.Fatalf("disk gauges: %+v", m)
	}
}

// TestRestartSweepSkipsSolves: a sweep whose cells were computed by a
// previous process must skip those solves entirely — the identical
// sweep is a whole-response hit, and a superset sweep only computes
// the genuinely new cells.
func TestRestartSweepSkipsSolves(t *testing.T) {
	dir := t.TempDir()
	sweep := &api.SweepRequest{
		Chips:       []string{"lp"},
		Depths:      []int{1, 2},
		Coolants:    []string{"water"},
		ThresholdsC: []float64{80, 85},
		GridNX:      8, GridNY: 8,
	}

	e1 := New(Config{DiskCache: openStore(t, dir)})
	in, err := e1.Submit(sweep)
	if err != nil {
		t.Fatal(err)
	}
	if got := waitDone(t, e1, in.ID); got.State != StateDone {
		t.Fatalf("phase-1 sweep: state %s, error %q", got.State, got.Error)
	}
	drain(t, e1)
	e1.Close()

	e2 := New(Config{DiskCache: openStore(t, dir)})
	defer e2.Close()

	// The identical sweep is answered from the warmed whole-sweep
	// entry without touching a worker.
	same := &api.SweepRequest{
		Chips:       []string{"lp"},
		Depths:      []int{1, 2},
		Coolants:    []string{"water"},
		ThresholdsC: []float64{80, 85},
		GridNX:      8, GridNY: 8,
	}
	rerun, err := e2.Submit(same)
	if err != nil {
		t.Fatal(err)
	}
	if !rerun.CacheHit || rerun.State != StateDone {
		t.Fatalf("identical sweep after restart: %+v", rerun)
	}
	if m := e2.Metrics(); m.JobsDone != 0 {
		t.Fatalf("identical sweep recomputed %d jobs", m.JobsDone)
	}

	// A superset sweep shares four of its six cells with the old
	// process; only the two new thresholds may solve.
	wider := &api.SweepRequest{
		Chips:       []string{"lp"},
		Depths:      []int{1, 2},
		Coolants:    []string{"water"},
		ThresholdsC: []float64{80, 85, 90},
		GridNX:      8, GridNY: 8,
	}
	win, err := e2.Submit(wider)
	if err != nil {
		t.Fatal(err)
	}
	got := waitDone(t, e2, win.ID)
	if got.State != StateDone {
		t.Fatalf("superset sweep: state %s, error %q", got.State, got.Error)
	}
	resp := got.Result.(*api.SweepResponse)
	if resp.TotalCells != 6 || resp.CachedCells != 4 {
		t.Fatalf("superset sweep reuse: total=%d cached=%d, want 6/4", resp.TotalCells, resp.CachedCells)
	}
	if got.Progress == nil || got.Progress.CachedCells != 4 {
		t.Fatalf("superset sweep progress: %+v", got.Progress)
	}
	// Exactly the sweep orchestration plus the two new cells ran.
	if m := e2.Metrics(); m.JobsDone != 3 {
		t.Fatalf("superset sweep ran %d jobs, want 3 (sweep + 2 new cells)", m.JobsDone)
	}
}

// TestRestartRecoversFromCorruptEntry: a cache file damaged between
// processes (torn write, bit rot, stray editor) must be detected,
// deleted, and counted — and the request recomputed — on both load
// paths: the bulk warm boot and the lazy per-request lookup.
func TestRestartRecoversFromCorruptEntry(t *testing.T) {
	reqA := &api.PlanRequest{Chip: "lp", Chips: 1, GridNX: 8, GridNY: 8, ThresholdC: 80}
	reqB := &api.PlanRequest{Chip: "lp", Chips: 1, GridNX: 8, GridNY: 8, ThresholdC: 82}

	// seed computes both plans into dir and returns their keys.
	seed := func(t *testing.T, dir string) (keyA, keyB string) {
		e := New(Config{DiskCache: openStore(t, dir)})
		var keys []string
		for _, p := range []*api.PlanRequest{reqA, reqB} {
			req := *p
			in, err := e.Submit(&req)
			if err != nil {
				t.Fatal(err)
			}
			got := waitDone(t, e, in.ID)
			if got.State != StateDone {
				t.Fatalf("seed plan: state %s, error %q", got.State, got.Error)
			}
			keys = append(keys, got.Key)
		}
		drain(t, e)
		e.Close()
		return keys[0], keys[1]
	}

	corrupt := func(t *testing.T, dir, key string) {
		if err := os.WriteFile(entryFile(dir, key), []byte("not a cache envelope"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("warm-boot", func(t *testing.T) {
		dir := t.TempDir()
		_, keyB := seed(t, dir)
		corrupt(t, dir, keyB)

		// An uncapped warm boot reads every entry, so it trips over
		// the damaged one during startup.
		e := New(Config{DiskCache: openStore(t, dir)})
		defer e.Close()
		if m := e.Metrics(); m.DiskCacheCorrupt == 0 || m.DiskCacheEntries != 1 {
			t.Fatalf("warm boot kept the corrupt entry: corrupt=%d entries=%d",
				m.DiskCacheCorrupt, m.DiskCacheEntries)
		}

		req := *reqB
		in, err := e.Submit(&req)
		if err != nil {
			t.Fatal(err)
		}
		got := waitDone(t, e, in.ID)
		if got.State != StateDone || got.CacheHit {
			t.Fatalf("corrupted plan must recompute: %+v", got)
		}
		if _, ok := got.Result.(*api.PlanResponse); !ok {
			t.Fatalf("recomputed result type %T", got.Result)
		}
		m := e.Metrics()
		if m.JobsDone != 1 || m.CacheMisses != 1 {
			t.Fatalf("recovery accounting: done=%d miss=%d, want 1/1", m.JobsDone, m.CacheMisses)
		}
	})

	t.Run("lazy-lookup", func(t *testing.T) {
		dir := t.TempDir()
		keyA, keyB := seed(t, dir)
		corrupt(t, dir, keyB)

		// Keep the corrupt entry out of the warm set (cap the warm
		// boot at one entry, with the healthy plan pinned newest) so
		// the damage is only discovered by the per-request lookup.
		future := time.Now().Add(time.Minute)
		if err := os.Chtimes(entryFile(dir, keyA), future, future); err != nil {
			t.Fatal(err)
		}
		e := New(Config{CacheEntries: 1, DiskCache: openStore(t, dir)})
		defer e.Close()
		if m := e.Metrics(); m.DiskCacheCorrupt != 0 {
			t.Fatalf("warm boot should not have touched the corrupt entry: %d", m.DiskCacheCorrupt)
		}

		req := *reqB
		in, err := e.Submit(&req)
		if err != nil {
			t.Fatal(err)
		}
		got := waitDone(t, e, in.ID)
		if got.State != StateDone || got.CacheHit {
			t.Fatalf("corrupted plan must recompute: %+v", got)
		}
		m := e.Metrics()
		if m.DiskCacheCorrupt == 0 {
			t.Fatal("lazy lookup did not count the corrupt entry")
		}
		if m.CacheHitsDisk != 0 || m.CacheMisses != 1 || m.JobsDone != 1 {
			t.Fatalf("recovery accounting: disk=%d miss=%d done=%d, want 0/1/1",
				m.CacheHitsDisk, m.CacheMisses, m.JobsDone)
		}
		// The recompute re-spills a healthy replacement; after a
		// drain the entry must be back and loadable.
		drain(t, e)
		if m := e.Metrics(); m.DiskCacheEntries != 2 {
			t.Fatalf("repaired store has %d entries, want 2", m.DiskCacheEntries)
		}
	})
}

// TestDiskDecodesEveryKind stores a marshalled response of every kind
// in api.Kinds and reads it back through the engine's disk probe: each
// must come back as the kind's own response type, the type a memory
// hit of that kind carries.
func TestDiskDecodesEveryKind(t *testing.T) {
	store := openStore(t, t.TempDir())
	e := New(Config{DiskCache: store})
	defer e.Close()
	for i, k := range api.Kinds {
		want := k.NewResponse()
		payload, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		key := fmt.Sprintf("%064x", i)
		if err := store.Put(key, k.Name, payload); err != nil {
			t.Fatal(err)
		}
		got, ok := e.diskLookup(key)
		if !ok {
			t.Fatalf("kind %s: stored response did not decode", k.Name)
		}
		if reflect.TypeOf(got) != reflect.TypeOf(want) {
			t.Errorf("kind %s: disk decode yields %T, want %T", k.Name, got, want)
		}
	}
}
