package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"waterimm/internal/api"
)

// fastPlan is a request small enough to finish in milliseconds: one
// die on a coarse grid.
func fastPlan() *api.PlanRequest {
	return &api.PlanRequest{Chip: "lp", Chips: 1, GridNX: 8, GridNY: 8}
}

// slowPlan is a request heavy enough to still be running when a test
// cancels it: a deep stack on a fine grid with leakage convergence.
func slowPlan() *api.PlanRequest {
	return &api.PlanRequest{
		Chip: "lp", Chips: 16, GridNX: 64, GridNY: 64, ConvergeLeakage: true,
	}
}

func waitDone(t *testing.T, e *Engine, id string) JobInfo {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	in, err := e.Wait(ctx, id)
	if err != nil {
		t.Fatalf("wait %s: %v", id, err)
	}
	return in
}

func TestSubmitWaitResult(t *testing.T) {
	e := New(Config{})
	defer e.Close()
	in, err := e.Submit(fastPlan())
	if err != nil {
		t.Fatal(err)
	}
	if in.State != StateQueued {
		t.Fatalf("fresh job state: %s", in.State)
	}
	got := waitDone(t, e, in.ID)
	if got.State != StateDone {
		t.Fatalf("state %s, error %q", got.State, got.Error)
	}
	resp, ok := got.Result.(*api.PlanResponse)
	if !ok {
		t.Fatalf("result type %T", got.Result)
	}
	if !resp.Feasible || resp.FrequencyGHz <= 0 || len(resp.DiePeaksC) != 1 {
		t.Fatalf("implausible plan response: %+v", resp)
	}
	if resp.PeakC > 80 {
		t.Fatalf("planned peak %.2f exceeds the 80C threshold", resp.PeakC)
	}
}

func TestCacheHit(t *testing.T) {
	e := New(Config{})
	defer e.Close()
	first, err := e.Submit(fastPlan())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, e, first.ID)

	second, err := e.Submit(fastPlan())
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit || second.State != StateDone {
		t.Fatalf("repeat request not served from cache: %+v", second)
	}
	if second.ID == first.ID {
		t.Fatal("cache hit must mint a fresh job record")
	}
	res, err := e.Result(second.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.Result == nil {
		t.Fatal("cached job carries no result")
	}
	m := e.Metrics()
	if m.CacheHits != 1 || m.JobsDone != 1 {
		t.Fatalf("metrics: hits %d, done %d (want 1, 1)", m.CacheHits, m.JobsDone)
	}
	if m.CacheHitRate <= 0 {
		t.Fatalf("cache hit rate %g", m.CacheHitRate)
	}
}

func TestInflightDedup(t *testing.T) {
	e := New(Config{})
	defer e.Close()
	first, err := e.Submit(slowPlan())
	if err != nil {
		t.Fatal(err)
	}
	second, err := e.Submit(slowPlan())
	if err != nil {
		t.Fatal(err)
	}
	if second.ID != first.ID || !second.Deduped {
		t.Fatalf("identical in-flight request not deduped: first %s, second %+v", first.ID, second)
	}
	if m := e.Metrics(); m.DedupHits != 1 {
		t.Fatalf("dedup hits %d, want 1", m.DedupHits)
	}
	if _, err := e.Cancel(first.ID); err != nil {
		t.Fatal(err)
	}
}

func TestCancelRunning(t *testing.T) {
	e := New(Config{})
	defer e.Close()
	in, err := e.Submit(slowPlan())
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the job to actually start.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := e.Status(in.ID)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == StateRunning {
			break
		}
		if st.State.Terminal() {
			t.Fatalf("job finished before cancel: %+v (make slowPlan slower)", st)
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	if _, err := e.Cancel(in.ID); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	got, err := e.Wait(ctx, in.ID)
	if err != nil {
		t.Fatalf("cancelled job did not stop promptly: %v", err)
	}
	if got.State != StateCanceled {
		t.Fatalf("state %s after cancel", got.State)
	}
	if wait := time.Since(start); wait > 2*time.Second {
		t.Fatalf("cancel took %v; solver is not polling its context", wait)
	}
	if m := e.Metrics(); m.JobsCanceled != 1 {
		t.Fatalf("canceled counter %d", m.JobsCanceled)
	}
}

func TestCancelQueued(t *testing.T) {
	e := New(Config{Workers: 1})
	defer e.Close()
	blocker, err := e.Submit(slowPlan())
	if err != nil {
		t.Fatal(err)
	}
	queued, err := e.Submit(fastPlan())
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.Cancel(queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateCanceled || got.ErrorCode != CodeCanceled {
		t.Fatalf("queued job after cancel: state %s, code %q", got.State, got.ErrorCode)
	}
	if m := e.Metrics(); m.JobsCanceled != 1 {
		t.Fatalf("canceled counter %d after cancelling the queued job", m.JobsCanceled)
	}
	// The canceled job is finished: waiters return, and it no longer
	// absorbs an identical submission.
	waitDone(t, e, queued.ID)
	again, err := e.Submit(fastPlan())
	if err != nil {
		t.Fatal(err)
	}
	if again.Deduped || again.ID == queued.ID {
		t.Fatalf("resubmission attached to the canceled job: %+v", again)
	}
	if _, err := e.Cancel(blocker.ID); err != nil {
		t.Fatal(err)
	}
}

// TestFinishedJobRing: the engine forgets the oldest finished job
// records beyond maxFinishedJobs, so a long-lived server's job table
// stays bounded. Cache hits finish at submission, so the ring fills
// without a single solve.
func TestFinishedJobRing(t *testing.T) {
	e := New(Config{})
	defer e.Close()
	first, err := e.Submit(fastPlan())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, e, first.ID)
	var last JobInfo
	for i := 0; i <= maxFinishedJobs; i++ {
		if last, err = e.Submit(fastPlan()); err != nil || !last.CacheHit {
			t.Fatalf("submission %d: cache hit %v, err %v", i, last.CacheHit, err)
		}
	}
	if _, err := e.Status(first.ID); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("first job after %d newer finished jobs: %v, want ErrUnknownJob", maxFinishedJobs+1, err)
	}
	if _, err := e.Result(last.ID); err != nil {
		t.Errorf("newest job: %v", err)
	}
	e.mu.Lock()
	jobs, ring := len(e.jobs), len(e.finished)
	e.mu.Unlock()
	if jobs > maxFinishedJobs || ring > maxFinishedJobs {
		t.Errorf("engine holds %d job records, %d in the ring; cap %d", jobs, ring, maxFinishedJobs)
	}
}

func TestQueueFull(t *testing.T) {
	e := New(Config{Workers: 1, QueueDepth: 1})
	defer e.Close()
	// Distinct slow configs so neither caching nor dedup absorbs them.
	mk := func(chips int) *api.PlanRequest {
		r := slowPlan()
		r.Chips = chips
		return r
	}
	if _, err := e.Submit(mk(14)); err != nil {
		t.Fatal(err)
	}
	// The first job may already be running; fill the queue slot, then
	// overflow. Between the two submits the worker cannot free a slot
	// twice, so at least one of the next two must fail when all three
	// are distinct.
	_, err1 := e.Submit(mk(15))
	_, err2 := e.Submit(mk(16))
	if !errors.Is(err1, ErrQueueFull) && !errors.Is(err2, ErrQueueFull) {
		t.Fatalf("no ErrQueueFull: %v, %v", err1, err2)
	}
}

func TestUnknownJob(t *testing.T) {
	e := New(Config{})
	defer e.Close()
	if _, err := e.Status("nope"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("status: %v", err)
	}
	if _, err := e.Result("nope"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("result: %v", err)
	}
	if _, err := e.Cancel("nope"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("cancel: %v", err)
	}
}

func TestResultBeforeDone(t *testing.T) {
	e := New(Config{Workers: 1})
	defer e.Close()
	blocker, _ := e.Submit(slowPlan())
	queued, err := e.Submit(fastPlan())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Result(queued.ID); !errors.Is(err, ErrNotDone) {
		t.Fatalf("pending result: %v", err)
	}
	e.Cancel(blocker.ID)
	e.Cancel(queued.ID)
}

func TestCosimJob(t *testing.T) {
	e := New(Config{})
	defer e.Close()
	in, err := e.Submit(&api.CosimRequest{
		Benchmark: "ep", Chips: 1, GridNX: 8, GridNY: 8,
		Scale: 0.1, MaxSamples: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := waitDone(t, e, in.ID)
	if got.State != StateDone {
		t.Fatalf("state %s, error %q", got.State, got.Error)
	}
	resp, ok := got.Result.(*api.CosimResponse)
	if !ok {
		t.Fatalf("result type %T", got.Result)
	}
	if resp.Seconds <= 0 || resp.MaxPeakC <= 25 || resp.Intervals == 0 {
		t.Fatalf("implausible cosim response: %+v", resp)
	}
	if len(resp.Series) > 16 {
		t.Fatalf("series not decimated: %d samples", len(resp.Series))
	}
}

func TestInvalidRequest(t *testing.T) {
	e := New(Config{})
	defer e.Close()
	if _, err := e.Submit(&api.PlanRequest{Coolant: "lava"}); err == nil {
		t.Fatal("invalid request accepted")
	}
	if m := e.Metrics(); m.JobsSubmitted != 0 {
		t.Fatalf("rejected request counted as submitted")
	}
}

// TestConcurrentHammer drives the engine with many concurrent
// identical and distinct requests and asserts that each distinct
// configuration is simulated exactly once — every other submission is
// absorbed by the result cache or in-flight dedup.
func TestConcurrentHammer(t *testing.T) {
	e := New(Config{})
	defer e.Close()

	const distinct = 4
	const perConfig = 8
	var wg sync.WaitGroup
	errs := make(chan error, distinct*perConfig)
	for c := 0; c < distinct; c++ {
		for i := 0; i < perConfig; i++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				r := fastPlan()
				r.ThresholdC = 80 + float64(c) // distinct cache keys
				in, err := e.Submit(r)
				if err != nil {
					errs <- fmt.Errorf("submit: %w", err)
					return
				}
				ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
				defer cancel()
				got, err := e.Wait(ctx, in.ID)
				if err != nil {
					errs <- fmt.Errorf("wait: %w", err)
					return
				}
				if got.State != StateDone {
					errs <- fmt.Errorf("job %s: state %s (%s)", got.ID, got.State, got.Error)
					return
				}
				if got.Result.(*api.PlanResponse).FrequencyGHz <= 0 {
					errs <- fmt.Errorf("job %s: empty result", got.ID)
				}
			}(c)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	m := e.Metrics()
	if m.JobsDone != distinct {
		t.Fatalf("%d simulations for %d distinct configs (cache hits %d, dedup hits %d)",
			m.JobsDone, distinct, m.CacheHits, m.DedupHits)
	}
	if m.CacheHits+m.DedupHits != distinct*(perConfig-1) {
		t.Fatalf("absorption mismatch: cache %d + dedup %d, want %d total",
			m.CacheHits, m.DedupHits, distinct*(perConfig-1))
	}
}

func TestDrainLetsJobsFinish(t *testing.T) {
	e := New(Config{})
	ids := make([]string, 0, 3)
	for c := 1; c <= 3; c++ {
		r := fastPlan()
		r.Chips = c
		in, err := e.Submit(r)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, in.ID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := e.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, id := range ids {
		got, err := e.Result(id)
		if err != nil {
			t.Fatalf("job %s after drain: %v", id, err)
		}
		if got.State != StateDone {
			t.Fatalf("job %s drained in state %s", id, got.State)
		}
	}
	if _, err := e.Submit(fastPlan()); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after drain: %v", err)
	}
}

func TestDrainDeadlineAborts(t *testing.T) {
	e := New(Config{})
	in, err := e.Submit(slowPlan())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := e.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain: %v", err)
	}
	got, err := e.Status(in.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateCanceled {
		t.Fatalf("in-flight job after aborted drain: %s", got.State)
	}
}

func TestDecimate(t *testing.T) {
	cases := []struct {
		n, max int
		want   []int
	}{
		{0, 5, nil},
		{3, 5, []int{0, 1, 2}},
		{5, 5, []int{0, 1, 2, 3, 4}},
		{10, 1, []int{9}},
		{9, 3, []int{0, 4, 8}},
		// Regression: a non-positive cap means "no cap". 0 used to
		// silently drop every sample; a negative cap panicked on
		// make([]int, max).
		{5, 0, []int{0, 1, 2, 3, 4}},
		{5, -3, []int{0, 1, 2, 3, 4}},
		{0, -1, nil},
	}
	for _, c := range cases {
		got := decimate(c.n, c.max)
		if len(got) != len(c.want) {
			t.Fatalf("decimate(%d, %d) = %v, want %v", c.n, c.max, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("decimate(%d, %d) = %v, want %v", c.n, c.max, got, c.want)
			}
		}
	}
	// Large n must keep first and last and stay within bounds.
	idx := decimate(1000, 7)
	if idx[0] != 0 || idx[len(idx)-1] != 999 || len(idx) != 7 {
		t.Fatalf("decimate(1000, 7) = %v", idx)
	}
}

func TestHistogram(t *testing.T) {
	h := newHistogram()
	h.observe(3 * time.Millisecond)
	h.observe(3 * time.Millisecond)
	h.observe(200 * time.Second) // overflow bucket
	if h.Count != 3 {
		t.Fatalf("count %d", h.Count)
	}
	if h.Counts[len(h.Counts)-1] != 1 {
		t.Fatalf("overflow not recorded: %v", h.Counts)
	}
	var sum uint64
	for _, c := range h.Counts {
		sum += c
	}
	if sum != h.Count {
		t.Fatalf("bucket sum %d != count %d", sum, h.Count)
	}
	if h.MeanS() <= 0 {
		t.Fatalf("mean %g", h.MeanS())
	}
}

func TestLRUEviction(t *testing.T) {
	c := newLRU(2)
	c.add("a", 1)
	c.add("b", 2)
	if _, ok := c.get("a"); !ok {
		t.Fatal("a missing")
	}
	c.add("c", 3) // evicts b (a was just used)
	if _, ok := c.get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if _, ok := c.get("a"); !ok {
		t.Fatal("a evicted out of LRU order")
	}
	if c.len() != 2 {
		t.Fatalf("len %d", c.len())
	}
}
