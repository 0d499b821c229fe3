package service

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"waterimm/internal/api"
	"waterimm/internal/faultinject"
)

// These tests arm the process-global fault registry, so none of them
// may run in parallel; each resets the registry on cleanup.

// TestWorkerPanicRecovered proves the worker pool survives a
// panicking solve: the one job fails with a stable code, the panic is
// counted, and the engine keeps serving.
func TestWorkerPanicRecovered(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	e := New(Config{})
	defer e.Close()

	faultinject.Arm(faultinject.SiteExecute, faultinject.Fault{Kind: faultinject.KindPanic, Times: 1})
	in, err := e.Submit(fastPlan())
	if err != nil {
		t.Fatal(err)
	}
	got := waitDone(t, e, in.ID)
	if got.State != StateFailed || got.ErrorCode != CodePanic {
		t.Fatalf("panicked job: state %s, code %q, error %q", got.State, got.ErrorCode, got.Error)
	}
	m := e.Metrics()
	if m.PanicsRecovered != 1 {
		t.Fatalf("panics_recovered %d, want 1", m.PanicsRecovered)
	}
	if m.JobsFailed != 1 {
		t.Fatalf("panic not counted as a failed job: %d", m.JobsFailed)
	}

	// The daemon must still serve: the same request (failures are
	// never cached) now succeeds on a healthy worker.
	in, err = e.Submit(fastPlan())
	if err != nil {
		t.Fatal(err)
	}
	if got := waitDone(t, e, in.ID); got.State != StateDone {
		t.Fatalf("engine wedged after recovered panic: %s (%s)", got.State, got.Error)
	}
}

// TestSweepPanicRecovered gives every fan-out kind the same isolation
// check: every cell execution panics, which the cell's worker
// recovers; the shared cell executor then fails the job cleanly on the
// failed cell, and the engine keeps serving.
func TestSweepPanicRecovered(t *testing.T) {
	cases := []struct {
		kind string
		req  api.Request
	}{
		{"sweep", &api.SweepRequest{Chips: []string{"lp"}, Depths: []int{1}, GridNX: 8, GridNY: 8}},
		{"montecarlo", mcServiceRequest(8)},
		{"audit", auditServiceRequest()},
	}
	for _, c := range cases {
		t.Run(c.kind, func(t *testing.T) {
			t.Cleanup(faultinject.Reset)
			e := New(Config{})
			defer e.Close()

			faultinject.Arm(faultinject.SiteExecute, faultinject.Fault{Kind: faultinject.KindPanic})
			in, err := e.Submit(c.req)
			if err != nil {
				t.Fatal(err)
			}
			got := waitDone(t, e, in.ID)
			if got.State != StateFailed {
				t.Fatalf("%s over panicking cells: %s", c.kind, got.State)
			}
			if want := c.kind + " cell 1/"; !strings.Contains(got.Error, want) {
				t.Fatalf("error %q does not name %q", got.Error, want)
			}
			if m := e.Metrics(); m.PanicsRecovered == 0 {
				t.Fatal("cell panics not counted as panics_recovered")
			}
			// The sweep's default-coolant cell has fastPlan's key. A cell
			// still in flight when the job fails would take the follow-up
			// as a dedup, the documented contract for identical work, and
			// hand it the injected panic; so let every cell settle first.
			for deadline := time.Now().Add(60 * time.Second); ; time.Sleep(time.Millisecond) {
				if m := e.Metrics(); m.JobsQueued == 0 && m.JobsRunning == 0 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("cells still queued or running a minute after the job failed")
				}
			}
			faultinject.Reset()
			in, err = e.Submit(fastPlan())
			if err != nil {
				t.Fatal(err)
			}
			if got := waitDone(t, e, in.ID); got.State != StateDone {
				t.Fatalf("engine wedged after %s panic: %s (%s)", c.kind, got.State, got.Error)
			}
		})
	}
}

// TestCGStallHitsDeadline wedges the CG loop and proves the per-job
// deadline cuts the stall short with the stable deadline code while
// the daemon keeps serving.
func TestCGStallHitsDeadline(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	e := New(Config{JobDeadline: time.Second})
	defer e.Close()

	faultinject.Arm(faultinject.SiteCGIteration, faultinject.Fault{
		Kind: faultinject.KindStall, Delay: time.Minute, Times: 1,
	})
	start := time.Now()
	in, err := e.Submit(fastPlan())
	if err != nil {
		t.Fatal(err)
	}
	got := waitDone(t, e, in.ID)
	if got.State != StateFailed || got.ErrorCode != CodeDeadline {
		t.Fatalf("stalled job: state %s, code %q, error %q", got.State, got.ErrorCode, got.Error)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("deadline did not cut the stall short (%v)", elapsed)
	}
	if m := e.Metrics(); m.JobsDeadlineExceeded != 1 {
		t.Fatalf("jobs_deadline_exceeded %d, want 1", m.JobsDeadlineExceeded)
	}

	in, err = e.Submit(fastPlan())
	if err != nil {
		t.Fatal(err)
	}
	if got := waitDone(t, e, in.ID); got.State != StateDone {
		t.Fatalf("engine wedged after CG stall: %s (%s)", got.State, got.Error)
	}
}

// TestAssemblyFaultFailsJobCleanly: an injected assembly error fails
// the job with the internal code and an identifiable injected cause.
func TestAssemblyFaultFailsJobCleanly(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	e := New(Config{})
	defer e.Close()

	faultinject.Arm(faultinject.SiteAssemble, faultinject.Fault{Kind: faultinject.KindError, Times: 1})
	in, err := e.Submit(fastPlan())
	if err != nil {
		t.Fatal(err)
	}
	got := waitDone(t, e, in.ID)
	if got.State != StateFailed || got.ErrorCode != CodeInternal {
		t.Fatalf("job with failed assembly: state %s, code %q", got.State, got.ErrorCode)
	}
	in, err = e.Submit(fastPlan())
	if err != nil {
		t.Fatal(err)
	}
	if got := waitDone(t, e, in.ID); got.State != StateDone {
		t.Fatalf("engine wedged after assembly fault: %s (%s)", got.State, got.Error)
	}
}

// TestCacheLookupFaultDegradesToMiss: a fired cache-lookup failpoint
// must cost a recompute, never a wrong or failed response.
func TestCacheLookupFaultDegradesToMiss(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	e := New(Config{})
	defer e.Close()

	first, err := e.Submit(fastPlan())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, e, first.ID)

	faultinject.Arm(faultinject.SiteCacheLookup, faultinject.Fault{Kind: faultinject.KindError, Times: 1})
	second, err := e.Submit(fastPlan())
	if err != nil {
		t.Fatal(err)
	}
	if second.CacheHit {
		t.Fatal("faulted lookup still served from cache")
	}
	got := waitDone(t, e, second.ID)
	if got.State != StateDone {
		t.Fatalf("recomputed job: %s (%s)", got.State, got.Error)
	}

	// With the fault exhausted the third identical request hits again.
	third, err := e.Submit(fastPlan())
	if err != nil {
		t.Fatal(err)
	}
	if !third.CacheHit {
		t.Fatal("cache did not recover after the fault")
	}
}

// TestQueueWaitShed: a job that overstays MaxQueueWait in the queue
// is shed at dequeue instead of burning a worker.
func TestQueueWaitShed(t *testing.T) {
	e := New(Config{Workers: 1, MaxQueueWait: time.Millisecond})
	defer e.Close()

	blocker, err := e.Submit(slowPlan())
	if err != nil {
		t.Fatal(err)
	}
	victim, err := e.Submit(fastPlan())
	if err != nil {
		t.Fatal(err)
	}
	// Let the victim overstay its budget behind the blocker, then
	// free the worker.
	time.Sleep(50 * time.Millisecond)
	if _, err := e.Cancel(blocker.ID); err != nil {
		t.Fatal(err)
	}
	got := waitDone(t, e, victim.ID)
	if got.State != StateFailed || got.ErrorCode != CodeShed {
		t.Fatalf("overstaying job: state %s, code %q, error %q", got.State, got.ErrorCode, got.Error)
	}
	if m := e.Metrics(); m.JobsShed != 1 {
		t.Fatalf("jobs_shed %d, want 1", m.JobsShed)
	}
}

// TestPredictiveOverloadReject: with a warmed run-time EWMA and a
// backed-up queue, Submit rejects at the door with a back-off hint.
func TestPredictiveOverloadReject(t *testing.T) {
	e := New(Config{Workers: 1, MaxQueueWait: 5 * time.Second})
	defer e.Close()

	// Pretend recent jobs took 100 s each, so one queued job already
	// predicts a wait far past the budget (seeding the EWMA directly
	// keeps the test independent of real solve times).
	e.metrics.mu.Lock()
	e.metrics.s.RunEWMAS = 100
	e.metrics.mu.Unlock()

	// Occupy the worker, then put one distinct job in the queue. The
	// blocker must be running first — while it sits queued, even the
	// second submit would predict a wait and be rejected.
	blocker, err := e.Submit(slowPlan())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Cancel(blocker.ID)
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := e.Status(blocker.ID)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("blocker never started")
		}
		time.Sleep(time.Millisecond)
	}
	queued := fastPlan()
	queued.ThresholdC = 81
	if _, err := e.Submit(queued); err != nil {
		t.Fatal(err)
	}

	over := fastPlan()
	over.ThresholdC = 82
	_, err = e.Submit(over)
	var ov *OverloadError
	if !errors.As(err, &ov) || !errors.Is(err, ErrOverloaded) {
		t.Fatalf("overloaded submit: %v", err)
	}
	if ov.RetryAfter < time.Second {
		t.Fatalf("retry-after hint %v, want >= 1s", ov.RetryAfter)
	}
	if m := e.Metrics(); m.OverloadRejects != 1 {
		t.Fatalf("overload_rejects %d, want 1", m.OverloadRejects)
	}
}

// TestQueueFullCarriesRetryAfter: depth rejections carry the engine's
// back-off hint for the HTTP 429 path.
func TestQueueFullCarriesRetryAfter(t *testing.T) {
	e := New(Config{Workers: 1, QueueDepth: 1})
	defer e.Close()
	mk := func(chips int) *api.PlanRequest {
		r := slowPlan()
		r.Chips = chips
		return r
	}
	if _, err := e.Submit(mk(14)); err != nil {
		t.Fatal(err)
	}
	_, err1 := e.Submit(mk(15))
	_, err2 := e.Submit(mk(16))
	err := err1
	if err == nil {
		err = err2
	}
	var ov *OverloadError
	if !errors.As(err, &ov) || !errors.Is(err, ErrQueueFull) {
		t.Fatalf("queue-full rejection: %v / %v", err1, err2)
	}
	if ov.RetryAfter <= 0 {
		t.Fatalf("no retry-after hint on %v", ov)
	}
	if m := e.Metrics(); m.QueueFullRejects == 0 {
		t.Fatal("queue_full_rejects not counted")
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	e.Drain(ctx) // abort the blockers; Close would too, just be explicit
}

// TestDeadlineExpiredInQueue: a job whose deadline fires before a
// worker reaches it is finalized without running.
func TestDeadlineExpiredInQueue(t *testing.T) {
	e := New(Config{Workers: 1, JobDeadline: 20 * time.Millisecond})
	defer e.Close()
	blocker, err := e.Submit(slowPlan())
	if err != nil {
		t.Fatal(err)
	}
	victim, err := e.Submit(fastPlan())
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let the victim's deadline lapse while queued
	e.Cancel(blocker.ID)
	got := waitDone(t, e, victim.ID)
	if got.State != StateFailed || got.ErrorCode != CodeDeadline {
		t.Fatalf("expired-in-queue job: state %s, code %q (%s)", got.State, got.ErrorCode, got.Error)
	}
	if !got.StartedAt.IsZero() {
		t.Fatal("expired job was started anyway")
	}
}
