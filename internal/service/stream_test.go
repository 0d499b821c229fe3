package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"testing"
	"time"

	"waterimm/internal/api"
)

// streamReq is a small, fast streaming job: coarse grid, single
// substep, a trace with an idle tail so utilisation coupling is
// exercised too.
func streamReq(intervals int) *api.CosimStreamRequest {
	return &api.CosimStreamRequest{
		Chip: "lp", GHz: 1.5, Coolant: "water",
		IntervalS: 0.01, Intervals: intervals, SubSteps: 1,
		GridNX: 16, GridNY: 16,
		Trace: []api.CosimStreamPhase{
			{DurationS: 0.05, Utilisation: 1},
			{DurationS: 0.05, Utilisation: 0.2},
		},
		CheckpointEvery: 10,
		MaxSamples:      100_000,
	}
}

// collectStreamed reads a job's feed through StreamNext until the
// terminal signal, asserting the sequence numbers stay contiguous.
func collectStreamed(t *testing.T, e *Engine, id string) []api.CosimStreamInterval {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var all []api.CosimStreamInterval
	for {
		batch, done, err := e.StreamNext(ctx, id, len(all))
		if err != nil {
			t.Fatalf("StreamNext after %d intervals: %v", len(all), err)
		}
		for _, in := range batch {
			if in.Seq != len(all)+1 {
				t.Fatalf("interval gap: got seq %d after %d", in.Seq, len(all))
			}
			all = append(all, in)
		}
		if done && len(batch) == 0 {
			return all
		}
	}
}

func TestStreamJobLiveFeed(t *testing.T) {
	e := New(Config{})
	defer e.Close()

	req := streamReq(12)
	in, err := e.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if in.Kind != "cosimstream" || in.Progress == nil || in.Progress.TotalCells != 12 {
		t.Fatalf("submitted job info: %+v", in)
	}
	feed := collectStreamed(t, e, in.ID)
	if len(feed) != 12 {
		t.Fatalf("live feed carried %d intervals, want 12", len(feed))
	}
	// The idle phase of the trace must show up as duty-cycled power.
	if feed[0].Utilisation != 1 || feed[6].Utilisation != 0.2 {
		t.Fatalf("trace not coupled: %+v / %+v", feed[0], feed[6])
	}
	if feed[6].DynamicW >= feed[0].DynamicW {
		t.Fatalf("idle interval not cheaper: busy %g W, idle %g W", feed[0].DynamicW, feed[6].DynamicW)
	}

	got := waitDone(t, e, in.ID)
	if got.State != StateDone {
		t.Fatalf("job: state %s, error %q", got.State, got.Error)
	}
	resp, ok := got.Result.(*api.CosimStreamResponse)
	if !ok {
		t.Fatalf("result type %T", got.Result)
	}
	if resp.Intervals != 12 || len(resp.Series) != 12 {
		t.Fatalf("response: %+v", resp)
	}
	// The final series and the live feed are the same records.
	for i := range resp.Series {
		if resp.Series[i] != feed[i] {
			t.Fatalf("series[%d] %+v != feed %+v", i, resp.Series[i], feed[i])
		}
	}
	if got.Progress.DoneCells != 12 {
		t.Fatalf("progress: %+v", got.Progress)
	}
	m := e.Metrics()
	if m.StreamJobs != 1 || m.StreamIntervals != 12 || m.StreamResumes != 0 {
		t.Fatalf("stream metrics: %+v", m)
	}

	// An identical resubmission is a whole-job cache hit with no live
	// feed; its full series lives in the cached result.
	req2 := streamReq(12)
	hit, err := e.Submit(req2)
	if err != nil {
		t.Fatal(err)
	}
	if !hit.CacheHit || hit.State != StateDone {
		t.Fatalf("identical stream not served from cache: %+v", hit)
	}
	if _, _, err := e.StreamNext(context.Background(), hit.ID, 0); !errors.Is(err, ErrNotStreaming) {
		t.Fatalf("cache-hit job StreamNext error %v, want ErrNotStreaming", err)
	}
}

func TestStreamNextRejectsNonStreamingKinds(t *testing.T) {
	e := New(Config{})
	defer e.Close()
	in, err := e.Submit(&api.PlanRequest{Chip: "lp", GridNX: 8, GridNY: 8, ThresholdC: 80})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, e, in.ID)
	if _, _, err := e.StreamNext(context.Background(), in.ID, 0); !errors.Is(err, ErrNotStreaming) {
		t.Fatalf("plan job StreamNext error %v, want ErrNotStreaming", err)
	}
	if _, _, err := e.StreamNext(context.Background(), "j999999-missing", 0); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("unknown job StreamNext error %v, want ErrUnknownJob", err)
	}
}

// TestStreamDrainResume is the tentpole's end-to-end contract: a
// streamed job interrupted by a drain resumes on a fresh engine from
// the last checkpoint — contiguous sequence numbers, zero recomputed
// intervals, and a final response byte-identical to an uninterrupted
// run's.
func TestStreamDrainResume(t *testing.T) {
	const intervals = 200
	dir := t.TempDir()

	e1 := New(Config{DiskCache: openStore(t, dir)})
	in, err := e1.Submit(streamReq(intervals))
	if err != nil {
		t.Fatal(err)
	}

	// Let the run get past the first checkpoint (every 10 intervals),
	// then drain mid-flight.
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	seen := 0
	for seen < 17 {
		batch, done, err := e1.StreamNext(ctx, in.ID, seen)
		if err != nil || done {
			t.Fatalf("stream ended early: seen=%d done=%v err=%v", seen, done, err)
		}
		seen += len(batch)
	}
	e1.BeginDrain()
	drain(t, e1)

	parked, err := e1.Status(in.ID)
	if err != nil {
		t.Fatal(err)
	}
	if parked.State != StateCanceled || parked.ErrorCode != CodeCanceled {
		t.Fatalf("drained stream job: %+v", parked)
	}
	solved1 := e1.Metrics().StreamIntervals
	if solved1 >= intervals || solved1 < 17 {
		t.Fatalf("phase-1 solved %d intervals, want a strict mid-run count >= 17", solved1)
	}
	e1.Close()

	// "Restart": a fresh engine over the same cache directory. The
	// identical request resumes from the parked checkpoint.
	e2 := New(Config{DiskCache: openStore(t, dir)})
	in2, err := e2.Submit(streamReq(intervals))
	if err != nil {
		t.Fatal(err)
	}
	if in2.CacheHit {
		t.Fatalf("interrupted job must not be a cache hit: %+v", in2)
	}
	feed := collectStreamed(t, e2, in2.ID)
	if len(feed) != intervals {
		t.Fatalf("resumed feed carried %d intervals, want %d", len(feed), intervals)
	}
	got := waitDone(t, e2, in2.ID)
	if got.State != StateDone {
		t.Fatalf("resumed job: state %s, error %q", got.State, got.Error)
	}
	if got.ResumedFromSeq == 0 {
		t.Fatal("resumed job did not report resumed_from_seq")
	}

	// Zero recomputed intervals: the drain parked behind a fresh
	// checkpoint, so phase 2 picks up exactly where phase 1 stopped.
	m2 := e2.Metrics()
	if m2.StreamResumes != 1 {
		t.Fatalf("stream_resumes = %d, want 1", m2.StreamResumes)
	}
	if m2.StreamResumedIntervals != solved1 {
		t.Fatalf("resumed %d intervals, phase 1 solved %d — recompute or loss", m2.StreamResumedIntervals, solved1)
	}
	if m2.StreamIntervals+m2.StreamResumedIntervals != intervals {
		t.Fatalf("interval conservation: solved %d + resumed %d != %d",
			m2.StreamIntervals, m2.StreamResumedIntervals, intervals)
	}

	// The consumed checkpoint is retired; only the spilled result
	// remains on disk after the drain barrier.
	drain(t, e2)
	if m := e2.Metrics(); m.DiskCacheEntries != 1 {
		t.Fatalf("store holds %d entries after resume, want 1 (the result)", m.DiskCacheEntries)
	}
	e2.Close()

	// Byte-identical to an uninterrupted run: the checkpoint carries
	// every bit the interval loop consults.
	e3 := New(Config{})
	defer e3.Close()
	in3, err := e3.Submit(streamReq(intervals))
	if err != nil {
		t.Fatal(err)
	}
	want := waitDone(t, e3, in3.ID)
	if want.State != StateDone {
		t.Fatalf("uninterrupted run: state %s, error %q", want.State, want.Error)
	}
	resumedJSON, err := json.Marshal(got.Result)
	if err != nil {
		t.Fatal(err)
	}
	cleanJSON, err := json.Marshal(want.Result)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resumedJSON, cleanJSON) {
		t.Errorf("resumed response differs from uninterrupted run:\nresumed %s\nclean   %s", resumedJSON, cleanJSON)
	}
}

// TestStreamJobReportsStepperSolves checks that every backward-Euler
// sub-step of a cosimstream job reaches /v1/metrics as one solve in
// the "ichol" bucket, next to the planner's steady buckets.
func TestStreamJobReportsStepperSolves(t *testing.T) {
	e := New(Config{})
	defer e.Close()

	req := streamReq(6)
	req.SubSteps = 3
	in, err := e.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if got := waitDone(t, e, in.ID); got.State != StateDone {
		t.Fatalf("job: state %s, error %q", got.State, got.Error)
	}
	st := e.Metrics().Solver["ichol"]
	if st == nil {
		t.Fatal("no ichol bucket in the solver metrics")
	}
	if st.Solves != 6*3 {
		t.Errorf("ichol solves %d, want intervals × sub_steps = %d", st.Solves, 6*3)
	}
	if st.Iterations == 0 || st.MaxIterations == 0 {
		t.Errorf("ichol bucket carries no iterations: %+v", st)
	}
}
