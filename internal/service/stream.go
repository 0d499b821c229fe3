package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"waterimm/internal/api"
	"waterimm/internal/cosim"
	"waterimm/internal/material"
	"waterimm/internal/power"
	"waterimm/internal/stack"
)

// ErrStreamDrained fails a cosimstream job whose engine began
// draining: the orchestrator checkpoints the stream's resumable state
// to the disk tier and parks, instead of racing the drain deadline to
// the end of the run. Classified as a cancellation — resubmitting the
// identical request after restart resumes from the checkpoint.
var ErrStreamDrained = errors.New("service: stream parked behind checkpoint for drain")

// ErrNotStreaming is returned by StreamNext for jobs that have no live
// interval feed — every non-cosimstream kind, and cosimstream
// submissions served whole from a cache tier (their full series is in
// the cached result instead).
var ErrNotStreaming = errors.New("service: job has no interval stream")

// streamCheckpointKind tags disk-cache entries holding stream
// checkpoints rather than finished results. diskLookup can never
// surface one as a result — checkpoint keys live in their own hash
// domain — and warmFromDisk skips them.
const streamCheckpointKind = "cosimstream.ckpt"

// streamCheckpointKey derives the disk key a job's checkpoint lives
// under from the job's result key. A distinct domain string keeps the
// two keyspaces disjoint: a checkpoint can never shadow the result it
// is working toward.
func streamCheckpointKey(key string) string {
	sum := sha256.Sum256([]byte("waterimm/ckpt\x00" + key))
	return hex.EncodeToString(sum[:])
}

// streamState is a cosimstream job's live interval feed: the
// orchestrator is the only appender, any number of StreamNext readers
// block on notify for new intervals. It has its own lock so readers
// never touch Engine.mu while waiting.
type streamState struct {
	mu        sync.Mutex
	intervals []api.CosimStreamInterval
	notify    chan struct{}
}

func newStreamState() *streamState {
	return &streamState{notify: make(chan struct{})}
}

// buildStream constructs the interval engine for a validated,
// normalized request.
func (e *Engine) buildStream(req *api.CosimStreamRequest) (*cosim.Stream, error) {
	chip, err := power.ModelByName(req.Chip)
	if err != nil {
		return nil, err
	}
	coolant, err := material.ByName(req.Coolant)
	if err != nil {
		return nil, err
	}
	params := stack.DefaultParams()
	params.GridNX, params.GridNY = req.GridNX, req.GridNY
	cfg := cosim.StreamConfig{
		Chip: chip, Chips: req.Chips, Coolant: coolant, Params: params,
		FHz: req.GHz * 1e9, IntervalS: req.IntervalS,
		Intervals: req.Intervals, SubSteps: req.SubSteps,
		OnSolve: e.metrics.observeSolve,
	}
	for _, p := range req.Trace {
		cfg.Phases = append(cfg.Phases, cosim.StreamPhase{DurationS: p.DurationS, Utilisation: p.Utilisation})
	}
	if req.DTMSetpointC > 0 {
		cfg.DVFS = &cosim.DVFSPolicy{SetpointC: req.DTMSetpointC, HysteresisC: req.DTMHysteresisC}
	}
	return cosim.NewStream(cfg)
}

// runStream is a cosimstream job's body, run by orchestrate on its own
// goroutine (tracked by the orchestrators WaitGroup, so Drain waits
// for the park-and-checkpoint handoff). It drives the interval loop:
// restore a disk checkpoint if one fits, then per interval — park
// behind a fresh checkpoint when the engine drains, otherwise advance
// the stream, publish the sample to the live feed, and checkpoint
// every CheckpointEvery intervals.
// The finished response is assembled from the full sample history
// (restored + solved), so a resumed run's payload is byte-identical to
// an uninterrupted one and caches cleanly at every tier.
func (e *Engine) runStream(j *job, req *api.CosimStreamRequest) (*api.CosimStreamResponse, error) {
	st, err := e.buildStream(req)
	if err != nil {
		return nil, err
	}
	ckptKey := streamCheckpointKey(j.key)
	if e.disk != nil {
		if ck, ok := e.loadStreamCheckpoint(ckptKey); ok {
			if err := st.Restore(ck); err != nil {
				// A checkpoint the stream rejects (wrong grid after a
				// code change, truncated state) is unusable damage.
				e.disk.Discard(ckptKey)
			} else if ck.Seq > 0 {
				e.publishSamples(j, ck.Samples)
				e.metrics.add(&e.metrics.streamResumes, 1)
				e.metrics.add(&e.metrics.streamResumedIntervals, uint64(ck.Seq))
				e.mu.Lock()
				j.resumedFrom = ck.Seq
				e.mu.Unlock()
			}
		}
	}

	sinceCkpt := 0
	for !st.Done() {
		if e.Draining() && e.disk != nil {
			e.saveStreamCheckpoint(ckptKey, st)
			return nil, fmt.Errorf("%w (interval %d/%d checkpointed)", ErrStreamDrained, st.Seq(), req.Intervals)
		}
		sample, err := st.Next(j.ctx)
		if err != nil {
			// Cancellation and deadline also leave a checkpoint behind:
			// durability is cheap here and a retry resumes instead of
			// recomputing.
			if e.disk != nil && st.Seq() > 0 {
				e.saveStreamCheckpoint(ckptKey, st)
			}
			return nil, err
		}
		e.metrics.add(&e.metrics.streamIntervals, 1)
		e.publishSamples(j, []cosim.StreamSample{sample})
		sinceCkpt++
		if e.disk != nil && sinceCkpt >= req.CheckpointEvery && !st.Done() {
			e.saveStreamCheckpoint(ckptKey, st)
			sinceCkpt = 0
		}
	}
	if e.disk != nil {
		// The run finished; its result spills through the normal path
		// and the checkpoint would only hold dead bytes against the
		// store's budget.
		e.disk.Remove(ckptKey)
	}

	samples := st.Samples()
	resp := &api.CosimStreamResponse{
		Intervals: len(samples),
		MaxPeakC:  st.MaxPeakC(),
		MeanGHz:   st.MeanGHz(),
		Throttles: st.Throttles(),
	}
	if n := len(samples); n > 0 {
		resp.Seconds = samples[n-1].TimeS
	}
	for _, i := range decimate(len(samples), req.MaxSamples) {
		resp.Series = append(resp.Series, toStreamInterval(samples[i]))
	}
	return resp, nil
}

// loadStreamCheckpoint fetches and decodes a job's checkpoint;
// anything that fails a check is discarded as corrupt.
func (e *Engine) loadStreamCheckpoint(ckptKey string) (*cosim.Checkpoint, bool) {
	kind, payload, ok := e.disk.Get(ckptKey)
	if !ok {
		return nil, false
	}
	if kind != streamCheckpointKind {
		e.disk.Discard(ckptKey)
		return nil, false
	}
	ck := &cosim.Checkpoint{}
	if err := json.Unmarshal(payload, ck); err != nil {
		e.disk.Discard(ckptKey)
		return nil, false
	}
	return ck, true
}

// saveStreamCheckpoint spills the stream's resumable state. Spills are
// best-effort exactly like result spills: a failed write costs resume
// coverage, never correctness.
func (e *Engine) saveStreamCheckpoint(ckptKey string, st *cosim.Stream) {
	payload, err := json.Marshal(st.Checkpoint())
	if err != nil {
		return
	}
	if e.disk.Put(ckptKey, streamCheckpointKind, payload) == nil {
		e.metrics.add(&e.metrics.streamCheckpoints, 1)
	}
}

func toStreamInterval(s cosim.StreamSample) api.CosimStreamInterval {
	return api.CosimStreamInterval{
		Seq: s.Seq, TimeS: s.TimeS, GHz: s.FHz / 1e9, PeakC: s.PeakC,
		DynamicW: s.DynamicW, StaticW: s.StaticW,
		Utilisation: s.Utilisation, Throttled: s.Throttled,
	}
}

// publishSamples appends intervals to the job's live feed, wakes every
// blocked StreamNext reader, and mirrors the count into the job's
// progress. The orchestrator goroutine is the sole caller.
func (e *Engine) publishSamples(j *job, samples []cosim.StreamSample) {
	if len(samples) == 0 {
		return
	}
	st := j.stream
	st.mu.Lock()
	for _, s := range samples {
		st.intervals = append(st.intervals, toStreamInterval(s))
	}
	n := len(st.intervals)
	close(st.notify)
	st.notify = make(chan struct{})
	st.mu.Unlock()

	e.mu.Lock()
	j.progress.DoneCells = n
	e.mu.Unlock()
}

// StreamNext returns the job's intervals with Seq > afterSeq, blocking
// until at least one exists, the job reaches a terminal state (done
// reports true; drain the empty batch and stop), or ctx fires. Seq
// numbers are 1-based and contiguous, so afterSeq doubles as "how many
// intervals the caller already has" — the SSE layer maps Last-Event-ID
// and ?from= onto it directly.
func (e *Engine) StreamNext(ctx context.Context, id string, afterSeq int) ([]api.CosimStreamInterval, bool, error) {
	e.mu.Lock()
	j, ok := e.jobs[id]
	e.mu.Unlock()
	if !ok {
		return nil, false, ErrUnknownJob
	}
	if j.stream == nil {
		return nil, false, ErrNotStreaming
	}
	if afterSeq < 0 {
		afterSeq = 0
	}
	st := j.stream
	for {
		st.mu.Lock()
		if afterSeq < len(st.intervals) {
			out := append([]api.CosimStreamInterval(nil), st.intervals[afterSeq:]...)
			st.mu.Unlock()
			return out, false, nil
		}
		notify := st.notify
		st.mu.Unlock()

		// The buffer is drained; a closed done channel means no more
		// intervals are coming. Checked after the buffer so a reader
		// always sees every interval before the terminal signal.
		select {
		case <-j.done:
			return nil, true, nil
		default:
		}
		select {
		case <-ctx.Done():
			return nil, false, ctx.Err()
		case <-notify:
		case <-j.done:
			return nil, true, nil
		}
	}
}
