package main

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"path/filepath"
	"time"

	"waterimm/internal/api"
	"waterimm/internal/rcache"
	"waterimm/internal/service"
)

// Transient load: one engine with a disk tier, called directly. Each
// block streams one DTM-governed co-simulation through StreamNext and
// then runs a few single-pass cosim jobs, so the stepper, the interval
// loop, checkpoint spills and the event kernel are all loaded.
const (
	trGrid            = 32
	trChips           = 2
	trIntervals       = 96
	trCheckpointEvery = 32
	trCosimPerBlock   = 3
)

var trEngineConfig = service.Config{Workers: 1, CacheEntries: 1024}

var trKernels = []string{"ep", "cg", "is", "mg"}

func streamCanaryRequest() *api.CosimStreamRequest {
	return &api.CosimStreamRequest{
		Chip: "high-frequency", Chips: trChips, GHz: 3.6, IntervalS: 0.01,
		Intervals: trIntervals, SubSteps: 2, GridNX: trGrid, GridNY: trGrid,
		Trace:        []api.CosimStreamPhase{{DurationS: 0.2, Utilisation: 1}, {DurationS: 0.1, Utilisation: 0.3}},
		DTMSetpointC: 60, DTMHysteresisC: 2, CheckpointEvery: trCheckpointEvery,
	}
}

func cosimCanaryRequest() *api.CosimRequest {
	return &api.CosimRequest{Benchmark: "ep", Chip: "high-frequency", Chips: trChips, GridNX: trGrid, GridNY: trGrid, Scale: 0.05, Seed: 7}
}

// trStreamRequest draws block idx's stream job: a busy phase and a quiet
// phase of seeded utilisation, and a seeded DTM setpoint. The ranges are
// narrow so that every seed's intervals cost about the same; the busy
// phase lengthens by 1 ms per block so no job repeats an earlier one (a
// repeat would be a cache hit with no interval stream).
func trStreamRequest(rng *rand.Rand, idx int) *api.CosimStreamRequest {
	r := streamCanaryRequest()
	r.Trace = []api.CosimStreamPhase{
		{DurationS: 0.2 + 0.001*float64(idx), Utilisation: 0.8 + 0.1*float64(rng.IntN(3))},
		{DurationS: 0.1, Utilisation: 0.2 + 0.1*float64(rng.IntN(3))},
	}
	r.DTMSetpointC = 58 + float64(rng.IntN(7))
	return r
}

func trCosimRequest(rng *rand.Rand) *api.CosimRequest {
	r := cosimCanaryRequest()
	r.Benchmark = trKernels[rng.IntN(len(trKernels))]
	r.Seed = 1 + rng.Int64N(1<<30)
	return r
}

type transient struct {
	seed   int64
	dir    string
	rng    *rand.Rand
	store  *rcache.Store
	eng    *service.Engine
	refs   *refs
	mark0  service.Snapshot
	bytes0 int64
}

func newTransient(seed int64, dir string) workload {
	return &transient{seed: seed, dir: dir, rng: rand.New(rand.NewPCG(uint64(seed), 7))}
}

// setup builds the engine over a fresh disk tier and runs one short
// stream and one cosim job, which load every code path the timed phase
// uses (the checkpoint spill included).
func (w *transient) setup(ctx context.Context) error {
	var err error
	if w.refs, err = loadRefs(); err != nil {
		return err
	}
	if w.store, err = rcache.Open(filepath.Join(w.dir, "store"), 1<<30, api.CacheGeneration); err != nil {
		return err
	}
	cfg := trEngineConfig
	cfg.DiskCache = w.store
	w.eng = service.New(cfg)
	warm := streamCanaryRequest()
	warm.Intervals, warm.CheckpointEvery = 12, 8
	if _, err := runJob(ctx, w.eng, warm); err != nil {
		return err
	}
	cr := cosimCanaryRequest()
	cr.Seed = 3
	_, err = runJob(ctx, w.eng, cr)
	return err
}

func (w *transient) counts() counts {
	s := w.eng.Metrics()
	c := counts{Computes: s.CacheMisses, StreamIntervals: s.StreamIntervals, StreamCheckpoints: s.StreamCheckpoints}
	addSolver(&c, s)
	return c
}

func (w *transient) mark() {
	w.mark0 = w.eng.Metrics()
	w.bytes0 = w.store.Stats().Bytes
}

func (w *transient) block(ctx context.Context, idx int, tr *tracer, ph *phase) error {
	sreq, creqs := streamCanaryRequest(), []*api.CosimRequest{cosimCanaryRequest()}
	if idx > 0 {
		sreq, creqs = trStreamRequest(w.rng, idx), nil
	}
	for len(creqs) < trCosimPerBlock {
		creqs = append(creqs, trCosimRequest(w.rng))
	}
	if err := w.stream(ctx, idx == 0, sreq, tr, ph); err != nil {
		return err
	}
	for i, cr := range creqs {
		sp := tr.begin("service.cosim", -1, "")
		start := time.Now()
		res, err := runJob(ctx, w.eng, cr)
		lat := time.Since(start)
		tr.end(sp, "")
		work := 0.0
		if err == nil {
			resp := res.(*api.CosimResponse)
			work = float64(resp.Intervals)
			if idx == 0 && i == 0 {
				err = w.refs.Cosim.check(resp)
			} else if resp.Intervals < 1 || !(resp.MaxPeakC > 0) || resp.MeanGHz <= 0 {
				err = fmt.Errorf("cosim answered %d intervals, max %g °C, mean %g GHz", resp.Intervals, resp.MaxPeakC, resp.MeanGHz)
			}
		}
		ph.op(lat, work, err)
	}
	return ctx.Err()
}

// stream runs one cosimstream job, timing the gap between consecutive
// intervals as StreamNext delivers them, and checks the feed against the
// final result (and, for the canary, against its stored reference).
func (w *transient) stream(ctx context.Context, canary bool, req *api.CosimStreamRequest, tr *tracer, ph *phase) error {
	sp := tr.begin("service.cosimstream", -1, "")
	defer tr.end(sp, "")
	in, err := w.eng.Submit(req)
	if err != nil {
		ph.op(0, 0, err)
		return nil
	}
	last := time.Now()
	seq := 0
	var peak, ghz float64
	throttles := 0
	for {
		nx := tr.begin("service.stream_next", sp, "")
		batch, done, err := w.eng.StreamNext(ctx, in.ID, seq)
		tr.end(nx, "")
		if err != nil {
			ph.op(time.Since(last), 0, err)
			return nil
		}
		if done {
			break
		}
		now := time.Now()
		gap := now.Sub(last) / time.Duration(len(batch))
		last = now
		for _, iv := range batch {
			var err error
			if iv.Seq != seq+1 {
				err = fmt.Errorf("stream interval %d follows %d", iv.Seq, seq)
			}
			seq = iv.Seq
			peak = math.Max(peak, iv.PeakC)
			ghz += iv.GHz
			if iv.Throttled {
				throttles++
			}
			ph.op(gap, 1, err)
		}
	}
	out, err := w.eng.Result(in.ID)
	if err == nil && out.State != service.StateDone {
		err = fmt.Errorf("stream job ended %s: %s", out.State, out.Error)
	}
	if err == nil {
		resp := out.Result.(*api.CosimStreamResponse)
		switch {
		case resp.Intervals != req.Intervals || seq != req.Intervals:
			err = fmt.Errorf("stream delivered %d intervals, result says %d, asked %d", seq, resp.Intervals, req.Intervals)
		case resp.MaxPeakC != peak || resp.Throttles != throttles || math.Abs(resp.MeanGHz-ghz/float64(seq)) > tolMeanHz:
			err = fmt.Errorf("stream result (max %g °C, mean %g GHz, %d throttles) disagrees with its feed (%g, %g, %d)",
				resp.MaxPeakC, resp.MeanGHz, resp.Throttles, peak, ghz/float64(seq), throttles)
		case canary:
			err = w.refs.Stream.check(resp)
		}
	}
	if err != nil {
		ph.fail(err)
	}
	return nil
}

func (w *transient) verify(context.Context, *phase) error { return nil }

func (w *transient) close() {
	if w.eng != nil {
		w.eng.Close()
	}
}
