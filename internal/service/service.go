package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"waterimm/internal/api"
	"waterimm/internal/core"
	"waterimm/internal/faultinject"
	"waterimm/internal/mc"
	"waterimm/internal/rcache"
)

// Config sizes the engine. The zero value gets sensible defaults.
type Config struct {
	// Workers is the worker-pool size; default GOMAXPROCS. The
	// thermal solver already parallelizes its matvec across cores,
	// so workers trade per-job latency against throughput.
	Workers int
	// QueueDepth bounds the number of queued-but-not-running jobs;
	// Submit fails with ErrQueueFull beyond it. Default 256.
	QueueDepth int
	// CacheEntries bounds the LRU result cache. Default 512.
	CacheEntries int
	// AssemblyCacheEntries is ignored. It bounded a retired pool of
	// assembled thermal systems; jobs now share assembly work through
	// the structural cache (see DisableStructuralReuse). Kept so
	// existing configurations still compile.
	AssemblyCacheEntries int
	// JobDeadline is the wall-clock budget of every job, covering
	// queue wait and execution: the job's context expires when it
	// runs out, the solver abandons the iteration at its next poll
	// point, and the job fails with ErrorCode "deadline_exceeded".
	// 0 disables deadlines (the default).
	JobDeadline time.Duration
	// MaxQueueWait is the load-shedding budget. When set, Submit
	// rejects new work with an *OverloadError while the predicted
	// queue wait (queue depth × EWMA run time / workers) exceeds it,
	// and a worker sheds any dequeued job that already waited longer
	// (ErrorCode "shed") instead of burning a worker on a request the
	// caller has likely given up on. 0 disables shedding (the
	// default).
	MaxQueueWait time.Duration
	// DiskCache is an optional persistent result store
	// (internal/rcache). When set, lookups are tiered — memory LRU,
	// then disk, then compute — every computed result is spilled to
	// disk, and New bulk-warms the memory LRU from the most recently
	// used disk entries so finished work survives a restart. nil
	// keeps the cache memory-only (the default).
	DiskCache *rcache.Store
	// DisableStructuralReuse turns off the per-geometry structural
	// cache (symbolic assembly reuse and nominal-basis warm starts for
	// perturbed Monte-Carlo cells), so every sample pays full assembly
	// and cold basis solves. Exists for A/B
	// benchmarking against the pre-structural path; production keeps
	// it off.
	DisableStructuralReuse bool
	// CHFScale multiplies every stamped critical-heat-flux limit
	// (stack.Params.CHFScale). 1 — and 0, meaning "default" — keeps
	// the literature correlations; operators lower it to audit against
	// a safety margin (e.g. 0.8 flags hotspots at 80 % of the boiling
	// crisis) or raise it to model surface-engineered enhancement.
	CHFScale float64
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 512
	}
	return c
}

// maxFinishedJobs bounds how many finished job records are kept for
// status/result lookups before the oldest are forgotten.
const maxFinishedJobs = 4096

// State is a job's lifecycle phase.
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Sentinel errors.
var (
	ErrQueueFull  = errors.New("service: job queue full")
	ErrClosed     = errors.New("service: engine is shut down")
	ErrUnknownJob = errors.New("service: unknown job")
	ErrNotDone    = errors.New("service: job has not finished")
	// ErrOverloaded rejects a Submit whose predicted queue wait
	// exceeds Config.MaxQueueWait; always wrapped in *OverloadError.
	ErrOverloaded = errors.New("service: predicted queue wait exceeds budget")
	// ErrShed fails a queued job whose wait exceeded
	// Config.MaxQueueWait before a worker reached it.
	ErrShed = errors.New("service: job shed after queue wait budget")
)

// OverloadError is a load-shedding rejection from Submit. It wraps
// the capacity sentinel (ErrQueueFull or ErrOverloaded) and carries
// the engine's suggested client back-off, which the HTTP layer turns
// into a Retry-After header.
type OverloadError struct {
	Err        error
	RetryAfter time.Duration
}

func (o *OverloadError) Error() string {
	return fmt.Sprintf("%v; retry after %v", o.Err, o.RetryAfter)
}

func (o *OverloadError) Unwrap() error { return o.Err }

// PanicError is a panic recovered from a job's execution. The worker
// pool converts a panicking solve into the one job's failure —
// recorded in metrics as panics_recovered — instead of letting it
// kill the daemon.
type PanicError struct {
	Value any
	Stack []byte
}

func (p *PanicError) Error() string {
	return fmt.Sprintf("service: recovered panic: %v", p.Value)
}

// Stable per-job failure codes surfaced as JobInfo.ErrorCode; the
// HTTP layer maps them onto the error envelope and status codes, so
// changing one is a breaking change.
const (
	CodeCanceled = "canceled"          // job cancelled (Cancel, drain abort)
	CodeDeadline = "deadline_exceeded" // Config.JobDeadline ran out
	CodeShed     = "shed"              // load-shed after overstaying MaxQueueWait
	CodePanic    = "panic"             // solver panicked; recovered by the worker
	CodeInternal = "internal"          // simulation failed
)

// JobInfo is a point-in-time snapshot of a job.
type JobInfo struct {
	ID   string `json:"id"`
	Kind string `json:"kind"`
	// Key is the canonical request hash (the cache key).
	Key   string `json:"key"`
	State State  `json:"state"`
	// CacheHit marks a job satisfied from the result cache without
	// simulating.
	CacheHit bool `json:"cache_hit"`
	// Deduped marks a Submit that attached to an already-queued or
	// already-running identical job; only the returned snapshot of
	// that Submit carries it.
	Deduped bool   `json:"deduped,omitempty"`
	Error   string `json:"error,omitempty"`
	// ErrorCode classifies a failure with a stable machine code (the
	// Code* constants); empty for done jobs.
	ErrorCode string `json:"error_code,omitempty"`
	// Progress is the live completion state of an orchestrated job:
	// cells done for a sweep, montecarlo or audit, intervals done for a
	// cosimstream. nil for the pool kinds (plan, cosim).
	Progress *api.SweepProgress `json:"progress,omitempty"`
	// ResumedFromSeq is the interval a cosimstream job resumed from
	// after a restart recovered its disk checkpoint; 0 for a cold
	// start. Operational telemetry only — the result payload of a
	// resumed run is byte-identical to an uninterrupted one.
	ResumedFromSeq int `json:"resumed_from_seq,omitempty"`

	SubmittedAt time.Time `json:"submitted_at"`
	StartedAt   time.Time `json:"started_at,omitempty"`
	FinishedAt  time.Time `json:"finished_at,omitempty"`

	// Result is the api.PlanResponse / api.CosimResponse payload;
	// populated by Result only, and only for done jobs.
	Result any `json:"result,omitempty"`
}

// job is the engine's mutable record; all fields below mu-guarded
// state are written under Engine.mu.
type job struct {
	id   string
	kind string
	key  string
	req  api.Request

	state     State
	cacheHit  bool
	err       error
	errCode   string
	result    any
	submitted time.Time
	started   time.Time
	finished  time.Time

	cancel context.CancelFunc
	ctx    context.Context
	done   chan struct{}

	// progress is set for the orchestrated kinds (sweep, montecarlo,
	// audit, cosimstream), written under Engine.mu as cells or
	// intervals finish.
	progress *api.SweepProgress

	// stream is the live interval feed of a cosimstream job; nil for
	// every other kind. It has its own lock — readers block on new
	// intervals without touching Engine.mu.
	stream *streamState
	// resumedFrom is the checkpointed interval a cosimstream job
	// resumed from, written under Engine.mu by its orchestrator.
	resumedFrom int
}

func (j *job) info() JobInfo {
	in := JobInfo{
		ID: j.id, Kind: j.kind, Key: j.key, State: j.state,
		CacheHit: j.cacheHit, SubmittedAt: j.submitted,
		StartedAt: j.started, FinishedAt: j.finished,
	}
	if j.err != nil {
		in.Error = j.err.Error()
		in.ErrorCode = j.errCode
	}
	if j.progress != nil {
		p := *j.progress
		in.Progress = &p
	}
	in.ResumedFromSeq = j.resumedFrom
	return in
}

// Engine owns the worker pool, queue, cache and metrics.
type Engine struct {
	cfg Config

	mu       sync.Mutex
	jobs     map[string]*job
	inflight map[string]*job // canonical key → queued/running job
	finished []string        // finished job IDs, oldest first (GC ring)
	cache    *lruCache
	seq      uint64
	closed   bool
	draining bool
	running  int

	queue         chan *job
	workers       sync.WaitGroup
	orchestrators sync.WaitGroup
	baseCtx       context.Context
	abortAll      context.CancelFunc

	// geoms shares per-geometry structural artifacts (sparsity
	// skeletons, nominal reference bases) across jobs — the
	// Monte-Carlo fast path. nil when Config.DisableStructuralReuse
	// is set; it has its own synchronization.
	geoms *core.GeomCache

	// disk is the persistent result tier (nil = memory only); it has
	// its own synchronization and is never touched under mu — disk IO
	// must not block status polls and submissions.
	disk *rcache.Store

	metrics *metrics
}

// New starts an engine and its workers.
func New(cfg Config) *Engine {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	e := &Engine{
		cfg:      cfg,
		jobs:     make(map[string]*job),
		inflight: make(map[string]*job),
		cache:    newLRU(cfg.CacheEntries),
		queue:    make(chan *job, cfg.QueueDepth),
		baseCtx:  ctx,
		abortAll: cancel,
		disk:     cfg.DiskCache,
		metrics:  newMetrics(),
	}
	if !cfg.DisableStructuralReuse {
		e.geoms = core.NewGeomCache(0)
	}
	if e.disk != nil {
		// Warm boot: results a previous process computed are resident
		// before the first request arrives.
		e.warmFromDisk()
	}
	e.workers.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go e.worker()
	}
	return e
}

// Submit normalizes, validates, and enqueues a request, returning the
// job snapshot. Three fast paths skip the queue: an invalid request
// fails immediately, a cached result comes back as an already-done
// job, and a request identical to a queued/running job returns that
// job's ID with Deduped set. Submit takes ownership of req; callers
// must not mutate it afterwards.
func (e *Engine) Submit(req api.Request) (JobInfo, error) {
	_, in, err := e.submit(req, false)
	return in, err
}

// submit is Submit plus the internal flag: cell submissions from a
// running fan-out orchestrator are continuations of an already-accepted
// job, so they pass the closed check that rejects new outside work
// while draining (Drain keeps the queue open until every orchestrator
// has fanned out and finished). It also returns the job's record, which
// runCells waits on directly: by the time a cell's turn comes, the
// finished-job ring may have forgotten its ID.
func (e *Engine) submit(req api.Request, internal bool) (*job, JobInfo, error) {
	req.Normalize()
	if err := req.Validate(); err != nil {
		return nil, JobInfo{}, err
	}
	key := req.CacheKey()

	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed && !internal {
		return nil, JobInfo{}, ErrClosed
	}
	e.metrics.add(&e.metrics.s.JobsSubmitted, 1)
	if f, in, ok := e.fastPathLocked(req, key); ok {
		return f, in, nil
	}

	// Disk tier: the probe does file IO, so the engine lock is
	// released around it — a status poll must never wait on a disk
	// read. The fast paths are re-checked afterwards because an
	// identical submission may have raced in meanwhile.
	if e.disk != nil {
		e.mu.Unlock()
		res, ok := e.diskLookup(key)
		e.mu.Lock()
		if e.closed && !internal {
			return nil, JobInfo{}, ErrClosed
		}
		if f, in, hit := e.fastPathLocked(req, key); hit {
			return f, in, nil
		}
		if ok {
			e.metrics.add(&e.metrics.s.CacheHitsDisk, 1)
			e.cache.add(key, res)
			j := e.cachedDoneLocked(req, key, res)
			return j, j.info(), nil
		}
	}

	// Predictive load shedding: once the queue is deep enough that a
	// new job would wait out its welcome, reject at the door with a
	// back-off hint instead of accepting work destined to be shed.
	// Internal submissions (fan-out cells) bypass this — their job was
	// already admitted, and starving it would livelock the batch path.
	if !internal && e.cfg.MaxQueueWait > 0 && e.estimatedWaitLocked() > e.cfg.MaxQueueWait {
		e.metrics.add(&e.metrics.s.OverloadRejects, 1)
		return nil, JobInfo{}, &OverloadError{Err: ErrOverloaded, RetryAfter: e.retryAfterLocked()}
	}

	j := e.newJobLocked(req, key)
	j.state = StateQueued
	if d := e.cfg.JobDeadline; d > 0 {
		j.ctx, j.cancel = context.WithTimeout(e.baseCtx, d)
	} else {
		j.ctx, j.cancel = context.WithCancel(e.baseCtx)
	}

	// Sweeps, Monte-Carlo runs and audits are orchestrators, not units
	// of work: each expands into plan cells that it fans out through the
	// internal submit path (so cells get caching, dedup and the worker
	// pool) and then only waits and reduces. Running one on a pool
	// worker could deadlock the pool against itself — every worker
	// parked on an orchestrator, none left for a cell. A streaming
	// co-simulation is a single long-running solve that would pin a
	// worker for the whole simulated duration. All four get their own
	// goroutine, tracked by the orchestrators WaitGroup so Drain covers
	// them — including a stream's checkpoint writes.
	var body func() (any, error)
	switch r := req.(type) {
	case *api.SweepRequest:
		j.progress = &api.SweepProgress{TotalCells: r.TotalCells()}
		body = func() (any, error) {
			cells := r.Cells()
			res, err := e.runCells(j, cells)
			if err != nil {
				return nil, err
			}
			return reduceSweep(cells, res), nil
		}
	case *api.MonteCarloRequest:
		j.progress = &api.SweepProgress{TotalCells: r.TotalCells()}
		e.metrics.add(&e.metrics.s.MCJobs, 1)
		body = func() (any, error) {
			res, err := e.runCells(j, r.Cells())
			if err != nil {
				return nil, err
			}
			return e.reduceMonteCarlo(r, res), nil
		}
	case *api.AuditRequest:
		j.progress = &api.SweepProgress{TotalCells: r.TotalCells()}
		e.metrics.add(&e.metrics.s.AuditJobs, 1)
		body = func() (any, error) {
			cells := r.Cells()
			res, err := e.runCells(j, cells)
			if err != nil {
				return nil, err
			}
			return e.reduceAudit(r, cells, res)
		}
	case *api.CosimStreamRequest:
		j.progress = &api.SweepProgress{TotalCells: r.Intervals}
		j.stream = newStreamState()
		e.metrics.add(&e.metrics.s.StreamJobs, 1)
		body = func() (any, error) { return e.runStream(j, r) }
	}
	if body == nil {
		select {
		case e.queue <- j:
		default:
			j.cancel()
			delete(e.jobs, j.id)
			e.metrics.add(&e.metrics.s.QueueFullRejects, 1)
			return nil, JobInfo{}, &OverloadError{
				Err:        fmt.Errorf("%w (depth %d)", ErrQueueFull, e.cfg.QueueDepth),
				RetryAfter: e.retryAfterLocked(),
			}
		}
	}
	// Admitted: only now is the submission a miss that will compute.
	e.metrics.add(&e.metrics.s.CacheMisses, 1)
	e.inflight[key] = j
	if body != nil {
		e.orchestrators.Add(1)
		go e.orchestrate(j, body)
	}
	return j, j.info(), nil
}

// fastPathLocked answers a submission without queueing anything: from
// the memory cache, or by attaching to an identical queued or running
// job (Deduped). A fired cache-lookup failpoint degrades a memory hit
// into a miss: the engine recomputes rather than serve a suspect entry,
// so a flaky cache costs latency, never correctness.
func (e *Engine) fastPathLocked(req api.Request, key string) (*job, JobInfo, bool) {
	if res, hit := e.cache.get(key); hit && faultinject.Hit(nil, faultinject.SiteCacheLookup) == nil {
		e.metrics.add(&e.metrics.s.CacheHitsMem, 1)
		j := e.cachedDoneLocked(req, key, res)
		return j, j.info(), true
	}
	if f, ok := e.inflight[key]; ok {
		e.metrics.add(&e.metrics.s.DedupHits, 1)
		in := f.info()
		in.Deduped = true
		return f, in, true
	}
	return nil, JobInfo{}, false
}

// estimatedWaitLocked predicts how long a job enqueued now would sit
// in the queue: queued depth spread across the workers, each slot
// taking the EWMA of recent run times. Zero until the engine has
// finished at least one job (no basis to shed on).
func (e *Engine) estimatedWaitLocked() time.Duration {
	ewma := e.metrics.runEWMA()
	if ewma <= 0 {
		return 0
	}
	perWorker := float64(len(e.queue)) / float64(e.cfg.Workers)
	return time.Duration(perWorker * ewma * float64(time.Second))
}

// retryAfterLocked is the engine's back-off suggestion for shed
// clients: the predicted queue wait clamped to [1s, 30s], so a hint
// exists even before the EWMA warms up and a deep queue never tells
// clients to go away for minutes.
func (e *Engine) retryAfterLocked() time.Duration {
	est := e.estimatedWaitLocked()
	if est < time.Second {
		est = time.Second
	}
	if est > 30*time.Second {
		est = 30 * time.Second
	}
	return est
}

// RetryAfterHint exposes the current back-off suggestion (see
// retryAfterLocked) for HTTP responses built outside Submit.
func (e *Engine) RetryAfterHint() time.Duration {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.retryAfterLocked()
}

// cachedDoneLocked mints an already-terminal job record around a
// result served from either cache tier, so the submitter gets a
// normal job snapshot without anything ever queueing.
func (e *Engine) cachedDoneLocked(req api.Request, key string, res any) *job {
	j := e.newJobLocked(req, key)
	j.state = StateDone
	j.cacheHit = true
	j.result = res
	j.finished = j.submitted
	close(j.done)
	e.rememberFinishedLocked(j)
	return j
}

func (e *Engine) newJobLocked(req api.Request, key string) *job {
	e.seq++
	j := &job{
		id:        fmt.Sprintf("j%06d-%.8s", e.seq, key),
		kind:      req.Kind(),
		key:       key,
		req:       req,
		submitted: time.Now(),
		done:      make(chan struct{}),
	}
	e.jobs[j.id] = j
	return j
}

// rememberFinishedLocked appends a terminal job to the GC ring and
// evicts the oldest finished records beyond the cap, so a long-lived
// server does not accumulate job records without bound.
func (e *Engine) rememberFinishedLocked(j *job) {
	e.finished = append(e.finished, j.id)
	for len(e.finished) > maxFinishedJobs {
		delete(e.jobs, e.finished[0])
		e.finished = e.finished[1:]
	}
}

func (e *Engine) worker() {
	defer e.workers.Done()
	for j := range e.queue {
		e.run(j, func() (any, error) {
			// The SiteExecute failpoint fires here, on the worker
			// goroutine inside run's recover, so an armed panic exercises
			// exactly the recovery path a panicking solve takes.
			if err := faultinject.Hit(j.ctx, faultinject.SiteExecute); err != nil {
				return nil, fmt.Errorf("service: job %s: %w", j.id, err)
			}
			return e.execute(j.ctx, j.req)
		})
	}
}

// orchestrate runs an off-pool job (sweep, montecarlo, audit,
// cosimstream) on its own goroutine, releasing the orchestrators
// WaitGroup that Drain waits on once the job is terminal.
func (e *Engine) orchestrate(j *job, body func() (any, error)) {
	defer e.orchestrators.Done()
	e.run(j, body)
}

// run takes a job from queued to terminal: start it (unless it was
// cancelled, expired or shed while queued), run its body with panic
// isolation, and finalize the outcome.
func (e *Engine) run(j *job, body func() (any, error)) {
	if !e.start(j) {
		return
	}
	result, err := recovered(body)
	e.finalize(j, result, err)
}

// recovered isolates the engine from a panicking job body: the panic
// becomes this one job's failure (classified CodePanic, counted as
// panics_recovered) instead of killing the daemon. It is the engine's
// only recover site, shared by pool workers and orchestrators.
func recovered(body func() (any, error)) (result any, err error) {
	defer func() {
		if r := recover(); r != nil {
			result, err = nil, &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return body()
}

// start moves a queued job to running; false means the job is
// already finalized: cancelled while queued, expired past its
// deadline, or shed after overstaying the queue-wait budget.
func (e *Engine) start(j *job) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	wait := time.Since(j.submitted)
	// Queue-side shedding: don't burn a worker on a job whose
	// deadline already fired or whose wait exceeded the budget — the
	// caller has timed out or been told to retry.
	if err := j.ctx.Err(); err != nil {
		e.failLocked(j, fmt.Errorf("service: job expired while queued (waited %v): %w",
			wait.Round(time.Millisecond), err))
		e.finishLocked(j)
		return false
	}
	if e.cfg.MaxQueueWait > 0 && wait > e.cfg.MaxQueueWait {
		e.failLocked(j, fmt.Errorf("%w (queued %v, budget %v)",
			ErrShed, wait.Round(time.Millisecond), e.cfg.MaxQueueWait))
		e.finishLocked(j)
		return false
	}
	j.state = StateRunning
	j.started = time.Now()
	e.running++
	e.metrics.observe("queue", wait)
	return true
}

// finishLocked is every queued or running job's last step, once its
// terminal state is set: stamp the finish time, release its key for
// dedup, remember it in the finished ring, cancel its context and wake
// its waiters.
func (e *Engine) finishLocked(j *job) {
	j.finished = time.Now()
	delete(e.inflight, j.key)
	e.rememberFinishedLocked(j)
	j.cancel()
	close(j.done)
}

// finalize records a running job's outcome and releases everything
// waiting on it. A successful result is then spilled to the disk tier
// outside the lock — still on the worker (or orchestrator)
// goroutine, so Drain's WaitGroups cover the write: once a drain
// returns, every finished result is durable.
func (e *Engine) finalize(j *job, result any, err error) {
	e.mu.Lock()
	e.running--
	e.metrics.observeRun(j.kind, time.Since(j.started))
	if err == nil {
		j.state = StateDone
		j.result = result
		e.cache.add(j.key, result)
		e.metrics.add(&e.metrics.s.JobsDone, 1)
	} else {
		e.failLocked(j, err)
	}
	e.finishLocked(j)
	e.mu.Unlock()

	if err == nil && e.disk != nil {
		e.spill(j.kind, j.key, result)
	}
}

// failLocked classifies a job failure into its terminal state, the
// stable error code clients dispatch on, and the matching counter.
func (e *Engine) failLocked(j *job, err error) {
	j.err = err
	var pe *PanicError
	switch {
	case errors.Is(err, ErrShed):
		j.state = StateFailed
		j.errCode = CodeShed
		e.metrics.add(&e.metrics.s.JobsShed, 1)
	case errors.Is(err, ErrStreamDrained):
		// A draining engine parked the stream behind a checkpoint; the
		// job's own context is still live, so this must be classified
		// before the ctx checks. Cancelled like a drain-aborted job —
		// a resubmission after restart picks the checkpoint back up.
		j.state = StateCanceled
		j.errCode = CodeCanceled
		e.metrics.add(&e.metrics.s.JobsCanceled, 1)
	case errors.Is(j.ctx.Err(), context.DeadlineExceeded):
		j.state = StateFailed
		j.errCode = CodeDeadline
		e.metrics.add(&e.metrics.s.JobsDeadlineExceeded, 1)
	case j.ctx.Err() != nil:
		j.state = StateCanceled
		j.errCode = CodeCanceled
		e.metrics.add(&e.metrics.s.JobsCanceled, 1)
	case errors.As(err, &pe):
		j.state = StateFailed
		j.errCode = CodePanic
		e.metrics.add(&e.metrics.s.PanicsRecovered, 1)
		e.metrics.add(&e.metrics.s.JobsFailed, 1)
	default:
		j.state = StateFailed
		j.errCode = CodeInternal
		e.metrics.add(&e.metrics.s.JobsFailed, 1)
	}
}

// cellResult is one fan-out cell as it landed: its cache key, its
// plan, and how the engine satisfied it.
type cellResult struct {
	Key      string
	Plan     *api.PlanResponse
	CacheHit bool // answered from a cache tier without solving
	Deduped  bool // coalesced onto an identical in-flight job
}

// runCells is the fan-out executor of every orchestrator kind. It
// submits every cell up front — maximizing worker-pool occupancy,
// cross-cell deduplication and assembly-cache sharing — then gathers
// the results in canonical cell order, updating the job's progress as
// cells land. The first failed or canceled cell aborts the job; cells
// already queued keep running (they are independent, possibly shared
// jobs) and their results stay cached for a retry.
func (e *Engine) runCells(j *job, cells []*api.PlanRequest) ([]cellResult, error) {
	n := len(cells)
	records := make([]*job, n)
	deduped := make([]bool, n)
	for i, cell := range cells {
		rec, in, err := e.submitCell(j.ctx, cell)
		if err != nil {
			return nil, fmt.Errorf("service: %s cell %d/%d: %w", j.kind, i+1, n, err)
		}
		records[i], deduped[i] = rec, in.Deduped
	}
	out := make([]cellResult, n)
	for i, rec := range records {
		// Cache hits from submit are already terminal; everything else
		// needs a wait. Either way waitJob fetches the result payload.
		in, err := e.waitJob(j.ctx, rec)
		if err != nil {
			return nil, fmt.Errorf("service: %s cell %d/%d: %w", j.kind, i+1, n, err)
		}
		if in.State != StateDone {
			return nil, fmt.Errorf("service: %s cell %d/%d %s: %s", j.kind, i+1, n, in.State, in.Error)
		}
		plan, ok := in.Result.(*api.PlanResponse)
		if !ok {
			return nil, fmt.Errorf("service: %s cell %d/%d returned %T", j.kind, i+1, n, in.Result)
		}
		out[i] = cellResult{Key: in.Key, Plan: plan, CacheHit: in.CacheHit, Deduped: deduped[i]}
		e.mu.Lock()
		j.progress.DoneCells++
		if in.CacheHit {
			j.progress.CachedCells++
		}
		e.mu.Unlock()
	}
	return out, nil
}

// tally counts the cells served from a cache tier and those coalesced
// onto an in-flight duplicate.
func tally(res []cellResult) (cached, deduped int) {
	for _, c := range res {
		if c.CacheHit {
			cached++
		}
		if c.Deduped {
			deduped++
		}
	}
	return cached, deduped
}

// reduceSweep assembles the batched sweep response from its cells.
func reduceSweep(cells []*api.PlanRequest, res []cellResult) *api.SweepResponse {
	resp := &api.SweepResponse{Cells: make([]api.SweepCell, len(cells)), TotalCells: len(cells)}
	for i, cell := range cells {
		resp.Cells[i] = api.SweepCell{
			Chip: cell.Chip, Chips: cell.Chips, Coolant: cell.Coolant,
			ThresholdC: cell.ThresholdC, Key: res[i].Key, Plan: res[i].Plan,
		}
	}
	resp.CachedCells, _ = tally(res)
	return resp
}

// reduceMonteCarlo reduces the sample cells, in Saltelli row order, to
// uncertainty statistics: quantiles over the independent A∪B block,
// exceedance probability at the eval step, and Sobol sensitivity
// indices from the paired columns. The cells are canonical plan
// requests, so identical draws, earlier sweeps and the result cache
// all collapse into cache/dedup hits, counted as mc_samples_deduped.
func (e *Engine) reduceMonteCarlo(req *api.MonteCarloRequest, res []cellResult) *api.MonteCarloResponse {
	names := req.ParamNames()
	resp := &api.MonteCarloResponse{
		Samples:    req.Samples,
		Params:     names,
		TotalCells: len(res),
		EvalGHz:    req.EvalGHz,
		ExceedC:    req.ExceedC,
	}
	resp.CachedCells, resp.DedupedCells = tally(res)
	e.metrics.add(&e.metrics.s.MCSamplesDeduped, uint64(resp.CachedCells+resp.DedupedCells))
	freq := make([]float64, len(res))
	peak := make([]float64, len(res))
	for i, c := range res {
		// Infeasible samples contribute 0 GHz — "this draw cannot run at
		// all" is the correct tail of the max-frequency distribution —
		// and their eval-step temperature still lands in peak, which is
		// exactly what the exceedance probability integrates.
		freq[i] = c.Plan.FrequencyGHz
		peak[i] = c.Plan.EvalPeakC
	}

	// Statistics come from the 2N independent rows (matrices A and B);
	// the N·d pivoted rows exist only to pair with them for Sobol.
	n, d := req.Samples, len(names)
	ind := 2 * n
	resp.FreqGHz = mc.Summarize(freq[:ind])
	resp.EvalPeakC = mc.Summarize(peak[:ind])
	resp.InfeasibleShare = float64(countInfeasible(freq[:ind])) / float64(ind)
	resp.ExceedProb = mc.Exceedance(peak[:ind], req.ExceedC)
	sobolFreq := mc.SobolIndices(n, d, freq)
	sobolPeak := mc.SobolIndices(n, d, peak)
	resp.Sobol = make([]api.MonteCarloSobol, d)
	for k := range names {
		resp.Sobol[k] = api.MonteCarloSobol{
			Param: names[k], FreqGHz: sobolFreq[k], EvalPeakC: sobolPeak[k],
		}
	}
	return resp
}

// countInfeasible counts samples whose max-frequency search found no
// admissible step (reported as 0 GHz).
func countInfeasible(freq []float64) int {
	n := 0
	for _, f := range freq {
		if f == 0 {
			n++
		}
	}
	return n
}

// submitCell submits one fan-out cell, waiting out transient queue-full
// rejections: the pool is busy solving earlier cells, so backing off
// briefly and retrying is the batched path's flow control.
func (e *Engine) submitCell(ctx context.Context, cell *api.PlanRequest) (*job, JobInfo, error) {
	for {
		rec, in, err := e.submit(cell, true)
		if err == nil || !errors.Is(err, ErrQueueFull) {
			return rec, in, err
		}
		select {
		case <-ctx.Done():
			return nil, JobInfo{}, ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// lockJob takes the engine lock and returns job id's record, still
// holding the lock; the caller unlocks. An ID the engine never issued,
// or whose record the finished-job ring forgot, answers ErrUnknownJob
// with the lock released.
func (e *Engine) lockJob(id string) (*job, error) {
	e.mu.Lock()
	j, ok := e.jobs[id]
	if !ok {
		e.mu.Unlock()
		return nil, ErrUnknownJob
	}
	return j, nil
}

// Status returns a job snapshot without its result payload.
func (e *Engine) Status(id string) (JobInfo, error) {
	j, err := e.lockJob(id)
	if err != nil {
		return JobInfo{}, err
	}
	defer e.mu.Unlock()
	return j.info(), nil
}

// Result returns a done job's snapshot including the response
// payload. A job that is still pending returns ErrNotDone; a failed
// or canceled job returns its snapshot and no error (the snapshot's
// State and Error fields carry the outcome).
func (e *Engine) Result(id string) (JobInfo, error) {
	j, err := e.lockJob(id)
	if err != nil {
		return JobInfo{}, err
	}
	defer e.mu.Unlock()
	if !j.state.Terminal() {
		return j.info(), ErrNotDone
	}
	in := j.info()
	in.Result = j.result
	return in, nil
}

// Cancel requests cancellation. A queued job is finalized
// immediately; a running job's context is cancelled and the solver
// abandons it at its next poll point. Cancelling a terminal job is a
// no-op. The returned snapshot reflects the state after the call.
func (e *Engine) Cancel(id string) (JobInfo, error) {
	j, err := e.lockJob(id)
	if err != nil {
		return JobInfo{}, err
	}
	defer e.mu.Unlock()
	switch j.state {
	case StateQueued:
		j.state, j.err, j.errCode = StateCanceled, context.Canceled, CodeCanceled
		e.metrics.add(&e.metrics.s.JobsCanceled, 1)
		e.finishLocked(j)
	case StateRunning:
		j.cancel()
	}
	return j.info(), nil
}

// Wait blocks until the job reaches a terminal state or ctx fires,
// then returns the snapshot with the result payload when done.
func (e *Engine) Wait(ctx context.Context, id string) (JobInfo, error) {
	j, err := e.lockJob(id)
	if err != nil {
		return JobInfo{}, err
	}
	e.mu.Unlock()
	return e.waitJob(ctx, j)
}

// waitJob is Wait on a job's record: it keeps answering after the
// finished-job ring has forgotten the ID.
func (e *Engine) waitJob(ctx context.Context, j *job) (JobInfo, error) {
	select {
	case <-j.done:
	case <-ctx.Done():
		return JobInfo{}, ctx.Err()
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	in := j.info()
	in.Result = j.result
	return in, nil
}

// Metrics returns a consistent snapshot of counters, gauges and
// latency histograms.
func (e *Engine) Metrics() Snapshot {
	s := e.metrics.snapshot()
	e.mu.Lock()
	s.JobsQueued = len(e.queue)
	s.JobsRunning = e.running
	s.CacheEntries = e.cache.len()
	s.Workers = e.cfg.Workers
	s.RetryAfterHintS = e.retryAfterLocked().Seconds()
	e.mu.Unlock()
	gs := e.geoms.Stats() // nil-safe: zeros when structural reuse is disabled
	s.GeomEntries = gs.Geometries
	s.AssemblySymbolicHits = gs.SymbolicHits
	s.AssemblySymbolicMisses = gs.SymbolicMisses
	if e.disk != nil {
		st := e.disk.Stats()
		s.DiskCacheEnabled = true
		s.DiskCacheEntries = st.Entries
		s.DiskCacheBytes = st.Bytes
		s.DiskCacheEvictions = st.Evictions
		s.DiskCacheCorrupt = st.Corrupt
		s.DiskCacheWrites = st.Writes
		s.DiskCacheWriteErrors = st.WriteErrors
	}
	return s
}

// BeginDrain marks the engine as draining for health reporting:
// Draining returns true from now on, so load balancers and routers
// polling the health endpoint stop sending new work, while in-flight
// HTTP handlers and accepted jobs still complete. Submissions are not
// rejected until Drain is called — the window between the two is the
// grace period in which traffic already on the wire lands cleanly.
func (e *Engine) BeginDrain() {
	e.mu.Lock()
	e.draining = true
	e.mu.Unlock()
}

// Draining reports whether a drain has been announced (BeginDrain) or
// started (Drain/Close). The HTTP layer turns this into a 503
// "draining" health response.
func (e *Engine) Draining() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.draining || e.closed
}

// Drain stops accepting new jobs, lets queued and running jobs finish,
// and waits for the workers and orchestrators to exit. An accepted
// fan-out job completes in full: its orchestrator may still fan out
// cells through the internal submit path, so the queue stays open
// until every orchestrator is done, and only then closes to wind the workers
// down. If ctx fires first, every remaining job is aborted via its
// context and Drain waits for the workers to observe that, returning
// ctx's error. Drain is idempotent; concurrent calls all wait.
func (e *Engine) Drain(ctx context.Context) error {
	e.mu.Lock()
	first := !e.closed
	e.closed = true
	e.mu.Unlock()

	finished := make(chan struct{})
	go func() {
		e.orchestrators.Wait()
		if first {
			close(e.queue)
		}
		e.workers.Wait()
		close(finished)
	}()
	select {
	case <-finished:
		return nil
	case <-ctx.Done():
		e.abortAll()
		<-finished
		return ctx.Err()
	}
}

// Close aborts every in-flight job and waits for the workers to exit.
func (e *Engine) Close() {
	e.abortAll()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_ = e.Drain(ctx)
}
