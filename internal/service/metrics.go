package service

import (
	"sync"
	"time"

	"waterimm/internal/thermal"
)

// histBounds are the latency bucket upper bounds in seconds, a
// 1-2.5-5 decade ladder from 100 µs to 100 s. Simulation jobs span
// milliseconds (a cached plan on a coarse grid) to tens of seconds
// (a deep-stack cosim), so six decades cover the dynamic range.
var histBounds = []float64{
	100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3,
	10e-3, 25e-3, 50e-3,
	100e-3, 250e-3, 500e-3,
	1, 2.5, 5,
	10, 25, 50,
	100,
}

// Histogram is a fixed-bucket latency histogram. The zero value is
// not usable; construct with newHistogram.
type Histogram struct {
	// Bounds[i] is the inclusive upper bound of Counts[i], in
	// seconds; observations above the last bound land in the
	// overflow slot Counts[len(Bounds)].
	Bounds []float64 `json:"bounds_s"`
	Counts []uint64  `json:"counts"`
	Count  uint64    `json:"count"`
	SumS   float64   `json:"sum_s"`
}

func newHistogram() *Histogram {
	return &Histogram{Bounds: histBounds, Counts: make([]uint64, len(histBounds)+1)}
}

func (h *Histogram) observe(d time.Duration) {
	s := d.Seconds()
	i := 0
	for i < len(h.Bounds) && s > h.Bounds[i] {
		i++
	}
	h.Counts[i]++
	h.Count++
	h.SumS += s
}

// MeanS returns the mean observation in seconds (0 when empty).
func (h *Histogram) MeanS() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.SumS / float64(h.Count)
}

func (h *Histogram) clone() *Histogram {
	c := *h
	c.Bounds = append([]float64(nil), h.Bounds...)
	c.Counts = append([]uint64(nil), h.Counts...)
	return &c
}

// metrics is the engine's internal registry: the counters, the
// run-time EWMA, the latency histograms and the solver statistics
// live in s, the Snapshot they are published as. Engine.Metrics
// returns consistent copies.
type metrics struct {
	mu sync.Mutex
	s  Snapshot
}

// SolverStats aggregates the CG solves that ran under one
// preconditioner kind: how many, their total iteration count (the
// mean is Iterations/Solves) and the single worst solve. A healthy
// multigrid deployment shows mg mean iterations well below jacobi's
// at comparable grids.
type SolverStats struct {
	Solves        uint64 `json:"solves"`
	Iterations    uint64 `json:"iterations"`
	MaxIterations int    `json:"max_iterations"`
}

func newMetrics() *metrics {
	return &metrics{s: Snapshot{
		LatencyS: map[string]*Histogram{"queue": newHistogram()},
		Solver:   make(map[string]*SolverStats),
	}}
}

// observeSolve records one CG solve; it matches the core.Planner
// OnSolve hook for steady solves and the cosim OnSolve hook for
// transient steps (the "ichol" bucket).
func (m *metrics) observeSolve(st thermal.SolveStats) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.s.Solver[st.Preconditioner]
	if s == nil {
		s = &SolverStats{}
		m.s.Solver[st.Preconditioner] = s
	}
	s.Solves++
	s.Iterations += uint64(st.Iterations)
	if st.Iterations > s.MaxIterations {
		s.MaxIterations = st.Iterations
	}
}

func (m *metrics) observe(stage string, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.observeLocked(stage, d)
}

func (m *metrics) observeLocked(stage string, d time.Duration) {
	h := m.s.LatencyS[stage]
	if h == nil {
		h = newHistogram()
		m.s.LatencyS[stage] = h
	}
	h.observe(d)
}

// observeRun records a finished job's run stage and folds it into
// the run-time EWMA behind load-shedding predictions.
func (m *metrics) observeRun(kind string, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.observeLocked("run."+kind, d)
	const alpha = 0.2
	if m.s.RunEWMAS == 0 {
		m.s.RunEWMAS = d.Seconds()
	} else {
		m.s.RunEWMAS = alpha*d.Seconds() + (1-alpha)*m.s.RunEWMAS
	}
}

// runEWMA returns the current run-time EWMA in seconds (0 until the
// first job finishes).
func (m *metrics) runEWMA() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.s.RunEWMAS
}

func (m *metrics) add(counter *uint64, n uint64) {
	m.mu.Lock()
	*counter += n
	m.mu.Unlock()
}

// retiredAssembly is the shape of the retired system-pool counters.
// No session pools whole systems any more, so both stay zero; the
// field is kept so existing readers of /v1/metrics still decode it.
type retiredAssembly struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
}

// Snapshot is a consistent copy of the metrics registry plus the
// engine's instantaneous gauges, shaped for JSON and expvar.
type Snapshot struct {
	// JobsSubmitted counts every submission attempt, rejected ones and
	// fan-out cells' queue-full retries included.
	JobsSubmitted uint64 `json:"jobs_submitted"`
	JobsDone      uint64 `json:"jobs_done"`
	JobsFailed    uint64 `json:"jobs_failed"`
	JobsCanceled  uint64 `json:"jobs_canceled"`
	JobsQueued    int    `json:"jobs_queued"`
	JobsRunning   int    `json:"jobs_running"`

	// Robustness counters. JobsShed are accepted jobs dropped at
	// dequeue after overstaying the queue-wait budget;
	// QueueFullRejects and OverloadRejects are submissions turned
	// away at the door (queue at depth / predicted wait over budget);
	// QueueFullRejects counts every attempt, so a fan-out cell that
	// retries a full queue counts once per retry.
	// PanicsRecovered jobs are also counted in JobsFailed;
	// JobsDeadlineExceeded and JobsShed are not.
	JobsShed             uint64 `json:"jobs_shed"`
	JobsDeadlineExceeded uint64 `json:"jobs_deadline_exceeded"`
	PanicsRecovered      uint64 `json:"panics_recovered"`
	QueueFullRejects     uint64 `json:"queue_full_rejects"`
	OverloadRejects      uint64 `json:"overload_rejects"`

	// RunEWMAS is the run-time EWMA in seconds; RetryAfterHintS is
	// the back-off the engine currently suggests to shed clients.
	RunEWMAS        float64 `json:"run_ewma_s"`
	RetryAfterHintS float64 `json:"retry_after_hint_s"`

	// Result-cache effectiveness, split per tier: CacheHitsMem served
	// from the in-memory LRU, CacheHitsDisk loaded from the persistent
	// store (and promoted into memory). CacheHits is their sum;
	// CacheMisses are submissions that found nothing in either tier
	// and were admitted to compute (queued, or handed to an
	// orchestrator); rejected attempts do not count. Deduped
	// submissions count in DedupHits only.
	CacheHits     uint64  `json:"cache_hits"`
	CacheHitsMem  uint64  `json:"cache_hits_mem"`
	CacheHitsDisk uint64  `json:"cache_hits_disk"`
	CacheMisses   uint64  `json:"cache_misses"`
	CacheHitRate  float64 `json:"cache_hit_rate"`
	CacheEntries  int     `json:"cache_entries"`
	DedupHits     uint64  `json:"dedup_hits"`

	// Monte-Carlo workload: MCJobs counts montecarlo jobs that ran
	// their orchestrator (whole-job cache hits count in CacheHits);
	// MCSamplesDeduped counts their sample cells served without a fresh
	// solve (cache or dedup). MCSamplesDeduped close to the cell count
	// means the uncertainty sweep rode almost entirely on prior work.
	MCJobs           uint64 `json:"mc_jobs"`
	MCSamplesDeduped uint64 `json:"mc_samples_deduped"`

	// Two-phase physics. AuditJobs counts chip-roadmap audits that ran
	// their orchestrator (whole-job cache hits count in CacheHits).
	// CHFHotspotExceedances counts operating points, one per computed
	// plan or audit cell whose die hotspot generates more flux than the
	// coolant's boiling crisis admits (cache hits do not count again).
	// CHFBoundaryCells counts boundary cells, summed over computed
	// plans: wetted cells whose solved single-phase surface flux
	// exceeds their layer's CHF limit at the chosen step. Any sustained
	// nonzero rate of either is an alert condition, because past CHF
	// the film coefficient collapses rather than degrades.
	// FilmBoilingCells counts boundary cells the two-phase re-solve
	// drove into film boiling.
	AuditJobs             uint64 `json:"audit_jobs"`
	CHFHotspotExceedances uint64 `json:"chf_hotspot_exceedances"`
	CHFBoundaryCells      uint64 `json:"chf_boundary_cells"`
	FilmBoilingCells      uint64 `json:"film_boiling_cells"`

	// Streaming co-simulation. StreamJobs counts cosimstream jobs that
	// ran their orchestrator (whole-job cache hits count in CacheHits).
	// StreamIntervals counts intervals solved by this process;
	// StreamCheckpoints counts resumable-state spills to the disk tier.
	// StreamResumes counts jobs that resumed from a checkpoint and
	// StreamResumedIntervals the intervals those checkpoints carried —
	// across a drain/restart, StreamIntervals + StreamResumedIntervals
	// equals the run length, with zero intervals recomputed.
	StreamJobs             uint64 `json:"stream_jobs"`
	StreamIntervals        uint64 `json:"stream_intervals"`
	StreamCheckpoints      uint64 `json:"stream_checkpoints"`
	StreamResumes          uint64 `json:"stream_resumes"`
	StreamResumedIntervals uint64 `json:"stream_resumed_intervals"`

	// Persistent-tier gauges, zero when no -cache-dir is configured.
	// DiskCacheCorrupt counts entries deleted because they failed an
	// integrity check (checksum, schema generation, key, decode) —
	// they are evicted, never served. DiskCacheEvictions counts
	// byte-budget GC removals.
	DiskCacheEnabled     bool   `json:"disk_cache_enabled"`
	DiskCacheEntries     int    `json:"disk_cache_entries"`
	DiskCacheBytes       int64  `json:"disk_cache_bytes"`
	DiskCacheEvictions   uint64 `json:"disk_cache_evictions"`
	DiskCacheCorrupt     uint64 `json:"disk_cache_corrupt"`
	DiskCacheWrites      uint64 `json:"disk_cache_writes"`
	DiskCacheWriteErrors uint64 `json:"disk_cache_write_errors"`

	Workers int `json:"workers"`

	// Assembly is retired and always zero (see retiredAssembly); the
	// structural counters below report assembly reuse.
	Assembly retiredAssembly `json:"assembly"`

	// Structural-reuse counters (the Monte-Carlo fast path; all zero
	// under Config.DisableStructuralReuse). GeomEntries gauges distinct
	// cached geometry topologies. AssemblySymbolicHits counts assemblies that
	// reused a cached sparsity pattern and only recomputed values;
	// AssemblySymbolicMisses counts full symbolic assemblies (one
	// seeds each geometry).
	GeomEntries            int    `json:"geom_entries"`
	AssemblySymbolicHits   uint64 `json:"assembly_symbolic_hits"`
	AssemblySymbolicMisses uint64 `json:"assembly_symbolic_misses"`
	// PrecondReused and PrecondRefreshed are retired and always zero:
	// every session builds its own multigrid hierarchy, so none is
	// borrowed or refreshed. The fields are kept so existing readers
	// of /v1/metrics still decode them.
	PrecondReused    uint64 `json:"precond_reused"`
	PrecondRefreshed uint64 `json:"precond_refreshed"`

	// LatencyS maps stage name to its histogram: "queue" (submit →
	// start, every kind) and "run.<kind>" (start → finish) for each
	// kind in api.Kinds that has run.
	LatencyS map[string]*Histogram `json:"latency_s"`

	// Solver maps preconditioner kind to aggregate CG iteration
	// statistics: "jacobi" and "mg" for every steady solve the planner
	// ran, two-phase re-solve passes included, "ichol" for every
	// transient stepper sub-step. The one solve left out is a cosim
	// job's steady reference (cosim.Result.SteadyPlannerPeakC).
	Solver map[string]*SolverStats `json:"solver"`
}

// snapshot copies the registry, fills the derived cache totals and
// deep-copies the histogram and solver maps. The engine's gauges are
// Engine.Metrics' to fill.
func (m *metrics) snapshot() Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.s
	s.CacheHits = s.CacheHitsMem + s.CacheHitsDisk
	if total := s.CacheHits + s.CacheMisses; total > 0 {
		s.CacheHitRate = float64(s.CacheHits) / float64(total)
	}
	s.LatencyS = make(map[string]*Histogram, len(m.s.LatencyS))
	for name, h := range m.s.LatencyS {
		s.LatencyS[name] = h.clone()
	}
	s.Solver = make(map[string]*SolverStats, len(m.s.Solver))
	for kind, st := range m.s.Solver {
		c := *st
		s.Solver[kind] = &c
	}
	return s
}
