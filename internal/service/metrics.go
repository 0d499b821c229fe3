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

// metrics is the engine's internal registry; Engine.Metrics returns
// consistent snapshots.
type metrics struct {
	mu sync.Mutex

	jobsSubmitted    uint64
	jobsDone         uint64
	jobsFailed       uint64
	jobsCanceled     uint64
	jobsShed         uint64
	jobsDeadline     uint64
	panicsRecovered  uint64
	queueFullRejects uint64
	overloadRejects  uint64
	cacheHitsMem     uint64
	cacheHitsDisk    uint64
	cacheMisses      uint64
	dedupHits        uint64

	// Monte-Carlo workload counters: mcJobs counts montecarlo jobs that
	// ran their orchestrator (a whole-job cache hit is served without
	// re-running and counts in cacheHits instead); mcSamplesDeduped
	// counts sample cells answered without a fresh solve (cache hit or
	// deduplicated onto an in-flight twin) — the savings the shared
	// plan keyspace buys.
	mcJobs           uint64
	mcSamplesDeduped uint64

	// Two-phase physics counters: auditJobs counts roadmap-audit jobs
	// that ran their orchestrator; chfHotspotExceedances counts
	// computed operating points whose generation-side hotspot flux
	// exceeds the coolant's boiling limit (one per point);
	// chfBoundaryCells counts wetted boundary cells whose solved
	// surface flux exceeds it (cells, summed over plans);
	// filmBoilingCells counts boundary cells the two-phase re-solve
	// pushed into the film-boiling regime.
	auditJobs             uint64
	chfHotspotExceedances uint64
	chfBoundaryCells      uint64
	filmBoilingCells      uint64

	// Streaming co-simulation counters: streamJobs counts cosimstream
	// jobs that ran their orchestrator; streamIntervals counts
	// intervals actually solved here (resumed intervals are not
	// re-solved, so across a restart streamIntervals +
	// streamResumedIntervals = the run length); streamCheckpoints
	// counts resumable-state spills to the disk tier; streamResumes
	// counts jobs that picked a checkpoint back up, and
	// streamResumedIntervals the intervals those checkpoints carried —
	// the work a restart did NOT redo.
	streamJobs             uint64
	streamIntervals        uint64
	streamCheckpoints      uint64
	streamResumes          uint64
	streamResumedIntervals uint64

	// runEWMAS is an exponentially weighted moving average of job run
	// times in seconds (α = 0.2), the basis of the engine's queue-wait
	// prediction and Retry-After hints.
	runEWMAS float64

	// hists holds per-stage latency histograms: "queue" (submit →
	// start, all kinds) and "run.<kind>" (start → finish).
	hists map[string]*Histogram

	// solver aggregates per-solve CG statistics keyed by
	// preconditioner kind ("jacobi", "mg", "ichol").
	solver map[string]*SolverStats
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
	return &metrics{
		hists:  map[string]*Histogram{"queue": newHistogram()},
		solver: make(map[string]*SolverStats),
	}
}

// observeSolve records one CG solve; it matches the core.Planner
// OnSolve hook for steady solves and the cosim OnSolve hook for
// transient steps (the "ichol" bucket).
func (m *metrics) observeSolve(st thermal.SolveStats) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.solver[st.Preconditioner]
	if s == nil {
		s = &SolverStats{}
		m.solver[st.Preconditioner] = s
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
	h := m.hists[stage]
	if h == nil {
		h = newHistogram()
		m.hists[stage] = h
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
	if m.runEWMAS == 0 {
		m.runEWMAS = d.Seconds()
	} else {
		m.runEWMAS = alpha*d.Seconds() + (1-alpha)*m.runEWMAS
	}
}

// runEWMA returns the current run-time EWMA in seconds (0 until the
// first job finishes).
func (m *metrics) runEWMA() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.runEWMAS
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
	JobsSubmitted uint64 `json:"jobs_submitted"`
	JobsDone      uint64 `json:"jobs_done"`
	JobsFailed    uint64 `json:"jobs_failed"`
	JobsCanceled  uint64 `json:"jobs_canceled"`
	JobsQueued    int    `json:"jobs_queued"`
	JobsRunning   int    `json:"jobs_running"`

	// Robustness counters. JobsShed are accepted jobs dropped at
	// dequeue after overstaying the queue-wait budget;
	// QueueFullRejects and OverloadRejects are submissions turned
	// away at the door (queue at depth / predicted wait over budget).
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
	// and were computed. Deduped submissions count in DedupHits only.
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

	// LatencyS maps stage name ("queue", "run.plan", "run.cosim",
	// "run.sweep") to its histogram.
	LatencyS map[string]*Histogram `json:"latency_s"`

	// Solver maps preconditioner kind to aggregate CG iteration
	// statistics: "jacobi" and "mg" for every steady solve the planner
	// ran, "ichol" for every transient stepper sub-step.
	Solver map[string]*SolverStats `json:"solver"`
}

func (m *metrics) snapshot() Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := Snapshot{
		JobsSubmitted:          m.jobsSubmitted,
		JobsDone:               m.jobsDone,
		JobsFailed:             m.jobsFailed,
		JobsCanceled:           m.jobsCanceled,
		JobsShed:               m.jobsShed,
		JobsDeadlineExceeded:   m.jobsDeadline,
		PanicsRecovered:        m.panicsRecovered,
		QueueFullRejects:       m.queueFullRejects,
		OverloadRejects:        m.overloadRejects,
		RunEWMAS:               m.runEWMAS,
		CacheHits:              m.cacheHitsMem + m.cacheHitsDisk,
		CacheHitsMem:           m.cacheHitsMem,
		CacheHitsDisk:          m.cacheHitsDisk,
		CacheMisses:            m.cacheMisses,
		DedupHits:              m.dedupHits,
		MCJobs:                 m.mcJobs,
		MCSamplesDeduped:       m.mcSamplesDeduped,
		AuditJobs:              m.auditJobs,
		CHFHotspotExceedances:  m.chfHotspotExceedances,
		CHFBoundaryCells:       m.chfBoundaryCells,
		FilmBoilingCells:       m.filmBoilingCells,
		StreamJobs:             m.streamJobs,
		StreamIntervals:        m.streamIntervals,
		StreamCheckpoints:      m.streamCheckpoints,
		StreamResumes:          m.streamResumes,
		StreamResumedIntervals: m.streamResumedIntervals,
		LatencyS:               make(map[string]*Histogram, len(m.hists)),
	}
	if total := s.CacheHits + m.cacheMisses; total > 0 {
		s.CacheHitRate = float64(s.CacheHits) / float64(total)
	}
	for name, h := range m.hists {
		s.LatencyS[name] = h.clone()
	}
	s.Solver = make(map[string]*SolverStats, len(m.solver))
	for kind, st := range m.solver {
		c := *st
		s.Solver[kind] = &c
	}
	return s
}
