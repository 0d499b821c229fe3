// Package service is the concurrent simulation-as-a-service engine
// behind cmd/watersrvd: a bounded worker pool over an async job queue
// with submit / status / result / cancel semantics, a tiered result
// cache keyed by the canonical request hash (internal/api) — an
// in-memory LRU in front of an optional persistent store
// (internal/rcache) that survives restarts — in-flight deduplication
// so identical concurrent requests share one simulation, and a
// metrics registry (job counters, per-tier cache hit rates, per-stage
// latency histograms, CG solver statistics).
//
// Job lifecycle:
//
//	Submit ──▶ queued ──▶ running ──▶ done
//	   │          │           │  └──▶ failed          (error, panic, deadline, shed)
//	   │          └───────────┴─────▶ canceled        (Cancel, drain)
//	   └─▶ done (cache hit: never queued)
//
// Identical requests — same canonical hash — are collapsed twice
// over: a finished result is served from the LRU cache without
// queueing, and a request identical to one still queued or running is
// attached to that job (Submit returns the existing job's ID), so a
// given configuration is never simulated twice concurrently.
// Cancelling a shared job cancels it for every submitter.
//
// # Robustness
//
// The engine is built to degrade one job at a time, never the
// process:
//
//   - Per-job deadlines (Config.JobDeadline) bound queue wait plus
//     execution; an expired job fails with ErrorCode
//     "deadline_exceeded", and one that expires while still queued is
//     finalized without ever running.
//   - Load shedding (Config.MaxQueueWait) rejects submissions whose
//     predicted queue wait — queue depth over workers times the
//     run-time EWMA — exceeds the budget (*OverloadError wrapping
//     ErrOverloaded), and sheds accepted jobs that overstay it at
//     dequeue (ErrShed). Depth rejections (ErrQueueFull) carry the
//     same Retry-After hint for the HTTP 429 path.
//   - Panic isolation: a panic on a worker or in an orchestrator
//     (sweep, montecarlo, audit, cosimstream) is recovered into a
//     *PanicError that fails the one job (counted as panics_recovered)
//     while the pool keeps serving.
//
// Failed jobs expose a stable machine code in JobInfo.ErrorCode
// ("canceled", "deadline_exceeded", "shed", "panic", "internal") so
// clients and the HTTP layer dispatch on vocabulary, not message
// text. The internal/faultinject sites service.execute and
// service.cache.lookup let tests and staging drills exercise all of
// the above on demand; see OPERATIONS.md for the runbook.
package service
