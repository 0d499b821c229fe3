// Command perfbench is the repository's end-to-end benchmark. It builds
// the serving stack from the repository's own packages, drives one of
// three seeded workloads against it for a fixed time, checks every
// output, and prints its metrics as one JSON line:
//
//	bash perfbench/run.sh --workload interactive --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// runs the same load once untraced and once traced (half the time each)
// and reports the per-layer metrics plus the tracing overhead. See
// perfbench/README.md for the workloads and the metric definitions.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// stateDir holds everything the benchmark writes, relative to the
// checkout root: scratch stores, the exact-count ledger and traces.
const stateDir = ".bench_build/perfbench"

// setupRepeats is how many times set-up runs per end-to-end run; the
// reported setup_s is their median and the last one serves the load.
const setupRepeats = 3

// counts are the exact counters a seed must reproduce bit for bit: any
// difference between two runs of one seed means the load depends on
// timing, which the benchmark reports as an error.
type counts struct {
	Computes          uint64 `json:"computes"`
	StreamIntervals   uint64 `json:"stream_intervals"`
	StreamCheckpoints uint64 `json:"stream_checkpoints"`
	SolvesMG          uint64 `json:"solves_mg"`
	ItersMG           uint64 `json:"iters_mg"`
	SolvesJacobi      uint64 `json:"solves_jacobi"`
	ItersJacobi       uint64 `json:"iters_jacobi"`
	EdgeHits          uint64 `json:"edge_hits"`
}

// workload is one seeded load against the real packages.
type workload interface {
	// setup builds the system under test and runs the seeded warm-up.
	setup(ctx context.Context) error
	// counts snapshots the exact counters.
	counts() counts
	// mark records the layer snapshots the per-layer deltas start from.
	mark()
	// block runs block idx of the deterministic timed load, recording
	// each operation into ph and its layer calls into tr.
	block(ctx context.Context, idx int, tr *tracer, ph *phase) error
	// verify replays canaries after the timed phase; a mismatch is a
	// failed operation, not a benchmark error.
	verify(ctx context.Context, ph *phase) error
	// layers derives the per-layer metrics of a traced phase from the
	// snapshot deltas since mark, the spans, and direct replays.
	layers(ctx context.Context, tr *tracer, ph *phase) (map[string]float64, error)
	close()
}

// phase accumulates one timed phase. Operations may be recorded from
// several client goroutines at once.
type phase struct {
	mu                sync.Mutex
	attempted, failed int
	failures          []string
	work              float64
	latMS             []float64
	wall              time.Duration
	blocks            []counts
	cpuS, gcFrac      float64
	allocMB           float64
	// parityWork and parityWall split the phase into even blocks (traced
	// in a traced run) and odd blocks (never traced).
	parityWork [2]float64
	parityWall [2]time.Duration
}

// traceOverhead is the share of the work rate the traced blocks lost
// against the untraced ones; 0 until the phase has both.
func (ph *phase) traceOverhead() float64 {
	rate := func(k int) float64 { return ratio(ph.parityWork[k], ph.parityWall[k].Seconds()) }
	if rate(0) == 0 || rate(1) == 0 {
		return 0
	}
	return 1 - rate(0)/rate(1)
}

// op records one operation's outcome and caller-side latency.
func (ph *phase) op(lat time.Duration, work float64, err error) {
	ph.mu.Lock()
	defer ph.mu.Unlock()
	ph.attempted++
	ph.latMS = append(ph.latMS, float64(lat)/1e6)
	if err != nil {
		ph.failLocked(err)
		return
	}
	ph.work += work
}

// fail counts a failed or wrong operation.
func (ph *phase) fail(err error) {
	ph.mu.Lock()
	defer ph.mu.Unlock()
	ph.failLocked(err)
}

func (ph *phase) failLocked(err error) {
	ph.failed++
	if len(ph.failures) < 5 {
		ph.failures = append(ph.failures, err.Error())
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: interactive, montecarlo or transient")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 30, "timed-phase length in seconds")
	traceFlag := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	regen := fs.Bool("regen-refs", false, "recompute the stored reference outputs into refs.json and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ctx := context.Background()
	if *regen {
		if err := regenRefs(ctx, "refs.json"); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if _, ok := workloads[*name]; !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		return 2
	}
	res, err := bench(ctx, *name, *seed, time.Duration(*seconds)*time.Second, *traceFlag == 1, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// workloads maps a workload name to its constructor. dir is a fresh
// scratch directory for the workload's stores.
var workloads = map[string]func(seed int64, dir string) workload{
	"interactive": newInteractive,
	"montecarlo":  newMonteCarlo,
	"transient":   newTransient,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench runs one workload end to end and returns its result line. An
// untraced run sets up several times (set-up time is their median, and
// identical warm-ups must leave identical exact counters behind) and
// reports the end-to-end metrics. A traced run sets up once, traces
// every other block, and reports the per-layer metrics.
func bench(ctx context.Context, name string, seed int64, dur time.Duration, traced bool, log io.Writer) (*result, error) {
	work := filepath.Join(stateDir, "work")
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	root, err := os.MkdirTemp(work, name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	ref, err := loadLedger(name, seed)
	if err != nil {
		return nil, err
	}
	repeats := setupRepeats
	if traced {
		repeats = 1
	}
	var setups []float64
	var w workload
	var warm counts
	for i := 0; i < repeats; i++ {
		if w != nil {
			w.close()
		}
		w = workloads[name](seed, filepath.Join(root, "setup"+strconv.Itoa(i)))
		// Earlier set-ups' garbage must not be collected on this one's clock.
		runtime.GC()
		start := time.Now()
		if err := w.setup(ctx); err != nil {
			w.close()
			return nil, fmt.Errorf("%s set-up: %w", name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
		c := w.counts()
		if i > 0 && c != warm {
			w.close()
			return nil, fmt.Errorf("%s: warm-up counters differ between set-ups of one run: %+v vs %+v", name, warm, c)
		}
		warm = c
	}
	defer w.close()
	if err := ref.check(warm, nil); err != nil {
		return nil, err
	}
	var tr *tracer
	if traced {
		tr = newTracer()
		w.mark()
	}
	// The peak resident set is sampled over the timed phase only, after
	// returning the set-ups' garbage to the OS.
	debug.FreeOSMemory()
	stopRSS := sampleRSS()
	ph, err := timedPhase(ctx, w, dur, tr)
	peakRSS := stopRSS()
	if err != nil {
		return nil, err
	}
	if err := ref.check(warm, ph.blocks); err != nil {
		return nil, err
	}
	if err := ref.save(); err != nil {
		return nil, err
	}
	if err := w.verify(ctx, ph); err != nil {
		return nil, err
	}
	res := &result{Correct: ph.failed == 0, Attempted: ph.attempted, Failed: ph.failed}
	for _, f := range ph.failures {
		fmt.Fprintf(log, "# failure: %s\n", f)
	}
	if traced {
		m, err := w.layers(ctx, tr, ph)
		if err != nil {
			return nil, err
		}
		m["trace.overhead_frac"] = ph.traceOverhead()
		spans := tr.snapshot()
		path := filepath.Join(stateDir, "traces", fmt.Sprintf("%s-seed%d.json", name, seed))
		if err := writeTrace(path, spans); err != nil {
			return nil, err
		}
		fmt.Fprintf(log, "# %s seed=%d traced: blocks=%d ops=%d failed=%d, %d spans written to %s\n",
			name, seed, len(ph.blocks), ph.attempted, ph.failed, len(spans), path)
		res.Metrics = make(map[string]metric, len(perLayer))
		for _, pm := range perLayer {
			res.Metrics[pm.name] = metric{m[pm.name], pm.unit}
		}
		return res, nil
	}
	p50 := quantile(ph.latMS, 0.5)
	q, tail := tailQuantile(ph.latMS)
	fmt.Fprintf(log, "# %s seed=%d setups_s=%.4v blocks=%d ops=%d failed=%d work=%.6g wall_s=%.3f p50_ms=%.4g p%.4g_ms=%.4g (n=%d)\n",
		name, seed, setups, len(ph.blocks), ph.attempted, ph.failed, ph.work, ph.wall.Seconds(), p50, 100*q, tail, len(ph.latMS))
	res.Metrics = map[string]metric{
		"setup_s":     {quantile(setups, 0.5), "s"},
		"op_p50_ms":   {p50, "ms"},
		"op_tail_ms":  {tail, "ms"},
		"work_per_s":  {ph.work / ph.wall.Seconds(), "work/s"},
		"peak_rss_mb": {peakRSS, "MB"},
	}
	return res, nil
}

// timedPhase runs whole blocks until dur has elapsed, so every block's
// exact counters are complete, and measures the process around it. With
// a tracer, every other block (block 0 first) is traced: comparing the
// work rates of traced and untraced blocks, which share the same stretch
// of time, gives the tracing overhead.
func timedPhase(ctx context.Context, w workload, dur time.Duration, tr *tracer) (*phase, error) {
	ph := &phase{}
	cpu0 := cpuSeconds()
	gc0, tot0, alloc0 := runtimeSample()
	start := time.Now()
	for idx := 0; ; idx++ {
		btr := tr
		if idx%2 == 1 {
			btr = nil
		}
		work0, t0 := ph.work, time.Now()
		if err := w.block(ctx, idx, btr, ph); err != nil {
			return nil, err
		}
		ph.blocks = append(ph.blocks, w.counts())
		k := idx % 2
		ph.parityWork[k] += ph.work - work0
		ph.parityWall[k] += time.Since(t0)
		if time.Since(start) >= dur {
			break
		}
	}
	ph.wall = time.Since(start)
	ph.cpuS = cpuSeconds() - cpu0
	gc, tot, alloc := runtimeSample()
	ph.gcFrac = ratio(gc-gc0, tot-tot0)
	ph.allocMB = (alloc - alloc0) / 1e6
	return ph, nil
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailQuantile picks the highest percentile that still has at least ten
// samples beyond it, capped at p99 (which needs 1000 samples); with too
// few samples for any tail above the median it reports the median.
func tailQuantile(xs []float64) (q, v float64) {
	n := float64(len(xs))
	q = 0.5
	if n > 0 {
		q = math.Max(0.5, math.Min(0.99, 1-10/n))
	}
	return q, quantile(xs, q)
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// runtimeSample reads the Go runtime's cumulative GC CPU seconds, total
// CPU seconds and allocated heap bytes.
func runtimeSample() (gc, total, alloc float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindFloat64:
			return v.Float64()
		case metrics.KindUint64:
			return float64(v.Uint64())
		}
		return 0
	}
	return val(s[0].Value), val(s[1].Value), val(s[2].Value)
}

// sampleRSS samples the process's resident set every 10 ms until the
// returned function is called, which returns the largest sample in MiB.
func sampleRSS() func() float64 {
	stop := make(chan struct{})
	done := make(chan float64)
	go func() {
		peak := rssMB()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				peak = math.Max(peak, rssMB())
			case <-stop:
				done <- math.Max(peak, rssMB())
				return
			}
		}
	}()
	return func() float64 {
		close(stop)
		return <-done
	}
}

// rssMB is the process's current resident set in MiB.
func rssMB() float64 {
	body, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(body))
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// ledger is the per-(workload, seed) record of exact counters, kept
// across runs of one build in the checkout's state directory.
type ledger struct {
	path    string
	Build   string   `json:"build"`
	Warmup  *counts  `json:"warmup,omitempty"`
	Blocks  []counts `json:"blocks"`
	changed bool
}

func loadLedger(name string, seed int64) (*ledger, error) {
	build, err := buildID()
	if err != nil {
		return nil, err
	}
	l := &ledger{path: filepath.Join(stateDir, "ledger", fmt.Sprintf("%s-seed%d.json", name, seed))}
	body, err := os.ReadFile(l.path)
	if err == nil && json.Unmarshal(body, l) == nil && l.Build == build {
		return l, nil
	}
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	return &ledger{path: l.path, Build: build, changed: true}, nil
}

// check compares a run's counters with every earlier run of the same
// seed and build, then records the longer block history.
func (l *ledger) check(warm counts, blocks []counts) error {
	if l.Warmup == nil {
		l.Warmup, l.changed = &warm, true
	} else if *l.Warmup != warm {
		return fmt.Errorf("exact-count mismatch after warm-up (timing-dependent load): earlier run %+v, this run %+v", *l.Warmup, warm)
	}
	for i := 0; i < len(blocks) && i < len(l.Blocks); i++ {
		if blocks[i] != l.Blocks[i] {
			return fmt.Errorf("exact-count mismatch after block %d (timing-dependent load): earlier run %+v, this run %+v", i, l.Blocks[i], blocks[i])
		}
	}
	if len(blocks) > len(l.Blocks) {
		l.Blocks, l.changed = append([]counts(nil), blocks...), true
	}
	return nil
}

func (l *ledger) save() error {
	if !l.changed {
		return nil
	}
	body, err := json.Marshal(l)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(l.path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(l.path, body, 0o644)
}

// buildID identifies the running binary, so counters recorded by one
// build are never compared with another build's.
func buildID() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}
