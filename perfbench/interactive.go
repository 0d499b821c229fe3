package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"waterimm/internal/api"
	"waterimm/internal/httpapi"
	"waterimm/internal/rcache"
	"waterimm/internal/router"
	"waterimm/internal/service"
	"waterimm/pkg/client"
)

// Interactive load shape. Each of the two clients owns half the stack
// depths (equal total depth, so equal work), so their key spaces — and
// the geometries behind them — are disjoint: which request computes
// which key never depends on how the clients interleave. Every round of
// 40 operations has the same mix per client: plans for keys never asked
// before (computes), one plan reading a cell an earlier sweep wrote (a
// backend hit when the cell's owner ran the sweep, else a compute), one
// sweep, one audit, and plans repeating earlier keys with Zipf
// popularity (cache hits); only the order within a round is seeded. The
// work rate therefore stays the same from block to block. The clients
// wait for each other only between blocks of four rounds, where the
// exact counters are read.
const (
	icClients     = 2
	icOpsPerBlock = 160 // per client; both clients finish a block before the next starts
	icOpsPerRound = 40  // the op mix below repeats every round of 40
	icFreshPerRnd = 2   // plans for a new key per client and round
	icZipfS       = 1.1 // popularity exponent of repeated keys
	icWarmKeys    = 5   // keys each client computes during set-up
	icCanaries    = 3   // canary plans each client checks during set-up
)

var (
	icChips      = []string{"low-power", "high-frequency"}
	icCoolants   = []string{"air", "fluorinert", "mineral-oil", "water", "water-pipe"}
	icGrids      = []int{16, 24, 32, 40, 48}
	icThresholds = []float64{66, 70, 72, 75, 78, 80, 82, 85}
)

// icEngineConfig is each backend's engine. Structural reuse is off: its
// 32-geometry LRU, shared by two clients' interleaved geometries, would
// make audit cells' solve counts depend on timing. The montecarlo
// workload measures that path instead.
var icEngineConfig = service.Config{
	Workers:                1,
	CacheEntries:           16384,
	AssemblyCacheEntries:   2,
	DisableStructuralReuse: true,
}

func icDepths(c int) []int {
	if c == 0 {
		return []int{1, 4, 5, 8}
	}
	return []int{2, 3, 6, 7}
}

// icAuditGrid keeps the two clients' audit cells (all depth 1) apart.
func icAuditGrid(c int) int { return 16 + 8*c }

// keyspace is one client's plan universe in the order its keys are
// first asked for. Key j's (grid, depth) combination depends on j alone —
// a fixed, seed-independent cost profile — and a seeded permutation picks
// chip, coolant and threshold, so every seed asks for different keys at
// the same cost.
type keyspace struct {
	c     int
	perm  [][]int   // per (grid, depth) combination, a permutation of the 80 triples
	cdf   []float64 // unnormalized cumulative Zipf weights by popularity rank
	rng   *rand.Rand
	fresh int                // keys asked for so far
	cells []*api.PlanRequest // sweep cells no plan has read yet
}

func newKeyspace(seed int64, c int) *keyspace {
	rng := rand.New(rand.NewPCG(uint64(seed), uint64(c)+1))
	combos := len(icGrids) * len(icDepths(c))
	triples := len(icChips) * len(icCoolants) * len(icThresholds)
	ks := &keyspace{c: c, rng: rng}
	for i := 0; i < combos; i++ {
		ks.perm = append(ks.perm, rng.Perm(triples))
	}
	ks.cdf = make([]float64, combos*triples)
	var sum float64
	for r := range ks.cdf {
		sum += math.Pow(float64(r+1), -icZipfS)
		ks.cdf[r] = sum
	}
	return ks
}

// plan returns key j of the client's universe. Consecutive keys step
// through the (grid, depth) combinations with stride 7, coprime to their
// count, so each block's new keys mix shallow and deep stacks.
func (ks *keyspace) plan(j int) *api.PlanRequest {
	depths := icDepths(ks.c)
	combos := len(icGrids) * len(depths)
	combo := (7 * j) % combos
	t := ks.perm[combo][(j/combos)%len(ks.perm[combo])]
	grid := icGrids[combo/len(depths)]
	chip := icChips[t%len(icChips)]
	t /= len(icChips)
	coolant := icCoolants[t%len(icCoolants)]
	t /= len(icCoolants)
	return &api.PlanRequest{
		Chip: chip, Chips: depths[combo%len(depths)], Coolant: coolant,
		ThresholdC: icThresholds[t], GridNX: grid, GridNY: grid,
	}
}

// block draws one block of the client's operations, normalized, so a
// sweep's cells come out in the order its response lists them.
func (ks *keyspace) block() []api.Request {
	rng := ks.rng
	var ops []api.Request
	for len(ops) < icOpsPerBlock {
		kinds := make([]byte, icOpsPerRound)
		for i := range kinds {
			switch {
			case i < icFreshPerRnd:
				kinds[i] = 'f'
			case i == icFreshPerRnd:
				kinds[i] = 'c'
			case i == icFreshPerRnd+1:
				kinds[i] = 's'
			case i == icFreshPerRnd+2:
				kinds[i] = 'a'
			default:
				kinds[i] = 'r'
			}
		}
		rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
		for _, k := range kinds {
			op := ks.draw(k)
			op.Normalize()
			ops = append(ops, op)
		}
	}
	return ops
}

// draw returns one operation of kind f(resh plan), c(ell read),
// s(weep), a(udit) or r(epeated plan).
func (ks *keyspace) draw(kind byte) api.Request {
	rng := ks.rng
	if kind == 'c' {
		if len(ks.cells) == 0 {
			kind = 'f'
		} else {
			cell := ks.cells[0]
			ks.cells = ks.cells[1:]
			return cell
		}
	}
	switch {
	case kind == 's':
		// The shallowest and deepest stack: the same depth total, and so
		// roughly the same cost, for every sweep of either client.
		depths := icDepths(ks.c)
		k := rng.Perm(len(icCoolants))
		sw := &api.SweepRequest{
			Chips:       []string{icChips[rng.IntN(len(icChips))]},
			Depths:      []int{depths[0], depths[len(depths)-1]},
			Coolants:    []string{icCoolants[k[0]], icCoolants[k[1]]},
			ThresholdsC: []float64{icThresholds[rng.IntN(len(icThresholds))]},
			GridNX:      16, GridNY: 16,
		}
		sw.Normalize()
		cells := sw.Cells()
		ks.cells = append(ks.cells, cells[rng.IntN(len(cells))])
		return sw
	case kind == 'a':
		k := rng.Perm(len(icCoolants))
		start := 2024 + rng.IntN(3)
		grid := icAuditGrid(ks.c)
		return &api.AuditRequest{
			Chips:     []string{icChips[rng.IntN(len(icChips))]},
			Coolants:  []string{icCoolants[k[0]], icCoolants[k[1]]},
			StartYear: start, EndYear: start + 2, GrowthPerYear: 1.16,
			ThresholdC: 80, GridNX: grid, GridNY: grid,
		}
	case kind == 'f' || ks.fresh == 0:
		ks.fresh++
		return ks.plan(ks.fresh - 1)
	}
	// Repeat an earlier key; earlier keys are the popular ones.
	n := min(ks.fresh, len(ks.cdf))
	x := rng.Float64() * ks.cdf[n-1]
	lo, hi := 0, n-1
	for lo < hi {
		mid := (lo + hi) / 2
		if ks.cdf[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return ks.plan(lo)
}

// opInfo follows one logical client operation through its HTTP attempts.
type opInfo struct {
	id       string
	attempts int
	xcache   string
	backend  string
	bytes    int
}

type opKey struct{}

// countingTransport stamps each attempt with the operation's request ID
// and records retries and the router's X-Cache/X-Backend verdicts.
type countingTransport struct {
	base http.RoundTripper
}

func (t countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	op, _ := r.Context().Value(opKey{}).(*opInfo)
	if op != nil {
		r = r.Clone(r.Context())
		r.Header.Set(httpapi.RequestIDHeader, op.id)
		op.attempts++
	}
	resp, err := t.base.RoundTrip(r)
	if err == nil && op != nil {
		op.xcache = resp.Header.Get("X-Cache")
		op.backend = resp.Header.Get("X-Backend")
		resp.Body = &countingBody{ReadCloser: resp.Body, n: &op.bytes}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	n *int
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	*b.n += n
	return n, err
}

// icOpRecord is what the per-layer analysis needs of one operation.
type icOpRecord struct {
	id, kind, xcache string
	backendHit       bool
}

type interactive struct {
	seed int64
	dir  string

	engines  [2]*service.Engine
	stores   []*rcache.Store
	servers  []*http.Server
	serving  sync.WaitGroup
	rt       *router.Router
	rtClient *http.Transport
	clients  [icClients]*client.Client
	cliTrans *http.Transport
	keys     [icClients]*keyspace
	tr       atomic.Pointer[tracer]

	mu       sync.Mutex
	resident map[string]map[string]bool // backend ID → keys its memory tier holds
	freq     map[string]float64         // plan key → frequency every answer must repeat
	opSeq    atomic.Int64
	records  []icOpRecord
	bodies   [][]byte // request envelopes, for the canonicalisation replay
	sizes    []int    // response sizes, for the store replay
	computed []*api.PlanRequest
	retries  int

	markEng    [2]service.Snapshot
	markRouter router.Snapshot
	markBytes  int64
}

func newInteractive(seed int64, dir string) workload {
	w := &interactive{
		seed: seed, dir: dir,
		resident: map[string]map[string]bool{},
		freq:     map[string]float64{},
	}
	for c := range w.keys {
		w.keys[c] = newKeyspace(seed, c)
	}
	return w
}

// serve starts an HTTP server for h on a loopback port.
func (w *interactive) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: time.Minute}
	w.servers = append(w.servers, srv)
	w.serving.Add(1)
	go func() {
		defer w.serving.Done()
		_ = srv.Serve(ln) // returns ErrServerClosed once close runs
	}()
	return "http://" + ln.Addr().String(), nil
}

// spanned records a server-side span for every request h serves, keyed
// by the X-Request-Id the client sent and the router forwards.
func (w *interactive) spanned(name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		tr := w.tr.Load()
		i := tr.begin(name, -1, r.Header.Get(httpapi.RequestIDHeader))
		h.ServeHTTP(rw, r)
		tr.end(i, rw.Header().Get("X-Cache"))
	})
}

func (w *interactive) openStore(name string) (*rcache.Store, error) {
	st, err := rcache.Open(filepath.Join(w.dir, name), 1<<30, api.CacheGeneration)
	if err != nil {
		return nil, err
	}
	w.stores = append(w.stores, st)
	return st, nil
}

func (w *interactive) setup(ctx context.Context) error {
	var urls []string
	for b := range w.engines {
		store, err := w.openStore(fmt.Sprintf("b%d", b))
		if err != nil {
			return err
		}
		cfg := icEngineConfig
		cfg.DiskCache = store
		w.engines[b] = service.New(cfg)
		h := httpapi.NewHandler(w.engines[b], httpapi.Options{SyncTimeout: 10 * time.Minute})
		url, err := w.serve(w.spanned(fmt.Sprintf("httpapi.b%d", b), h))
		if err != nil {
			return err
		}
		urls = append(urls, url)
	}
	edge, err := w.openStore("edge")
	if err != nil {
		return err
	}
	w.rtClient = &http.Transport{MaxIdleConnsPerHost: 8}
	w.rt, err = router.New(router.Config{
		Backends: urls, EdgeCache: edge,
		// Nothing here fails; probing would only add timing noise.
		HealthInterval: time.Hour, FailThreshold: math.MaxInt32,
		Client: &http.Client{Transport: w.rtClient},
	})
	if err != nil {
		return err
	}
	w.rt.ProbeOnce(ctx)
	rtURL, err := w.serve(w.spanned("router", w.rt.Handler()))
	if err != nil {
		return err
	}
	w.cliTrans = &http.Transport{MaxIdleConnsPerHost: 8}
	for c := range w.clients {
		w.clients[c], err = client.New(rtURL, &http.Client{Transport: countingTransport{base: w.cliTrans}})
		if err != nil {
			return err
		}
	}

	// Warm-up: each client checks its seeded canaries against the stored
	// references and computes its first keys, so the timed phase starts
	// with a hot set resident, as a long-running service has it.
	refs, err := loadRefs()
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewPCG(uint64(w.seed), 99))
	var canaries [icClients][]planRef
	for c := range canaries {
		pool := refs.Canaries[c]
		for _, i := range rng.Perm(len(pool))[:icCanaries] {
			canaries[c] = append(canaries[c], pool[i])
		}
	}
	errs := make([]error, icClients)
	var wg sync.WaitGroup
	for c := 0; c < icClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for _, ref := range canaries[c] {
				req := ref.Req
				resp, err := w.plan(ctx, c, &req, nil, nil)
				if err == nil {
					err = ref.check(resp)
				}
				if err != nil {
					errs[c] = fmt.Errorf("canary %+v: %w", ref.Req, err)
					return
				}
			}
			ks := w.keys[c]
			for ; ks.fresh < icWarmKeys; ks.fresh++ {
				if _, err := w.plan(ctx, c, ks.plan(ks.fresh), nil, nil); err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// plan sends one plan request through the router and checks the answer.
func (w *interactive) plan(ctx context.Context, c int, req *api.PlanRequest, tr *tracer, ph *phase) (*api.PlanResponse, error) {
	var resp *api.PlanResponse
	err := w.do(ctx, c, req, tr, ph, func(ctx context.Context) error {
		var err error
		resp, err = w.clients[c].Plan(ctx, req)
		if err == nil {
			err = w.checkPlan(req, resp)
		}
		return err
	})
	return resp, err
}

// do runs one client operation with its request ID, span and bookkeeping.
func (w *interactive) do(ctx context.Context, c int, req api.Request, tr *tracer, ph *phase, call func(context.Context) error) error {
	op := &opInfo{id: fmt.Sprintf("c%d-%06d", c, w.opSeq.Add(1))}
	ctx = context.WithValue(ctx, opKey{}, op)
	sp := tr.begin("client."+req.Kind(), -1, op.id)
	start := time.Now()
	err := call(ctx)
	lat := time.Since(start)
	tr.end(sp, op.xcache)
	if ph != nil {
		ph.op(lat, 1, err)
	}
	if err != nil {
		return err
	}
	w.note(req, op, tr != nil)
	return nil
}

// note updates the model of which backend holds which result, which
// classifies backend-tier hits for the per-layer analysis, and keeps the
// replay samples of a traced phase.
func (w *interactive) note(req api.Request, op *opInfo, traced bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	key := req.CacheKey()
	hit := false
	if op.xcache == "backend" {
		res := w.resident[op.backend]
		if res == nil {
			res = map[string]bool{}
			w.resident[op.backend] = res
		}
		hit = res[key]
		res[key] = true
		if !hit {
			var cells []*api.PlanRequest
			switch r := req.(type) {
			case *api.SweepRequest:
				cells = r.Cells()
			case *api.AuditRequest:
				cells = r.Cells()
			case *api.PlanRequest:
				if traced && len(w.computed) < 3 {
					w.computed = append(w.computed, r)
				}
			}
			for _, cell := range cells {
				res[cell.CacheKey()] = true
			}
		}
	}
	if !traced {
		return
	}
	w.retries += op.attempts - 1
	w.records = append(w.records, icOpRecord{id: op.id, kind: req.Kind(), xcache: op.xcache, backendHit: hit})
	if len(w.bodies) < 400 {
		if env, err := api.NewJobEnvelope(req); err == nil {
			if body, err := json.Marshal(env); err == nil {
				w.bodies = append(w.bodies, body)
			}
		}
	}
	if len(w.sizes) < 200 {
		w.sizes = append(w.sizes, op.bytes)
	}
}

// checkPlan verifies one plan answer: a feasible plan holds its
// threshold on every die, an infeasible one reports no step, and every
// answer for a key repeats the first answer's frequency.
func (w *interactive) checkPlan(req *api.PlanRequest, resp *api.PlanResponse) error {
	if err := checkPlanResponse(req, resp); err != nil {
		return err
	}
	key := req.CacheKey()
	w.mu.Lock()
	defer w.mu.Unlock()
	if f, ok := w.freq[key]; ok && f != resp.FrequencyGHz {
		return fmt.Errorf("plan %.8s answered %g GHz, earlier %g GHz", key, resp.FrequencyGHz, f)
	}
	w.freq[key] = resp.FrequencyGHz
	return nil
}

func checkPlanResponse(req *api.PlanRequest, resp *api.PlanResponse) error {
	if !resp.Feasible {
		if resp.FrequencyGHz != 0 {
			return fmt.Errorf("infeasible plan reports %g GHz", resp.FrequencyGHz)
		}
		return nil
	}
	thr := req.ThresholdC
	if thr == 0 {
		thr = 80
	}
	if resp.FrequencyGHz <= 0 || resp.PeakC > thr || len(resp.DiePeaksC) != max(req.Chips, 1) {
		return fmt.Errorf("feasible plan at %g GHz peaks at %g °C over a %g °C limit (%d die peaks)",
			resp.FrequencyGHz, resp.PeakC, thr, len(resp.DiePeaksC))
	}
	for _, p := range resp.DiePeaksC {
		if p > thr {
			return fmt.Errorf("die peak %g °C over the %g °C limit", p, thr)
		}
	}
	return nil
}

func (w *interactive) counts() counts {
	var c counts
	for _, e := range w.engines {
		s := e.Metrics()
		c.Computes += s.CacheMisses
		c.StreamIntervals += s.StreamIntervals
		c.StreamCheckpoints += s.StreamCheckpoints
		addSolver(&c, s)
	}
	c.EdgeHits = w.rt.Metrics().EdgeCacheHits
	return c
}

func addSolver(c *counts, s service.Snapshot) {
	if st := s.Solver["mg"]; st != nil {
		c.SolvesMG += st.Solves
		c.ItersMG += st.Iterations
	}
	if st := s.Solver["jacobi"]; st != nil {
		c.SolvesJacobi += st.Solves
		c.ItersJacobi += st.Iterations
	}
}

func (w *interactive) mark() {
	for b, e := range w.engines {
		w.markEng[b] = e.Metrics()
	}
	w.markRouter = w.rt.Metrics()
	w.markBytes = w.storeBytes()
}

func (w *interactive) storeBytes() int64 {
	var n int64
	for _, st := range w.stores {
		n += st.Stats().Bytes
	}
	return n
}

func (w *interactive) block(ctx context.Context, idx int, tr *tracer, ph *phase) error {
	w.tr.Store(tr)
	// Operations are drawn up front, client by client, so the sequence
	// depends on the seed alone.
	var ops [icClients][]api.Request
	for c := range ops {
		ops[c] = w.keys[c].block()
	}
	var wg sync.WaitGroup
	for c := 0; c < icClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for _, req := range ops[c] {
				_ = w.send(ctx, c, req, tr, ph) // failures are counted in ph
			}
		}(c)
	}
	wg.Wait()
	return ctx.Err()
}

// send issues one operation of any kind and verifies its answer.
func (w *interactive) send(ctx context.Context, c int, req api.Request, tr *tracer, ph *phase) error {
	cl := w.clients[c]
	switch r := req.(type) {
	case *api.PlanRequest:
		_, err := w.plan(ctx, c, r, tr, ph)
		return err
	case *api.SweepRequest:
		return w.do(ctx, c, r, tr, ph, func(ctx context.Context) error {
			resp, err := cl.Sweep(ctx, r)
			if err != nil {
				return err
			}
			cells := r.Cells()
			if len(resp.Cells) != len(cells) {
				return fmt.Errorf("sweep answered %d cells, want %d", len(resp.Cells), len(cells))
			}
			for i, cell := range resp.Cells {
				if cell.Plan == nil {
					return fmt.Errorf("sweep cell %d has no plan", i)
				}
				if err := w.checkPlan(cells[i], cell.Plan); err != nil {
					return fmt.Errorf("sweep cell %d: %w", i, err)
				}
			}
			return nil
		})
	case *api.AuditRequest:
		return w.do(ctx, c, r, tr, ph, func(ctx context.Context) error {
			resp, err := cl.Audit(ctx, r)
			if err != nil {
				return err
			}
			return checkAudit(r, resp)
		})
	}
	return fmt.Errorf("unexpected request kind %q", req.Kind())
}

// checkAudit verifies an audit's shape and its first-failure summary.
func checkAudit(req *api.AuditRequest, resp *api.AuditResponse) error {
	years := req.EndYear - req.StartYear + 1
	if len(resp.Rows) != len(req.Chips)*len(req.Coolants) {
		return fmt.Errorf("audit answered %d rows, want %d", len(resp.Rows), len(req.Chips)*len(req.Coolants))
	}
	for _, row := range resp.Rows {
		if len(row.Years) != years {
			return fmt.Errorf("audit row %s/%s has %d years, want %d", row.Chip, row.Coolant, len(row.Years), years)
		}
		first := 0
		for _, y := range row.Years {
			if (!y.Feasible || y.CHFExceeded) && first == 0 {
				first = y.Year
			}
			if y.Feasible && y.FrequencyGHz <= 0 {
				return fmt.Errorf("audit year %d feasible at %g GHz", y.Year, y.FrequencyGHz)
			}
		}
		if row.FirstFailYear != first {
			return fmt.Errorf("audit row %s/%s first fail %d, years say %d", row.Chip, row.Coolant, row.FirstFailYear, first)
		}
	}
	return nil
}

func (w *interactive) verify(context.Context, *phase) error { return nil }

func (w *interactive) close() {
	for _, srv := range w.servers {
		_ = srv.Close() // closing loopback listeners cannot fail in a way that matters here
	}
	w.serving.Wait()
	if w.rt != nil {
		w.rt.Close()
	}
	for _, e := range w.engines {
		if e != nil {
			e.Close()
		}
	}
	for _, t := range []*http.Transport{w.rtClient, w.cliTrans} {
		if t != nil {
			t.CloseIdleConnections()
		}
	}
}
