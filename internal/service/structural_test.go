package service

import (
	"math"
	"reflect"
	"testing"

	"waterimm/internal/api"
	"waterimm/internal/mc"
)

// TestMonteCarloStructuralFastPath: a montecarlo run's perturbed cells
// must engage the structural cache — value-only reassembly through the
// shared sparsity skeleton — and surface it in the metrics.
func TestMonteCarloStructuralFastPath(t *testing.T) {
	e := New(Config{})
	defer e.Close()
	req := mcServiceRequest(8)
	req.Params["die_k"] = mc.Dist{Kind: "lognormal", Mean: 1, Sigma: 0.1}
	in, err := e.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	got := waitDone(t, e, in.ID)
	if got.State != StateDone {
		t.Fatalf("state %s, error %q", got.State, got.Error)
	}
	m := e.Metrics()
	if m.GeomEntries != 1 {
		t.Errorf("geom_entries = %d, want 1 (every sample shares one topology)", m.GeomEntries)
	}
	if m.AssemblySymbolicHits == 0 {
		t.Errorf("assembly_symbolic_hits = 0; the fast path never engaged (misses %d)",
			m.AssemblySymbolicMisses)
	}
	if m.AssemblySymbolicMisses > 2 {
		t.Errorf("assembly_symbolic_misses = %d, want ~1 seed per topology", m.AssemblySymbolicMisses)
	}
}

// TestStructuralReuseDisabledMatches: Config.DisableStructuralReuse is an A/B
// switch, not a physics change — the same montecarlo request must
// produce the same statistics (within solver tolerance; the fast path
// only changes CG iteration paths) with the fast path on and off, and
// the disabled engine must report dark counters.
func TestStructuralReuseDisabledMatches(t *testing.T) {
	run := func(disable bool) (*api.MonteCarloResponse, Snapshot) {
		e := New(Config{DisableStructuralReuse: disable})
		defer e.Close()
		req := mcServiceRequest(8)
		req.Params["h"] = mc.Dist{Kind: "lognormal", Mean: 1, Sigma: 0.2}
		req.Params["die_k"] = mc.Dist{Kind: "lognormal", Mean: 1, Sigma: 0.1}
		in, err := e.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		got := waitDone(t, e, in.ID)
		if got.State != StateDone {
			t.Fatalf("disable=%v: state %s, error %q", disable, got.State, got.Error)
		}
		return got.Result.(*api.MonteCarloResponse), e.Metrics()
	}
	fast, fm := run(false)
	base, bm := run(true)
	// The fast path changes CG iteration paths (nominal-basis warm
	// starts), never converged results: summaries
	// must agree within solver tolerance, far below any physical
	// significance.
	const tol = 1e-6
	sumClose := func(name string, a, b mc.Summary) {
		for _, d := range []float64{a.Mean - b.Mean, a.Std - b.Std, a.P5 - b.P5,
			a.P50 - b.P50, a.P95 - b.P95, a.Min - b.Min, a.Max - b.Max} {
			if math.Abs(d) > tol {
				t.Errorf("%s diverges across the structural switch by %.2e:\n%+v\n%+v", name, d, a, b)
				return
			}
		}
	}
	sumClose("freq_ghz", fast.FreqGHz, base.FreqGHz)
	sumClose("eval_peak_c", fast.EvalPeakC, base.EvalPeakC)
	if len(fast.Sobol) != len(base.Sobol) {
		t.Fatalf("sobol length diverges: %d vs %d", len(fast.Sobol), len(base.Sobol))
	}
	for i := range fast.Sobol {
		f, g := fast.Sobol[i], base.Sobol[i]
		for _, d := range []float64{f.FreqGHz.S1 - g.FreqGHz.S1, f.FreqGHz.ST - g.FreqGHz.ST,
			f.EvalPeakC.S1 - g.EvalPeakC.S1, f.EvalPeakC.ST - g.EvalPeakC.ST} {
			if math.Abs(d) > tol {
				t.Errorf("sobol[%d] diverges across the structural switch by %.2e", i, d)
			}
		}
	}
	if fm.AssemblySymbolicHits == 0 {
		t.Errorf("enabled engine shows no symbolic hits")
	}
	if bm.AssemblySymbolicHits != 0 || bm.AssemblySymbolicMisses != 0 || bm.GeomEntries != 0 {
		t.Errorf("disabled engine still counted structural work: %+v", bm)
	}
}

// TestMonteCarloRunToRunDeterministic pins the property the
// deterministic nominal reference buys: with the structural fast path
// engaged (shared skeleton, basis warm starts), a montecarlo run's
// statistics are bitwise identical run to run — the reference is
// always built from nominal values, never from whichever perturbed
// cell a scheduler happened to run first.
func TestMonteCarloRunToRunDeterministic(t *testing.T) {
	run := func() *api.MonteCarloResponse {
		e := New(Config{})
		defer e.Close()
		req := mcServiceRequest(8)
		req.Params["die_k"] = mc.Dist{Kind: "lognormal", Mean: 1, Sigma: 0.1}
		in, err := e.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		got := waitDone(t, e, in.ID)
		if got.State != StateDone {
			t.Fatalf("state %s, error %q", got.State, got.Error)
		}
		m := e.Metrics()
		if m.AssemblySymbolicHits == 0 {
			t.Fatal("fast path did not engage; this test would prove nothing")
		}
		return got.Result.(*api.MonteCarloResponse)
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("montecarlo statistics diverge run to run:\n%+v\n%+v", a, b)
	}
}
